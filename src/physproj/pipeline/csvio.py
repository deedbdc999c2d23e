"""CSV and manifest writing with reproducible formatting, and the dataset CSV format.

Every CSV goes through ``write_csv``, which renders floats with ``fmt``: the
shortest decimal that round-trips the 64-bit value (Python repr), with LF
endings, so identical runs produce byte-identical files. Columns whose name
ends in ``_seconds`` hold wall clock measurements and are the only ones
allowed to differ between reruns.

Dataset CSVs, spring-mass transitions and plasma samples, hold one header
line of column names and one row per sample, inputs first; their loaders
raise ValidationError on an unreadable file, one without data rows, or one
with a cell that is not a finite number.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from physproj.constraints.ltp import INPUT_NAMES, OUTPUT_NAMES
from physproj.errors import ValidationError


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_manifest(out_dir, config_items: dict) -> None:
    """Echo the resolved configuration, one sorted key=value per line."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(config_items):
            fh.write(f"{key}={config_items[key]}\n")


def _read_dataset_csv(path) -> tuple[list[str], np.ndarray]:
    """(header names, data rows) of a dataset CSV: at least one data row, every cell finite."""
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"malformed dataset csv {path}: {exc}") from exc
    if not len(data):
        raise ValidationError(f"dataset csv {path} has no data rows")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        name = header[col] if col < len(header) else f"#{col + 1}"
        raise ValidationError(f"dataset csv {path} holds {data[row, col]} in column '{name}' (data row {row + 1})")
    return header, data


def write_spring_dataset_csv(path, inputs: np.ndarray, targets: np.ndarray) -> None:
    """Transition samples in physical units: state, then the state one step later."""
    header = ["x1", "v1", "x2", "v2", "x1_next", "v1_next", "x2_next", "v2_next"]
    write_csv(path, header, np.hstack([np.atleast_2d(inputs), np.atleast_2d(targets)]))


def load_spring_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    data = _read_dataset_csv(path)[1]
    if data.shape[1] != 8:
        raise ValidationError(f"dataset csv {path} has {data.shape[1]} columns, expected 8")
    return data[:, :4], data[:, 4:]


def write_ltp_csv(path, inputs: np.ndarray, outputs: np.ndarray) -> None:
    """Plasma samples in schema order and SI units."""
    write_csv(path, INPUT_NAMES + OUTPUT_NAMES, np.hstack([np.atleast_2d(inputs), np.atleast_2d(outputs)]))


def load_ltp_csv(path, column_map: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Load a plasma dataset CSV, optionally remapping third-party column layouts.

    ``column_map`` translates external files: for each schema name (and no
    other key) it may give {"column": source-column-name, "scale": unit-conversion-factor}.
    Missing map entries fall back to the schema name with scale 1, so files
    written by :func:`write_ltp_csv` load with no map at all.
    """
    header, data = _read_dataset_csv(path)
    if data.shape[1] < len(header):
        raise ValidationError(f"dataset csv {path} needs rows of {len(header)} values under its header, got {data.shape}")
    column_map = {} if column_map is None else column_map
    if not isinstance(column_map, dict) or not all(
        isinstance(e, dict) and isinstance(e.get("column", ""), str) and type(e.get("scale", 1.0)) in (int, float)
        for e in column_map.values()
    ):
        raise ValidationError('column map must be an object of {"column": name, "scale": number} objects')
    unknown = [key for key in column_map if key not in INPUT_NAMES + OUTPUT_NAMES]
    if unknown:  # a misspelt name would silently keep the default column and scale
        raise ValidationError(f"column map key(s) {unknown} for {path} are not schema names {INPUT_NAMES + OUTPUT_NAMES}")
    columns = {name: i for i, name in enumerate(header)}

    def pull(name: str) -> np.ndarray:
        entry = column_map.get(name, {})
        source = entry.get("column", name)
        scale = float(entry.get("scale", 1.0))
        if source not in columns:
            raise ValidationError(f"column '{source}' (for '{name}') missing from {path}")
        if not np.isfinite(scale):  # JSON takes NaN and Infinity
            raise ValidationError(f"column map scale {scale} for column '{source}' of {path} is not finite")
        return data[:, columns[source]] * scale

    inputs = np.stack([pull(n) for n in INPUT_NAMES], axis=-1)
    outputs = np.stack([pull(n) for n in OUTPUT_NAMES], axis=-1)
    return inputs, outputs


def write_trajectory_csv(path, states: np.ndarray, energies: np.ndarray, delta_t: float) -> None:
    rows = [
        (step, step * delta_t, s[0], s[1], s[2], s[3], e)
        for step, (s, e) in enumerate(zip(states, energies))
    ]
    write_csv(path, ["step", "t", "x1", "v1", "x2", "v2", "energy"], rows)
