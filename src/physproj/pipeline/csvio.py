"""CSV and manifest writing with reproducible formatting.

Experiment CSVs render floats as the shortest decimal that round-trips the
64-bit value (Python repr), with LF endings, so identical runs produce
byte-identical files. Columns whose name ends in ``_seconds`` hold wall
clock measurements and are the only ones allowed to differ between reruns.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

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


def write_spring_dataset_csv(path, inputs: np.ndarray, targets: np.ndarray) -> None:
    """Transition samples in physical units, 17 significant digits."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    header = "x1,v1,x2,v2,x1_next,v1_next,x2_next,v2_next"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in np.hstack([inputs, targets]):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def load_spring_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"malformed dataset csv {path}: {exc}") from exc
    if not len(data):
        raise ValidationError(f"dataset csv {path} has no data rows")
    if data.shape[1] != 8:
        raise ValidationError(f"dataset csv {path} has {data.shape[1]} columns, expected 8")
    return data[:, :4], data[:, 4:]


def write_trajectory_csv(path, states: np.ndarray, energies: np.ndarray, delta_t: float) -> None:
    rows = [
        (step, step * delta_t, s[0], s[1], s[2], s[3], e)
        for step, (s, e) in enumerate(zip(states, energies))
    ]
    write_csv(path, ["step", "t", "x1", "v1", "x2", "v2", "energy"], rows)
