"""Low-temperature oxygen plasma: schema, synthetic data, and CSV loading.

The surrogate maps 3 discharge settings (pressure, current, tube radius) to
17 steady-state outputs (12 species densities, two gas temperatures, the
reduced electric field, the electron drift velocity and temperature). The
synthetic generator below replaces the external chemistry simulation: it
draws inputs uniformly over the operating box and builds smooth output maps
that satisfy the pressure, current and quasi-neutrality laws exactly, so
constraint residuals on generated data are zero to rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from physproj.errors import ValidationError

K_BOLTZMANN = 1.380649e-23  # J/K
ELEMENTARY_CHARGE = 1.602176634e-19  # C
TORR_TO_PA = 101325.0 / 760.0

INPUT_NAMES = ("P", "I", "R")  # Pa, A, m

OUTPUT_NAMES = (
    "ne",  # electrons, m^-3
    "O2_X",  # ground-state molecules
    "O_3P",  # ground-state atoms
    "O2_a",  # O2(a 1Delta_g)
    "O2_b",  # O2(b 1Sigma_g+)
    "O2_Hz",  # O2(Herzberg states)
    "O_1D",  # excited atoms
    "O3",  # ozone
    "O3_star",  # vibrationally excited ozone
    "O_minus",  # negative ions
    "O2_plus",  # positive molecular ions
    "O_plus",  # positive atomic ions
    "Tg",  # K
    "Tnw",  # K
    "EN",  # reduced electric field, V m^2
    "vd",  # electron drift velocity, m/s
    "Te",  # electron temperature, eV
)

# Operating box: pressure in Torr, current in A, radius in m.
P_TORR_RANGE = (0.1, 10.0)
I_RANGE = (5e-3, 50e-3)
R_RANGE = (4e-3, 20e-3)


@dataclass(frozen=True)
class LtpSchema:
    """Vector layouts and the species index sets the physical laws refer to."""

    input_names: tuple[str, ...] = INPUT_NAMES
    output_names: tuple[str, ...] = OUTPUT_NAMES
    electron: str = "ne"
    positive_ions: tuple[str, ...] = ("O2_plus", "O_plus")
    negative_ions: tuple[str, ...] = ("O_minus",)

    def __post_init__(self):
        charged = set(self.positive_ions) | set(self.negative_ions)
        if len(charged) != len(self.positive_ions) + len(self.negative_ions):
            raise ValidationError("positive and negative ion sets must be disjoint")
        for name in charged | {self.electron}:
            if name not in self.output_names:
                raise ValidationError(f"unknown output '{name}' in schema index sets")

    def idx(self, name: str) -> int:
        return self.output_names.index(name)

    @property
    def heavy_species(self) -> tuple[str, ...]:
        """All species except electrons: neutrals plus ions (11 names)."""
        species = self.output_names[:12]
        return tuple(s for s in species if s != self.electron)

    def heavy_indices(self) -> np.ndarray:
        return np.array([self.idx(s) for s in self.heavy_species])

    def positive_indices(self) -> np.ndarray:
        return np.array([self.idx(s) for s in self.positive_ions])

    def negative_indices(self) -> np.ndarray:
        return np.array([self.idx(s) for s in self.negative_ions])


def synthetic_outputs(inputs: np.ndarray) -> np.ndarray:
    """Fixed smooth pseudo-physical output maps for (P, I, R) rows in SI units.

    Gas heating grows with current, excited species and the reduced field
    fall off with pressure, and the strongly skewed quantities (O_1D,
    O_plus, E/N, Te) span several decades. The O2_X density closes the
    pressure balance, the drift velocity closes the current law, and
    O2_plus closes quasi-neutrality, so all three laws hold exactly.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    pressure, current, radius = x[:, 0], x[:, 1], x[:, 2]
    p_torr = pressure / TORR_TO_PA

    # unitless coordinates in [0, 1]
    un = (np.log10(p_torr) + 1.0) / 2.0
    cn = (current - I_RANGE[0]) / (I_RANGE[1] - I_RANGE[0])
    rn = (radius - R_RANGE[0]) / (R_RANGE[1] - R_RANGE[0])

    tg = 300.0 + 260.0 * cn + 120.0 * cn * un + 40.0 * rn
    tnw = 300.0 + 0.65 * (tg - 300.0)
    te = 0.7 + 3.4 * 10.0 ** (-1.9 * un) + 0.3 * cn
    e_over_n = 10.0 ** (-18.9 - 1.9 * un + 0.25 * cn - 0.1 * rn)

    n_total = pressure / (K_BOLTZMANN * tg)

    # minor heavy species as smooth fractions of the total density
    n_o3p = n_total * 0.10 * (0.25 + 0.75 * cn) * (1.0 - 0.55 * un)
    n_o2a = n_total * 0.05 * (0.3 + 0.7 * cn)
    n_o2b = n_total * 0.004 * (0.4 + 0.6 * cn) * (1.0 - 0.3 * un)
    n_o2hz = n_total * 3e-4 * (0.3 + 0.7 * cn)
    n_o3 = n_total * 1.2e-4 * (0.15 + 0.85 * un) * (0.4 + 0.6 * cn)
    n_o3s = 0.04 * n_o3 * (0.5 + 0.5 * cn)
    n_o1d = 10.0 ** (16.0 + 2.0 * cn - 2.9 * un)
    n_op = 10.0 ** (13.0 + 1.5 * cn - 3.3 * un)

    # electrons and drift velocity close the discharge-current law
    conduction = current / (ELEMENTARY_CHARGE * np.pi * radius**2)  # = ne * vd
    ne = np.sqrt(conduction) * 2.0e5 * (1.0 + 0.4 * cn - 0.3 * un)
    vd = conduction / ne

    n_om = ne * (0.12 + 0.5 * un + 0.15 * cn)
    n_o2p = ne + n_om - n_op  # quasi-neutrality
    if np.any(n_o2p <= 0.0):
        raise ValidationError("synthetic map produced a non-positive O2+ density")

    minor_sum = n_o3p + n_o2a + n_o2b + n_o2hz + n_o3 + n_o3s + n_o1d + n_om + n_o2p + n_op
    n_o2x = n_total - minor_sum  # closes the pressure balance
    if np.any(n_o2x <= 0.0):
        raise ValidationError("synthetic map produced a non-positive O2(X) density")

    return np.stack(
        [ne, n_o2x, n_o3p, n_o2a, n_o2b, n_o2hz, n_o1d, n_o3, n_o3s, n_om, n_o2p, n_op, tg, tnw, e_over_n, vd, te],
        axis=-1,
    )


def sample_inputs(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform (P, I, R) rows over the operating box, in SI units."""
    p_torr = rng.uniform(*P_TORR_RANGE, n)
    current = rng.uniform(*I_RANGE, n)
    radius = rng.uniform(*R_RANGE, n)
    return np.stack([p_torr * TORR_TO_PA, current, radius], axis=-1)


def generate_synthetic_ltp(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample (inputs, outputs) with all three physical laws satisfied exactly."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    inputs = sample_inputs(n, np.random.default_rng(seed))
    return inputs, synthetic_outputs(inputs)


def write_ltp_csv(path, inputs: np.ndarray, outputs: np.ndarray) -> None:
    """Dataset CSV in schema order, SI units, 17-significant-digit rendering."""
    header = ",".join(INPUT_NAMES + OUTPUT_NAMES)
    rows = np.hstack([np.atleast_2d(inputs), np.atleast_2d(outputs)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def load_ltp_csv(path, column_map: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Load a dataset CSV, optionally remapping third-party column layouts.

    ``column_map`` translates external files: for each schema name it may
    give {"column": source-column-name, "scale": unit-conversion-factor}.
    Missing map entries fall back to the schema name with scale 1, so files
    written by :func:`write_ltp_csv` load with no map at all.
    """
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"malformed dataset csv {path}: {exc}") from exc
    if not len(data):
        raise ValidationError(f"dataset csv {path} has no data rows")
    if data.shape[1] < len(header):
        raise ValidationError(f"dataset csv {path} needs rows of {len(header)} values under its header, got {data.shape}")
    column_map = {} if column_map is None else column_map
    if not isinstance(column_map, dict) or not all(
        isinstance(e, dict) and isinstance(e.get("column", ""), str) and type(e.get("scale", 1.0)) in (int, float)
        for e in column_map.values()
    ):
        raise ValidationError('column map must be an object of {"column": name, "scale": number} objects')
    columns = {name: i for i, name in enumerate(header)}

    def pull(name: str) -> np.ndarray:
        entry = column_map.get(name, {})
        source = entry.get("column", name)
        scale = float(entry.get("scale", 1.0))
        if source not in columns:
            raise ValidationError(f"column '{source}' (for '{name}') missing from {path}")
        return data[:, columns[source]] * scale

    inputs = np.stack([pull(n) for n in INPUT_NAMES], axis=-1)
    outputs = np.stack([pull(n) for n in OUTPUT_NAMES], axis=-1)
    return inputs, outputs
