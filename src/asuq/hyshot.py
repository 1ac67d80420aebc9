"""HyShot II input-characterization arithmetic.

Converts the stagnation conditions measured in the HEG shock tunnel and
the derived turbulence/transition estimates into the physical boundary
conditions a flow solver consumes; fueled shots carry ``PH2_bar`` and
``phi`` as recorded, with no conversion. All internal computation is SI;
bar/MPa/MJ conversions happen at the parsing boundary.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, DegeneracyError
from .param_space import ParameterSpace, hyshot_space

__all__ = [
    "ShotRecord",
    "InflowCondition",
    "C_MU",
    "load_shots",
    "fit_T0_H0",
    "stagnation_to_static",
    "turbulence_inflow",
    "area_mach_ratio",
    "mach_from_area_ratio",
    "eddy_growth_ratio",
    "nominal_dissipation_length",
    "transition_range",
    "build_inflow",
]

C_MU = 0.09  # two-equation closure constant relating k, omega, and length scale

# Stagnation-to-static conversion ratios provided by DLR for the HEG nozzle flow.
P_RATIO = 1.16e-4  # P / P0
T_RATIO = 0.0978   # T / T0
U_COEFF = 1.332    # U_mag / sqrt(H0), (m/s) / sqrt(J/kg)

# The HEG nozzle: test-section diameter [m], nominal Mach number, and the
# ratio of specific heats of its air.
TEST_SECTION_DIAMETER = 0.610
NOMINAL_MACH = 7.4
GAMMA = 1.4


def _finite_positive(*values: float) -> bool:
    """Whether every value is finite and > 0; NaN fails every comparison."""
    return all(0 < v < math.inf for v in values)


@dataclass(frozen=True)
class ShotRecord:
    """One HEG ground-test run; fueled shots carry the plenum pressure."""

    id: int
    P0_bar: float
    T0_K: float
    H0_MJkg: float
    PH2_bar: float | None = None
    phi: float | None = None
    excluded: bool = False

    def __post_init__(self):
        if not _finite_positive(self.P0_bar, self.T0_K, self.H0_MJkg):
            raise DataError(f"shot {self.id}: P0, T0, H0 must be finite and positive")
        if not all(v is None or 0 <= v < math.inf for v in (self.PH2_bar, self.phi)):
            raise DataError(f"shot {self.id}: PH2 and phi must be finite and >= 0")


@dataclass(frozen=True)
class InflowCondition:
    """Solver-facing boundary conditions, SI units throughout."""

    P: float          # Pa
    T: float          # K
    Ux: float         # m/s
    Uy: float         # m/s
    alpha_deg: float
    k: float          # m^2/s^2
    omega: float      # 1/s
    x_t_ramp: float   # m
    x_t_cowl: float   # m

    @property
    def U_mag(self) -> float:
        return math.hypot(self.Ux, self.Uy)

    def to_params(self) -> dict[str, float]:
        """The "params" object of the external-evaluator protocol."""
        return {
            "P_Pa": self.P,
            "T_K": self.T,
            "Ux_ms": self.Ux,
            "Uy_ms": self.Uy,
            "k_m2s2": self.k,
            "omega_1s": self.omega,
            "xt_ramp_m": self.x_t_ramp,
            "xt_cowl_m": self.x_t_cowl,
        }


# -- shot data ----------------------------------------------------------------

def load_shots(path=None) -> list[ShotRecord]:
    """Read the ground-test shot table (bundled HEG data by default)."""
    if path is None:
        text = resources.files("asuq.data").joinpath("heg_shots.csv").read_text()
        where = "bundled heg_shots.csv"
    else:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise DataError(f"cannot read shots file {path}: {exc}") from exc
        where = str(path)
    # (line in the file, text) of each line that is neither blank nor a
    # comment, so a bad row is named by its line in the file.
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1)
             if ln.strip() and not ln.lstrip().startswith("#")]
    reader = csv.DictReader(ln for _, ln in lines)
    required = {"id", "P0_bar", "T0_K", "H0_MJkg", "PH2_bar", "phi", "excluded"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise DataError(f"{where}: header must contain {sorted(required)}")
    shots = []
    for row in reader:
        lineno = lines[reader.line_num - 1][0]
        try:
            excluded = int(row["excluded"])
            if excluded not in (0, 1):
                raise ValueError(f"excluded must be 0 or 1, got {excluded}")
            shots.append(ShotRecord(
                id=int(row["id"]),
                P0_bar=float(row["P0_bar"]),
                T0_K=float(row["T0_K"]),
                H0_MJkg=float(row["H0_MJkg"]),
                PH2_bar=float(row["PH2_bar"]) if row["PH2_bar"] else None,
                phi=float(row["phi"]) if row["phi"] else None,
                excluded=bool(excluded),
            ))
        except (TypeError, ValueError) as exc:
            raise DataError(f"{where}: row {lineno}: {exc}") from exc
    if not shots:
        raise DataError(f"{where}: no shot rows")
    return shots


def fit_T0_H0(shots: Sequence[ShotRecord], include_excluded: bool = False
              ) -> tuple[float, float]:
    """Regress stagnation temperature on enthalpy: T0 = a + b * H0.

    Returns (intercept [K], slope [K per J/kg]). Shots flagged excluded
    are omitted unless requested; the surviving points should sit on a
    straight line consistent with an approximately constant c_p.
    """
    usable = [s for s in shots if include_excluded or not s.excluded]
    if len(usable) < 2:
        raise DegeneracyError(
            f"need at least 2 usable shots for the regression, have {len(usable)}"
        )
    H = np.array([s.H0_MJkg * 1e6 for s in usable])
    T = np.array([s.T0_K for s in usable])
    if np.ptp(H) == 0:
        raise DegeneracyError("all shots share one enthalpy; slope is undetermined")
    A = np.column_stack([np.ones_like(H), H])
    (a, b), _, rank, _ = np.linalg.lstsq(A, T, rcond=None)
    if rank < 2:
        raise DegeneracyError("rank-deficient shot regression")
    return float(a), float(b)


# -- mean-flow and turbulence conversions --------------------------------------

def stagnation_to_static(P0: float, T0: float, H0: float, alpha_deg: float
                         ) -> tuple[float, float, float, float]:
    """Convert stagnation conditions (SI) to static inflow (P, T, Ux, Uy).

    Positive angle of attack pitches the flow toward the vehicle, which
    makes the vertical component negative.
    """
    if not _finite_positive(P0, T0, H0):
        raise DataError("stagnation quantities must be finite and positive")
    if not math.isfinite(alpha_deg):
        raise DataError(f"angle of attack must be finite, got {alpha_deg}")
    P = P_RATIO * P0
    T = T_RATIO * T0
    U_mag = U_COEFF * math.sqrt(H0)
    a = math.radians(alpha_deg)
    return P, T, U_mag * math.cos(a), -U_mag * math.sin(a)


def turbulence_inflow(U_mag: float, I: float, L: float) -> tuple[float, float]:
    """Turbulence kinetic energy and specific dissipation from (I, L).

    k = 3/2 (U_mag I)^2 and omega = sqrt(k) / (C_mu^(1/4) L).
    """
    if not _finite_positive(U_mag, L):
        raise DataError("velocity magnitude and length scale must be finite "
                        "and positive")
    if not 0 <= I < math.inf:
        raise DataError(f"turbulence intensity must be finite and >= 0, got {I}")
    if I == 0:
        warnings.warn("zero turbulence intensity: laminar inflow (k = omega = 0)",
                      stacklevel=2)
        return 0.0, 0.0
    k = 1.5 * (U_mag * I) ** 2
    omega = math.sqrt(k) / (C_MU ** 0.25 * L)
    return k, omega


# -- nozzle relations -----------------------------------------------------------

def area_mach_ratio(M: float, gamma: float = GAMMA) -> float:
    """Area ratio A/A* of steady 1D variable-area flow at Mach M."""
    if not _finite_positive(M):
        raise DataError(f"Mach number must be finite and positive, got {M}")
    if not 1 < gamma < math.inf:
        raise DataError(f"gamma must be finite and exceed 1, got {gamma}")
    # sqrt(core**e) / M with core = 1 + excess, as exp(e/2 * log1p(excess)) / M:
    # exactly 1 at M = 1, and core**e, which can overflow where the ratio does
    # not, is never formed. A ratio past the float range is inf.
    excess = (gamma - 1.0) * (M * M - 1.0) / (gamma + 1.0)
    try:
        return math.exp(0.5 * (gamma + 1.0) / (gamma - 1.0) * math.log1p(excess)) / M
    except OverflowError:
        return math.inf


# Upper end of the Mach bracket searched by mach_from_area_ratio.
_MACH_HI = 50.0


def mach_from_area_ratio(ratio: float, gamma: float = GAMMA) -> float:
    """Supersonic Mach number matching an area ratio (bisection on [1, 50])."""
    if not ratio >= 1:  # NaN fails here, inf the reach check below
        raise DataError(f"area ratio must be >= 1, got {ratio}")
    if area_mach_ratio(_MACH_HI, gamma) < ratio:
        raise DataError(f"area ratio {ratio} not reachable below Mach {_MACH_HI}")
    lo, hi = 1.0, _MACH_HI
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # until adjacent floats
        if area_mach_ratio(mid, gamma) < ratio:
            lo = mid
        else:
            hi = mid
    return mid


def eddy_growth_ratio() -> float:
    """Isotropic eddy growth through the nozzle expansion.

    Eddy volume grows as the inverse of density, so the length scale grows
    as ((P0/P) * (T/T0))^(1/3).
    """
    return ((1.0 / P_RATIO) * T_RATIO) ** (1.0 / 3.0)


def nominal_dissipation_length() -> float:
    """Nominal turbulence dissipation length at the test section [m].

    The largest eddies at the nozzle throat are about half the throat
    diameter; they then grow by the expansion factor. The throat diameter
    follows from the test-section diameter and the area ratio at the
    nominal Mach number.
    """
    throat = TEST_SECTION_DIAMETER / math.sqrt(area_mach_ratio(NOMINAL_MACH))
    return 0.5 * throat * eddy_growth_ratio()


# -- transition -----------------------------------------------------------------

def transition_range(x_t0: float, varphi: float = 0.2) -> tuple[float, float]:
    """Transition-location range from perturbing the onset criterion.

    Perturbing the criterion Re_theta/M_e = 200 by (1 +/- varphi), with
    the momentum thickness growing as sqrt(x), moves the nominal location
    x_t0 by (1 +/- 2 varphi).
    """
    if not _finite_positive(x_t0):
        raise DataError(f"nominal transition location must be finite and > 0, "
                        f"got {x_t0}")
    if not (0.0 <= varphi < 0.5):
        raise DataError(f"varphi must lie in [0, 0.5), got {varphi}")
    return x_t0 * (1.0 - 2.0 * varphi), x_t0 * (1.0 + 2.0 * varphi)


# -- assembling solver boundary conditions ----------------------------------------

@functools.cache
def default_t0_fit() -> tuple[float, float]:
    """T0-H0 coefficients fitted to the bundled non-excluded shots."""
    return fit_T0_H0(load_shots())


def build_inflow(x, space: ParameterSpace) -> InflowCondition:
    """Turn a normalized point of the seven-parameter space into inflow BCs.

    Denormalizes, converts table units to SI (MPa, MJ/kg), derives the
    stagnation temperature from the shot regression, and applies the
    static-condition and turbulence conversions. Transition locations pass
    through unchanged.
    """
    expected = hyshot_space().names
    if space.names != expected:
        raise DataError(
            "parameter-space names do not match the seven-parameter inflow "
            f"schema; expected {list(expected)}, got {list(space.names)}"
        )
    x = np.asarray(x, dtype=float)
    p = space.denormalize(x)
    for name, xi in zip(space.names, x.tolist()):
        if not -1 <= xi <= 1:  # NaN fails too
            raise DataError(f"normalized coordinate {name} = {xi} must lie "
                            f"in [-1, 1]")
    P0_MPa, H0_MJ, alpha, I, L, xt_ramp, xt_cowl = (float(v) for v in p)

    P0 = P0_MPa * 1e6
    H0 = H0_MJ * 1e6
    intercept, slope = default_t0_fit()
    T0 = intercept + slope * H0

    P, T, Ux, Uy = stagnation_to_static(P0, T0, H0, alpha)
    k, omega = turbulence_inflow(math.hypot(Ux, Uy), I, L)
    return InflowCondition(P=P, T=T, Ux=Ux, Uy=Uy, alpha_deg=alpha,
                           k=k, omega=omega,
                           x_t_ramp=xt_ramp, x_t_cowl=xt_cowl)
