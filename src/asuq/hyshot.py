"""HyShot II input-characterization arithmetic.

Converts the quantities measured in the HEG shock tunnel (stagnation
conditions, fuel plenum pressure) and the derived turbulence/transition
estimates into the physical boundary conditions a flow solver consumes.
All internal computation is SI; bar/MPa/MJ conversions happen at the
parsing boundary.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, DegeneracyError
from .param_space import ParameterSpace

__all__ = [
    "ShotRecord",
    "FlowRatios",
    "TransitionSpec",
    "InflowCondition",
    "DLR_RATIOS",
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
    "equivalence_ratio",
    "phi_regime",
    "build_inflow",
]

C_MU = 0.09  # two-equation closure constant relating k, omega, and length scale

# Fuel/air equivalence ratios at or beyond this point leave the fully
# supersonic as-designed regime for a combustor shock-train state.
PHI_REGIME_BOUNDARY = 0.39


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
        if min(self.P0_bar, self.T0_K, self.H0_MJkg) <= 0:
            raise DataError(f"shot {self.id}: P0, T0, H0 must be positive")


@dataclass(frozen=True)
class FlowRatios:
    """Fixed stagnation-to-static conversion ratios for the tunnel nozzle."""

    p_ratio: float      # P / P0
    t_ratio: float      # T / T0
    u_coeff: float      # U_mag / sqrt(H0), (m/s) / sqrt(J/kg)

    def __post_init__(self):
        if min(self.p_ratio, self.t_ratio, self.u_coeff) <= 0:
            raise DataError("flow ratios must be positive")


# Conversion ratios provided by DLR for the HEG nozzle flow.
DLR_RATIOS = FlowRatios(p_ratio=1.16e-4, t_ratio=0.0978, u_coeff=1.332)


@dataclass(frozen=True)
class TransitionSpec:
    """Transition-location nominal plus the criterion perturbation level."""

    x_t0: float
    varphi: float = 0.2

    def __post_init__(self):
        if self.x_t0 <= 0:
            raise DataError(f"nominal transition location must be > 0, got {self.x_t0}")
        if not (0.0 <= self.varphi < 0.5):
            raise DataError(f"varphi must lie in [0, 0.5), got {self.varphi}")


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
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    required = {"id", "P0_bar", "T0_K", "H0_MJkg", "PH2_bar", "phi", "excluded"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise DataError(f"{where}: header must contain {sorted(required)}")
    shots = []
    for lineno, row in enumerate(reader, start=2):
        try:
            shots.append(ShotRecord(
                id=int(row["id"]),
                P0_bar=float(row["P0_bar"]),
                T0_K=float(row["T0_K"]),
                H0_MJkg=float(row["H0_MJkg"]),
                PH2_bar=float(row["PH2_bar"]) if row["PH2_bar"] else None,
                phi=float(row["phi"]) if row["phi"] else None,
                excluded=bool(int(row["excluded"])),
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

def stagnation_to_static(P0: float, T0: float, H0: float, alpha_deg: float,
                         ratios: FlowRatios = DLR_RATIOS
                         ) -> tuple[float, float, float, float]:
    """Convert stagnation conditions (SI) to static inflow (P, T, Ux, Uy).

    Positive angle of attack pitches the flow toward the vehicle, which
    makes the vertical component negative.
    """
    if min(P0, T0, H0) <= 0:
        raise DataError("stagnation quantities must be positive")
    P = ratios.p_ratio * P0
    T = ratios.t_ratio * T0
    U_mag = ratios.u_coeff * math.sqrt(H0)
    a = math.radians(alpha_deg)
    return P, T, U_mag * math.cos(a), -U_mag * math.sin(a)


def turbulence_inflow(U_mag: float, I: float, L: float) -> tuple[float, float]:
    """Turbulence kinetic energy and specific dissipation from (I, L).

    k = 3/2 (U_mag I)^2 and omega = sqrt(k) / (C_mu^(1/4) L).
    """
    if U_mag <= 0 or L <= 0:
        raise DataError("velocity magnitude and length scale must be positive")
    if I < 0:
        raise DataError(f"turbulence intensity must be >= 0, got {I}")
    if I == 0:
        warnings.warn("zero turbulence intensity: laminar inflow (k = omega = 0)",
                      stacklevel=2)
        return 0.0, 0.0
    k = 1.5 * (U_mag * I) ** 2
    omega = math.sqrt(k) / (C_MU ** 0.25 * L)
    return k, omega


# -- nozzle relations -----------------------------------------------------------

def area_mach_ratio(M: float, gamma: float = 1.4) -> float:
    """Area ratio A/A* of steady 1D variable-area flow at Mach M."""
    if M <= 0:
        raise DataError(f"Mach number must be positive, got {M}")
    if gamma <= 1:
        raise DataError(f"gamma must exceed 1, got {gamma}")
    core = (2.0 / (gamma + 1.0)) * (1.0 + 0.5 * (gamma - 1.0) * M * M)
    return math.sqrt(core ** ((gamma + 1.0) / (gamma - 1.0)) / (M * M))


# Upper end of the Mach bracket searched by mach_from_area_ratio.
_MACH_HI = 50.0


def mach_from_area_ratio(ratio: float, gamma: float = 1.4) -> float:
    """Supersonic Mach number matching an area ratio (bisection on [1, 50])."""
    if ratio < 1:
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


def eddy_growth_ratio(ratios: FlowRatios = DLR_RATIOS) -> float:
    """Isotropic eddy growth through the nozzle expansion.

    Eddy volume grows as the inverse of density, so the length scale grows
    as ((P0/P) * (T/T0))^(1/3).
    """
    return ((1.0 / ratios.p_ratio) * ratios.t_ratio) ** (1.0 / 3.0)


def nominal_dissipation_length(test_section_diameter: float = 0.610,
                               mach: float = 7.4, gamma: float = 1.4,
                               ratios: FlowRatios = DLR_RATIOS) -> float:
    """Nominal turbulence dissipation length at the test section [m].

    The largest eddies at the nozzle throat are about half the throat
    diameter; they then grow by the expansion factor. The throat diameter
    follows from the test-section diameter and the area ratio at the
    nominal Mach number.
    """
    throat = test_section_diameter / math.sqrt(area_mach_ratio(mach, gamma))
    return 0.5 * throat * eddy_growth_ratio(ratios)


# -- transition and fueling ------------------------------------------------------

def transition_range(spec: TransitionSpec) -> tuple[float, float]:
    """Transition-location range from perturbing the onset criterion.

    Perturbing the criterion Re_theta/M_e = 200 by (1 +/- varphi), with
    the momentum thickness growing as sqrt(x), moves the location by
    (1 +/- 2 varphi).
    """
    return spec.x_t0 * (1.0 - 2.0 * spec.varphi), spec.x_t0 * (1.0 + 2.0 * spec.varphi)


def equivalence_ratio(mdot_H2: float, mdot_O2: float) -> float:
    """Fuel/air equivalence ratio phi = 8 * mdot_H2 / mdot_O2."""
    if mdot_O2 <= 0:
        raise DataError(f"oxidizer mass flow must be positive, got {mdot_O2}")
    if mdot_H2 < 0:
        raise DataError(f"fuel mass flow must be >= 0, got {mdot_H2}")
    return 8.0 * mdot_H2 / mdot_O2


def phi_regime(phi: float) -> str:
    """Classify an equivalence ratio against the shock-train boundary."""
    return "as-designed" if phi < PHI_REGIME_BOUNDARY else "regime-boundary"


# -- assembling solver boundary conditions ----------------------------------------

# Bundled-space parameter names; build_inflow requires exactly these.
HYSHOT_PARAM_NAMES = (
    "Stagnation Pressure",
    "Stagnation Enthalpy",
    "Angle of Attack",
    "Turbulence Intensity",
    "Turbulence Length Scale",
    "Ramp Transition Location",
    "Cowl Transition Location",
)

@functools.cache
def default_t0_fit() -> tuple[float, float]:
    """T0-H0 coefficients fitted to the bundled non-excluded shots."""
    return fit_T0_H0(load_shots())


def build_inflow(x, space: ParameterSpace,
                 ratios: FlowRatios = DLR_RATIOS,
                 t0_fit: tuple[float, float] | None = None) -> InflowCondition:
    """Turn a normalized point of the seven-parameter space into inflow BCs.

    Denormalizes, converts table units to SI (MPa, MJ/kg), derives the
    stagnation temperature from the shot regression, and applies the
    static-condition and turbulence conversions. Transition locations pass
    through unchanged.
    """
    if tuple(space.names) != HYSHOT_PARAM_NAMES:
        raise DataError(
            "parameter-space names do not match the seven-parameter inflow "
            f"schema; expected {list(HYSHOT_PARAM_NAMES)}, got {list(space.names)}"
        )
    p = space.denormalize(np.asarray(x, dtype=float))
    P0_MPa, H0_MJ, alpha, I, L, xt_ramp, xt_cowl = (float(v) for v in p)

    P0 = P0_MPa * 1e6
    H0 = H0_MJ * 1e6
    intercept, slope = t0_fit if t0_fit is not None else default_t0_fit()
    T0 = intercept + slope * H0

    P, T, Ux, Uy = stagnation_to_static(P0, T0, H0, alpha, ratios)
    k, omega = turbulence_inflow(math.hypot(Ux, Uy), I, L)
    return InflowCondition(P=P, T=T, Ux=Ux, Uy=Uy, alpha_deg=alpha,
                           k=k, omega=omega,
                           x_t_ramp=xt_ramp, x_t_cowl=xt_cowl)
