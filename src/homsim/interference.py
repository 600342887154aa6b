"""Hong-Ou-Mandel visibility: time-resolved, windowed, post-selected, and
closed forms."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .bath import BathFamily, BathSpec, QuadratureError
from .dynamics import SourceConfig, coherence_factor, second_click_density

__all__ = [
    "CurveKind",
    "VisibilityCurve",
    "postselected_visibility",
    "sample_curve",
    "superohmic_asymptote",
    "visibility",
    "visibility_nonidentical",
    "windowed_visibility",
    "windowed_visibility_markovian",
    "windowed_visibility_ohmic_lowT",
]

_WINDOW_EPSABS = 1e-10
_WINDOW_EPSREL = 1e-11
# The ratio-of-integrals and weighted-average routes must agree to this.
_FORM_AGREEMENT = 1e-8


class CurveKind(str, enum.Enum):
    TIME_RESOLVED = "time_resolved"
    WINDOWED = "windowed"


@dataclass(frozen=True)
class VisibilityCurve:
    grid: np.ndarray
    values: np.ndarray
    kind: CurveKind

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be matching 1-d arrays")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(values < 0) or np.any(values > 1 + 1e-12):
            raise ValueError("visibility values must lie in [0, 1]")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def visibility(src: SourceConfig, tau: float) -> float:
    """Time-resolved visibility nu(tau) = exp(-2 Gamma(tau)), identical sources.

    Has no dependence on the decay rate g.
    """
    if not src.identical:
        raise ValueError("visibility() is for identical sources; "
                         "use visibility_nonidentical()")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return abs(float(coherence_factor(src, 0.0, tau)))


def visibility_nonidentical(src: SourceConfig, t1: float, tau: float) -> float:
    """nu = exp(-(Gamma_1 + Gamma_2)) |cos phi(t1, t1 + tau)|.

    Reduces bit-for-bit to visibility() when the baths are identical.
    """
    if t1 < 0 or tau < 0:
        raise ValueError("t1 and tau must be >= 0")
    return abs(float(coherence_factor(src, t1, tau)))


def windowed_visibility(src: SourceConfig, delta: float) -> float:
    """Windowed visibility nu'(Delta) = (1/Delta) int_0^Delta nu(tau) dtau.

    The flat window average of the time-resolved visibility; like nu(tau) it
    has no dependence on the decay rate g, and windowed_visibility_markovian()
    is its exact closed form for a Markovian bath.  The window must be
    finite; the rate-weighted quantity that a detector with window Delta
    measures, including Delta = inf, is postselected_visibility().
    """
    if not src.identical:
        raise ValueError("windowed_visibility() is for identical sources")
    if not 0 < delta < math.inf:
        raise ValueError(f"window width must be finite and > 0, got {delta}")
    total, err = integrate.quad(
        lambda t: visibility(src, t), 0.0, delta,
        epsabs=_WINDOW_EPSABS, epsrel=_WINDOW_EPSREL, limit=400)
    if err > max(_WINDOW_EPSABS, _WINDOW_EPSREL * total):
        raise QuadratureError(
            f"window average of nu over [0, {delta!r}] did not converge", err)
    return min(total / delta, 1.0)


def postselected_visibility(src: SourceConfig, delta: float) -> float:
    """Post-selected visibility over the click separations tau in [0, Delta].

    The visibility of the coincidences a detector with window Delta keeps,
    i.e. the quantity the Monte Carlo estimator measures.  It weights nu(tau)
    by the second-click density g e^{-g tau}, so unlike windowed_visibility()
    it depends on g; Delta = inf gives the bad-detector limit.

    Computed two ways and cross-checked: as |p_same - p_diff| / (p_same +
    p_diff) with each branch integrated separately, and as the g e^{-g tau}
    weighted window average of exp(-2 Gamma) over the analytic window mass
    1 - e^{-g Delta}.
    """
    if not src.identical:
        raise ValueError("postselected_visibility() is for identical sources")
    if not delta > 0:
        raise ValueError(f"window width must be > 0, got {delta}")
    g = src.g
    upper = delta if math.isfinite(delta) else np.inf
    p_same, e1 = integrate.quad(
        lambda t: second_click_density(src, 0.0, t, True),
        0.0, upper, epsabs=_WINDOW_EPSABS, epsrel=_WINDOW_EPSREL, limit=400)
    p_diff, e2 = integrate.quad(
        lambda t: second_click_density(src, 0.0, t, False),
        0.0, upper, epsabs=_WINDOW_EPSABS, epsrel=_WINDOW_EPSREL, limit=400)
    ratio_form = abs(p_same - p_diff) / (p_same + p_diff)

    numer, e3 = integrate.quad(
        lambda t: g * math.exp(-g * t) * visibility(src, t),
        0.0, upper, epsabs=_WINDOW_EPSABS, epsrel=_WINDOW_EPSREL, limit=400)
    mass = 1.0 - math.exp(-g * delta) if math.isfinite(delta) else 1.0
    average_form = numer / mass

    if abs(ratio_form - average_form) > _FORM_AGREEMENT:
        raise QuadratureError(
            "post-selected visibility routes disagree: "
            f"{ratio_form!r} vs {average_form!r}", e1 + e2 + e3)
    return min(average_form, 1.0)


def windowed_visibility_markovian(bath: BathSpec, delta: float) -> float:
    """Closed-form windowed visibility for Markovian dephasing.

    nu'(Delta) = theta (1 - exp(-2 A pi Delta / theta)) / (2 A pi Delta).
    """
    if bath.family is not BathFamily.MARKOVIAN:
        raise ValueError("windowed_visibility_markovian needs a Markovian bath")
    if not delta > 0:
        raise ValueError(f"window width must be > 0, got {delta}")
    x = 2.0 * bath.A * math.pi * delta / bath.theta
    if x < 1e-6:
        # series of (1 - e^-x)/x, avoids 0/0 as the window closes
        return 1.0 - x / 2.0 + x * x / 6.0
    return -math.expm1(-x) / x


def windowed_visibility_ohmic_lowT(bath: BathSpec, delta: float) -> float:
    """Closed-form windowed visibility for a zero-temperature ohmic bath.

    Equal to the window average (1/Delta) int_0^Delta (1 + v^2)^{-2A} dv,
    which is the real form of the incomplete-Beta expression
    B_{-Delta^2}(1/2, 1 - 2A) / (2 i Delta); evaluated through 2F1, with the
    A = 1/2 case on its own arctan branch.
    """
    if bath.family is not BathFamily.OHMIC:
        raise ValueError("windowed_visibility_ohmic_lowT needs an ohmic bath")
    if not delta > 0:
        raise ValueError(f"window width must be > 0, got {delta}")
    A = bath.A
    if abs(A - 0.5) < 1e-14:
        return math.atan(delta) / delta
    return float(special.hyp2f1(0.5, 2.0 * A, 1.5, -delta * delta))


def superohmic_asymptote(bath: BathSpec) -> float:
    """Long-time visibility floor exp(-2 Gamma_inf) of a superohmic bath.

    Exact tau -> inf limit of the finite-cutoff closed form in the bath
    module: the vacuum term tends to A and the thermal sum to
    2A sum_m 1/a_m^2 = 2A psi'(1 + 1/theta) / theta^2, so
    Gamma_inf = A [1 + 2 psi'(1 + 1/theta) / theta^2].  The familiar
    A (1 + pi^2 / (3 theta^2)) is its theta >> 1 limit.
    """
    if bath.family is not BathFamily.SUPEROHMIC:
        raise ValueError("superohmic_asymptote needs a superohmic bath")
    theta = bath.theta
    thermal = 2.0 * float(special.polygamma(1, 1.0 + 1.0 / theta)) / theta ** 2
    return math.exp(-2.0 * bath.A * (1.0 + thermal))


def sample_curve(kind: CurveKind, src: SourceConfig, grid) -> VisibilityCurve:
    """Evaluate nu or nu' on a strictly increasing grid."""
    kind = CurveKind(kind)
    grid = np.asarray(grid, dtype=float)
    if kind is CurveKind.TIME_RESOLVED:
        values = [visibility(src, t) for t in grid]
    else:
        values = [windowed_visibility(src, d) for d in grid]
    return VisibilityCurve(grid=grid, values=np.asarray(values), kind=kind)
