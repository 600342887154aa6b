"""Hong-Ou-Mandel visibility: time-resolved, windowed, post-selected, and
closed forms.

The window averages integrate the exact kernel with one fixed rule: a
20-node Gauss-Legendre rule on each panel of the ladder 0, 2^-50, ..., 2^j,
... of click separations.  Every singularity of nu(tau) lies on the
imaginary axis at |tau| >= 1 and every decay is exponential, so each
doubling panel sees its integrand as equally smooth, whatever the scale of
the bath; the ladder resolves decay rates up to about 1e16.  All windows of
one call share the ladder through a cumulative sum and add one partial
panel each.  scipy.special is loaded on first use, not on import.
"""

from __future__ import annotations

import math

import numpy as np
import scipy

from .bath import BathFamily, BathSpec, _scalar_or_array
from .dynamics import SourceConfig, coherence_factor

__all__ = [
    "postselected_visibility",
    "superohmic_asymptote",
    "visibility",
    "visibility_nonidentical",
    "windowed_visibility",
    "windowed_visibility_markovian",
    "windowed_visibility_ohmic_lowT",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)  # on [0, 1]
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS
_LADDER_LO = -50  # the first panel is [0, 2^-50]
# e^{-g tau} < 1e-26 beyond g tau = 60, so the weighted rule stops there
_WEIGHT_TAIL = 60.0


def _window_integrals(src: SourceConfig, deltas: np.ndarray, weight):
    """int_0^Delta w(tau) nu(tau) dtau for each finite Delta >= 0.

    ``weight`` is the vectorized w(tau).
    """
    flat = deltas.ravel()
    j = np.maximum(np.frexp(flat)[1] - 1, _LADDER_LO - 1)  # floor(log2 Delta)
    top = j.max(initial=_LADDER_LO - 1)
    edges = np.r_[0.0, np.ldexp(1.0, np.arange(_LADDER_LO, top + 1))]
    starts = np.where(j >= _LADDER_LO, np.ldexp(1.0, j), 0.0)
    lo = np.r_[edges[:-1], starts]
    width = np.r_[np.diff(edges), flat - starts]
    taus = lo[:, None] + width[:, None] * _GL_NODES
    f = visibility_nonidentical(src, 0.0, taus) * weight(taus)
    panels = width * (f * _GL_WEIGHTS).sum(axis=1)
    n = edges.size - 1  # full ladder panels, then one partial per Delta
    ladder = np.r_[0.0, np.cumsum(panels[:n])]
    out = ladder[j - _LADDER_LO + 1] + panels[n:]
    return out.reshape(deltas.shape)


def visibility(src: SourceConfig, tau):
    """Time-resolved visibility nu(tau) = exp(-2 Gamma(tau)), identical sources.

    Vectorizes over tau.  Has no dependence on the decay rate g.
    """
    if not src.identical:
        raise ValueError("visibility() is for identical sources; "
                         "use visibility_nonidentical()")
    return visibility_nonidentical(src, 0.0, tau)


def visibility_nonidentical(src: SourceConfig, t1, tau):
    """nu = exp(-(Gamma_1 + Gamma_2)) |cos phi(t1, t1 + tau)|.

    Vectorizes over t1 and tau.  Reduces bit-for-bit to visibility() when
    the baths are identical.
    """
    return _scalar_or_array(np.abs(coherence_factor(src, t1, tau)))


def windowed_visibility(src: SourceConfig, delta):
    """Windowed visibility nu'(Delta) = (1/Delta) int_0^Delta nu(tau) dtau.

    The flat window average of the time-resolved visibility; like nu(tau) it
    has no dependence on the decay rate g, and windowed_visibility_markovian()
    is its exact closed form for a Markovian bath.  Vectorizes over Delta,
    which must be finite; the rate-weighted quantity that a detector with
    window Delta measures, including Delta = inf, is postselected_visibility().
    """
    if not src.identical:
        raise ValueError("windowed_visibility() is for identical sources")
    delta = np.asarray(delta, dtype=float)
    if not ((0 < delta) & (delta < math.inf)).all():
        raise ValueError(f"window width must be finite and > 0, got {delta}")
    return _scalar_or_array(
        np.minimum(_window_integrals(src, delta, np.ones_like) / delta, 1.0))


def postselected_visibility(src: SourceConfig, delta):
    """Post-selected visibility over the click separations tau in [0, Delta].

    The visibility of the coincidences a detector with window Delta keeps,
    i.e. the quantity the Monte Carlo estimator measures: nu(tau) weighted
    by the second-click density g e^{-g tau} over its window mass,

        int_0^Delta g e^{-g tau} nu(tau) dtau / (1 - e^{-g Delta}),

    which is also |p_same - p_diff| / (p_same + p_diff) with each branch
    integrated over the window.  Unlike windowed_visibility() it depends on
    g; Delta = inf gives the bad-detector limit.  Vectorizes over Delta.
    The weight e^{-g tau} and mass Delta exprel(-g Delta) hold no g Delta
    that could underflow, so a subnormal Delta gives the limit nu(0) = 1.
    """
    if not src.identical:
        raise ValueError("postselected_visibility() is for identical sources")
    delta = np.asarray(delta, dtype=float)
    if not (delta > 0).all():
        raise ValueError(f"window width must be > 0, got {delta}")
    g = src.g
    delta = np.minimum(delta, _WEIGHT_TAIL / g)
    mass = delta * scipy.special.exprel(-g * delta)
    return _scalar_or_array(
        np.minimum(_window_integrals(src, delta, lambda t: np.exp(-g * t))
                   / mass, 1.0))


def windowed_visibility_markovian(bath: BathSpec, delta: float) -> float:
    """Closed-form windowed visibility for Markovian dephasing.

    nu'(Delta) = theta (1 - exp(-2 A pi Delta / theta)) / (2 A pi Delta).
    """
    if bath.family is not BathFamily.MARKOVIAN:
        raise ValueError("windowed_visibility_markovian needs a Markovian bath")
    if not delta > 0:
        raise ValueError(f"window width must be > 0, got {delta}")
    x = 2.0 * bath.A * math.pi * delta / bath.theta
    return -math.expm1(-x) / x if x > 0 else 1.0


# (1/2)_k / k! = C(2k, k) / 4^k, correctly rounded, the series of
# (1 - t)^{-1/2}: 60 terms at t <= 1/2 reach 1e-18
_K = np.arange(60)
_HALF_RISING = np.array([math.comb(2 * k, k) / 4 ** k for k in range(_K.size)])
# (1 + v^2)^{-2A} < e^{-60} once A ln(1 + v^2) > 30, so the integral stops
# there; below, the terms of the Pfaff series peak before k = 90, and by
# k = 400 they are under 1e-48 of the peak
_LOWT_TAIL = 30.0
_PFAFF_K = np.arange(400)


def windowed_visibility_ohmic_lowT(bath: BathSpec, delta: float) -> float:
    """Closed-form windowed visibility for a zero-temperature ohmic bath.

    Equal to the window average (1/Delta) int_0^Delta (1 + v^2)^{-2A} dv,
    the real form of B_{-Delta^2}(1/2, 1 - 2A) / (2 i Delta).  Under this
    package's (A/2) ln(1 + tau^2) vacuum term the zero-temperature nu(tau)
    is (1 + tau^2)^{-A}, so this equals the zero-temperature nu'(Delta) of
    windowed_visibility() at coupling 2A, not A.

    Up to v = min(Delta, 1) the integral is v 2F1(1/2, 2A; 3/2; -x), x = v^2,
    summed in the Pfaff form (1 + x)^{-2A} sum_k (2A)_k / (3/2)_k z^k,
    z = x / (1 + x) <= 1/2, whose terms are all positive, so no digits
    cancel at large A; v stops where (1 + v^2)^{-2A} = e^{-60}.  Past v = 1,
    t = 1/(1 + v^2) makes the rest (1/2) int_y^{1/2} t^{e-1} (1 - t)^{-1/2}
    dt, e = 2A - 1/2, y = 1/(1 + Delta^2), summed by the binomial series
    with each ((1/2)^e - y^e)/e as -(1/2)^e L exprel(e L), L = ln 2y: A = 1/4
    needs no branch, Delta^2 is never formed, and every finite Delta > 0
    gives a finite value in [0, 1].
    """
    if bath.family is not BathFamily.OHMIC:
        raise ValueError("windowed_visibility_ohmic_lowT needs an ohmic bath")
    if not 0 < delta < math.inf:
        raise ValueError(f"window width must be finite and > 0, got {delta}")
    A = bath.A
    v = min(delta, 1.0)
    if A * math.log1p(v * v) > _LOWT_TAIL:
        v = math.sqrt(math.expm1(_LOWT_TAIL / A))
    x = v * v
    z = x / (1.0 + x)
    # the term ratios (2A + k) z / (k + 3/2); 2A would overflow at A > 9e307
    k = _PFAFF_K[:-1]
    terms = np.cumprod(np.r_[1.0, (A + k / 2) * (2.0 * z) / (k + 1.5)])
    mean = v * math.exp(-2.0 * (A * math.log1p(x))) * float(terms.sum()) / delta
    if delta > 1.0:
        ln_2y = math.log(2.0) - 2.0 * math.log(delta) - math.log1p(delta ** -2.0)
        e = 2.0 * A - 0.5 + _K
        series = float((_HALF_RISING * 0.5 ** e
                        * scipy.special.exprel(e * ln_2y)).sum())
        # ln_2y / delta first: the series alone reaches 1e305 at A = 0
        mean -= 0.5 * (ln_2y / delta) * series
    return min(1.0, mean)


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
    thermal = 2.0 * float(scipy.special.polygamma(1, 1.0 + 1.0 / theta)) \
        / theta ** 2
    return math.exp(-2.0 * bath.A * (1.0 + thermal))
