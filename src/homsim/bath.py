"""Bath spectral densities, decoherence functions and dephasing phases.

Everything is dimensionless: times are measured in units of the inverse
cutoff frequency (omega_c = 1), temperatures enter through theta = omega_c * beta.

The decoherence function of a bath with spectral density J(w) = A w^n e^{-w} is

    Gamma(tau) = int_0^inf (J(w)/w^2) (1 - cos(w tau)) coth(theta w / 2) dw,

and the dephasing phase accumulated between detection times t1 <= t2 is

    Lambda(t1, t2) = int_0^inf (J(w)/w^2)
                     (w tau + 2 sin(w t1) - 2 sin(w t2) + sin(w tau)) dw,

with tau = t2 - t1.  Every time (omega, tau, t1, t2) must be finite and >= 0,
and t1 <= t2 for Lambda and phi, else ValueError.  Both are evaluated here by
adaptive quadrature, which is the test oracle, and by one exact vectorized
kernel each, which everything else uses:

- Gamma, n > 1: expanding coth(theta w / 2) = 1 + 2 sum_m e^{-m theta w}
  gives, with s = n - 1 and a_m = 1 + m theta,

      Gamma = A Gamma(s) sum_m c_m [a_m^{-s} - Re (a_m + i tau)^{-s}],

  c_0 = 1, c_m = 2.  The first terms are summed directly and the tail is
  taken from the Euler-Maclaurin formula, whose derivatives are again such
  differences of powers.
- Gamma, n = 1 (ohmic): the same sum in closed form through the log-gamma
  function; Markovian baths follow the rate law A pi tau / theta.
- Lambda: the sine transform of J/w^2 is S(t) = A Gamma(s) Im (1 - i t)^{-s}
  (A atan t for n = 1), and Lambda = A tau Gamma(n) + 2 S(t1) - 2 S(t2) + S(tau).

Closed-form note: the commonly quoted ohmic form A ln(1 + tau^2) overstates
the vacuum contribution of the integral above by a factor of two; the correct
value is (A/2) ln(1 + tau^2).  Likewise the familiar thermal terms
A ln(sinh(pi tau/theta)/(pi tau/theta)) (ohmic) and A pi^2/(3 theta^2)
(superohmic, long-time) are theta >> 1 limits that ignore the exponential
cutoff inside the thermal integrand.  The kernels here keep the cutoff
exactly and agree with the quadrature to machine precision at all
temperatures.

scipy.special and scipy.integrate are loaded on first use, not on import.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy

__all__ = [
    "BathFamily",
    "BathSpec",
    "DecoherenceValue",
    "GammaMethod",
    "QuadratureError",
    "gamma_closed",
    "gamma_closed_array",
    "gamma_quadrature",
    "gamma_quadrature_array",
    "gamma_value",
    "lambda_phase",
    "lambda_phase_closed",
    "phi_phase",
    "spectral_density",
]

# full_output quiets QUADPACK's warning: _checked is the verdict on the error
_QUAD_OPTS = {"limit": 400, "epsabs": 1e-12, "epsrel": 1e-12, "full_output": 1}
# gamma_quadrature and lambda_phase must reach this bound, relative to
# max(1, |value|), or report failure.
_ERR_CEILING = 1e-9

# Thermal series (see _series_gamma).  Row r is a^-p - Re (a + i tau)^-p with
# p = s + j, j = _ORDER[r], a = 1 + theta _ROW_M[r] and weight
# _ROW_WEIGHT[r] theta^j (s)_j: first the direct terms m < _M_DIRECT
# (c_0 = 1, c_m = 2), then the Euler-Maclaurin tail from m = _M_DIRECT, its
# half end term and its corrections 2 B_2k / (2k)!, j = 2k - 1.
_M_DIRECT = 25
_ORDER = np.r_[np.zeros(_M_DIRECT + 1), 1, 3, 5, 7, 9]
_ROW_M = np.r_[np.arange(_M_DIRECT), np.full(6, _M_DIRECT)]
_ROW_WEIGHT = np.r_[1.0, np.full(_M_DIRECT - 1, 2.0), 1.0,
                    1 / 6, -1 / 360, 1 / 15120, -1 / 604800, 1 / 23950080]
# tau values per evaluation block, which bounds the kernel's memory
_BLOCK = 512
# the largest x >= 0 whose x * x is finite, and the log of the largest float
_SQRT_MAX = math.sqrt(np.finfo(float).max)
_LOG_MAX = math.log(np.finfo(float).max)


class QuadratureError(RuntimeError):
    """Adaptive integration did not reach the requested error bound."""

    def __init__(self, message: str, est_abs_error: float = math.nan):
        super().__init__(message)
        self.est_abs_error = est_abs_error


class BathFamily(str, enum.Enum):
    OHMIC = "ohmic"
    SUPEROHMIC = "superohmic"
    MARKOVIAN = "markovian"
    POWER_LAW = "powerlaw"


@dataclass(frozen=True)
class BathSpec:
    """Dephasing environment: spectral family, coupling A, theta = omega_c * beta.

    ``n`` is the spectral exponent and is only free for POWER_LAW baths;
    it is pinned to 1 (ohmic), 3 (superohmic) or None (Markovian) otherwise,
    and any other n is a ValueError.  A = 0 is allowed and means no
    dephasing at all.  Every parameter must be finite.
    """

    family: BathFamily
    A: float
    theta: float
    n: float | None = None

    def __post_init__(self):
        if not 0 <= self.A < math.inf:
            raise ValueError(f"coupling A must be finite and >= 0, got {self.A}")
        if not 0 < self.theta < math.inf:
            raise ValueError(f"theta must be finite and > 0, got {self.theta}")
        family = BathFamily(self.family)
        object.__setattr__(self, "family", family)
        pinned = {BathFamily.OHMIC: 1.0, BathFamily.SUPEROHMIC: 3.0,
                  BathFamily.MARKOVIAN: None}
        if family in pinned:
            if self.n is not None and self.n != pinned[family]:
                raise ValueError(f"n is fixed at {pinned[family]} for "
                                 f"{family.value} baths, got {self.n}")
            object.__setattr__(self, "n", pinned[family])
        else:
            if self.n is None or not 0 < self.n < math.inf:
                raise ValueError("PowerLaw bath needs a finite positive exponent n")
            object.__setattr__(self, "n", float(self.n))


class GammaMethod(str, enum.Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class DecoherenceValue:
    gamma_big: float
    method: GammaMethod
    est_abs_error: float = 0.0

    def __post_init__(self):
        if not self.gamma_big >= 0:
            raise ValueError(f"Gamma must be >= 0, got {self.gamma_big}")


def _times(*ts):
    """Times as float arrays, a single one as a (faster) numpy scalar;
    ValueError unless every value is finite and >= 0, the one time rule.
    """
    ts = [np.asarray(t, dtype=float)[()] for t in ts]
    if not all(((t >= 0) & (t < math.inf)).all() for t in ts):
        raise ValueError("times must be finite and >= 0")
    return ts[0] if len(ts) == 1 else ts


def _ordered(t1, t2):
    """_times(t1, t2), which Lambda and phi also need in order t1 <= t2."""
    t1, t2 = _times(t1, t2)
    if not (t1 <= t2).all():
        raise ValueError("need t1 <= t2")
    return t1, t2


def _scalar_or_array(out):
    return float(out) if out.ndim == 0 else out


def spectral_density(bath: BathSpec, omega):
    """J(omega) = A omega^n e^{-omega} (omega_c = 1 units)."""
    if bath.family is BathFamily.MARKOVIAN:
        raise ValueError("Markovian bath is a rate law; it has no spectral density")
    omega = _times(omega)
    return _scalar_or_array(bath.A * omega ** bath.n * np.exp(-omega))


def _require_integrable(bath: BathSpec, op: str):
    if bath.family is BathFamily.MARKOVIAN:
        raise ValueError(f"{op}: Markovian bath has no spectral-density integral")
    if bath.n < 1:
        raise ValueError(f"{op} covers exponents n >= 1, got n = {bath.n}")


def _checked(kind: str, value: float, err: float) -> float:
    """value if err meets _ERR_CEILING and value is finite, or else raise."""
    if not err <= _ERR_CEILING * max(1.0, abs(value)):
        raise QuadratureError(
            f"{kind} quadrature reached only {err:.3e} absolute error", err)
    if not math.isfinite(value):  # an inf meets any bound relative to it
        raise QuadratureError(f"{kind} quadrature gave a non-finite value", err)
    return value


def _spectral_panels(n: float):
    """(end, p, r, u, c): where the quadrature oracles end their last panel
    for exponent n, p = n - 2, and the form c (r w)^p e^(u-w) of w^p e^-w
    whose factors are finite on [0, end].

    J/w^2 = A w^p e^-w peaks at w = p, and the share of its integral past
    the end is Q(n - 1, end), the regularized upper incomplete gamma
    function.  The end is 60 up to n = 10 and moves out by 2 per unit of n
    beyond, which keeps that share below 8e-17 for every n.  w^p alone
    overflows past w = 10^(308/p), w = 120 at p = 148, although the product
    stays finite wherever Gamma(p + 1) is.  Where end^p would overflow,
    r = 1/p and u = p, about the peak w = p, where (r w)^p e^(u-w) <= 1, and
    c = p^p e^-p multiplies the integrals, not the integrand; otherwise
    r = 1, u = 0 and c = 1, which leave every value bit for bit as it was.
    """
    end, p = 60.0 + 2.0 * max(0.0, n - 10.0), n - 2
    if p * math.log(end) < _LOG_MAX:
        return end, p, 1.0, 0.0, 1.0
    return end, p, 1.0 / p, p, math.exp(p * math.log(p) - p)


def _quad(f, lo, hi, **weight):
    """scipy.integrate.quad of f over [lo, hi] to _QUAD_OPTS.

    QUADPACK's rule for a fast oscillation takes f at the left end of a
    subinterval [a, b] as (a + b)/2 - (b - a)/2, which is 0 once a > 0 is
    below half an ulp of b.  For n < 2 the integrands have no value at
    w = 0, and Gamma's has none at any n (coth); that ends as a
    QuadratureError.
    """
    try:
        return scipy.integrate.quad(f, lo, hi, **weight, **_QUAD_OPTS)[:2]
    except ZeroDivisionError as exc:
        raise QuadratureError(f"quadrature node at w = 0: {exc}") from exc


def _head_cut(t: float, end: float) -> float:
    """Where the quadrature oracles' directly integrated head ends at click
    separation t > 0; a weighted rule takes the tail from there.

    From t = 1 the head keeps at most a couple of oscillations: w = 1, or
    10/t past t = 10.  Below t = 1 it runs to 10/t, or to the end: where
    n t << 1 the tail's envelope minus its weighted integral would cancel
    all but a few digits of a value of size A G(n - 1).
    """
    return min(1.0 if t >= 1.0 else end, 10.0 / t)


def gamma_quadrature_array(bath: BathSpec, taus):
    """Decoherence function by adaptive quadrature over (0, inf), with its
    absolute error estimate, at each click separation: (values, errors).

    The integrand (J/w^2)(1-cos w tau) coth(theta w/2) has a removable
    w -> 0 singularity (it behaves as A tau^2 w^{n-1} / theta); the
    oscillatory tail is handled with a cosine-weighted rule.  The thermal
    factor turns over at the knee w = 2/theta and is flat to 1e-17 beyond
    40/theta; panels are split at both points, so that no panel is wide
    enough for its error estimate to miss the turnover.  The tail's
    unweighted integral does not depend on tau, so each distinct tail panel
    is integrated once per call.  A tail panel that starts at w = 1 or at a
    knee is shared by many tau, and QUADPACK bisects it from the same ends
    at each, so its nodes repeat: there the cosine-weighted rule takes the
    envelope from a table of the nodes met so far in the call.  A
    QuadratureError names the tau it failed at.
    """
    _require_integrable(bath, "gamma_quadrature")
    taus = np.asarray(_times(taus))
    values, errors = np.zeros(taus.shape), np.zeros(taus.shape)
    if bath.A == 0:
        return values, errors

    A, theta = bath.A, bath.theta
    end, p, r, u, c = _spectral_panels(bath.n)
    knees = {2.0 / theta, 40.0 / theta}
    tails = {}  # (lo, hi) -> the envelope's integral over that tail panel
    shared = knees | {1.0}  # where a tail panel of more than one tau starts

    # math, not numpy, throughout the integrands: QUADPACK calls them once
    # per node on a Python float, where one numpy ufunc call costs as much as
    # the rest of the integrand
    def envelope(w):
        return A * (r * w) ** p * math.exp(u - w) \
            * (1.0 / math.tanh(0.5 * theta * w))

    # a repeated node is a lookup in C, and the table dies with the call;
    # one tau repeats no node, where the table would only cost its inserts
    kept = functools.lru_cache(maxsize=None)(envelope) if taus.size > 1 \
        else envelope

    def one(tau):
        def full(w):
            # 2 sin^2(w tau / 2) = 1 - cos(w tau), stable for small w tau
            return A * (r * w) ** p * math.exp(u - w) \
                * 2.0 * math.sin(0.5 * w * tau) ** 2 \
                * (1.0 / math.tanh(0.5 * theta * w))

        cut = _head_cut(tau, end)
        head = sorted({0.0, cut} | {k for k in knees if k < cut})
        tail = sorted({cut, end} | {k for k in knees if cut < k < end})
        parts = [_quad(full, lo, hi) for lo, hi in zip(head, head[1:])]
        for lo, hi in zip(tail, tail[1:]):
            if (lo, hi) not in tails:
                tails[lo, hi] = _quad(envelope, lo, hi)
            parts.append(tails[lo, hi])
            osc, e = _quad(kept if lo in shared else envelope, lo, hi,
                           weight="cos", wvar=tau)
            parts.append((-osc, e))
        err = c * sum(e for _, e in parts)
        return _checked("gamma", c * math.fsum(v for v, _ in parts), err), err

    # a Python float keeps the integrands' scalar arithmetic fast
    for i, tau in enumerate(taus.ravel().tolist()):
        if tau != 0:
            try:
                value, errors.flat[i] = one(tau)
            except QuadratureError as exc:
                raise QuadratureError(f"{exc} at tau={tau!r}",
                                      exc.est_abs_error) from exc
            values.flat[i] = max(value, 0.0)
    return values, errors


def gamma_quadrature(bath: BathSpec, tau: float) -> DecoherenceValue:
    """Decoherence function by adaptive quadrature at one click separation;
    see gamma_quadrature_array."""
    value, err = gamma_quadrature_array(bath, tau)
    return DecoherenceValue(float(value), GammaMethod.QUADRATURE, float(err))


def _log1p_sq(x):
    """ln(1 + x^2) of x >= 0: log1p(x * x) wherever x * x is finite, and
    2 ln x, the same value to double precision, where it would overflow."""
    big = x > _SQRT_MAX
    if not big.any():
        return np.log1p(x * x)
    with np.errstate(over="ignore", divide="ignore"):
        return np.where(big, 2.0 * np.log(x), np.log1p(x * x))


def _ohmic_gamma(A, theta, tau):
    a = 1.0 / theta
    vacuum = 0.5 * A * _log1p_sq(tau)
    # both terms through the complex loggamma, so that tau = 0 gives exactly 0
    thermal = 2.0 * A * (scipy.special.loggamma(1.0 + a + 0j).real
                         - scipy.special.loggamma(1.0 + a + 1j * tau / theta).real)
    return vacuum + thermal


def _rel_gap(p, x):
    """1 - Re (1 + i x)^-p, free of cancellation at small x.

    With u = (1 + x^2)^(-p/2) and phi = atan x this is
    (1 - u) + 2 u sin^2(p phi / 2); both terms are >= 0 for p > 0.
    """
    one_minus_u = -np.expm1(-0.5 * p * _log1p_sq(x))
    half_turn = np.sin(0.5 * p * np.arctan(x))
    return one_minus_u + 2.0 * (1.0 - one_minus_u) * half_turn * half_turn


def _series_gamma(A, n, theta, taus):
    """Gamma for n > 1 from the thermal series of the module docstring.

    Row r of the sum is a^-p - Re (a + i tau)^-p = a^-p _rel_gap(p, tau/a),
    with p = s + _ORDER[r] and a = 1 + theta _ROW_M[r].
    """
    s = n - 1.0
    a_tail = 1.0 + _M_DIRECT * theta
    p = s + _ORDER
    a = 1.0 + theta * _ROW_M
    w = (_ROW_WEIGHT * theta ** _ORDER * scipy.special.poch(s, _ORDER)
         * a ** -p)[:, None]
    p, a = p[:, None], a[:, None]

    def block(t):
        # the tail's integral, (2/theta) int_{a_M}^inf (a^-s - Re(a+it)^-s) da
        x = t / a_tail
        if s == 1.0:
            integral = _log1p_sq(x) / theta
        else:
            integral = 2.0 * a_tail ** (1.0 - s) * _rel_gap(s - 1.0, x) \
                / (theta * (s - 1.0))
        return (w * _rel_gap(p, t / a)).sum(axis=0) + integral

    flat = taus.ravel()
    out = np.empty_like(flat)
    for i in range(0, flat.size, _BLOCK):
        out[i:i + _BLOCK] = block(flat[i:i + _BLOCK])
    return A * scipy.special.gamma(s) * out.reshape(taus.shape)


# extreme but finite A or theta can overflow a kernel; the finite check refuses
@np.errstate(over="ignore", invalid="ignore")
def gamma_closed_array(bath: BathSpec, taus) -> np.ndarray:
    """Exact decoherence function over an array of click separations.

    Markovian baths follow the rate law A pi tau / theta, ohmic baths the
    log-gamma form and every other exponent n > 1 the thermal series; see
    the module docstring.
    """
    taus = _times(taus)
    A, theta = bath.A, bath.theta
    if bath.family is BathFamily.MARKOVIAN:
        out = A * np.pi * taus / theta
    else:
        _require_integrable(bath, "gamma_closed")
        if A == 0.0:
            return np.zeros_like(taus)
        if bath.n == 1.0:
            out = _ohmic_gamma(A, theta, taus)
        else:
            out = _series_gamma(A, bath.n, theta, taus)
    if bath.family is BathFamily.MARKOVIAN and not np.isfinite(out).all():
        # A pi tau may overflow where Gamma does not, and inf * 0 is NaN at
        # tau = 0: rescale it by 2^k
        (a, i), (t, j), (h, k) = map(np.frexp, (A, taus, theta))
        out = np.where(~np.isfinite(out),
                       np.ldexp(a * np.pi * t / h, i + j - k), out)
    if not np.isfinite(out).all():
        raise FloatingPointError(f"Gamma overflows for {bath}")
    return np.maximum(out, 0.0)


def gamma_closed(bath: BathSpec, tau: float) -> DecoherenceValue:
    """Exact decoherence function at one click separation (no quadrature)."""
    return DecoherenceValue(float(gamma_closed_array(bath, tau)),
                            GammaMethod.CLOSED_FORM, 0.0)


def gamma_value(bath: BathSpec, tau: float) -> float:
    """Gamma(tau) from the exact kernel."""
    return gamma_closed(bath, tau).gamma_big


def _sine_transform(A, n, t):
    """int_0^inf A w^{n-2} e^{-w} sin(w t) dw, adaptive, t >= 0."""
    if t == 0.0 or A == 0.0:
        return 0.0, 0.0
    end, p, r, u, c = _spectral_panels(n)

    def head_f(w):
        return A * (r * w) ** p * math.exp(u - w) * math.sin(w * t)

    def envelope(w):
        return A * (r * w) ** p * math.exp(u - w)

    cut = _head_cut(t, end)
    head, e1 = _quad(head_f, 0.0, cut)
    osc, e2 = _quad(envelope, cut, end, weight="sin", wvar=t)
    return c * (head + osc), c * (e1 + e2)


def lambda_phase(bath: BathSpec, t1: float, t2: float) -> float:
    """Phase function Lambda(t1, t2) by adaptive quadrature.

    Decomposed as A tau Gamma(n) + 2 S(t1) - 2 S(t2) + S(tau) with
    S(t) the sine transform of J/w^2; each piece converges for n >= 1.
    """
    _require_integrable(bath, "lambda_phase")
    t1, t2 = map(float, _ordered(t1, t2))
    if t2 == t1 or bath.A == 0.0:
        return 0.0
    A, n = bath.A, bath.n
    tau = t2 - t1
    # a Python float: A tau Gamma(n) past the float range is an inf, which
    # _checked refuses, not a numpy overflow warning
    total = A * tau * float(scipy.special.gamma(n))
    err = 0.0
    for coeff, t in ((2.0, t1), (-2.0, t2), (1.0, tau)):
        value, e = _sine_transform(A, n, t)
        total += coeff * value
        err += abs(coeff) * e
    return _checked("lambda", total, err)


# A tau Gamma(n) grows where Gamma saturates; the finite check refuses an inf
@np.errstate(over="ignore", invalid="ignore")
def _lambda(bath: BathSpec, t1, t2):
    _require_integrable(bath, "lambda_phase_closed")
    t1, t2 = _ordered(t1, t2)
    if bath.A == 0.0:  # Gamma(n) is inf from n = 171.7, and 0 * inf is NaN
        return np.zeros(np.broadcast(t1, t2).shape)
    s = bath.n - 1.0
    if s == 0.0:
        sine = np.arctan
    else:
        def sine(t):
            # Gamma(s) Im (1 - i t)^-s, with (1 + t^2)^(-s/2) formed so that
            # t^2 cannot overflow
            return scipy.special.gamma(s) * np.exp(-0.5 * s * _log1p_sq(t)) \
                * np.sin(s * np.arctan(t))
    tau = t2 - t1
    out = bath.A * (tau * scipy.special.gamma(bath.n) + 2 * sine(t1)
                    - 2 * sine(t2) + sine(tau))
    if not np.isfinite(out).all():
        raise FloatingPointError(f"Lambda overflows for {bath}")
    return out


def lambda_phase_closed(bath: BathSpec, t1, t2):
    """Exact Lambda(t1, t2) for any exponent n >= 1 (vectorizes over t1, t2).

    Lambda = A tau Gamma(n) + 2 S(t1) - 2 S(t2) + S(tau), with
    S(t) = Gamma(n - 1) (1 + t^2)^{-(n-1)/2} sin((n - 1) atan t), and
    S(t) = atan t for the ohmic n = 1.
    """
    return _scalar_or_array(_lambda(bath, t1, t2))


def phi_phase(bath1: BathSpec, bath2: BathSpec, t1, t2):
    """Relative phase phi(t1, t2) = Lambda_2 - Lambda_1 (vectorizes).

    A Markovian bath is a pure rate law with no polaron shift, so its Lambda
    counts as 0.  Identical bath specs short-circuit to exactly 0.
    """
    t1, t2 = _ordered(t1, t2)
    zero = np.zeros(np.broadcast(t1, t2).shape)
    if bath1 == bath2:
        return _scalar_or_array(zero)
    lam1, lam2 = (zero if bath.family is BathFamily.MARKOVIAN
                  else _lambda(bath, t1, t2) for bath in (bath1, bath2))
    return _scalar_or_array(lam2 - lam1)
