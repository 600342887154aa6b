"""Reference values computed apart from homsim.

Nothing here imports the program.  The non-Markovian decoherence function
and phase are this module's own adaptive quadrature of their defining
integrals (semi-infinite Fourier integrals, no frequency cutoff); window and
post-selected averages are composite Gauss-Legendre / Gauss-Laguerre rules
over those; the Markovian quantities and the superohmic floor are closed
forms, the floor with its own trigamma series.

Bath parameters follow the program's conventions: J(w) = A w^n e^{-w},
theta = omega_c beta, and a Markovian bath has Gamma(tau) = A pi tau / theta.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate

_QUAD = {"epsabs": 1e-13, "epsrel": 1e-12, "limit": 400}
# The Fourier integrals run to infinity: QAWO up to _W_SPLIT, where the
# envelope has decayed, and QAWF beyond it.
_W_SPLIT = 40.0
# Gauss-Legendre nodes per panel, and the fixed panel breakpoints in tau:
# the non-Markovian curves have all their structure at tau <~ 50.
_GL = np.polynomial.legendre.leggauss(10)
_BREAKS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
_TAIL_START = 64.0
_LAGUERRE = np.polynomial.laguerre.laggauss(48)


def markov_rate(A, theta):
    """k = 2 A pi / theta, so that nu(tau) = e^{-k tau} for a Markovian bath."""
    return 2.0 * A * math.pi / theta


def markov_visibility(A, theta, tau):
    return math.exp(-markov_rate(A, theta) * tau)


def markov_windowed(A, theta, delta):
    """Flat window average (1 - e^{-k Delta}) / (k Delta)."""
    x = markov_rate(A, theta) * delta
    return -math.expm1(-x) / x


def markov_postselected_bin(A, theta, g, a, b):
    """g e^{-g tau}-weighted average of e^{-k tau} over a < tau < b.

    g (e^{-(g+k)a} - e^{-(g+k)b}) / ((g+k)(e^{-g a} - e^{-g b})); with a = 0
    this is the post-selected visibility, g / (g+k) at b = inf.
    """
    k = markov_rate(A, theta)
    s = g + k
    if math.isinf(b):
        return g / s * math.exp(-k * a)
    num = math.exp(-s * a) * -math.expm1(-s * (b - a))
    den = math.exp(-g * a) * -math.expm1(-g * (b - a))
    return g / s * num / den


def trigamma(x):
    """psi'(x) = sum_k 1/(x+k)^2: twenty terms plus an Euler-Maclaurin tail."""
    s = sum(1.0 / (x + k) ** 2 for k in range(20))
    y = x + 20.0
    return s + 1 / y + 1 / (2 * y**2) + 1 / (6 * y**3) - 1 / (30 * y**5) \
        + 1 / (42 * y**7) - 1 / (30 * y**9)


def superohmic_floor(A, theta):
    """tau -> inf visibility of a superohmic bath, e^{-2A[1 + 2 psi'(1+1/theta)/theta^2]}."""
    return math.exp(-2.0 * A * (1.0 + 2.0 * trigamma(1.0 + 1.0 / theta) / theta**2))


@functools.lru_cache(maxsize=None)
def gamma(A, n, theta, tau):
    """Gamma(tau) = int_0^inf A w^{n-2} e^{-w} (1 - cos w tau) coth(theta w / 2) dw.

    Below half a period the integrand is taken whole (1 - cos = 2 sin^2,
    finite as w -> 0 for n >= 1); above it, the flat and the cosine parts
    are integrated separately to infinity.
    """
    if tau == 0.0 or A == 0.0:
        return 0.0

    def env(w):
        return A * w ** (n - 2) * math.exp(-w) / math.tanh(0.5 * theta * w)

    c = min(1.0, math.pi / tau)
    head = integrate.quad(lambda w: env(w) * 2.0 * math.sin(0.5 * w * tau) ** 2,
                          0.0, c, **_QUAD)[0]
    flat = integrate.quad(env, c, math.inf, **_QUAD)[0]
    osc = integrate.quad(env, c, _W_SPLIT, weight="cos", wvar=tau, **_QUAD)[0] \
        + integrate.quad(env, _W_SPLIT, math.inf, weight="cos", wvar=tau,
                         epsabs=1e-13, limlst=200)[0]
    return head + flat - osc


def _sine_transform(A, n, t):
    """int_0^inf A w^{n-2} e^{-w} sin(w t) dw."""
    if t == 0.0:
        return 0.0
    c = min(1.0, math.pi / t)
    head = integrate.quad(lambda w: A * w ** (n - 2) * math.exp(-w) * math.sin(w * t),
                          0.0, c, **_QUAD)[0]

    def env(w):
        return A * w ** (n - 2) * math.exp(-w)

    tail = integrate.quad(env, c, _W_SPLIT, weight="sin", wvar=t, **_QUAD)[0] \
        + integrate.quad(env, _W_SPLIT, math.inf, weight="sin", wvar=t,
                         epsabs=1e-13, limlst=200)[0]
    return head + tail


def lam(A, n, t1, t2):
    """Lambda(t1, t2) = int_0^inf (J/w^2)(w tau + 2 sin w t1 - 2 sin w t2 + sin w tau) dw."""
    tau = t2 - t1
    return (A * tau * math.gamma(n) + 2.0 * _sine_transform(A, n, t1)
            - 2.0 * _sine_transform(A, n, t2) + _sine_transform(A, n, tau))


def visibility_nonidentical(bath1, bath2, t1, tau):
    """e^{-(Gamma_1 + Gamma_2)} |cos(Lambda_2 - Lambda_1)|; baths are (A, n, theta)."""
    (A1, n1, th1), (A2, n2, th2) = bath1, bath2
    mag = math.exp(-gamma(A1, n1, th1, tau) - gamma(A2, n2, th2, tau))
    phi = lam(A2, n2, t1, t1 + tau) - lam(A1, n1, t1, t1 + tau)
    return mag * abs(math.cos(phi))


def _panels(a, b):
    edges = [a] + [p for p in _BREAKS if a < p < b] + [b]
    return list(zip(edges[:-1], edges[1:]))


def _integrate(f, a, b):
    """Composite Gauss-Legendre integral of f over finite [a, b]."""
    x, w = _GL
    total = 0.0
    for lo, hi in _panels(a, b):
        half = 0.5 * (hi - lo)
        total += half * sum(wi * f(lo + half * (xi + 1.0)) for xi, wi in zip(x, w))
    return total


def visibility(bath, tau):
    """nu(tau) = e^{-2 Gamma(tau)} of identical sources; bath is (A, n, theta)."""
    return math.exp(-2.0 * gamma(*bath, tau))


def windowed(bath, delta):
    """nu'(Delta) = (1/Delta) int_0^Delta nu(tau) dtau."""
    return _integrate(lambda t: visibility(bath, t), 0.0, delta) / delta


def postselected_bin(bath, g, a, b):
    """g e^{-g tau}-weighted average of nu(tau) over a < tau < b (b may be inf)."""
    def weighted(t):
        return g * math.exp(-g * t) * visibility(bath, t)

    if math.isinf(b):
        start = max(a, _TAIL_START)
        num = _integrate(weighted, a, start) if start > a else 0.0
        x, w = _LAGUERRE
        num += math.exp(-g * start) * sum(
            wi * visibility(bath, start + xi / g) for xi, wi in zip(x, w))
        return num / math.exp(-g * a)
    mass = math.exp(-g * a) * -math.expm1(-g * (b - a))
    return _integrate(weighted, a, b) / mass
