"""The benchmark's references against limits and integrals known apart from them.

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys

import pytest
from scipy import integrate

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference as ref  # noqa: E402

A = 0.5
COLD = 1e9  # theta -> inf: the coth factor is 1 wherever the integrand lives


@pytest.mark.parametrize("tau", [1e-3, 0.1, 1.0, 10.0, 100.0])
def test_gamma_ohmic_zero_temperature(tau):
    assert ref.gamma(A, 1.0, COLD, tau) == pytest.approx(0.5 * A * math.log1p(tau * tau),
                                                         rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("tau", [1e-2, 0.5, 2.0, 30.0])
def test_gamma_superohmic_zero_temperature(tau):
    # int A w e^{-w} (1 - cos w tau) dw = A [1 - Re (1 - i tau)^{-2}]
    t2 = tau * tau
    assert ref.gamma(A, 3.0, COLD, tau) == pytest.approx(
        A * t2 * (3.0 + t2) / (1.0 + t2) ** 2, rel=1e-9)


@pytest.mark.parametrize("theta", [1.0, 10.0, 100.0])
def test_gamma_superohmic_reaches_floor(theta):
    # Gamma approaches its floor as 1/tau^2 (1e-7 at tau = 3000, theta = 1)
    floor = -0.5 * math.log(ref.superohmic_floor(A, theta))
    assert ref.gamma(A, 3.0, theta, 3e4) == pytest.approx(floor, abs=1e-8)


def test_trigamma_known_values():
    assert ref.trigamma(1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-14)
    assert ref.trigamma(0.5) == pytest.approx(math.pi ** 2 / 2, rel=1e-14)
    assert ref.trigamma(2.0) == pytest.approx(math.pi ** 2 / 6 - 1, rel=1e-14)


@pytest.mark.parametrize("t", [0.3, 1.0, 7.0, 60.0])
def test_lambda_ohmic_arctan_form(t):
    # the sine transform of e^{-w}/w is atan t
    t1, t2 = t, 2.5 * t
    tau = t2 - t1
    want = A * (tau + 2 * math.atan(t1) - 2 * math.atan(t2) + math.atan(tau))
    assert ref.lam(A, 1.0, t1, t2) == pytest.approx(want, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("n", [2.5, 3.0, 3.5])
@pytest.mark.parametrize("t", [0.2, 3.0, 40.0])
def test_sine_transform_gamma_function_form(n, t):
    # int w^{s-1} e^{-w} sin(w t) dw = Gamma(s) Im (1 - i t)^{-s}, s = n - 1
    s = n - 1.0
    want = A * math.gamma(s) * ((1.0 - 1j * t) ** (-s)).imag
    assert ref._sine_transform(A, n, t) == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_nonidentical_reduces_to_identical():
    bath = (A, 3.0, 10.0)
    assert ref.visibility_nonidentical(bath, bath, 2.0, 1.5) == pytest.approx(
        ref.visibility(bath, 1.5), rel=1e-14)


K = ref.markov_rate(A, 10.0)
G = 0.01


def _markov_numeric(a, b):
    num = integrate.quad(lambda t: G * math.exp(-(G + K) * t), a, b, epsabs=0, epsrel=1e-13)[0]
    den = integrate.quad(lambda t: G * math.exp(-G * t), a, b, epsabs=0, epsrel=1e-13)[0]
    return num / den


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.0, 100.0), (0.35, 0.4), (50.0, 120.0),
                                 (0.0, math.inf), (70.0, math.inf)])
def test_markov_postselected_against_direct_integral(a, b):
    assert ref.markov_postselected_bin(A, 10.0, G, a, b) == pytest.approx(
        _markov_numeric(a, b), rel=1e-10)


def test_markov_postselected_bad_detector_limit():
    assert ref.markov_postselected_bin(A, 10.0, G, 0.0, math.inf) == pytest.approx(
        G / (G + K), rel=1e-15)


@pytest.mark.parametrize("delta", [0.01, 1.0, 30.0])
def test_markov_windowed_against_direct_integral(delta):
    want = integrate.quad(lambda t: math.exp(-K * t), 0, delta, epsabs=0, epsrel=1e-13)[0]
    assert ref.markov_windowed(A, 10.0, delta) == pytest.approx(want / delta, rel=1e-12)


# Zero-temperature ohmic bath: nu(tau) = (1 + tau^2)^{-A} exactly, which tests
# the window rules (Gauss-Legendre panels, Gauss-Laguerre tail) on their own.
COLD_OHMIC = (A, 1.0, COLD)


def _cold_nu(t):
    return (1.0 + t * t) ** -A


@pytest.mark.parametrize("delta", [0.05, 2.0, 10.0, 300.0])
def test_windowed_rule(delta):
    want = integrate.quad(_cold_nu, 0, delta, epsabs=0, epsrel=1e-13, limit=200)[0] / delta
    assert ref.windowed(COLD_OHMIC, delta) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.0, 100.0), (2.0, 9.0), (0.0, math.inf),
                                 (80.0, math.inf)])
def test_postselected_rule(a, b):
    def weighted(t):
        return G * math.exp(-G * t) * _cold_nu(t)

    num = integrate.quad(weighted, a, b, epsabs=0, epsrel=1e-12, limit=400)[0]
    mass = math.exp(-G * a) - (0.0 if math.isinf(b) else math.exp(-G * b))
    assert ref.postselected_bin(COLD_OHMIC, G, a, b) == pytest.approx(num / mass, rel=1e-7)
