"""Visibility functions and their closed-form cross-checks."""

import csv
import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from homsim import cli, interference
from homsim.bath import (BathFamily, BathSpec, gamma_closed_array,
                         gamma_quadrature, phi_phase)
from homsim.dynamics import SourceConfig, second_click_density
from homsim.interference import (postselected_visibility,
                                 superohmic_asymptote, visibility,
                                 visibility_nonidentical, windowed_visibility,
                                 windowed_visibility_markovian,
                                 windowed_visibility_ohmic_lowT)

OHMIC = BathSpec(BathFamily.OHMIC, 0.5, 10.0)
SUPER = BathSpec(BathFamily.SUPEROHMIC, 0.5, 10.0)
MARKOV = BathSpec(BathFamily.MARKOVIAN, 0.5, 10.0)


def src_of(bath, g=0.01):
    return SourceConfig.identical_sources(g, bath)


# Adaptive oracles for the fixed window rule: nested adaptive quadrature over
# the scalar visibility.  The post-selected one computes both routes, the
# branch ratio and the weighted average, and requires them to agree.
_EPSABS, _EPSREL = 1e-10, 1e-11


def _adaptive_windowed(src, delta):
    total, _ = integrate.quad(lambda t: visibility(src, t), 0.0, delta,
                              epsabs=_EPSABS, epsrel=_EPSREL, limit=400)
    return total / delta


def _adaptive_postselected(src, delta):
    g = src.g
    p_same, p_diff = (integrate.quad(
        lambda t: second_click_density(src, 0.0, t, same), 0.0, delta,
        epsabs=_EPSABS, epsrel=_EPSREL, limit=400)[0] for same in (True, False))
    ratio_form = abs(p_same - p_diff) / (p_same + p_diff)
    numer, _ = integrate.quad(
        lambda t: g * math.exp(-g * t) * visibility(src, t), 0.0, delta,
        epsabs=_EPSABS, epsrel=_EPSREL, limit=400)
    average_form = numer / -math.expm1(-g * delta)
    assert abs(ratio_form - average_form) <= 1e-8
    return average_form


def _split_panel_average(src, delta):
    """(1/Delta) int_0^Delta nu, adaptive on panels split at every 2^j.

    A single adaptive rule over [0, Delta] can step over a narrow spike at
    tau = 0; the power-of-two splits put a panel edge at every scale.
    """
    edges = [0.0] + [2.0 ** j for j in range(-40, 11) if 2.0 ** j < delta]
    edges.append(delta)
    return math.fsum(
        integrate.quad(lambda t: visibility(src, t), lo, hi, epsabs=1e-14,
                       epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(edges, edges[1:])) / delta


class TestVisibility:
    def test_unity_at_zero(self):
        for bath in (OHMIC, SUPER, MARKOV):
            assert visibility(src_of(bath), 0.0) == 1.0

    def test_markovian_value(self):
        assert visibility(src_of(MARKOV), 1.0) == \
            pytest.approx(math.exp(-math.pi / 10), rel=1e-14)

    def test_superohmic_longtime_value(self):
        # frozen from the quadrature oracle: Gamma(200) = 0.514330494698
        assert visibility(src_of(SUPER), 200.0) == \
            pytest.approx(math.exp(-2 * 0.514330494698), abs=1e-9)

    def test_independent_of_rate(self):
        values = {visibility(src_of(OHMIC, g), 2.0)
                  for g in (1e-3, 1e-2, 1e-1)}
        assert len(values) == 1

    def test_bounds(self):
        for tau in np.geomspace(1e-3, 100, 20):
            v = visibility(src_of(OHMIC), float(tau))
            assert 0.0 <= v <= 1.0

    def test_overflowing_bath_raises(self):
        # Gamma overflows to NaN, which would read as a visibility of NaN
        src = src_of(BathSpec(BathFamily.SUPEROHMIC, 0.5, 1e300))
        with pytest.raises(FloatingPointError):
            visibility(src, 1.0)
        with pytest.raises(FloatingPointError):
            postselected_visibility(src, 1.0)

    def test_rejects_nonidentical(self):
        weak = BathSpec(BathFamily.OHMIC, 0.25, 10.0)
        src = SourceConfig(g=0.01, bath1=weak, bath2=OHMIC, identical=False)
        with pytest.raises(ValueError):
            visibility(src, 1.0)


class TestVisibilityNonidentical:
    def test_reduces_to_identical(self):
        src = src_of(OHMIC)
        for tau in (0.0, 0.5, 3.0):
            assert visibility_nonidentical(src, 7.0, tau) == \
                visibility(src, tau)

    def test_cosine_zero_kills_visibility(self):
        # scale the second coupling so phi(0, tau) = pi/2 exactly:
        # phi = (A2 - A1)(tau - atan tau) for ohmic baths starting at t1 = 0
        tau = 20.0
        a2 = 0.25 + math.pi / 2 / (tau - math.atan(tau))
        weak = BathSpec(BathFamily.OHMIC, 0.25, 10.0)
        strong = BathSpec(BathFamily.OHMIC, a2, 10.0)
        src = SourceConfig(g=0.01, bath1=weak, bath2=strong, identical=False)
        assert phi_phase(weak, strong, 0.0, tau) == pytest.approx(math.pi / 2,
                                                                  abs=1e-8)
        assert visibility_nonidentical(src, 0.0, tau) == \
            pytest.approx(0.0, abs=1e-8)

    def test_composed_value(self):
        weak = BathSpec(BathFamily.OHMIC, 0.25, 10.0)
        src = SourceConfig(g=0.01, bath1=weak, bath2=OHMIC, identical=False)
        from homsim.bath import gamma_value
        expected = math.exp(-(gamma_value(weak, 1.0) + gamma_value(OHMIC, 1.0))) \
            * abs(math.cos(0.25 * (1 - math.pi / 4)))
        assert visibility_nonidentical(src, 0.0, 1.0) == \
            pytest.approx(expected, rel=1e-9)


class TestWindowed:
    def test_tiny_window_near_unity(self):
        for bath in (OHMIC, SUPER, MARKOV):
            assert windowed_visibility(src_of(bath), 1e-3) >= 0.999

    def test_no_dephasing_perfect(self):
        bath = BathSpec(BathFamily.OHMIC, 0.0, 10.0)
        for delta in (0.01, 1.0, 100.0):
            assert windowed_visibility(src_of(bath), delta) == \
                pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            windowed_visibility(src_of(OHMIC), 0.0)
        with pytest.raises(ValueError):
            postselected_visibility(src_of(OHMIC), 0.0)

    def test_rejects_infinite_window(self):
        with pytest.raises(ValueError):
            windowed_visibility(src_of(MARKOV), math.inf)

    @pytest.mark.parametrize("kernel", [windowed_visibility,
                                        postselected_visibility])
    def test_rejects_nonidentical(self, kernel):
        weak = BathSpec(BathFamily.OHMIC, 0.25, 10.0)
        src = SourceConfig(g=0.01, bath1=weak, bath2=OHMIC, identical=False)
        with pytest.raises(ValueError, match="identical sources"):
            kernel(src, 1.0)

    def test_is_rate_independent_window_average(self):
        for g in (1e-4, 1e-2, 1e-1):
            for delta in (1e-3, 0.5, 1.0, 10.0):
                assert abs(windowed_visibility(src_of(MARKOV, g), delta)
                           - windowed_visibility_markovian(MARKOV, delta)) \
                    <= 1e-12

    def test_matches_explicit_ratio_form(self):
        # independent recomputation of |p++ - p+-| / (p++ + p+-)
        src = src_of(MARKOV)
        delta = 1.0
        p_same, _ = integrate.quad(
            lambda t: second_click_density(src, 0, t, True), 0, delta,
            epsabs=1e-13)
        p_diff, _ = integrate.quad(
            lambda t: second_click_density(src, 0, t, False), 0, delta,
            epsabs=1e-13)
        ratio = (p_same - p_diff) / (p_same + p_diff)
        assert postselected_visibility(src, delta) == pytest.approx(ratio,
                                                                    abs=1e-8)

    def test_infinite_window(self):
        # bad-detector limit: integrate over all separations
        value = postselected_visibility(src_of(MARKOV), math.inf)
        # analytic: g / (g + 2 A pi / theta)
        assert value == pytest.approx(0.01 / (0.01 + math.pi / 10), rel=1e-8)

    def test_weak_rate_insensitivity_small_window(self):
        vals = [postselected_visibility(src_of(MARKOV, g), 0.1)
                for g in (1e-4, 1e-3)]
        assert abs(vals[0] - vals[1]) < 1e-4

    @pytest.mark.parametrize("bath", [OHMIC, SUPER, MARKOV],
                             ids=["ohmic", "superohmic", "markovian"])
    def test_postselected_subnormal_window(self, bath):
        # g Delta underflows to 0 here; the limit is nu(0) = 1
        for g in (1e-4, 0.01, 1.0):
            assert postselected_visibility(src_of(bath, g), 5e-324) == 1.0

    @pytest.mark.parametrize("bath", [OHMIC, SUPER, MARKOV,
                                      BathSpec(BathFamily.POWER_LAW, 0.5,
                                               10.0, n=2.5)],
                             ids=["ohmic", "superohmic", "markovian",
                                  "powerlaw"])
    @pytest.mark.parametrize("g", [5e-324, 1e-310, 3e-307])
    def test_infinite_window_tiny_rate(self, bath, g):
        # 60/g overflows here; the window stops at a finite width instead of
        # forming inf * 0 (RuntimeWarning is an error under this suite)
        value = postselected_visibility(src_of(bath, g), math.inf)
        assert 0.0 <= value <= 1.0
        if bath is MARKOV:
            assert value == pytest.approx(g / (g + math.pi / 10), abs=1e-12)

    def test_postselected_markovian_closed_form(self):
        # g (1 - e^{-(g + k) Delta}) / ((g + k)(1 - e^{-g Delta})),
        # with k = 2 A pi / theta
        g, k, delta = 0.01, math.pi / 10, 1.0
        expected = g * -math.expm1(-(g + k) * delta) \
            / ((g + k) * -math.expm1(-g * delta))
        assert postselected_visibility(src_of(MARKOV, g), delta) == \
            pytest.approx(expected, abs=1e-8)


class TestWindowedMarkovianClosedForm:
    def test_limit_is_unity(self):
        assert windowed_visibility_markovian(MARKOV, 1e-9) == \
            pytest.approx(1.0, abs=1e-9)
        strong = BathSpec(BathFamily.MARKOVIAN, 1.0, 10.0)
        assert windowed_visibility_markovian(strong, 1e-9) == \
            pytest.approx(1.0, abs=1e-9)

    def test_value(self):
        expected = (10 / math.pi) * (1 - math.exp(-math.pi / 10))
        assert windowed_visibility_markovian(MARKOV, 1.0) == \
            pytest.approx(expected, rel=1e-14)

    def test_is_window_average_of_visibility(self):
        avg, _ = integrate.quad(
            lambda t: math.exp(-math.pi * t / 10), 0, 1.0, epsabs=1e-13)
        assert windowed_visibility_markovian(MARKOV, 1.0) == \
            pytest.approx(avg, rel=1e-10)

    def test_wrong_family(self):
        with pytest.raises(ValueError):
            windowed_visibility_markovian(OHMIC, 1.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
    def test_rejects_bad_window(self, delta):
        with pytest.raises(ValueError, match="window width must be > 0"):
            windowed_visibility_markovian(MARKOV, delta)


class TestWindowedOhmicLowT:
    def test_limit_is_unity(self):
        assert windowed_visibility_ohmic_lowT(OHMIC, 1e-8) == \
            pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("bath", [SUPER, MARKOV], ids=["super", "markov"])
    def test_wrong_family(self, bath):
        with pytest.raises(ValueError, match="needs an ohmic bath"):
            windowed_visibility_ohmic_lowT(bath, 1.0)

    def test_arctan_branch(self):
        assert windowed_visibility_ohmic_lowT(OHMIC, 1.0) == \
            pytest.approx(math.pi / 4, rel=1e-15)

    @pytest.mark.parametrize("A", [0.25, 0.3, 0.5])
    @pytest.mark.parametrize("delta", [0.1, 1.0, 2.0])
    def test_matches_window_average(self, A, delta):
        bath = BathSpec(BathFamily.OHMIC, A, 10.0)
        avg, _ = integrate.quad(lambda v: (1 + v * v) ** (-2 * A), 0, delta,
                                epsabs=1e-13)
        assert windowed_visibility_ohmic_lowT(bath, delta) == \
            pytest.approx(avg / delta, abs=1e-10)

    @pytest.mark.parametrize("A", [0.25, 0.5])
    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0, 5.0])
    def test_is_zero_temperature_window_at_double_coupling(self, A, delta):
        # nu(tau) = (1 + tau^2)^{-A} at theta -> inf, so (1 + v^2)^{-2A}
        # is the window average of a bath with coupling 2A
        cold = src_of(BathSpec(BathFamily.OHMIC, 2 * A, 1e8))
        assert windowed_visibility_ohmic_lowT(BathSpec(BathFamily.OHMIC, A,
                                                       10.0), delta) == \
            pytest.approx(windowed_visibility(cold, delta), abs=1e-14)

    def test_incomplete_beta_series_identity(self):
        # B_z(1/2, 1-2A)/(2 i Delta) with z = -Delta^2 expands to
        # (1/2) sum_k (2A)_k / (k! (1/2 + k)) (-Delta^2)^k; check once
        A, delta = 0.3, 0.1
        z = -delta * delta
        total, term, poch = 0.0, 0.0, 1.0
        for k in range(40):
            term = poch / (math.factorial(k) * (0.5 + k)) * z ** k
            total += term
            poch *= 2 * A + k
        series = 0.5 * total
        bath = BathSpec(BathFamily.OHMIC, A, 10.0)
        assert windowed_visibility_ohmic_lowT(bath, delta) == \
            pytest.approx(series, abs=1e-8)


# (1/Delta) int_0^Delta (1 + v^2)^{-2A} dv in elementary functions, written
# so that no Delta^2 is formed
_LOWT_ELEMENTARY = {
    0.25: lambda d: math.asinh(d) / d,
    0.5: lambda d: math.atan(d) / d,
    0.75: lambda d: 1.0 / math.hypot(1.0, d),
    1.0: lambda d: (1.0 / (d + 1.0 / d) + math.atan(d)) / (2.0 * d),
}


def _lowt_reduction(n: int, d: float) -> float:
    """(1/d) int_0^d (1 + v^2)^{-n} dv for a whole n >= 1, by the reduction
    I_{k+1} = (2k - 1)/(2k) I_k + d / (2k (1 + d^2)^k) from I_1 = atan d.

    Every term is positive, and all but atan d is carried to 50 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        dd = decimal.Decimal(d)
        q = 1 / (1 + dd * dd)
        power, integral = decimal.Decimal(1), decimal.Decimal(math.atan(d))
        for k in range(1, n):
            power *= q
            integral = ((2 * k - 1) * integral + dd * power) / (2 * k)
        return float(integral / dd)


class TestWindowedOhmicLowTRange:
    # 2A = 200 and 2000, where the Delta <= 1 part taken as scipy's
    # hyp2f1(1/2, 3/2 - 2A; 3/2; z), the other Pfaff form, was off by up to
    # 6e-11
    @pytest.mark.parametrize("A", [100, 1000])
    @pytest.mark.parametrize("delta", [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 1e3,
                                       1e300])
    def test_large_coupling_matches_reduction(self, A, delta):
        bath = BathSpec(BathFamily.OHMIC, float(A), 10.0)
        assert windowed_visibility_ohmic_lowT(bath, delta) == pytest.approx(
            _lowt_reduction(2 * A, delta), rel=1e-13, abs=0)

    @pytest.mark.parametrize("A", sorted(_LOWT_ELEMENTARY))
    @pytest.mark.parametrize("delta", [1e-3, 1.0, 1e3, 1e6, 1e7, 1e154,
                                       1e155, 1e300])
    def test_matches_elementary_form(self, A, delta):
        bath = BathSpec(BathFamily.OHMIC, A, 10.0)
        assert windowed_visibility_ohmic_lowT(bath, delta) == pytest.approx(
            _LOWT_ELEMENTARY[A](delta), rel=1e-13, abs=0)

    def test_finite_and_in_unit_interval(self):
        deltas = [5e-324, *np.geomspace(1e-3, 1e300, 41),
                  1.7976931348623157e308]
        for A in np.linspace(0.01, 3.0, 300):
            bath = BathSpec(BathFamily.OHMIC, float(A), 10.0)
            for delta in deltas:
                value = windowed_visibility_ohmic_lowT(bath, float(delta))
                assert math.isfinite(value) and 0.0 <= value <= 1.0

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_window(self, delta):
        with pytest.raises(ValueError, match="finite and > 0"):
            windowed_visibility_ohmic_lowT(OHMIC, delta)

    def test_series_coefficients_correctly_rounded(self):
        # (1/2)_k / k! = C(2k, k) / 4^k, the Delta > 1 branch's coefficients
        assert interference._HALF_RISING.tolist() == [
            float(Fraction(math.comb(2 * k, k), 4 ** k)) for k in range(60)]

    def test_continuous_at_unit_window(self):
        # the two forms meet at Delta = 1
        for A in (0.01, 0.25, 0.6, 3.0):
            bath = BathSpec(BathFamily.OHMIC, A, 10.0)
            below = windowed_visibility_ohmic_lowT(bath, 1.0)
            above = windowed_visibility_ohmic_lowT(bath, math.nextafter(1.0, 2))
            assert above == pytest.approx(below, rel=1e-14)


class TestSuperohmicAsymptote:
    def test_value(self):
        # Gamma_inf = A + 2A sum_m 1/(1 + m theta)^2, the sum being the
        # Hurwitz zeta(2, 1 + 1/theta) / theta^2
        gamma_inf = 0.5 * (1 + 2 * special.zeta(2, 1.1) / 100)
        expected = math.exp(-2 * gamma_inf)
        assert superohmic_asymptote(SUPER) == pytest.approx(expected,
                                                            rel=1e-15)

    def test_no_coupling_limit(self):
        free = BathSpec(BathFamily.SUPEROHMIC, 0.0, 10.0)
        assert superohmic_asymptote(free) == 1.0

    def test_wrong_family(self):
        with pytest.raises(ValueError):
            superohmic_asymptote(OHMIC)

    def test_close_to_exact_saturation(self):
        # exact tau -> inf limit; nu(200) still sits ~1.8e-6 above it
        exact = visibility(src_of(SUPER), 200.0)
        assert superohmic_asymptote(SUPER) == pytest.approx(exact, abs=2e-6)


class TestSuperohmicAsymptoteSmallTheta:
    # theta^2 underflows to 0 below theta = 1.5e-162, and 1/theta overflows
    # below 5.6e-309; Gamma_inf ~ 2A/theta, so the floor is 0 at A = 0.5
    @pytest.mark.parametrize("theta", [1e-170, 1e-300, 5e-324])
    def test_limit(self, theta):
        bath = BathSpec(BathFamily.SUPEROHMIC, 0.5, theta)
        assert superohmic_asymptote(bath) == 0.0
        free = BathSpec(BathFamily.SUPEROHMIC, 0.0, theta)
        assert superohmic_asymptote(free) == 1.0

    def test_coupling_as_small_as_theta(self):
        # Gamma_inf = A + 2 (A / theta) (1 - theta/2 + ...) -> 2 at A = theta
        bath = BathSpec(BathFamily.SUPEROHMIC, 5e-324, 5e-324)
        assert superohmic_asymptote(bath) == pytest.approx(math.exp(-4.0),
                                                           rel=1e-15)


class TestFixedRule:
    """The fixed window rule against the adaptive oracles and closed forms."""

    @pytest.mark.parametrize("bath", [
        OHMIC, SUPER, MARKOV, BathSpec(BathFamily.OHMIC, 2.0, 1.0),
        BathSpec(BathFamily.SUPEROHMIC, 0.5, 1.0),
        BathSpec(BathFamily.POWER_LAW, 0.5, 100.0, n=2.5),
        BathSpec(BathFamily.MARKOVIAN, 2.0, 1.0)],
        ids=["ohmic", "superohmic", "markovian", "ohmic-A2-theta1",
             "superohmic-theta1", "powerlaw-theta100", "markovian-A2-theta1"])
    def test_matches_adaptive_routes(self, bath):
        src = src_of(bath)
        deltas = [1e-2, 0.3, 4.0, 100.0]
        windowed = windowed_visibility(src, deltas)
        post = postselected_visibility(src, deltas)
        for d, w, p in zip(deltas, windowed, post):
            assert abs(w - _adaptive_windowed(src, d)) <= 1e-10
            assert abs(p - _adaptive_postselected(src, d)) <= 1e-10

    @pytest.mark.parametrize("family, n", [("ohmic", None),
                                           ("superohmic", None),
                                           ("powerlaw", 2.5)])
    def test_matches_split_panel_oracle(self, family, n):
        # hot to cold, weak to strong coupling, windows 1e-4 to 1e3
        deltas = np.geomspace(1e-4, 1e3, 5)
        worst = 0.0
        for theta in (0.1, 1.0, 10.0, 100.0, 1000.0):
            for A in (0.05, 0.5, 2.0):
                src = src_of(BathSpec(BathFamily(family), A, theta, n=n))
                got = windowed_visibility(src, deltas)
                want = np.array([_split_panel_average(src, d) for d in deltas])
                worst = max(worst, np.max(np.abs(got / want - 1)))
        assert worst <= 5e-15

    @pytest.mark.parametrize("A, theta", [(0.5, 10.0), (2.0, 1.0), (3.0, 0.05)])
    def test_markovian_closed_forms(self, A, theta):
        bath = BathSpec(BathFamily.MARKOVIAN, A, theta)
        k = 2 * A * math.pi / theta
        deltas = np.geomspace(1e-4, 1e3, 29)
        windowed = windowed_visibility(src_of(bath), deltas)
        want = -np.expm1(-k * deltas) / (k * deltas)
        assert np.max(np.abs(windowed / want - 1)) <= 1e-15
        for g in (1e-4, 1e-2, 1.0):
            with_inf = np.r_[deltas, math.inf]
            post = postselected_visibility(src_of(bath, g), with_inf)
            want = np.r_[g * -np.expm1(-(g + k) * deltas)
                         / ((g + k) * -np.expm1(-g * deltas)), g / (g + k)]
            assert np.max(np.abs(post / want - 1)) <= 1e-15

    def test_postselected_strong_markovian_long_window(self):
        # strong dephasing, long window: nu is a spike 1/k wide at tau = 0
        g, k, delta = 0.01, 4 * math.pi, 1000.0
        bath = BathSpec(BathFamily.MARKOVIAN, 2.0, 1.0)
        expected = g * -math.expm1(-(g + k) * delta) \
            / ((g + k) * -math.expm1(-g * delta))
        assert postselected_visibility(src_of(bath, g), delta) == \
            pytest.approx(expected, rel=1e-13)

    def test_fig2_hot_long_windows(self, tmp_path):
        # the spike at tau = 0 is 1/k = 0.008 wide, which a single adaptive
        # rule over [0, Delta] can step over
        out = tmp_path / "fig2.csv"
        assert cli.main(["fig2", "--theta", "0.1", "--A", "2", "--delta-min",
                         "1e-3", "--delta-max", "1000", "--points", "7",
                         "--out", str(out)]) == cli.EXIT_OK
        with open(out) as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        k = 2 * 2.0 * math.pi / 0.1
        for delta, ohmic, superohmic, markovian in rows:
            assert markovian == pytest.approx(
                0.1 * -math.expm1(-k * delta) / (2 * 2.0 * math.pi * delta),
                rel=1e-12)
            for family, got in (("ohmic", ohmic), ("superohmic", superohmic)):
                src = src_of(BathSpec(BathFamily(family), 2.0, 0.1))
                assert got == pytest.approx(_split_panel_average(src, delta),
                                            rel=1e-10)

    def test_superohmic_long_window_tends_to_floor(self):
        # nu' - floor falls as 1/Delta
        floor = superohmic_asymptote(SUPER)
        gaps = windowed_visibility(src_of(SUPER), [1e4, 1e6, 1e8]) - floor
        assert np.all(gaps > 0)
        assert gaps[1] == pytest.approx(gaps[0] / 100, rel=1e-3)
        assert gaps[2] < 1e-8

    def test_scalar_in_float_out(self):
        assert isinstance(windowed_visibility(src_of(OHMIC), 1.0), float)
        assert isinstance(postselected_visibility(src_of(OHMIC), 1.0), float)
        assert isinstance(visibility(src_of(OHMIC), 1.0), float)
        assert windowed_visibility(src_of(OHMIC), np.ones((2, 3))).shape \
            == (2, 3)

    def test_rejects_bad_windows_in_array(self):
        for bad in (math.nan, -1.0):
            with pytest.raises(ValueError):
                windowed_visibility(src_of(OHMIC), [1.0, bad])
            with pytest.raises(ValueError):
                postselected_visibility(src_of(OHMIC), [1.0, bad])
        with pytest.raises(ValueError):
            windowed_visibility(src_of(OHMIC), [1.0, math.inf])

    def test_visibility_vectorizes(self):
        src = src_of(SUPER)
        taus = np.linspace(0.0, 50.0, 11)
        values = visibility(src, taus)
        assert values.shape == taus.shape
        for t, v in zip(taus, values):
            assert v == pytest.approx(visibility(src, float(t)), rel=1e-15)
        with pytest.raises(ValueError):
            visibility(src, [1.0, -1.0])


@st.composite
def _sources(draw):
    family = draw(st.sampled_from(list(BathFamily)))
    n = draw(st.floats(1.0, 5.0)) if family is BathFamily.POWER_LAW else None
    bath = BathSpec(family, draw(st.floats(0.0, 3.0)),
                    draw(st.floats(0.05, 1e3)), n=n)
    return SourceConfig.identical_sources(draw(st.floats(1e-4, 1.0)), bath)


_DELTAS = st.lists(st.floats(1e-4, 1e3), min_size=1, max_size=8,
                   unique=True).map(sorted)


# a power-law bath whose Gamma overshoots: nu' rises from Delta = 2 to 3
_OVERSHOOT = BathSpec(BathFamily.POWER_LAW, 0.001, 5.0, n=5.0)


class TestWindowProperties:
    """Window kernels over random baths and sorted window grids."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(src=_sources(), deltas=_DELTAS)
    @example(src=src_of(_OVERSHOOT, g=1.0), deltas=[2.0, 3.0])
    def test_bounded_and_monotone(self, src, deltas):
        windowed = windowed_visibility(src, deltas)
        post = postselected_visibility(src, deltas)
        assert np.all((windowed >= 0) & (windowed <= 1))
        assert np.all((post >= 0) & (post <= 1))
        # nu' is the running mean of nu = e^{-2 Gamma}, so it never rises
        # up to any Delta below which Gamma never falls
        gamma = gamma_closed_array(src.bath1,
                                   np.geomspace(1e-6, max(deltas), 2001))
        if np.all(np.diff(gamma) >= 0):
            assert np.all(np.diff(windowed) <= 1e-12)

    def test_rises_where_gamma_overshoots(self):
        # for n > 1, Gamma peaks near tau = 1 above its long-time value,
        # so nu' can rise; the quadrature oracle shows the same overshoot
        peak, late = (gamma_quadrature(_OVERSHOOT, t).gamma_big
                      for t in (1.0, 3.0))
        assert peak > 1.2 * late
        low, high = windowed_visibility(src_of(_OVERSHOOT), [2.0, 3.0])
        assert high > low + 1e-7

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(src=_sources(), deltas=_DELTAS)
    def test_array_equals_scalar_calls(self, src, deltas):
        for kernel in (windowed_visibility, postselected_visibility):
            values = kernel(src, deltas)
            for d, v in zip(deltas, values):
                assert abs(kernel(src, d) - v) <= 1e-15

