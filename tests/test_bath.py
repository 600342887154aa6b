"""Bath module: spectral densities, decoherence and phase functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from homsim.bath import (BathFamily, BathSpec, DecoherenceValue, GammaMethod,
                         QuadratureError, gamma_closed, gamma_closed_array,
                         gamma_quadrature, gamma_value, lambda_phase,
                         lambda_phase_closed, phi_phase, spectral_density)
from homsim.dynamics import (SourceConfig, coherence, coherence_factor,
                             conditional_state, first_click_density,
                             second_click_density, survival_probability)
from homsim.interference import visibility, visibility_nonidentical

OHMIC = BathSpec(BathFamily.OHMIC, 0.5, 10.0)
SUPER = BathSpec(BathFamily.SUPEROHMIC, 0.5, 10.0)
MARKOV = BathSpec(BathFamily.MARKOVIAN, 0.5, 10.0)


class TestBathSpec:
    def test_exponent_is_pinned(self):
        assert OHMIC.n == 1.0
        assert SUPER.n == 3.0
        assert MARKOV.n is None
        assert BathSpec(BathFamily.POWER_LAW, 0.5, 10.0, n=2.5).n == 2.5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BathSpec(BathFamily.OHMIC, -0.1, 10.0)
        with pytest.raises(ValueError):
            BathSpec(BathFamily.OHMIC, 0.5, 0.0)
        with pytest.raises(ValueError):
            BathSpec(BathFamily.POWER_LAW, 0.5, 10.0)  # missing n

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            BathSpec(BathFamily.OHMIC, bad, 10.0)
        with pytest.raises(ValueError):
            BathSpec(BathFamily.OHMIC, 0.5, bad)
        with pytest.raises(ValueError):
            BathSpec(BathFamily.POWER_LAW, 0.5, 10.0, n=bad)

    def test_zero_coupling_allowed(self):
        bath = BathSpec(BathFamily.OHMIC, 0.0, 10.0)
        assert gamma_value(bath, 5.0) == 0.0


class TestSpectralDensity:
    def test_vanishes_at_zero(self):
        assert spectral_density(OHMIC, 0.0) == 0.0
        assert spectral_density(SUPER, 0.0) == 0.0

    def test_ohmic_value(self):
        assert spectral_density(OHMIC, 1.0) == pytest.approx(0.5 * math.exp(-1))

    def test_superohmic_peak_at_n(self):
        # A w^n e^-w is stationary at w = n
        peak = spectral_density(SUPER, 3.0)
        assert spectral_density(SUPER, 3.0 - 1e-3) < peak
        assert spectral_density(SUPER, 3.0 + 1e-3) < peak

    def test_markovian_unsupported(self):
        with pytest.raises(ValueError):
            spectral_density(MARKOV, 1.0)

    def test_negative_frequency(self):
        with pytest.raises(ValueError):
            spectral_density(OHMIC, -1.0)


class TestGammaQuadrature:
    def test_zero_at_tau_zero(self):
        for bath in (OHMIC, SUPER):
            val = gamma_quadrature(bath, 0.0)
            assert val.gamma_big == 0.0
            assert val.method is GammaMethod.QUADRATURE

    def test_error_bound_reported(self):
        val = gamma_quadrature(OHMIC, 1.0)
        assert 0 <= val.est_abs_error <= 1e-9

    def test_ohmic_frozen_value(self):
        # frozen from this module's own adaptive integral at bring-up;
        # cross-checked against the log-gamma closed form
        assert gamma_quadrature(OHMIC, 1.0).gamma_big == \
            pytest.approx(0.180434582918, abs=1e-9)

    def test_superohmic_saturation(self):
        # long-time limit of the integral, A(1 + (2/theta^2) psi'(1 + 1/theta))
        val = gamma_quadrature(SUPER, 200.0).gamma_big
        assert val == pytest.approx(0.514330494698, abs=1e-9)

    def test_subohmic_rejected(self):
        bath = BathSpec(BathFamily.POWER_LAW, 0.5, 10.0, n=0.5)
        with pytest.raises(ValueError):
            gamma_quadrature(bath, 1.0)

    def test_markovian_rejected(self):
        with pytest.raises(ValueError):
            gamma_quadrature(MARKOV, 1.0)

    @pytest.mark.parametrize("bath", [OHMIC, SUPER], ids=["ohmic", "super"])
    @pytest.mark.parametrize("theta", np.geomspace(1.0, 1e3, 13))
    def test_error_bound_holds(self, bath, theta):
        # the reported error bound covers the true error, cold baths included
        bath = BathSpec(bath.family, bath.A, float(theta))
        for tau in np.geomspace(1e-2, 1e3, 26):
            quad = gamma_quadrature(bath, float(tau))
            closed = gamma_closed(bath, float(tau)).gamma_big
            assert abs(closed - quad.gamma_big) <= quad.est_abs_error + 1e-14, \
                f"tau={tau}"

    # the oscillatory panels from 10/tau then put a node at w = 0, where
    # w^(n - 2) has no value for n < 2, and Gamma's coth(theta w / 2) none for
    # any n; Lambda's integrand has no pole there for n >= 2
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("oracle, n", [
        pytest.param(oracle, n, id=f"{name}-{n}")
        for name, oracle, exponents in (
            ("gamma", lambda bath: gamma_quadrature(bath, 1e18),
             (1.0, 1.5, 2.0, 3.0)),
            ("lambda", lambda bath: lambda_phase(bath, 0.0, 1e18), (1.0, 1.5)))
        for n in exponents])
    def test_node_at_zero_is_quadrature_error(self, oracle, n):
        with pytest.raises(QuadratureError, match="w = 0"):
            oracle(BathSpec(BathFamily.POWER_LAW, 0.5, 10.0, n=n))

    @pytest.mark.parametrize("tau", [0.5, 50.0])
    @pytest.mark.parametrize("theta", [0.1, 10.0])
    def test_integrand_runs_on_plain_floats(self, monkeypatch, theta, tau):
        # QUADPACK calls the integrand thousands of times per tau; a numpy
        # ufunc on each Python-float node made the oracle about 1.7x slower
        def no_numpy(x):
            raise AssertionError("numpy.tanh called at a quadrature node")

        monkeypatch.setattr(np, "tanh", no_numpy)
        bath = BathSpec(BathFamily.SUPEROHMIC, 0.5, theta)
        quad = gamma_quadrature(bath, tau)
        closed = gamma_closed(bath, tau).gamma_big
        assert abs(closed - quad.gamma_big) <= quad.est_abs_error + 1e-14

    def test_powerlaw_general_exponent(self):
        # n = 2 sits between the closed-form families; sanity-bracket it
        bath2 = BathSpec(BathFamily.POWER_LAW, 0.5, 10.0, n=2.0)
        v1 = gamma_quadrature(OHMIC, 1.0).gamma_big
        v2 = gamma_quadrature(bath2, 1.0).gamma_big
        v3 = gamma_quadrature(SUPER, 1.0).gamma_big
        assert v1 < v2 < v3


class TestGammaClosed:
    def test_markovian_value(self):
        assert gamma_closed(MARKOV, 1.0).gamma_big == \
            pytest.approx(math.pi / 20, rel=1e-15)

    def test_markovian_linearity(self):
        taus = np.array([0.5, 1.0, 2.0, 7.0])
        vals = gamma_closed_array(MARKOV, taus)
        np.testing.assert_allclose(vals, vals[1] * taus, rtol=1e-14)
        double = BathSpec(BathFamily.MARKOVIAN, 1.0, 10.0)
        assert gamma_closed(double, 3.0).gamma_big == \
            pytest.approx(2 * gamma_closed(MARKOV, 3.0).gamma_big, rel=1e-15)

    def test_ohmic_zero_at_zero(self):
        assert gamma_closed(OHMIC, 0.0).gamma_big == 0.0

    @pytest.mark.parametrize("bath", [OHMIC, SUPER], ids=["ohmic", "super"])
    def test_matches_quadrature(self, bath):
        for tau in np.geomspace(1e-3, 100.0, 15):
            quad = gamma_quadrature(bath, float(tau)).gamma_big
            closed = gamma_closed(bath, float(tau)).gamma_big
            assert closed == pytest.approx(quad, abs=1e-10), f"tau={tau}"

    def test_superohmic_small_tau_stable(self):
        # quadratic onset, no cancellation blow-up
        for tau in [1e-6, 1e-4, 1e-3]:
            val = gamma_closed(SUPER, tau).gamma_big
            assert val == pytest.approx(
                gamma_quadrature(SUPER, tau).gamma_big, rel=1e-6, abs=1e-15)
            assert val >= 0

    @pytest.mark.parametrize("n", [1.5, 2.0, 2.5, 4.0])
    def test_powerlaw_matches_quadrature(self, n):
        bath = BathSpec(BathFamily.POWER_LAW, 0.5, 10.0, n=n)
        for tau in np.geomspace(1e-3, 100.0, 15):
            quad = gamma_quadrature(bath, float(tau)).gamma_big
            closed = gamma_closed(bath, float(tau)).gamma_big
            assert closed == pytest.approx(quad, abs=1e-12), f"tau={tau}"

    def test_powerlaw_integer_exponent_is_the_family(self):
        for family, n in ((BathFamily.OHMIC, 1.0), (BathFamily.SUPEROHMIC, 3.0)):
            power = BathSpec(BathFamily.POWER_LAW, 0.5, 10.0, n=n)
            taus = np.geomspace(1e-3, 100.0, 15)
            np.testing.assert_array_equal(
                gamma_closed_array(power, taus),
                gamma_closed_array(BathSpec(family, 0.5, 10.0), taus))

    def test_subohmic_rejected(self):
        bath = BathSpec(BathFamily.POWER_LAW, 0.5, 10.0, n=0.5)
        with pytest.raises(ValueError):
            gamma_closed(bath, 1.0)

    @pytest.mark.parametrize("bath", [OHMIC, MARKOV], ids=["ohmic", "markov"])
    def test_nondecreasing(self, bath):
        taus = np.geomspace(1e-3, 100.0, 50)
        vals = gamma_closed_array(bath, taus)
        assert np.all(np.diff(vals) >= 0)

    def test_array_matches_scalar(self):
        taus = np.array([0.0, 0.3, 2.0, 40.0])
        for bath in (OHMIC, SUPER, MARKOV):
            vals = gamma_closed_array(bath, taus)
            scalars = [gamma_closed(bath, t).gamma_big for t in taus]
            np.testing.assert_allclose(vals, scalars, rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("bath, tau", [
        (BathSpec(BathFamily.MARKOVIAN, 1e308, 1e-300), 0.0),
        (BathSpec(BathFamily.SUPEROHMIC, 0.5, 1e300), 1.0)],
        ids=["markov", "superohmic"])
    def test_overflow_raises(self, bath, tau):
        # inf * 0 in the rate law; theta ** k overflows in the series weights
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="overflows"):
            gamma_value(bath, tau)

    @pytest.mark.parametrize("tau", [1e150, 1e155, 1e200, 1e300])
    @pytest.mark.parametrize("n", [1.0, 2.0, 2.5, 3.0])
    def test_finite_beyond_squared_overflow(self, n, tau):
        # tau^2 overflows from tau = 1.34e154, Gamma does not; the limits at
        # A = 0.5, theta = 10, to which every neglected term adds < 1e-75
        A, theta = 0.5, 10.0
        if n == 1.0:
            # Stirling for the log-gamma form: the thermal part A pi tau / theta
            a = 1.0 / theta
            limit = A * (math.pi * tau / theta + math.log(tau)
                         + 2.0 * (special.loggamma(1.0 + a)
                                  - (0.5 + a) * math.log(tau / theta)
                                  - 0.5 * math.log(2.0 * math.pi)))
        elif n == 2.0:
            # the series summed by the digamma function grows as ln tau
            limit = A * (2.0 / theta * (math.log(tau / theta)
                                        - special.digamma(1.0 / theta)) - 1.0)
        else:
            # every Re (a_m + i tau)^-s has vanished: a Hurwitz zeta sum
            s = n - 1.0
            limit = A * special.gamma(s) * (
                1.0 + 2.0 * theta ** -s * special.zeta(s, 1.0 + 1.0 / theta))
        bath = BathSpec(BathFamily.POWER_LAW, A, theta, n=n)
        assert gamma_value(bath, tau) == pytest.approx(limit, rel=1e-14)

    def test_nan_value_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            DecoherenceValue(math.nan, GammaMethod.CLOSED_FORM)

    def test_array_shape_and_empty(self):
        assert gamma_closed_array(SUPER, np.zeros((2, 3))).shape == (2, 3)
        assert gamma_closed_array(SUPER, []).shape == (0,)

    def test_series_converged(self):
        # 25 direct terms plus the Euler-Maclaurin tail against the same
        # series summed directly to m = 1e6 (the rest is below 3e-15)
        for theta in (2.0, 100.0):
            bath = BathSpec(BathFamily.POWER_LAW, 0.5, theta, n=3.0)
            a = 1.0 + theta * np.arange(1e6 + 1)
            for tau in (0.1, 3.0, 200.0):
                terms = 1 / a ** 2 - (a * a - tau * tau) / (a * a + tau * tau) ** 2
                direct = 0.5 * (2 * math.fsum(terms) - terms[0])
                assert gamma_value(bath, tau) == pytest.approx(direct, rel=1e-13)


_EXPONENT = st.floats(1.05, 6.0)
_THETA = st.floats(0.5, 300.0)
_TAU = st.floats(1e-3, 1e3)


class TestKernelProperties:
    """The exact kernels against the quadrature oracle over random baths."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=_EXPONENT, theta=_THETA, tau=_TAU)
    def test_gamma_matches_quadrature(self, n, theta, tau):
        bath = BathSpec(BathFamily.POWER_LAW, 0.5, theta, n=n)
        quad = gamma_quadrature(bath, tau)
        closed = gamma_closed(bath, tau).gamma_big
        assert abs(closed - quad.gamma_big) <= \
            quad.est_abs_error + 1e-12 * max(1.0, closed)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=_EXPONENT, theta=_THETA, t1=st.floats(0.0, 1e3), tau=_TAU)
    def test_lambda_matches_quadrature(self, n, theta, t1, tau):
        bath = BathSpec(BathFamily.POWER_LAW, 0.5, theta, n=n)
        quad = lambda_phase(bath, t1, t1 + tau)
        closed = lambda_phase_closed(bath, t1, t1 + tau)
        # lambda_phase reports no error estimate; its panels reach ~1e-14
        assert abs(closed - quad) <= 1e-12 * max(1.0, abs(closed))


class TestLambdaPhase:
    def test_zero_for_equal_times(self):
        for bath in (OHMIC, SUPER):
            assert lambda_phase(bath, 2.0, 2.0) == 0.0

    def test_ohmic_analytic_start(self):
        # t1 = 0: Lambda = A (tau - atan tau)
        assert lambda_phase(OHMIC, 0.0, 1.0) == \
            pytest.approx(0.5 * (1 - math.pi / 4), abs=1e-10)

    def test_additive_in_coupling(self):
        weak = BathSpec(BathFamily.OHMIC, 0.25, 10.0)
        assert lambda_phase(OHMIC, 1.0, 3.0) == \
            pytest.approx(2 * lambda_phase(weak, 1.0, 3.0), rel=1e-9)

    @pytest.mark.parametrize("bath", [OHMIC, SUPER], ids=["ohmic", "super"])
    @pytest.mark.parametrize("t1,t2", [(0.0, 1.0), (1.0, 3.0), (2.0, 2.5),
                                       (0.0, 10.0)])
    def test_matches_closed_form(self, bath, t1, t2):
        assert lambda_phase(bath, t1, t2) == \
            pytest.approx(lambda_phase_closed(bath, t1, t2), abs=1e-10)

    def test_reproducible(self):
        a = lambda_phase(SUPER, 1.0, 3.0)
        b = lambda_phase(SUPER, 1.0, 3.0)
        assert a == b

    def test_time_order_enforced(self):
        with pytest.raises(ValueError):
            lambda_phase(OHMIC, 2.0, 1.0)
        with pytest.raises(ValueError):
            lambda_phase_closed(OHMIC, 2.0, 1.0)

    @pytest.mark.parametrize("n", [1.5, 2.0, 2.5])
    def test_powerlaw_closed_form(self, n):
        bath = BathSpec(BathFamily.POWER_LAW, 0.5, 10.0, n=n)
        for t1, t2 in [(0.0, 1.0), (1.0, 3.0), (2.0, 2.5), (0.0, 10.0)]:
            assert lambda_phase_closed(bath, t1, t2) == \
                pytest.approx(lambda_phase(bath, t1, t2), abs=1e-10)

    @pytest.mark.parametrize("tau", [1e155, 1e200, 1e300])
    def test_finite_beyond_squared_overflow(self, tau):
        # tau^2 overflows from tau = 1.34e154; S(tau) ~ tau^-(n - 1) is then
        # far below an ulp of the linear term A tau Gamma(n)
        bath = BathSpec(BathFamily.POWER_LAW, 0.5, 10.0, n=2.5)
        assert lambda_phase_closed(bath, 0.0, tau) == \
            pytest.approx(0.5 * tau * special.gamma(2.5), rel=1e-15)
        assert math.isfinite(phi_phase(OHMIC, bath, 0.0, tau))

    def test_closed_form_vectorizes(self):
        bath = BathSpec(BathFamily.POWER_LAW, 0.5, 10.0, n=2.5)
        t1 = np.array([0.0, 1.0, 2.0])
        t2 = t1 + np.array([1.0, 2.0, 0.5])
        np.testing.assert_array_equal(
            lambda_phase_closed(bath, t1, t2),
            [lambda_phase_closed(bath, a, b) for a, b in zip(t1, t2)])


class TestPhiPhase:
    def test_identical_baths_shortcircuit(self):
        for t1, t2 in [(0.0, 0.0), (0.0, 5.0), (3.0, 17.0)]:
            assert phi_phase(OHMIC, OHMIC, t1, t2) == 0.0

    def test_coupling_scaling(self):
        weak = BathSpec(BathFamily.OHMIC, 0.25, 10.0)
        # Lambda is linear in A, so the difference is Lambda at A/2
        assert phi_phase(weak, OHMIC, 0.0, 1.0) == \
            pytest.approx(0.25 * (1 - math.pi / 4), abs=1e-9)

    def test_vectorizes(self):
        weak = BathSpec(BathFamily.POWER_LAW, 0.25, 10.0, n=2.5)
        t1, t2 = np.array([0.0, 3.0]), np.array([1.0, 17.0])
        np.testing.assert_array_equal(phi_phase(OHMIC, OHMIC, t1, t2), [0.0, 0.0])
        np.testing.assert_array_equal(
            phi_phase(weak, OHMIC, t1, t2),
            [phi_phase(weak, OHMIC, a, b) for a, b in zip(t1, t2)])

    def test_antisymmetric_under_swap(self):
        weak = BathSpec(BathFamily.OHMIC, 0.25, 10.0)
        forward = phi_phase(weak, OHMIC, 1.0, 2.0)
        assert phi_phase(OHMIC, weak, 1.0, 2.0) == pytest.approx(-forward,
                                                                 rel=1e-12)


_SRC = SourceConfig.identical_sources(0.01, OHMIC)
_SRC_M = SourceConfig.identical_sources(0.01, MARKOV)
_PAIR = SourceConfig(0.01, OHMIC, SUPER, identical=False)
# every public function that takes a time, with a valid time for each slot;
# the Lambda and phi functions also need their slots in order t1 <= t2
_ORDERED = [
    ("lambda_phase", lambda a, b: lambda_phase(OHMIC, a, b)),
    ("lambda_phase_closed", lambda a, b: lambda_phase_closed(SUPER, a, b)),
    ("phi_phase", lambda a, b: phi_phase(OHMIC, SUPER, a, b)),
    ("phi_phase_identical", lambda a, b: phi_phase(OHMIC, OHMIC, a, b)),
]
_TIMED = [(name, fn, (1.0, 2.0)) for name, fn in _ORDERED] + [
    ("spectral_density", lambda w: spectral_density(OHMIC, w), (1.0,)),
    ("gamma_quadrature", lambda t: gamma_quadrature(OHMIC, t), (1.0,)),
    ("gamma_closed_array", lambda t: gamma_closed_array(SUPER, t), (1.0,)),
    ("gamma_closed", lambda t: gamma_closed(MARKOV, t), (1.0,)),
    ("gamma_value", lambda t: gamma_value(OHMIC, t), (1.0,)),
    ("survival_probability", lambda t: survival_probability(_SRC, t), (1.0,)),
    ("first_click_density", lambda t: first_click_density(_SRC, t), (1.0,)),
    ("coherence", lambda a, b: coherence(_PAIR, a, b), (1.0, 2.0)),
    ("coherence_factor", lambda a, b: coherence_factor(_SRC, a, b), (1.0, 2.0)),
    ("conditional_state", lambda a, b: conditional_state(_SRC, a, b),
     (1.0, 2.0)),
    ("second_click_density",
     lambda a, b: second_click_density(_SRC, a, b, True), (1.0, 2.0)),
    ("visibility", lambda t: visibility(_SRC_M, t), (1.0,)),
    ("visibility_nonidentical",
     lambda a, b: visibility_nonidentical(_PAIR, a, b), (1.0, 2.0)),
]


class TestTimeRule:
    """One rule for every time: finite and >= 0, and t1 <= t2 for Lambda/phi."""

    @pytest.mark.parametrize("fn, times", [
        pytest.param(fn, times[:slot] + (bad,) + times[slot + 1:],
                     id=f"{name}-arg{slot}-{bad}")
        for name, fn, times in _TIMED for slot in range(len(times))
        for bad in (-1.0, math.nan, math.inf, -math.inf)])
    def test_bad_time_rejected(self, fn, times):
        with pytest.raises(ValueError, match="finite and >= 0"):
            fn(*times)

    @pytest.mark.parametrize("fn", [
        pytest.param(fn, id=name) for name, fn in _ORDERED])
    def test_reversed_times_rejected(self, fn):
        with pytest.raises(ValueError, match="t1 <= t2"):
            fn(2.0, 1.0)

    def test_one_bad_entry_rejects_an_array(self):
        with pytest.raises(ValueError, match="finite and >= 0"):
            gamma_closed_array(SUPER, np.array([0.0, 1.0, math.nan]))
