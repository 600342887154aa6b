"""Click-statistics formulas for the two-source jump process."""

import math

import numpy as np
import pytest
from scipy import integrate

from homsim.bath import (BathFamily, BathSpec, gamma_closed_array,
                         gamma_value, phi_phase)
from homsim.dynamics import (ConditionalState, Detector, SourceConfig,
                             coherence, coherence_factor, conditional_state,
                             first_click_density, second_click_density,
                             survival_probability)
from homsim.interference import visibility_nonidentical

OHMIC = BathSpec(BathFamily.OHMIC, 0.5, 10.0)
SUPER = BathSpec(BathFamily.SUPEROHMIC, 0.25, 10.0)
MARKOV = BathSpec(BathFamily.MARKOVIAN, 0.5, 10.0)
SRC = SourceConfig.identical_sources(0.01, OHMIC)
SRC_M = SourceConfig.identical_sources(0.01, MARKOV)


class TestSourceConfig:
    def test_identical_requires_equal_baths(self):
        other = BathSpec(BathFamily.OHMIC, 0.25, 10.0)
        with pytest.raises(ValueError):
            SourceConfig(g=0.01, bath1=OHMIC, bath2=other, identical=True)

    def test_positive_rate(self):
        with pytest.raises(ValueError):
            SourceConfig.identical_sources(0.0, OHMIC)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_finite_rate(self, bad):
        with pytest.raises(ValueError):
            SourceConfig.identical_sources(bad, OHMIC)


class TestCoherence:
    def test_identical_sources_have_no_phase(self):
        taus = np.array([0.0, 0.5, 7.0])
        mag, phi = coherence(SRC, np.array([1.0, 2.0, 3.0]), taus)
        np.testing.assert_array_equal(phi, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            mag, [math.exp(-2 * gamma_value(OHMIC, t)) for t in taus],
            rtol=1e-15)

    def test_nonidentical_matches_scalar_parts(self):
        b1 = BathSpec(BathFamily.POWER_LAW, 0.25, 10.0, n=2.5)
        b2 = BathSpec(BathFamily.POWER_LAW, 0.5, 10.0, n=3.5)
        src = SourceConfig(g=0.01, bath1=b1, bath2=b2, identical=False)
        t1s, taus = np.array([0.0, 4.0, 30.0]), np.array([1.0, 0.2, 12.0])
        mag, phi = coherence(src, t1s, taus)
        for i, (t1, tau) in enumerate(zip(t1s, taus)):
            assert mag[i] == pytest.approx(
                math.exp(-(gamma_value(b1, tau) + gamma_value(b2, tau))),
                rel=1e-14)
            assert phi[i] == phi_phase(b1, b2, t1, t1 + tau)

    @pytest.mark.parametrize("src", [
        SRC, SourceConfig(g=0.01, bath1=OHMIC, bath2=SUPER, identical=False)],
        ids=["identical", "pair"])
    def test_broadcast_shape(self, src):
        # a (3, 1) x (1, 4) call gives (3, 4) arrays equal to the flat call
        t1, tau = np.array([[0.0], [2.0], [30.0]]), np.array([[0.0, 0.5, 3.0, 12.0]])
        flat = np.broadcast_arrays(t1, tau)
        outputs = [*coherence(src, t1, tau), coherence_factor(src, t1, tau),
                   visibility_nonidentical(src, t1, tau)]
        expected = [*coherence(src, *(a.ravel() for a in flat)),
                    coherence_factor(src, *(a.ravel() for a in flat)),
                    visibility_nonidentical(src, *(a.ravel() for a in flat))]
        for out, ref in zip(outputs, expected):
            assert out.shape == (3, 4)
            np.testing.assert_array_equal(out.ravel(), ref)

    # a Markovian bath is a pure rate law: no polaron shift, so no phase
    _T1S, _TAUS = np.array([0.0, 1.0, 40.0, 3.0]), np.array([0.0, 2.5, 7.0, 300.0])

    def test_markovian_pair_equal_coupling_is_identical(self):
        pair = SourceConfig(g=0.01, bath1=MARKOV, bath2=MARKOV, identical=False)
        np.testing.assert_array_equal(coherence_factor(pair, self._T1S, self._TAUS),
                                      coherence_factor(SRC_M, self._T1S, self._TAUS))

    def test_markovian_pair_unequal_coupling(self):
        weak = BathSpec(BathFamily.MARKOVIAN, 0.25, 10.0)
        for b1, b2 in ((weak, MARKOV), (MARKOV, weak)):
            pair = SourceConfig(g=0.01, bath1=b1, bath2=b2, identical=False)
            np.testing.assert_array_equal(
                coherence_factor(pair, self._T1S, self._TAUS),
                np.exp(-(gamma_closed_array(b1, self._TAUS)
                         + gamma_closed_array(b2, self._TAUS))))
            assert coherence_factor(pair, 2.0, 3.0) == math.exp(
                -(gamma_value(b1, 3.0) + gamma_value(b2, 3.0)))


class TestSurvival:
    def test_starts_at_one(self):
        assert survival_probability(SRC, 0.0) == 1.0

    def test_two_exponentials(self):
        assert survival_probability(SRC, 100.0) == pytest.approx(math.exp(-2))

    def test_bath_independent(self):
        values = set()
        for A in (0.0, 0.5, 5.0):
            bath = BathSpec(BathFamily.OHMIC, A, 10.0)
            src = SourceConfig.identical_sources(0.01, bath)
            values.add(survival_probability(src, 37.0))
        assert len(values) == 1


class TestFirstClick:
    def test_density_normalized(self):
        total, _ = integrate.quad(lambda t: first_click_density(SRC, t)[0],
                                  0, math.inf)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_fair_detector_split(self):
        for t in (0.0, 3.0, 250.0):
            assert first_click_density(SRC, t)[1] == 0.5
            assert first_click_density(SRC_M, t)[1] == 0.5

    def test_initial_density(self):
        assert first_click_density(SRC, 0.0)[0] == pytest.approx(0.02)


class TestConditionalState:
    def test_trivial_at_zero_separation(self):
        state = conditional_state(SRC, 5.0, 0.0)
        assert state.weight == 1.0
        assert state.coherence_mag == 1.0
        assert state.phase == 0.0

    def test_identical_ohmic_example(self):
        # 2 * Gamma_ohmic(1) = 0.360869166, frozen from the quadrature oracle
        state = conditional_state(SRC, 0.0, 1.0)
        assert state.weight == pytest.approx(math.exp(-0.01))
        assert state.coherence_mag == pytest.approx(0.697070193097, abs=1e-9)
        assert state.phase == 0.0

    def test_nonidentical_phase(self):
        weak = BathSpec(BathFamily.OHMIC, 0.25, 10.0)
        src = SourceConfig(g=0.01, bath1=weak, bath2=OHMIC, identical=False)
        state = conditional_state(src, 0.0, 1.0)
        assert state.phase == pytest.approx(0.25 * (1 - math.pi / 4), abs=1e-9)

    def test_minus_conditioning_flips_parity_only(self):
        plus = conditional_state(SRC, 0.0, 1.0, Detector.PLUS)
        minus = conditional_state(SRC, 0.0, 1.0, Detector.MINUS)
        assert minus.parity == -1
        assert (minus.weight, minus.coherence_mag, minus.phase) == \
            (plus.weight, plus.coherence_mag, plus.phase)

    def test_fully_dephased_state(self):
        # e^{-2 Gamma} = e^{-200 pi} underflows to 0, where the density exists
        src = SourceConfig.identical_sources(
            0.01, BathSpec(BathFamily.MARKOVIAN, 2.0, 0.1))
        state = conditional_state(src, 0.0, 10.0)
        assert state.coherence_mag == 0.0
        assert state.weight == math.exp(-0.1)
        assert second_click_density(src, 0.0, 10.0, True) == \
            0.5 * 0.01 * math.exp(-0.1)

    def test_fully_decayed_state(self):
        # g tau = 1000 > 745, so e^{-g tau} underflows to 0
        src = SourceConfig.identical_sources(
            0.01, BathSpec(BathFamily.OHMIC, 0.0, 10.0))
        state = conditional_state(src, 0.0, 1e5)
        assert state.weight == 0.0
        assert state.coherence_mag == 1.0

    @pytest.mark.parametrize("weight, mag", [
        (math.nan, 0.5), (0.5, math.nan), (-0.1, 0.5), (0.5, 1.1)])
    def test_rejects_out_of_range(self, weight, mag):
        with pytest.raises(ValueError):
            ConditionalState(tau=1.0, weight=weight, coherence_mag=mag,
                             phase=0.0)


class TestSecondClick:
    def test_no_dephasing_never_anticorrelates(self):
        bath = BathSpec(BathFamily.OHMIC, 0.0, 10.0)
        src = SourceConfig.identical_sources(0.01, bath)
        for tau in (0.0, 1.0, 50.0):
            assert second_click_density(src, 0.0, tau, False) == 0.0
            assert second_click_density(src, 0.0, tau, True) == \
                pytest.approx(0.01 * math.exp(-0.01 * tau), rel=1e-15)

    @pytest.mark.parametrize("tau", [0.0, 0.3, 1.0, 12.0])
    def test_detector_sum_rule(self, tau):
        for src in (SRC, SRC_M):
            total = second_click_density(src, 0.0, tau, True) \
                + second_click_density(src, 0.0, tau, False)
            assert total == pytest.approx(src.g * math.exp(-src.g * tau),
                                          rel=1e-14)

    def test_markovian_example(self):
        value = second_click_density(SRC_M, 0.0, 1.0, False)
        expected = 0.005 * math.exp(-0.01) * (1 - math.exp(-math.pi / 10))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_t1_independent_for_identical_sources(self):
        refs = [second_click_density(SRC, 0.0, 1.5, s) for s in (True, False)]
        for t1 in (5.0, 50.0):
            assert second_click_density(SRC, t1, 1.5, True) == refs[0]
            assert second_click_density(SRC, t1, 1.5, False) == refs[1]

    def test_total_two_click_probability(self):
        # first click (rate 2g) then second click (rate g) exhaust the
        # two-photon event space
        src = SRC_M
        inner, _ = integrate.quad(
            lambda tau: src.g * math.exp(-src.g * tau), 0, math.inf)
        outer, _ = integrate.quad(
            lambda t1: 2 * src.g * math.exp(-2 * src.g * t1), 0, math.inf)
        assert inner * outer == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative(self):
        for tau in (0.0, 0.1, 2.0, 30.0):
            for same in (True, False):
                assert second_click_density(SRC, 0.0, tau, same) >= 0.0
