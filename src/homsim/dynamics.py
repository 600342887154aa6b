"""Two-source click statistics in closed form.

Both emitters start in their excited state, decay at the same rate g
(dimensionless, g = gamma / omega_c) and are monitored through a 50:50 beam
splitter by two detectors.  Pure dephasing leaves the populations untouched,
so the click times are exponential; dephasing only enters the detector
correlations through the coherence factor exp(-(Gamma_1 + Gamma_2)) and the
relative phase phi.  Every time must be finite and >= 0 (else ValueError).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, _times, gamma_closed_array, phi_phase

__all__ = [
    "ConditionalState",
    "Detector",
    "SourceConfig",
    "coherence",
    "coherence_factor",
    "conditional_state",
    "first_click_density",
    "second_click_density",
    "survival_probability",
]


class Detector(str, enum.Enum):
    PLUS = "+"
    MINUS = "-"


@dataclass(frozen=True)
class SourceConfig:
    """A pair of single-photon sources with equal decay rate g.

    ``identical=True`` asserts both sources see the same environment, which
    kills the relative phase; it requires bath1 == bath2.
    """

    g: float
    bath1: BathSpec
    bath2: BathSpec
    identical: bool

    def __post_init__(self):
        if not 0 < self.g < math.inf:
            raise ValueError(f"decay rate g must be finite and > 0, got {self.g}")
        if self.identical and self.bath1 != self.bath2:
            raise ValueError("identical sources require bath1 == bath2")

    @classmethod
    def identical_sources(cls, g: float, bath: BathSpec) -> "SourceConfig":
        return cls(g=g, bath1=bath, bath2=bath, identical=True)


@dataclass(frozen=True)
class ConditionalState:
    """Reduced two-source state after the first click, as three scalars.

    The state lives entirely in the {|ge>, |eg>} block: equal populations
    weight/2 each, coherence (weight/2) * coherence_mag * exp(+-i phase).
    ``parity`` is +1 for a first click in D+, -1 for D-; it flips the sign
    of the coherence but no observable click density depends on it.
    """

    tau: float
    weight: float
    coherence_mag: float
    phase: float
    parity: int = 1

    def __post_init__(self):
        if not 0 <= self.weight <= 1 or not 0 <= self.coherence_mag <= 1:
            raise ValueError("weight and coherence_mag must lie in [0, 1]")
        if self.parity not in (1, -1):
            raise ValueError("parity must be +1 or -1")


def survival_probability(src: SourceConfig, t: float) -> float:
    """No-click probability over [0, t] from |ee>: exp(-2 g t).

    Independent of the dephasing baths, which conserve populations.
    """
    return math.exp(-2.0 * src.g * _times(t))


def first_click_density(src: SourceConfig, t: float) -> tuple[float, float]:
    """(total first-click density at t, probability the click is in D+).

    From |ee> both jump operators carry equal rate, so the split is exactly
    1/2 regardless of bath or time; the total density is 2 g exp(-2 g t).
    """
    return 2.0 * src.g * math.exp(-2.0 * src.g * _times(t)), 0.5


def coherence(src: SourceConfig, t1, tau):
    """(exp(-(Gamma_1 + Gamma_2)), phi(t1, t1 + tau)) of click pairs.

    Vectorizes over t1 and tau: both have the broadcast shape of (t1, tau).
    Identical sources have phi = 0.
    """
    t1, tau = _times(t1, tau)
    # Gamma depends on tau alone; adding zero broadcasts it against t1
    zero = np.zeros(np.broadcast(t1, tau).shape)
    g1 = gamma_closed_array(src.bath1, tau)
    if src.identical:
        return np.exp(-2.0 * g1) + zero, zero
    g2 = gamma_closed_array(src.bath2, tau)
    return (np.exp(-(g1 + g2)) + zero,
            phi_phase(src.bath1, src.bath2, t1, t1 + tau))


def coherence_factor(src: SourceConfig, t1, tau):
    """kappa = exp(-(Gamma_1 + Gamma_2)) cos phi, vectorized over t1 and tau.

    The probability that the second click repeats the first detector is
    (1 + kappa)/2, and |kappa| is the time-resolved visibility.
    """
    mag, phi = coherence(src, t1, tau)
    return mag * np.cos(phi)


def conditional_state(src: SourceConfig, t1: float, tau: float,
                      first_detector: Detector = Detector.PLUS) -> ConditionalState:
    """State of the remaining excitation a time tau after the first click."""
    mag, phi = coherence(src, t1, tau)
    parity = 1 if Detector(first_detector) is Detector.PLUS else -1
    return ConditionalState(
        tau=tau,
        weight=math.exp(-src.g * tau),
        coherence_mag=float(mag),
        phase=float(phi),
        parity=parity,
    )


def second_click_density(src: SourceConfig, t1: float, tau: float,
                         same_detector: bool) -> float:
    """Conditional density of the second click at separation tau.

        p(same)      = (g/2) e^{-g tau} [1 + e^{-(G1+G2)} cos phi]
        p(different) = (g/2) e^{-g tau} [1 - e^{-(G1+G2)} cos phi]

    The two branches sum to g e^{-g tau} exactly, and the result does not
    depend on which detector fired first.
    """
    kappa = float(coherence_factor(src, t1, tau))
    sign = 1.0 if same_detector else -1.0
    return 0.5 * src.g * math.exp(-src.g * tau) * (1.0 + sign * kappa)
