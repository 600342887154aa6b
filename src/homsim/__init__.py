"""Time-resolved Hong-Ou-Mandel interference from dephasing photon sources.

All quantities are dimensionless, in units of the bath cutoff frequency:
times are omega_c * t, rates are gamma / omega_c, temperatures enter as
theta = omega_c * beta.
"""

from .bath import (
    BathFamily,
    BathSpec,
    DecoherenceValue,
    GammaMethod,
    QuadratureError,
    gamma_closed,
    gamma_closed_array,
    gamma_quadrature,
    gamma_value,
    lambda_phase,
    lambda_phase_closed,
    phi_phase,
    spectral_density,
)
from .dynamics import (
    ConditionalState,
    Detector,
    SourceConfig,
    coherence,
    coherence_factor,
    conditional_state,
    first_click_density,
    second_click_density,
    survival_probability,
)
from .interference import (
    postselected_visibility,
    superohmic_asymptote,
    visibility,
    visibility_nonidentical,
    windowed_visibility,
    windowed_visibility_markovian,
    windowed_visibility_ohmic_lowT,
)
from .trajectories import (
    BinnedVisibility,
    ClickBatch,
    ClickRecord,
    EmptySelectionError,
    VisibilityEstimate,
    Window,
    binned_visibility,
    estimate_visibility,
    read_records,
    sample_record,
    simulate_ensemble,
    write_records,
)

__version__ = "0.1.0"
