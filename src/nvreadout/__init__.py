"""Rate-equation simulation and online laser-waveform optimization for
NV-center spin readout."""

from .config import load_config
from .errors import (
    ConfigurationError,
    FitError,
    NumericError,
    NVReadoutError,
    ObjectiveError,
    ParameterError,
    SamplingRangeError,
    UndefinedMetricError,
)
from .harness import (
    OloResult,
    OloSpec,
    SweepResult,
    SweepSpec,
    make_snr_objective,
    run_olo,
    run_sweep,
)
from .metrics import (
    SinusoidFit,
    contrast,
    expected_mean_deviation,
    fit_sinusoid,
    mean_deviation,
    snr,
)
from .optimizer import (
    OptimizerConfig,
    OptimizerState,
    QueryRecord,
    hj_optimize,
)
from .photophysics import (
    AmplitudeMap,
    Level,
    RateParams,
    build_rate_matrix,
    thermal_ground_state,
)
from .pumpsim import (
    PumpTrace,
    SequenceConfig,
    pair_window_counts,
    prepared_states,
    propagate_waveform,
    sample_counts,
    sampling_seed,
    simulate_pair,
    simulate_pump,
    window_expectation,
)
from .rabi import (
    RabiConfig,
    RabiCurve,
    SCHEMES,
    SchemeComparison,
    compare_schemes,
    rabi_expectations,
    scheme_sequences,
    simulate_rabi,
)
from .waveform import AmplitudeBounds, PiecewiseWaveform, make_constant

__version__ = "0.1.0"
