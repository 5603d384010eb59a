"""Synthesis of ergodic non-Gaussian vector processes from spectral targets.

Sample functions of stationary, third-order stationary vector processes are
generated as finite cosine series whose amplitudes come from a prescribed
cross power spectral density and cross-bispectral density.  A multi-indexed
frequency discretization makes every record periodic, with single-record
time averages over that period matching the discrete ensemble targets.  One
compiled :class:`Synthesizer` per run produces every record through the
offset-channel FFT; direct cosine summation is kept as its oracle.
"""

from .decomposition import (
    InverseFactor,
    SpectralFactor,
    factor_spectrum,
    invert_factor,
)
from .errors import (
    CoefficientOverflowError,
    ConfigError,
    InfeasibleBispectrumError,
    InvalidEnsembleError,
    InvalidInputError,
    InvalidParameterError,
    NotPositiveSemidefiniteError,
    SampleCorruptionError,
    SampleFormatError,
    SingularFactorError,
    SingularPureSpectrumError,
    Srm3Error,
    UnsupportedConfigurationError,
)
from .estimators import (
    MomentReport,
    MomentRow,
    NonErgodicRecordWarning,
    build_terms,
    ensemble_moments,
    standard_moment_labels,
    temporal_cross_correlation,
    temporal_mean,
    temporal_third_moment,
)
from .fft import (
    OffsetChannelCoefficients,
    Synthesizer,
    assemble_coefficients,
    simulate_3rd_order_mv_fft,
    synthesize_fft,
)
from .grids import FrequencyGrid, OffsetRule
from .pure import PureSpectrum, compute_pure_multivariate
from .simulate import (
    Method,
    PhaseSet,
    SampleRecord,
    SamplingPlan,
    draw_phases,
    simulate_2nd_order_mv,
    simulate_3rd_order_mv,
    simulate_3rd_order_uv,
)
from .spectra import (
    CrossBispectrum,
    CrossSpectrum,
    ValidationReport,
    Violation,
    validate_bispectrum,
    validate_spectrum,
    zero_bispectrum,
)
from .terms import TermSet, build_third_order_terms
from .wind import (
    build_davenport_coherence,
    build_example_targets,
    build_kaimal_psd,
    example_grid,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
