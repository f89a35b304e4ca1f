"""Double-scattering interference of intense laser light by two driven atoms.

The package computes the ladder (incoherent) and crossed (interference)
contributions to the backscattered intensity and its inelastic emission
spectrum for a pair of laser-driven four-level atoms, compares them against
closed-form references, and averages the interference contrast over random
pair geometries.
"""

from .acceptance import AcceptanceSuite, CheckResult
from .analysis import (
    ClassificationError,
    PeakReport,
    UndefinedEnhancementError,
    analyze_peak,
    filtered_enhancement,
    window_stats,
)
from .average import AverageSpec, ISOTROPIC_FACTOR, angular_factor, mc_average
from .generators import (
    exchange_generators,
    free_generator,
    partial_trace,
)
from .geometry import Configuration, PhysParams, exchange_coupling
from .oracle import (
    elastic_terms,
    enhancement_factor,
    inelastic_terms,
    strong_field_spectra,
    total_terms,
    weak_field_spectra,
)
from .perturbation import (
    DegeneracyError,
    IntensityTerms,
    PerturbativeState,
    build_expansion,
    intensity_terms,
    nonperturbative_intensity,
    numeric_enhancement,
    zeroth_steady_state,
)
from .spectrum import (
    GridCoverageError,
    ResolventPoleError,
    SpectrumEngine,
    SpectrumResult,
    cbs_spectrum,
    default_frequency_grid,
    integrate_spectrum,
    oracle_spectrum_result,
)

__version__ = "0.1.0"

__all__ = [
    "AcceptanceSuite",
    "AverageSpec",
    "CheckResult",
    "ClassificationError",
    "Configuration",
    "DegeneracyError",
    "GridCoverageError",
    "ISOTROPIC_FACTOR",
    "IntensityTerms",
    "PeakReport",
    "PerturbativeState",
    "PhysParams",
    "ResolventPoleError",
    "SpectrumEngine",
    "SpectrumResult",
    "UndefinedEnhancementError",
    "analyze_peak",
    "angular_factor",
    "build_expansion",
    "cbs_spectrum",
    "default_frequency_grid",
    "elastic_terms",
    "enhancement_factor",
    "exchange_coupling",
    "exchange_generators",
    "filtered_enhancement",
    "free_generator",
    "inelastic_terms",
    "integrate_spectrum",
    "intensity_terms",
    "mc_average",
    "nonperturbative_intensity",
    "numeric_enhancement",
    "oracle_spectrum_result",
    "partial_trace",
    "strong_field_spectra",
    "total_terms",
    "weak_field_spectra",
    "window_stats",
    "zeroth_steady_state",
    "__version__",
]
