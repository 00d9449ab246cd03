"""Link-level simulator and constellation-design toolkit for rank-one
phase-feedback MIMO precoding.

The scheme transmits nt symbols per channel use through a precoder whose
columns all equal a unit-modulus vector chosen from nt - 1 fed-back angles;
with sum-injective constellation sets it achieves the full nt * nr diversity
order. The package implements the closed-form math, verifies its invariants
numerically, and reproduces the experimental methodology (CER sweeps,
normalized d^2_min distribution tests, diversity-slope fits) at desk scale.
"""

__version__ = "0.1.0"

from .channel import CrossTerms, gram_cross_terms, sample_channel, sample_noise
from .constellation import (
    ConstellationSets,
    DiversityReport,
    GridSpec,
    OptimizationResult,
    SumConstellation,
    average_energy,
    check_full_diversity,
    geometric_qam_family,
    load_constellation,
    min_sum_distance,
    optimize_rotations_scalings,
    preset,
    qam_points,
    save_constellation,
    sum_constellation,
)
from .detector import FastMLDecoder, ml_decode_bruteforce, ml_decode_fast
from .errors import ConfigurationError, EnumerationBudgetError, InfeasibleDesignError
from .precoder import (
    angles_for_channel,
    build_precoder,
    compute_feedback_angles,
    effective_channel,
    per_antenna_phase_residuals,
    phase_condition_residual,
    precoder_matrix,
)
from .simulator import (
    CerCurve,
    DminSamples,
    SimConfig,
    estimate_diversity_slope,
    ks_test_chisq,
    run_cer_sweep,
    sample_dmin_pdf,
    wilson_interval,
)
from .streams import substream

__all__ = [
    "CrossTerms", "gram_cross_terms", "sample_channel", "sample_noise",
    "ConstellationSets", "DiversityReport", "GridSpec", "OptimizationResult",
    "SumConstellation", "average_energy", "check_full_diversity",
    "geometric_qam_family", "load_constellation", "min_sum_distance",
    "optimize_rotations_scalings", "preset", "qam_points", "save_constellation",
    "sum_constellation", "FastMLDecoder", "ml_decode_bruteforce", "ml_decode_fast",
    "ConfigurationError", "EnumerationBudgetError", "InfeasibleDesignError",
    "angles_for_channel", "build_precoder", "compute_feedback_angles",
    "effective_channel", "per_antenna_phase_residuals", "phase_condition_residual",
    "precoder_matrix", "CerCurve", "DminSamples", "SimConfig",
    "estimate_diversity_slope", "ks_test_chisq", "run_cer_sweep", "sample_dmin_pdf",
    "wilson_interval", "substream",
]
