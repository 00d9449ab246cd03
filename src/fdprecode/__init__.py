"""Link-level simulator and constellation-design toolkit for rank-one
phase-feedback MIMO precoding.

The scheme transmits nt symbols per channel use through a precoder whose
columns all equal a unit-modulus vector chosen from nt - 1 fed-back angles;
with sum-injective constellation sets it achieves the full nt * nr diversity
order. The package implements the closed-form math, verifies its invariants
numerically, and reproduces the experimental methodology (CER sweeps,
normalized d^2_min distribution tests, diversity-slope fits) at desk scale.
Every random draw comes from one counter-based Philox path (`streams`),
addressed by seed, purpose, SNR point and trial.
"""

__version__ = "0.1.0"

from .constellation import (
    ConstellationSets,
    DiversityReport,
    GridSpec,
    OptimizationResult,
    average_energy,
    check_full_diversity,
    geometric_qam_family,
    load_constellation,
    optimize_rotations_scalings,
    preset,
    qam_points,
    save_constellation,
    sum_constellation,
)
from .detector import FastMLDecoder
from .errors import ConfigurationError, EnumerationBudgetError, InfeasibleDesignError
from .precoder import feedback_angles_batch
from .simulator import (
    CerCurve,
    SimConfig,
    estimate_diversity_slope,
    ks_test_chisq,
    run_cer_sweep,
    sample_dmin_pdf,
    wilson_interval,
)

__all__ = [
    "ConstellationSets", "DiversityReport", "GridSpec", "OptimizationResult",
    "average_energy", "check_full_diversity",
    "geometric_qam_family", "load_constellation",
    "optimize_rotations_scalings", "preset", "qam_points", "save_constellation",
    "sum_constellation", "FastMLDecoder",
    "ConfigurationError", "EnumerationBudgetError", "InfeasibleDesignError",
    "feedback_angles_batch", "CerCurve", "SimConfig",
    "estimate_diversity_slope", "ks_test_chisq", "run_cer_sweep", "sample_dmin_pdf",
    "wilson_interval",
]
