"""semistab: stability and scaling analysis for contraction semigroups.

The package builds negative self-adjoint operators (finite-difference
Dirichlet boxes), represents spectral measures on (-inf, 0] (among them
the closed-form measures of multiplication generators), evolves the
generated contraction semigroups in the spectral picture, estimates
decay and scaling exponents, classifies stability through the spectral
gap, and packages the whole thing into reproducible, config-driven
studies with a CLI front end.
"""

from .errors import (
    DomainError,
    InvariantViolation,
    PreconditionError,
    ResourceCapError,
)
from .measures import (
    AtomicMeasure,
    DensityMeasure,
    ScalingExponentEstimate,
    lacunary_measure,
    load_measure,
    measure_from_text,
    monomial_profile_measure,
    power_law_measure,
    sampled_density_measure,
    save_measure,
    scaling_exponents,
    uniform_measure,
)
from .operators import (
    DiscretizedOperator,
    MetricValue,
    Potential,
    constant_potential,
    discretize,
    exp_well,
    gaussian_well,
    load_potential,
    metric_d,
    potential_from_text,
    potential_to_text,
    resolvent_apply,
    sampled_potential,
    save_potential,
    shift_potential,
    spectral_measure,
    spectrum_to_csv,
    square_well,
    truncate_potential,
)
from .semigroup import (
    DEFAULT_ATOM_TOL,
    DEFAULT_GAP_TOL,
    RATIO_FLOOR,
    BetaDescriptor,
    BoundCheckValue,
    DecayExponentEstimate,
    GdeltaProbeResult,
    OrbitTrace,
    StabilityVerdict,
    check_fn_membership,
    classify_stability,
    decay_exponents,
    evolve_norms,
    format_number,
    gdelta_probe,
    orbit_to_csv,
    range_bound_check,
    shifted_range_bound_check,
    shifted_range_bound_checks,
)
from .experiments import (
    OUTPUT_DIR_ENV,
    STUDY_KINDS,
    ReportTable,
    SpotCheck,
    StudyConfig,
    StudyReport,
    VerdictLine,
    load_study_config,
    parse_scale_token,
    parse_scale_window,
    parse_study_config,
    resolve_output_dir,
    run_study,
    spot_check,
    study,
    write_report,
)

__version__ = "0.1.0"
