"""Numerical laboratory for weighted ergodic averages on matrix algebras.

Finite direct sums of matrix blocks with a weighted trace stand in for the
general tracial setting; absolute contractions, multiparameter weighted
averages, Besicovitch-type weights, dominant-element maximal bounds, and
projection certificates of uniform tail smallness are all realized at
desk scale with verifiable reports.
"""

from .algebra import (
    Algebra,
    Box,
    Element,
    Projection,
    element_from_text,
    element_to_text,
    is_positive,
    lp_norm,
    modulus,
    positive_part,
    spectral_projection,
    trace,
)
from .averages import (
    AverageFamily,
    LimitResult,
    ergodic_average_family,
    limit_oracle,
    weighted_average_direct,
    weighted_average_factorized,
    weighted_average_grid,
)
from .bau import (
    BauCertificate,
    certify_bau,
    certify_bau_complex,
    onset_ladder,
)
from .contraction import (
    AbsoluteContraction,
    LinearOperator,
    VerificationReport,
    apply_power,
    cesaro_limit_projection,
    choi_matrix,
    composition,
    convex_combination,
    identity_map,
    kraus,
    pinching,
    scaled_unitary,
    schur_multiplier,
    substochastic,
    verify_absolute_contraction,
)
from .errors import (
    BudgetError,
    ConfigError,
    IntegrityError,
    NcError,
    NumericError,
    StructuralError,
    UnsupportedError,
)
from .maximal import (
    DominantReport,
    InterpolationReport,
    MaximalLadderReport,
    PreparedFamily,
    dominant_element,
    interpolation_check,
    maximal_inequality_report,
    prepare_family,
)
from .scenario import (
    RunReport,
    ScenarioConfig,
    TOOL_VERSION,
    emit_report,
    load_scenario,
    parse_report,
    report_to_text,
    run_scenario,
    scenario_from_dict,
)
from .weights import (
    BesicovitchReport,
    BesicovitchWeight,
    InverseMinDecay,
    PeriodicZeroMean,
    SeededNoise,
    TrigPolynomial,
    TrigTerm,
    verify_besicovitch,
)

__version__ = TOOL_VERSION

__all__ = [
    "Algebra", "Box", "Element", "Projection", "element_from_text",
    "element_to_text", "is_positive", "lp_norm", "modulus", "positive_part",
    "spectral_projection", "trace",
    "AverageFamily", "LimitResult", "ergodic_average_family", "limit_oracle",
    "weighted_average_direct", "weighted_average_factorized",
    "weighted_average_grid",
    "BauCertificate", "certify_bau", "certify_bau_complex", "onset_ladder",
    "AbsoluteContraction", "LinearOperator", "VerificationReport",
    "apply_power", "cesaro_limit_projection", "choi_matrix", "composition",
    "convex_combination", "identity_map", "kraus", "pinching",
    "scaled_unitary", "schur_multiplier", "substochastic",
    "verify_absolute_contraction",
    "BudgetError", "ConfigError", "IntegrityError", "NcError",
    "NumericError", "StructuralError", "UnsupportedError",
    "DominantReport", "InterpolationReport", "MaximalLadderReport",
    "PreparedFamily", "dominant_element", "interpolation_check",
    "maximal_inequality_report", "prepare_family",
    "RunReport", "ScenarioConfig", "TOOL_VERSION", "emit_report",
    "load_scenario", "parse_report", "report_to_text", "run_scenario",
    "scenario_from_dict",
    "BesicovitchReport", "BesicovitchWeight", "InverseMinDecay",
    "PeriodicZeroMean", "SeededNoise", "TrigPolynomial", "TrigTerm",
    "verify_besicovitch",
    "__version__",
]
