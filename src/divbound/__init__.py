"""divbound: non-symmetric divergence measures, their type-s generalizations,
and certified two-sided inequality constants over likelihood-ratio intervals.

The package is organized as a small numpy library:

    simplex     validated distributions, ratio intervals, Dirichlet sampling
    measures    the twelve classical measures and their decomposition identities
    families    the Phi/Omega/Zeta type-s families, exact for every real s
    generators  convex generating functions, derivatives, f-divergence engine
    bounds      curvature-ratio extrema, the ten-family certificate catalog
    verify      Monte-Carlo harness and independent numeric oracles
    cli         the `divbound` command-line front end

families and generators branch on neither s == 0 nor s == 1: they use
(y^a - 1)/a = ln(y) expm1(a ln y)/(a ln y), exact through a = 0, in one
of two algebraically equal forms chosen by s >= 1/2.
"""

from .bounds import (
    BoundCertificate,
    CertificateSource,
    Corollary,
    InequalityFamily,
    SandwichReport,
    closed_form_mM,
    corollary_table,
    g_ratio,
    in_region,
    numeric_mM,
    printed_mM,
    sandwich_check,
)
from .errors import (
    ConfigInvalid,
    DegenerateDenominator,
    DivboundError,
    InvalidArgument,
    LengthMismatch,
    NonFiniteValue,
    NonPositiveArgument,
    NonPositiveMass,
    NotNormalized,
    RegionViolation,
    SamplingExhausted,
    TooShort,
)
from .families import Family, FamilyId, family_value, in_convex_range, omega_s, phi_s, zeta_s
from .generators import (
    ConvexityScan,
    Gen,
    GeneratorSpec,
    GeneratorValue,
    convexity_scan,
    csiszar,
    gen_eval,
)
from .measures import (
    MeasureId,
    MeasureKind,
    Orientation,
    evaluate,
    identity_residuals,
)
from .simplex import (
    Distribution,
    RatioBounds,
    load_distribution,
    normalize,
    ratio_bounds,
    sample_pair,
    validate,
)
from .verify import (
    TightnessReport,
    VerificationReport,
    VerifyConfig,
    brute_force_mM,
    run,
    tightness_scan,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate",
    "CertificateSource",
    "ConfigInvalid",
    "ConvexityScan",
    "Corollary",
    "DegenerateDenominator",
    "Distribution",
    "DivboundError",
    "Family",
    "FamilyId",
    "Gen",
    "GeneratorSpec",
    "GeneratorValue",
    "InequalityFamily",
    "InvalidArgument",
    "LengthMismatch",
    "MeasureId",
    "MeasureKind",
    "NonFiniteValue",
    "NonPositiveArgument",
    "NonPositiveMass",
    "NotNormalized",
    "Orientation",
    "RatioBounds",
    "RegionViolation",
    "SamplingExhausted",
    "SandwichReport",
    "TightnessReport",
    "TooShort",
    "VerificationReport",
    "VerifyConfig",
    "brute_force_mM",
    "closed_form_mM",
    "convexity_scan",
    "corollary_table",
    "csiszar",
    "evaluate",
    "family_value",
    "g_ratio",
    "gen_eval",
    "identity_residuals",
    "in_convex_range",
    "in_region",
    "load_distribution",
    "normalize",
    "numeric_mM",
    "omega_s",
    "phi_s",
    "printed_mM",
    "ratio_bounds",
    "run",
    "sample_pair",
    "sandwich_check",
    "tightness_scan",
    "validate",
    "zeta_s",
]
