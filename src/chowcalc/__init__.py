"""Exact intersection-theory calculator: graded rings, characteristic
classes, projective bundles, blow-ups, and the Mukai-flop verification."""

from .blowup import (
    BlowupClass,
    BlowupRing,
    EmbeddingData,
    embedding_validate,
    key_formula_check,
    linear_blowup,
    load_embedding,
)
from .chern import (
    BundleClass,
    CharClass,
    binomial,
    chern_character,
    dual_bundle,
    mukai_vector,
    power_sums,
    segre_classes,
    sqrt_one_series,
    tensor_by_line,
    todd_class,
    whitney_sum,
)
from .errors import ConsistencyError
from .flop import (
    FlopContext,
    sigma_top_product,
    term_A,
    term_B,
    term_C,
    verify_foundations,
    verify_multiplicativity,
)
from .projbundle import (
    PBElement,
    ProjBundleRing,
    binomial_identity_check,
    binomial_identity_sum,
    cw_top,
)
from .report import CheckResult, Report
from .rings import GradedElement, GradedRing

__all__ = [
    "BlowupClass",
    "BlowupRing",
    "BundleClass",
    "CharClass",
    "CheckResult",
    "ConsistencyError",
    "EmbeddingData",
    "FlopContext",
    "GradedElement",
    "GradedRing",
    "PBElement",
    "ProjBundleRing",
    "Report",
    "binomial",
    "binomial_identity_check",
    "binomial_identity_sum",
    "chern_character",
    "cw_top",
    "dual_bundle",
    "embedding_validate",
    "key_formula_check",
    "linear_blowup",
    "load_embedding",
    "mukai_vector",
    "power_sums",
    "segre_classes",
    "sigma_top_product",
    "sqrt_one_series",
    "tensor_by_line",
    "term_A",
    "term_B",
    "term_C",
    "todd_class",
    "verify_foundations",
    "verify_multiplicativity",
    "whitney_sum",
]

__version__ = "0.1.0"
