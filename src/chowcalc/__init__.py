"""Exact intersection-theory calculator: graded rings, characteristic
classes, projective bundles, blow-ups, and the Mukai-flop verification.

The public names load lazily (PEP 562): ``chowcalc.X`` imports X's home
module on first access, so ``from chowcalc import chern`` loads ``rings``
and ``chern`` and none of the blow-up, flop or report layers."""

from importlib import import_module

_HOMES = {
    "blowup": ("BlowupClass", "BlowupRing", "EmbeddingData", "embedding_validate",
               "key_formula_check", "linear_blowup", "load_embedding"),
    "chern": ("BundleClass", "CharClass", "binomial", "chern_character", "dual_bundle",
              "mukai_vector", "power_sums", "segre_classes", "sqrt_one_series",
              "tensor_by_line", "todd_class", "whitney_sum"),
    "errors": ("ConsistencyError",),
    "flop": ("FlopContext", "sigma_top_product", "term_A", "term_B", "term_C",
             "verify_foundations", "verify_multiplicativity"),
    "projbundle": ("PBElement", "ProjBundleRing", "binomial_identity_check",
                   "binomial_identity_sum", "cw_top"),
    "report": ("CheckResult", "Report"),
    "rings": ("GradedElement", "GradedRing"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, read from its home module on every access (not cached,
    so a name patched in its home module reads patched here too)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)
