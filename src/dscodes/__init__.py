"""Exact toolkit for linear codes built from defining sets over GF(p^m).

Construct difference-set and Boolean-function families, take Walsh spectra
and quadratic ranks, enumerate weight distributions without sampling error,
and compare them against closed-form predictions.

The public names resolve on first access (PEP 562), so importing the package,
or one submodule of it, loads only the submodules that are used.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "boolfn": ("classify_spectrum", "is_almost_bent", "quadratic_galois_sum", "quadratic_rank",
               "walsh_transform"),
    "codes": ("WeightEnumerator", "codeword", "compare_prediction", "dual_distance_witness",
              "generator_matrix", "griesmer_check", "minimum_distance", "pless_moment_check",
              "predicted_enumerator", "prediction_for", "weight_enumerator", "weight_via_charsum"),
    "cyclotomic": ("char_sum", "is_rational"),
    "designs": ("AdditiveGroup", "AlmostDifferenceSet", "CyclicGroup", "DefiningSet",
                "DifferenceSet", "FuncSpec", "IrregularDesign", "boolean_support",
                "classify_design", "complement_in_group", "defining_set", "eto1_check",
                "family", "hkm_set", "image_set", "is_skew_set", "maschietti_set", "paley_set",
                "parse_func_spec", "to_cyclic_residues"),
    "errors": ("ToolkitError",),
    "gf": ("Field", "default_field", "gfp_rank"),
    "verify": ("CaseReport", "run_case", "run_cases"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
