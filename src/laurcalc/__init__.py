"""Exact symbolic calculus for Laurent functionals on hyperplane
configurations, Weyl group combinatorics, and truncated exponential
polynomial series over the Gaussian rationals.

Each exported name is imported from its module on first access (PEP 562),
so a process loads only the layers it uses.
"""

_EXPORTS = {
    "scalars": ("GQ", "gq_from_string", "gq_to_string"),
    "space": ("ArityError", "Space"),
    "poly": ("DiffOp", "Polynomial", "j_map", "leibniz_flatten", "pi_product", "quotient_rule"),
    "config": (
        "Configuration", "Hyperplane", "XSubspace", "canonical_normal", "hyperplanes_through", "induced_config",
        "pi_omega_d", "subspace_from",
    ),
    "germs": (
        "Germ", "RationalFn", "germ_add", "germ_constant", "germ_diff", "germ_mul", "germ_normalize",
        "rationalfn_germ_at", "rationalfn_restrict",
    ),
    "laurent": (
        "LFSummand", "LaurentFunctional", "LaurentOrderError", "laurent_operator_apply", "lf_annihilator_witness",
        "lf_apply", "lf_apply_rational", "lf_diagonal_apply", "lf_diff_action", "lf_from_evaluation",
        "lf_mul_action", "lf_pullback_fn", "lf_pushforward", "lf_residue", "transverse_space",
    ),
    "lattice": ("Lattice",),
    "rootsys": (
        "BUILTIN_NAMES", "ParabolicData", "RootSystem", "WeylElement", "builtin_system", "class_lub",
        "double_cosets", "equiv_PQ", "equiv_delta", "exponent_classify", "generic_witness",
        "min_coset_reps", "preceq_delta", "wq_subgroup",
    ),
    "series": (
        "ExpPolySeries", "RestrictedSeries", "series_diffop", "series_exponents", "series_mul", "series_restrict",
        "series_split",
    ),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE)

__version__ = "0.3.0"


def __getattr__(name):
    module = _MODULE.get(name)
    if module is None:
        # not an export: ``from laurcalc import io`` goes on to the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value
