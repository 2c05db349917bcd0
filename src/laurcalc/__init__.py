"""Exact symbolic calculus for Laurent functionals on hyperplane
configurations, Weyl group combinatorics, and truncated exponential
polynomial series over the Gaussian rationals.
"""

from .scalars import GQ, gq_from_string, gq_to_string
from .poly import (
    ArityError,
    DiffOp,
    Polynomial,
    Space,
    j_map,
    leibniz_flatten,
    pi_product,
    quotient_rule,
)
from .config import (
    Configuration,
    Hyperplane,
    XSubspace,
    canonical_normal,
    hyperplanes_through,
    induced_config,
    pi_omega_d,
    subspace_from,
)
from .germs import (
    Germ,
    RationalFn,
    germ_add,
    germ_constant,
    germ_diff,
    germ_mul,
    germ_normalize,
    rationalfn_germ_at,
    rationalfn_restrict,
)
from .laurent import (
    LFSummand,
    LaurentFunctional,
    LaurentOrderError,
    laurent_operator_apply,
    lf_annihilator_witness,
    lf_apply,
    lf_apply_rational,
    lf_diagonal_apply,
    lf_diff_action,
    lf_from_evaluation,
    lf_mul_action,
    lf_pullback_fn,
    lf_pushforward,
    lf_residue,
    transverse_space,
)
from .rootsys import (
    BUILTIN_NAMES,
    Lattice,
    ParabolicData,
    RootSystem,
    WeylElement,
    builtin_system,
    class_lub,
    double_cosets,
    equiv_PQ,
    equiv_delta,
    exponent_classify,
    generic_witness,
    is_generic,
    min_coset_reps,
    preceq_delta,
    wq_subgroup,
)
from .series import (
    ExpPolySeries,
    RestrictedSeries,
    series_diffop,
    series_exponents,
    series_mul,
    series_restrict,
    series_split,
)

__version__ = "0.3.0"
