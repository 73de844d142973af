"""
schubfactor: exact sums of Schubert polynomials that factor into linear forms.

The package constructs block-assembled permutation families (orthogonal and
symplectic), factored ordinary and block-torus equivariant class formulas,
and verifies mechanically that the sum of Schubert polynomials over a family
equals the corresponding product of linear forms, as an identity of integer
polynomials.
"""

from .composition import Composition, enumerate_compositions, parse_composition
from .permutation import (
    Permutation,
    all_permutations,
    from_code,
    identity,
    longest_element,
    parse_permutation,
)
from .polynomial import Polynomial, VariableSpace, product_of_linear_forms
from .schubert import (
    SchubertExpansion,
    expand_in_schubert_basis,
    in_staircase_span,
    pipe_dreams,
    schubert_poly,
    schubert_poly_oracle,
    schubert_sum,
)
from .wset import (
    WSet,
    block_word,
    standardize,
    symplectic_embedding,
    unstandardize,
    w_set_full_orthogonal,
    w_set_full_symplectic,
    w_set_orthogonal,
    w_set_symplectic,
)
from .cohomology import (
    FactoredClass,
    base_class_orthogonal,
    base_class_symplectic,
    block_pair_factor,
    cross_block_chern_class,
    cross_block_roots,
    cross_block_factor,
    cross_pair_factor,
    equivariant_class_orthogonal,
    equivariant_class_symplectic,
    fixed_point_weight_product,
    half_block_factor,
    ordinary_class_orthogonal,
    ordinary_class_symplectic,
    restrict_to_block_torus,
    restrict_to_fixed_point,
    zero_equivariant_vars,
)
from .verifier import (
    FAMILIES,
    ORTHOGONAL,
    SYMPLECTIC,
    IdentityReport,
    sweep,
    verify_equivariant_suite,
    verify_identity,
    verify_identity_for_members,
)

__all__ = [
    "Composition",
    "FactoredClass",
    "FAMILIES",
    "IdentityReport",
    "ORTHOGONAL",
    "Permutation",
    "Polynomial",
    "SchubertExpansion",
    "SYMPLECTIC",
    "VariableSpace",
    "WSet",
    "all_permutations",
    "base_class_orthogonal",
    "base_class_symplectic",
    "block_pair_factor",
    "block_word",
    "cross_block_chern_class",
    "cross_block_roots",
    "cross_block_factor",
    "cross_pair_factor",
    "enumerate_compositions",
    "equivariant_class_orthogonal",
    "equivariant_class_symplectic",
    "expand_in_schubert_basis",
    "fixed_point_weight_product",
    "from_code",
    "half_block_factor",
    "identity",
    "in_staircase_span",
    "longest_element",
    "ordinary_class_orthogonal",
    "ordinary_class_symplectic",
    "parse_composition",
    "parse_permutation",
    "pipe_dreams",
    "product_of_linear_forms",
    "restrict_to_block_torus",
    "restrict_to_fixed_point",
    "schubert_poly",
    "schubert_poly_oracle",
    "schubert_sum",
    "standardize",
    "sweep",
    "symplectic_embedding",
    "unstandardize",
    "verify_equivariant_suite",
    "verify_identity",
    "verify_identity_for_members",
    "w_set_full_orthogonal",
    "w_set_full_symplectic",
    "w_set_orthogonal",
    "w_set_symplectic",
    "zero_equivariant_vars",
]

__version__ = "0.1.0"
