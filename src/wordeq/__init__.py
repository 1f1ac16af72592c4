"""Exact tools for constant-free word equations via polynomial encodings."""

from .covers import (
    CoverError,
    Hyperplane,
    HyperplaneCover,
    balance_theorem_check,
    chain_bound,
    chain_bound_corollary,
    chain_check,
    cover_pair,
    cover_soundness_check,
    graph_components,
    graph_lemma_check,
    pair_form_check,
)
from .equations import (
    Equation,
    PolyMatrix,
    balance_profile,
    coefficient_matrix,
    coefficient_row,
    parse_system,
    q_polynomial,
    rank_polymatrix,
    rational_matrix_rank,
    residual,
)
from .errors import InputFormatError, TheoremCheckError
from .genpoly import (
    GenPoly,
    LinForm,
    MultiPoly,
    iso_multivariate,
    minor_t,
    parse_genpoly,
    s_polynomial,
)
from .oracle import (
    EnumerationBudget,
    SolutionSet,
    entire_system_sample,
    enumerate_solutions,
    independence_check,
    power_identity_check,
    rank_theorem_check,
)
from .polynomials import (
    FineWilfVerdict,
    IntPolynomial,
    RationalFunction,
    encode_poly,
    encode_ratfun,
    fine_wilf_check,
    parse_polynomial,
    primdiv_check,
)
from .transforms import (
    AbelianMatrix,
    ElementaryTransformation,
    SolutionFactorization,
    abelian_matrix,
    factorize_solution,
    position_matrix,
    verify_composition_identities,
)
from .words import (
    LengthType,
    Morphism,
    Word,
    combinatorial_rank,
    commute_check,
    is_periodic,
    parse_morphism,
    parse_word,
    primitive_root,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
