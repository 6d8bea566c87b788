"""Non-finite-generation loci of squarefree monomial quotients.

Exact monomial-ideal arithmetic, simplicial complexes with the squarefree
correspondence, a degree-two finite-generation criterion for the attached
prime-characteristic endomorphism algebras, a bounded degree-wise
generation oracle, and the closed locus where finite generation fails,
computed by two independent routes.
"""

from .criterion import (
    OracleParams,
    criterion_witness,
    degree_generation_ideal,
    degreewise_report,
    frobenius_colon,
    generated_up_to,
    is_finitely_generated,
    new_generators_vanish,
)
from .locus import (
    LocusResult,
    MethodDisagreementError,
    is_nci,
    locus_algebraic,
    locus_combinatorial,
    nci_locus,
    non_fg_locus,
)
from .monomials import (
    EXPONENT_LIMIT,
    MAX_VARIABLES,
    ContextMismatchError,
    ExponentLimitError,
    Monomial,
    MonomialIdeal,
    RingContext,
)
from .parsing import ParseError, ProblemInput, parse_face, parse_monomial, parse_problem
from .simplicial import (
    Face,
    SimplicialComplex,
    face_key,
    face_monomial,
    face_prime,
    format_face,
)

__version__ = "0.1.0"

__all__ = [
    "ContextMismatchError",
    "EXPONENT_LIMIT",
    "ExponentLimitError",
    "Face",
    "LocusResult",
    "MAX_VARIABLES",
    "MethodDisagreementError",
    "Monomial",
    "MonomialIdeal",
    "OracleParams",
    "ParseError",
    "ProblemInput",
    "RingContext",
    "SimplicialComplex",
    "criterion_witness",
    "degree_generation_ideal",
    "degreewise_report",
    "face_key",
    "face_monomial",
    "face_prime",
    "format_face",
    "frobenius_colon",
    "generated_up_to",
    "is_finitely_generated",
    "is_nci",
    "locus_algebraic",
    "locus_combinatorial",
    "nci_locus",
    "new_generators_vanish",
    "non_fg_locus",
    "parse_face",
    "parse_monomial",
    "parse_problem",
    "__version__",
]
