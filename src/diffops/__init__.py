"""Exact computation of almost-commuting bases of ordinary differential
operators and the Gelfand-Dickey hierarchy polynomials, with an
independent truncated pseudo-differential oracle."""

from .basis import (
    AlmostCommutingResult,
    BracketSystem,
    NotTriangularError,
    almost_commuting,
    bracket_system,
    generic_L,
    generic_P,
    solve_triangular,
)
from .cache import ResultCache
from .hierarchy import (
    FlowEquation,
    RecursionOperator,
    gd_equations,
    kdv_recursion_operator,
    kdv_sequence,
)
from .integration import (
    Decomposition,
    NotTotalDerivativeError,
    antiderivative,
    decompose,
    euler,
)
from .operators import DiffOperator, commutator
from .polynomials import (
    DiffPolynomial,
    IncompleteSolutionError,
    NotHomogeneousError,
    VarId,
    c,
    u,
    y,
)
from .pseudo import (
    InsufficientDepthError,
    TruncatedPDO,
    nth_root,
)

__version__ = "0.1.0"

__all__ = [
    "AlmostCommutingResult",
    "BracketSystem",
    "Decomposition",
    "DiffOperator",
    "DiffPolynomial",
    "FlowEquation",
    "IncompleteSolutionError",
    "InsufficientDepthError",
    "NotHomogeneousError",
    "NotTotalDerivativeError",
    "NotTriangularError",
    "RecursionOperator",
    "ResultCache",
    "TruncatedPDO",
    "VarId",
    "almost_commuting",
    "antiderivative",
    "bracket_system",
    "c",
    "commutator",
    "decompose",
    "euler",
    "gd_equations",
    "generic_L",
    "generic_P",
    "kdv_recursion_operator",
    "kdv_sequence",
    "nth_root",
    "solve_triangular",
    "u",
    "y",
]
