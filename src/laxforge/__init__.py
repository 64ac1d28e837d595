"""laxforge: exact symbolic engine for the time-like NLS hierarchy.

Riccati series solutions, conserved charges, the flow-operator hierarchy via
generating-function and dressing routes, classical reflection/Poisson checks,
and integrable time-like boundary conditions, with an independent numeric
oracle.  All symbolic arithmetic is exact (Gaussian rationals; Laurent
polynomials over Q(i) in the boundary constants).
"""

from .atoms import FieldAtom, Word, atom
from .coeff import GaussianRational, gr
from .matrices import PolyMatrix
from .ncpoly import NCPolynomial, is_total_t_derivative, nc_mul, scalarize, trace
from .parser import parse_expression, parse_poly
from .series import LaurentSeries, series_invert, series_log

__all__ = [
    "FieldAtom", "Word", "atom", "GaussianRational", "gr", "PolyMatrix",
    "NCPolynomial", "is_total_t_derivative", "nc_mul", "scalarize", "trace",
    "parse_expression", "parse_poly", "LaurentSeries",
    "series_invert", "series_log",
]

__version__ = "0.1.0"
