"""Every public name refuses malformed input by name, checked from one table.

Each row hands a name of ``laxforge.__all__`` a value of the right kind that
is malformed: an unknown mode or base, a float coefficient, a trace-mode
parse, a zero or non-square series, ``1/0``, and the like.  The call must raise
ValueError (ShapeError and ParseError included), TypeError or
ZeroDivisionError with a message that names the fault; a KeyError or an
AttributeError from deep inside, or a result, breaks the contract.
"""
import pytest

import laxforge
from laxforge import (FieldAtom, GaussianRational, LaurentSeries, NCPolynomial, PolyMatrix,
                      Word, atom, gr, is_total_t_derivative, nc_mul, parse_expression,
                      parse_poly, scalarize, series_invert, series_log, trace)

NAMED = (ValueError, TypeError, ZeroDivisionError)


def _matrix(base):
    return NCPolynomial.from_atom(atom(base), "matrix")


# public name -> [(what is malformed, call, exception, message fragment)]
CONTRACT = {
    "FieldAtom": [
        ("unknown base", lambda: FieldAtom("bogus"), ValueError, "'bogus'"),
        ("negative order", lambda: FieldAtom("u", dt=-1), ValueError, "non-negative"),
    ],
    "Word": [
        ("one atom, not a sequence", lambda: Word(atom("u")), TypeError, "FieldAtom"),
        ("strings, not atoms", lambda: Word(("u", "uh")), TypeError, "FieldAtom"),
    ],
    "atom": [
        ("unknown base", lambda: atom("bogus"), ValueError, "'bogus'"),
        ("unknown base, scalar", lambda: atom("bogus", mode="scalar"), ValueError, "'bogus'"),
        ("unknown mode", lambda: atom("u", mode="vector"), ValueError, "'vector'"),
    ],
    "GaussianRational": [
        ("float part", lambda: GaussianRational(0.5), TypeError, "float"),
        ("1/0", lambda: GaussianRational(1) / GaussianRational(0), ZeroDivisionError, "zero"),
    ],
    "gr": [
        ("float part", lambda: gr(1, 0.5), TypeError, "float"),
    ],
    "PolyMatrix": [
        ("float coefficient", lambda: PolyMatrix.from_rows("scalar", [[0.5, 0], [0, 1]]),
         TypeError, "float"),
        ("unknown mode", lambda: PolyMatrix.identity("vector", ("1",)), ValueError, "'vector'"),
        ("unknown mode, no entries", lambda: PolyMatrix("vector", (), (), []), ValueError,
         "'vector'"),
    ],
    "NCPolynomial": [
        ("unknown mode", lambda: NCPolynomial("vector", ("1", "1")), ValueError, "'vector'"),
        ("float unit", lambda: NCPolynomial.unit("scalar", "1", 0.5), TypeError, "float"),
        ("float word coefficient",
         lambda: NCPolynomial.from_word([atom("u", mode="scalar")], "scalar", 0.5),
         TypeError, "float"),
        ("float scale", lambda: _matrix("u").scale(0.5), TypeError, "float"),
    ],
    "is_total_t_derivative": [
        ("matrix mode", lambda: is_total_t_derivative(nc_mul(_matrix("u"), _matrix("uh"))),
         ValueError, "matrix mode"),
        ("an x-derivative atom", lambda: is_total_t_derivative(parse_poly("u*u + uh_x*pi")),
         ValueError, "x-derivative"),
        ("an x-derivative beside a constant",
         lambda: is_total_t_derivative(trace(parse_poly("1 + u_t*uh_x", mode="matrix"))),
         ValueError, "x-derivative"),
    ],
    "nc_mul": [
        ("shapes that do not chain", lambda: nc_mul(_matrix("u"), _matrix("u")),
         ValueError, "shapes"),
        ("modes that differ",
         lambda: nc_mul(_matrix("u"), NCPolynomial.from_atom(atom("u", mode="scalar"), "scalar")),
         ValueError, "mode"),
    ],
    "scalarize": [
        ("a block matrix", lambda: scalarize(PolyMatrix.identity("matrix", ("N", "M"))),
         TypeError, "PolyMatrix"),
    ],
    "trace": [
        ("open chain", lambda: trace(_matrix("u")), ValueError, "square"),
        ("scalar mode", lambda: trace(parse_poly("u*uh")), ValueError, "matrix-mode"),
    ],
    "parse_expression": [
        ("1/0", lambda: parse_expression("1/0"), ValueError, "1/0"),
        ("trace mode", lambda: parse_expression("u*uh", "trace"), ValueError, "'trace'"),
        ("unknown mode", lambda: parse_expression("u", "vector"), ValueError, "'vector'"),
    ],
    "parse_poly": [
        ("trace mode", lambda: parse_poly("u*uh", "trace"), ValueError, "'trace'"),
        ("open chain in trace mode", lambda: parse_poly("u", "trace"), ValueError, "'trace'"),
        ("spectral parameter", lambda: parse_poly("lam*u"), ValueError, "spectral"),
    ],
    "LaurentSeries": [
        ("unknown mode", lambda: LaurentSeries.zero("vector", ("1",), ("1",)),
         ValueError, "'vector'"),
    ],
    "series_invert": [
        ("zero series", lambda: series_invert(LaurentSeries.zero("scalar", ("1",), ("1",))),
         ValueError, "zero series"),
        ("non-square", lambda: series_invert(parse_expression("u", "matrix")),
         ValueError, "square"),
    ],
    "series_log": [
        ("matrix mode", lambda: series_log(parse_expression("1 + lam", "matrix")),
         ValueError, "scalar-mode"),
        ("zero series", lambda: series_log(LaurentSeries.zero("scalar", ("1",), ("1",))),
         ValueError, "zero series"),
    ],
}


def test_every_public_name_has_a_contract_row():
    assert set(laxforge.__all__) == set(CONTRACT), "names without a row, or rows without a name"


@pytest.mark.parametrize("call,error,fragment",
                         [row[1:] for rows in CONTRACT.values() for row in rows],
                         ids=[f"{name}: {row[0]}" for name, rows in CONTRACT.items()
                              for row in rows])
def test_a_public_name_refuses_malformed_input_by_name(call, error, fragment):
    assert issubclass(error, NAMED)
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)
