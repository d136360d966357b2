"""linalg against sympy on seeded random integer matrices."""

import random
from fractions import Fraction

import sympy

from horocycle.linalg import char_poly, nullspace, rref
from matrices import dense, rank, sparse


def _fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def _matrices(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.3, 0.6, 1.0))
        yield [[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(m)] for _ in range(n)]


def test_rank_and_rref_match_sympy():
    for mat in _matrices(21, 150):
        red, pivots = sympy.Matrix(mat).rref()
        assert rank(sparse(mat)) == sympy.Matrix(mat).rank()
        ours, our_pivots = rref(sparse(mat))
        padded = dense(ours, len(mat[0])) + [[0] * len(mat[0])] * (len(mat) - len(ours))
        assert (padded, our_pivots) == ([[_fraction(x) for x in red.row(i)] for i in range(red.rows)], list(pivots))


def test_nullspace_spans_match_sympy():
    for mat in _matrices(22, 150):
        basis = sympy.Matrix(mat).nullspace()
        kernel = dense(nullspace(sparse(mat), len(mat[0])), len(mat[0]))
        if not basis:
            assert kernel == []
            continue
        theirs = sympy.Matrix.hstack(*basis).T
        ours = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v] for v in kernel])
        assert ours.rows == theirs.rows == ours.rank() == theirs.rank()
        assert sympy.Matrix.vstack(ours, theirs).rank() == ours.rows


def test_char_poly_matches_sympy():
    x = sympy.Symbol("x")
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 6)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        expected = [_fraction(c) for c in sympy.Matrix(mat).charpoly(x).all_coeffs()]
        assert char_poly(sparse(mat)) == expected
