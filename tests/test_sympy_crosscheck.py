"""linalg, `apply_op`, `QuotientRing.normal_form` and `poly_try_divide`
against sympy on seeded random or exhaustive inputs."""

import random
from fractions import Fraction

import sympy

from horocycle.exactalg import (
    MAT2_VARS,
    ExactPoly,
    compositions,
    det_poly,
    horocycle_ring,
    mat2_ring,
    poly_try_divide,
    sl2_ring,
)
from horocycle.linalg import char_poly, nullspace, rref
from horocycle.weyl import WeylOp, apply_op
from matrices import dense, rank, sparse

GENS = sympy.symbols(MAT2_VARS)


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


def _sympy_poly(f: ExactPoly):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(g**k for g, k in zip(GENS, e)))
                       for e, c in f.terms.items()))


def _exponent(rng, degree):
    e = [0] * 4
    for _ in range(rng.randint(0, degree)):
        e[rng.randrange(4)] += 1
    return tuple(e)


def _coef(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _random_poly(rng, degree, terms):
    return ExactPoly(MAT2_VARS, {_exponent(rng, degree): _coef(rng) for _ in range(terms)})


def test_apply_op_matches_sympy_differentiation():
    # each operator acts on several polynomials, so its apply plan is reused
    rng = random.Random(31)
    for _ in range(40):
        op = WeylOp(MAT2_VARS, {(_exponent(rng, 2), _exponent(rng, 3)): _coef(rng) for _ in range(rng.randint(1, 5))})
        for _ in range(3):
            f = _random_poly(rng, 5, rng.randint(1, 6))
            expected = 0
            for (xe, de), c in op.terms.items():
                term = _sympy_poly(f)
                for g, k in zip(GENS, de):
                    term = sympy.diff(term, g, k)
                expected += _sympy_poly(ExactPoly.monomial(MAT2_VARS, xe, c)) * term
            assert sympy.expand(_sympy_poly(apply_op(op, f)) - expected) == 0


def test_normal_form_matches_sympy_reduction():
    rng = random.Random(32)
    for ring in (mat2_ring(), sl2_ring(), horocycle_ring()):
        relations = [] if ring.relation is None else [_sympy_poly(ring.relation)]
        for _ in range(40):
            f = _random_poly(rng, 6, rng.randint(1, 6))
            _, remainder = sympy.reduced(_sympy_poly(f), relations, *GENS, order="grlex")
            assert sympy.expand(_sympy_poly(ring.normal_form(f)) - remainder) == 0


def test_monomial_division_matches_sympy_div():
    # a*d and 2b are single terms, the other divisors are not, so both exact refusals run
    V = MAT2_VARS
    a, b, d = (ExactPoly.monomial(V, e) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)))
    det = det_poly()
    divisors = [(dv, sympy.Poly(_sympy_poly(dv), *GENS, domain="QQ")) for dv in (det, det - 1, a * d, 2 * b, a + b)]
    divided = 0
    for degree in range(7):
        for e in compositions(degree, 4):
            for coef in (1, -3, Fraction(2, 5)):
                f = ExactPoly.monomial(V, e, coef)
                for dv, theirs in divisors:
                    q, r = sympy.Poly(_sympy_poly(f), *GENS, domain="QQ").div(theirs)
                    expected = ExactPoly(V, {k: _fraction(c) for k, c in q.terms()}) if r.is_zero else None
                    assert poly_try_divide(f, dv) == expected, (f, dv)
                    divided += expected is not None
    assert divided == 3 * (70 + 126)  # a*d times the monomials of degree <= 4, b times those of degree <= 5
