import math
import random
from fractions import Fraction

import pytest

from horocycle.exactalg import (
    BOTTOM,
    ArityMismatch,
    ExactPoly,
    MAT2_VARS,
    QuotientRing,
    det_poly,
    horocycle_ring,
    mat2_ring,
    poly_from_json,
    poly_from_text,
    poly_to_json,
    poly_to_text,
    poly_try_divide,
    pw_level,
    pw_level_oracle,
    sl2_ring,
    vanishing_order,
)

V = MAT2_VARS
a = ExactPoly.variable(V, "a")
b = ExactPoly.variable(V, "b")
c = ExactPoly.variable(V, "c")
d = ExactPoly.variable(V, "d")


def rand_poly(rng, degree=4, terms=5):
    t = {}
    for _ in range(terms):
        e = [0, 0, 0, 0]
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(4)] += 1
        t[tuple(e)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return ExactPoly(V, t)


def test_normal_form_defining_relations():
    assert sl2_ring().normal_form(a * d) == b * c + 1
    assert horocycle_ring().normal_form(a * d) == b * c
    assert sl2_ring().normal_form((a * d) ** 2) == (b * c + 1) ** 2


def test_normal_form_idempotent_and_ring_map():
    rng = random.Random(101)
    R = sl2_ring()
    for _ in range(40):
        f, g = rand_poly(rng), rand_poly(rng)
        nf = R.normal_form(f)
        assert R.normal_form(nf) == nf
        assert R.normal_form(f * g) == R.normal_form(R.normal_form(f) * R.normal_form(g))


def test_normal_form_rewrites_ad_on_sl2():
    assert sl2_ring().normal_form(a * d) == b * c + 1


def test_pw_level_examples():
    R = sl2_ring()
    assert pw_level(a, R) == 1
    assert pw_level(ExactPoly.constant(V, 1), R) == 0
    assert pw_level(a * d, R) == 2
    assert pw_level(ExactPoly.zero(V), R) is BOTTOM
    # plain degree on the graded rings
    assert pw_level(a * d, horocycle_ring()) == 2
    assert pw_level(a * b, mat2_ring()) == 2


def test_pw_level_matches_oracle():
    rng = random.Random(7)
    R = sl2_ring()
    for deg in range(5):
        for e in R.nf_monomials(deg):
            mono = ExactPoly.monomial(V, e)
            assert pw_level_oracle(mono, R) == sum(e)
    for _ in range(15):
        f = rand_poly(rng, degree=3)
        if R.normal_form(f).is_zero():
            continue
        assert pw_level(f, R) == pw_level_oracle(f, R)


def test_pw_level_subadditive():
    rng = random.Random(11)
    R = sl2_ring()
    for _ in range(30):
        f, g = rand_poly(rng, degree=3), rand_poly(rng, degree=3)
        lf, lg = pw_level(f, R), pw_level(g, R)
        lfg = pw_level(R.normal_form(f * g), R)
        if BOTTOM in (lf, lg):
            assert lfg is BOTTOM
            continue
        if lfg is not BOTTOM:
            assert lfg <= lf + lg
        lsum = pw_level(f + g, R)
        if lsum is not BOTTOM:
            assert lsum <= max(lf, lg)


def test_vanishing_order():
    dp = det_poly()
    assert vanishing_order(dp * dp, dp) == 2
    assert vanishing_order(a * b, dp) == 0
    assert vanishing_order(dp * a, dp) == 1
    assert vanishing_order(ExactPoly.zero(V), dp) == math.inf


def test_vanishing_order_additive():
    rng = random.Random(23)
    dp = det_poly()
    for _ in range(20):
        f = rand_poly(rng, degree=2) * dp ** rng.randint(0, 2)
        g = rand_poly(rng, degree=2) * dp ** rng.randint(0, 2)
        if f.is_zero() or g.is_zero():
            continue
        assert vanishing_order(f * g, dp) == vanishing_order(f, dp) + vanishing_order(g, dp)


def test_poly_division():
    dp = det_poly()
    q = poly_try_divide(dp * (a + b), dp)
    assert q == a + b
    assert poly_try_divide(a * b, dp) is None


def test_serialization_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        f = rand_poly(rng)
        assert poly_from_text(poly_to_text(f), V) == f
        assert poly_from_json(poly_to_json(f), V) == f
    assert poly_to_text(ExactPoly.zero(V)) == "0"
    assert poly_from_text("0", V).is_zero()
    assert poly_to_text(Fraction(3, 2) * a) == "3/2 * a"


def test_arity_errors():
    other = ExactPoly.variable(("x", "y"), "x")
    with pytest.raises(ArityMismatch):
        _ = a + other
    with pytest.raises(ArityMismatch):
        sl2_ring().normal_form(other)


def test_quotient_ring_rewrites_by_its_leading_monomial():
    rel = ExactPoly(V, {(1, 0, 0, 0): 1, (0, 2, 0, 0): -1})  # a - b^2, leading b^2
    ring = QuotientRing(V, rel)
    bsq = ExactPoly.monomial(V, (0, 2, 0, 0))
    assert ring.normal_form(bsq) == a


def test_evaluate():
    f = a * d - b * c
    assert f.evaluate((1, 0, 0, 1)) == 1
    assert f.evaluate((Fraction(1, 2), 1, 0, 2)) == 1
