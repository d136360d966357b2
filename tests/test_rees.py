import random
from fractions import Fraction

import pytest

from math import comb

from horocycle.exactalg import (
    BOTTOM,
    ExactPoly,
    MAT2_VARS,
    compositions,
    det_poly,
    horocycle_ring,
    mat2_ring,
    pw_level,
    sl2_ring,
)
from horocycle.rees import (
    FREE_VARS,
    REES_RING,
    REES_VARS,
    derivation_level,
    gr_derivations_check,
    homogenize_free,
    homogenize_presentation,
    rees_dimension_check,
    rees_fiber,
    sl2_derivation_space,
    tau_check,
    tau_map,
    _free_relative_kernel_dim,
)
from horocycle.weyl import WeylOp, apply_op, preserves_ideal, relative_fields

V = MAT2_VARS
a = ExactPoly.variable(V, "a")
b = ExactPoly.variable(V, "b")
c = ExactPoly.variable(V, "c")
d = ExactPoly.variable(V, "d")
zero = ExactPoly.zero(V)


def test_derivation_levels():
    t1 = WeylOp.vector_field([a, zero, zero, -d])
    assert derivation_level(t1) == 0
    t2 = WeylOp.vector_field([-c, -d, zero, zero])
    assert derivation_level(t2) == 0
    t3 = WeylOp.from_poly(b * c) * t1
    assert derivation_level(t3) == 2
    assert derivation_level(WeylOp.zero(V)) == BOTTOM
    with pytest.raises(ValueError):
        derivation_level(WeylOp.vector_field([a, zero, zero, zero]))


def test_derivation_spaces_dimensions():
    assert len(sl2_derivation_space(1, 1)) == 6
    assert len(sl2_derivation_space(0, 0)) == 0
    assert len(sl2_derivation_space(2, 0)) == 20


@pytest.mark.parametrize("k", range(4))
def test_free_relative_kernel_closed_form(k):
    closed = 4 * comb(k + 3, 3) - comb(k + 4, 3)
    assert _free_relative_kernel_dim(k) == closed
    assert len(relative_fields(mat2_ring(), det_poly(), compositions(k, 4))) == closed


def test_rees_ring_and_fibers():
    assert REES_RING.variables == REES_VARS
    fiber1 = rees_fiber(1)
    fiber0 = rees_fiber(0)
    assert fiber1.key == sl2_ring().key
    assert fiber0.key == horocycle_ring().key
    generic = rees_fiber(Fraction(3, 2))
    assert generic.relation.evaluate((1, 0, 0, Fraction(3, 2))) == 0


def test_homogenize():
    nf = sl2_ring().normal_form(a * d)  # bc + 1
    lifted = homogenize_presentation(nf, 2)
    assert lifted.terms == {(0, 1, 1, 0, 0): 1, (0, 0, 0, 0, 1): 1}
    free = homogenize_free(nf, 2)
    # bc + (AD - BC) = AD
    assert free == ExactPoly.monomial(FREE_VARS, (1, 0, 0, 1))
    with pytest.raises(ValueError):
        homogenize_presentation(nf, 3)


def test_tau_map_spot():
    theta = WeylOp.vector_field([a, zero, zero, -d])
    lifted = tau_map(theta)
    # A DA - D DD on the presentation, no z-derivative
    assert all(de[4] == 0 for _, de in lifted.terms)
    assert preserves_ideal(lifted, REES_RING)
    rel = REES_RING.relation
    assert REES_RING.normal_form(apply_op(lifted, rel)).is_zero()


def test_tau_check_small():
    rep = tau_check(level_bound=2)
    assert rep.passed
    level0 = next(it for it in rep.items if it.name.startswith("level 0"))
    assert "dim 6" in level0.got


def test_gr_derivations_small():
    rep = gr_derivations_check(2, 2)
    assert rep.passed
    item = next(it for it in rep.items if it.name == "level 0, coefficient degree <= 1")
    assert item.expected == "6" and item.got == "6"


def test_rees_dimension_tables():
    rep = rees_dimension_check(6)
    assert rep.passed
    w2 = next(it for it in rep.items if it.name.startswith("weight 2: presentation piece"))
    assert w2.got == "10"


def test_level_certificate_fails_below():
    # the level bounds the shift on every monomial class up to degree 4, and
    # some generator's image sits exactly at level + 1, so it cannot be lowered
    ring = sl2_ring()
    t1 = WeylOp.vector_field([a, zero, zero, -d])
    for theta in (t1, WeylOp.from_poly(b * c) * t1):
        level = derivation_level(theta)
        for deg in range(5):
            for e in ring.nf_monomials(deg):
                lev = pw_level(apply_op(theta, ExactPoly.monomial(V, e)), ring)
                assert lev <= deg + level
        assert any(pw_level(apply_op(theta, ring.var(name)), ring) == level + 1 for name in ring.variables)


def power_sum_homogenize_free(g: ExactPoly, level: int) -> ExactPoly:
    """Oracle for homogenize_free: the sum of mono * det_free ** k, one ExactPoly per term."""
    det_free = ExactPoly(FREE_VARS, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    out = ExactPoly.zero(FREE_VARS)
    for e, c in g.terms.items():
        k = sum(e)
        if (level - k) % 2 or k > level:
            raise ValueError(f"monomial of degree {k} has no lift to weight {level}")
        out = out + ExactPoly.monomial(FREE_VARS, e, c) * det_free ** ((level - k) // 2)
    return out


def test_homogenize_free_matches_power_sum_oracle():
    rng = random.Random(31)
    ring = sl2_ring()
    for i in range(200):
        level = i % 11
        degrees = range(level % 2, level + 1, 2)
        terms = {}
        for _ in range(1 + i % 5):
            e = rng.choice(ring.nf_monomials(rng.choice(degrees)))
            terms[e] = rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-7, 7), rng.randint(1, 4))))
        g = ExactPoly(V, terms)
        assert homogenize_free(g, level) == power_sum_homogenize_free(g, level)
    for g, level in ((a, 2), (a * b, 1), (a * b * c, 4), (a, 0), (a * b + c, 2)):
        with pytest.raises(ValueError):
            homogenize_free(g, level)
        with pytest.raises(ValueError):
            power_sum_homogenize_free(g, level)
