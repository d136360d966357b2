import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from math import comb

from horocycle import rees
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
from horocycle.linalg import IncrementalRank
from horocycle.rees import (
    derivation_level,
    gr_derivations_check,
    homogenize,
    rees_dimension_check,
    rees_fiber,
    sl2_derivation_space,
    tau_check,
    tau_map,
    _free_relative_kernel_dim,
)
from horocycle.action import lr_action_horocycle
from horocycle.weyl import WeylOp, apply_op, relative_fields
from test_exactalg import REES_RING

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


def test_lower_caps_read_off_the_top_spaces_are_the_direct_solves():
    """The fields of degree <= cap of the spaces at caps 7 and 6 are, vector for
    vector and in order, `relative_fields` solved at that cap alone."""
    ring = sl2_ring()
    spaces = rees._derivation_spaces(7)
    for cap in range(8):
        degrees, fields = spaces[cap % 2]
        monos = [e for k in range(cap % 2, cap + 1, 2) for e in ring.nf_monomials(k)]
        assert fields[:bisect_right(degrees, cap)] == tuple(relative_fields(ring, det_poly(), monos)), cap


def test_derivation_spaces_dimensions():
    assert len(sl2_derivation_space(1)) == 6
    assert len(sl2_derivation_space(0)) == 0
    assert len(sl2_derivation_space(2)) == 20


@pytest.mark.parametrize("k", range(4))
def test_free_relative_kernel_closed_form(k):
    closed = 4 * comb(k + 3, 3) - comb(k + 4, 3)
    assert _free_relative_kernel_dim(k) == closed
    assert len(relative_fields(mat2_ring(), det_poly(), compositions(k, 4))) == closed


def test_rees_ring_and_fibers():
    fiber1 = rees_fiber(1)
    fiber0 = rees_fiber(0)
    assert fiber1.key == sl2_ring().key
    assert fiber0.key == horocycle_ring().key
    generic = rees_fiber(Fraction(3, 2))
    assert generic.variables == mat2_ring().variables
    assert generic.relation.evaluate((1, 0, 0, Fraction(3, 2))) == 0


@pytest.mark.parametrize("weight", range(11))
def test_z_to_det_maps_the_presentation_onto_mat2(weight):
    # C[A,B,C,D,z]/(AD - BC - z) with z of weight 2: its normal monomials of one
    # weight go under z -> det to independent polynomials on Mat2, as many as the
    # degree-`weight` monomials, so z -> det is an isomorphism of graded rings
    detp = det_poly()
    images = []
    for zk in range(weight // 2 + 1):
        for e in compositions(weight - 2 * zk, 4):
            mono = ExactPoly.monomial(REES_RING.variables, e + (zk,))
            if REES_RING.normal_form(mono) == mono:
                images.append(ExactPoly.monomial(V, e) * detp**zk)
    elim = IncrementalRank()
    assert all(elim.add(dict(image.terms)) for image in images)
    assert len(images) == comb(weight + 3, 3)


def test_homogenize():
    nf = sl2_ring().normal_form(a * d)  # bc + 1
    # bc + (ad - bc) = ad
    assert homogenize(nf, 2) == a * d
    assert homogenize(nf, 4) == b * c * det_poly() + det_poly() ** 2
    with pytest.raises(ValueError):
        homogenize(nf, 3)


def test_tau_map_spot():
    theta = WeylOp.vector_field([a, zero, zero, -d])
    # a Da - d Dd has level 0 and lifts to itself on Mat2
    assert tau_map(theta) == theta
    # ad (a Da - d Dd) reads abc + a, -bcd - d on det = 1, at level 2; the lift
    # multiplies the degree-one terms by det and returns the field on Mat2
    wide = WeylOp.from_poly(a * d) * theta
    assert derivation_level(wide) == 2
    assert tau_map(wide) == wide
    for lifted in (tau_map(theta), tau_map(wide)):
        assert apply_op(lifted, det_poly()).is_zero()
    assert tau_map(WeylOp.zero(V)) == WeylOp.zero(V)


def test_tau_check_small():
    rep = tau_check(level_bound=2)
    assert rep.passed
    level0 = next(it for it in rep.items if it.name.startswith("level 0"))
    assert "dim 6" in level0.got


def test_tau_check_fails_on_a_wrong_det_power(monkeypatch):
    # lifting with (-det)^k breaks every level whose lift multiplies by det, and
    # only those: level 0 lifts without det, and the spot fields have level 0
    monkeypatch.setattr(rees, "_det_power", lambda k: (-det_poly()) ** k)
    rep = tau_check(4)
    failed = [it.name for it in rep.items if not it.passed]
    assert failed == [f"level {n}: lifted derivations = relative fields" for n in range(1, 5)]


def _record_adds(monkeypatch) -> list:
    """The list of every vector that the eliminators of `rees` are given from now on."""
    added = []

    class Recording(IncrementalRank):
        def add(self, vec):
            added.append(vec)
            return super().add(vec)

    monkeypatch.setattr(rees, "IncrementalRank", Recording)
    return added


def _key_types(monkeypatch, run):
    """(run(), the types of the keys that the eliminators of `rees` are given)."""
    added = _record_adds(monkeypatch)
    return run(), {type(k) for vec in added for k in vec}


def test_tau_check_numbers_the_eliminator_keys_as_ints(monkeypatch):
    assert _key_types(monkeypatch, lambda: tau_check(2).passed) == (True, {int})


def test_graded_span_dim_numbers_the_eliminator_keys_as_ints(monkeypatch):
    rees._graded_span_dim.cache_clear()
    assert _key_types(monkeypatch, lambda: rees._graded_span_dim(2)) == (39, {int})


def test_tau_check_rejects_a_negative_bound():
    with pytest.raises(ValueError):
        tau_check(-1)


def test_gr_derivations_check_rejects_bounds_below_one():
    # at bound 0 only the literal BOTTOM item and empty spaces remain
    for bound in (-1, 0):
        with pytest.raises(ValueError):
            gr_derivations_check(bound)


def test_rees_dimension_check_rejects_a_negative_bound():
    with pytest.raises(ValueError):
        rees_dimension_check(-1)


def test_gr_derivations_small():
    rep = gr_derivations_check(2)
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


def power_sum_homogenize(g: ExactPoly, level: int) -> ExactPoly:
    """Oracle for homogenize: the sum of mono * det ** k, one ExactPoly per term."""
    out = ExactPoly.zero(V)
    for e, c in g.terms.items():
        k = sum(e)
        if (level - k) % 2 or k > level:
            raise ValueError(f"monomial of degree {k} has no lift to weight {level}")
        out = out + ExactPoly.monomial(V, e, c) * det_poly() ** ((level - k) // 2)
    return out


def test_homogenize_matches_power_sum_oracle():
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
        assert homogenize(g, level) == power_sum_homogenize(g, level)
    for g, level in ((a, 2), (a * b, 1), (a * b * c, 4), (a, 0), (a * b + c, 2)):
        with pytest.raises(ValueError):
            homogenize(g, level)
        with pytest.raises(ValueError):
            power_sum_homogenize(g, level)


def test_tau_inserts_the_terms_of_the_lifted_fields_and_their_det_images(monkeypatch):
    # tau_check(6) lifts every field of sl2_derivation_space(7) and (6) of degree
    # <= 1 + level at every level <= 6; each inserted dict must be the field's
    # WeylOp terms numbered the same way, and each image of det its apply_op
    images, added = [], _record_adds(monkeypatch)
    field_image = rees._field_image

    def recording_image(lift, gradient):
        images.append(field_image(lift, gradient))
        return images[-1]

    monkeypatch.setattr(rees, "_field_image", recording_image)
    report = tau_check(6)
    detp = det_poly()
    gradient = [apply_op(WeylOp.partial(V, v), detp).terms for v in V]
    expected_added, expected_images = [], []
    for level in range(7):
        fields = sl2_derivation_space(7 - level % 2)
        code = {}
        for coeffs in fields:
            if max(g.degree() for g in coeffs) > 1 + level:
                continue
            op = WeylOp.vector_field([homogenize(g, 1 + level) for g in coeffs])
            expected_added.append({code.setdefault(k, len(code)): c for k, c in op.terms.items()})
            expected_images.append(apply_op(op, detp))
            assert rees._field_lift(coeffs, 1 + level) == {(xe, de.index(1)): c for (xe, de), c in op.terms.items()}
            # a field that does not kill det: its image is still apply_op's
            turned = list(coeffs[1:]) + [coeffs[0]]
            op = WeylOp.vector_field([homogenize(g, 1 + level) for g in turned])
            image = ExactPoly(V, field_image(rees._field_lift(turned, 1 + level), gradient))
            assert image == apply_op(op, detp)
    assert [ExactPoly(V, image) for image in images] == expected_images
    assert added == expected_added
    assert report.passed


def _graded_span_vectors_by_products(n):
    """(dimension, inserted vectors) of the weight-n graded span, each coefficient
    reduced as normal_form(x^e * g) and its keys numbered as `rees` numbers them."""
    ring = horocycle_ring()
    fields = [theta.coefficient_polys() for theta in lr_action_horocycle().fields]
    elim, code, vecs = IncrementalRank(), {}, []
    for e in ring.nf_monomials(n):
        mono = ExactPoly.monomial(V, e)
        for coeffs in fields:
            vec = {}
            for de, g in coeffs.items():
                for te, tc in ring.normal_form(mono * g).terms.items():
                    vec[code.setdefault((de, te), len(code))] = tc
            vecs.append(vec)
            elim.add(vec)
    return len(elim.pivots), vecs


@pytest.mark.parametrize("n", range(7))
def test_graded_span_dim_matches_the_normal_form_product_oracle(monkeypatch, n):
    added = _record_adds(monkeypatch)
    rees._graded_span_dim.cache_clear()
    try:
        dim = rees._graded_span_dim(n)
    finally:
        rees._graded_span_dim.cache_clear()
    assert (dim, added) == _graded_span_vectors_by_products(n)
