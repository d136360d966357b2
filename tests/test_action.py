import random
from fractions import Fraction

import pytest

from horocycle import action
from horocycle.action import (
    InfinitesimalAction,
    PointNotOnVariety,
    RationalPoint,
    LieSubalgebra,
    coinvariants,
    linear_action,
    lr_action_horocycle,
    lr_action_mat2,
    lr_action_sl2,
    moment_map,
    moment_table,
    stabilizer_subalgebra,
)
from horocycle.exactalg import ExactPoly, MAT2_VARS, QuotientRing, compositions, det_poly, mat2_ring
from horocycle.lie import (
    FinDimRep,
    UEnvElement,
    casimir_sl2,
    dual_rep,
    external_tensor,
    sl2_desc,
    sl2_pair_desc,
    sym_power_rep,
    tensor,
)
from horocycle.linalg import mat_mul
from horocycle.weyl import WeylOp, apply_op, euler_op
from matrices import act_rows, rank
from moment_oracle import field_product, reduced

V = MAT2_VARS


def module(m, k):
    return external_tensor(sym_power_rep(m), dual_rep(sym_power_rep(k)))


def field_of(act, name):
    return act.fields[act.desc.index(name)]


def contains(sub, vec):
    rows = list(sub.vectors)
    return rank(rows) == rank(rows + [vec])


def localization_fiber(mod, act, p):
    """Fiber of the localization at p: stabilizer coinvariants of the module."""
    return coinvariants(mod, stabilizer_subalgebra(act, p))


def test_builtin_table_is_the_expected_one():
    act = lr_action_mat2()
    a = ExactPoly.variable(V, "a")
    b = ExactPoly.variable(V, "b")
    c = ExactPoly.variable(V, "c")
    d = ExactPoly.variable(V, "d")
    z = ExactPoly.zero(V)
    expected = {
        "E1": WeylOp.vector_field([-c, -d, z, z]),
        "F1": WeylOp.vector_field([z, z, -a, -b]),
        "H1": WeylOp.vector_field([-a, -b, c, d]),
        "E2": WeylOp.vector_field([z, a, z, c]),
        "F2": WeylOp.vector_field([b, z, d, z]),
        "H2": WeylOp.vector_field([a, -b, c, -d]),
    }
    for name, op in expected.items():
        assert field_of(act, name) == op, name


def test_linear_action_on_the_doubled_plane():
    # V1 on (v1, v2) under the left factor and V1* on (w1, w2) under the right, as one
    # block-sum module: the fields are -X.v and X^T.w
    v, w = sym_power_rep(1), dual_rep(sym_power_rep(1))
    mats = tuple(m + [{}, {}] for m in v.matrices) + tuple(
        [{}, {}] + [{k + 2: x for k, x in row.items()} for row in m] for m in w.matrices
    )
    ring = QuotientRing(("v1", "v2", "w1", "w2"))
    act = linear_action(ring, FinDimRep(sl2_pair_desc(), 4, mats))
    v1, v2, w1, w2 = (ring.var(x) for x in ring.variables)
    z = ExactPoly.zero(ring.variables)
    vf = WeylOp.vector_field
    expected = {
        "F1": vf([z, -v1, z, z]),
        "H1": vf([-v1, v2, z, z]),
        "E1": vf([-v2, z, z, z]),
        "F2": vf([z, z, w2, z]),
        "H2": vf([z, z, w1, -w2]),
        "E2": vf([z, z, z, w1]),
    }
    for name, op in expected.items():
        assert field_of(act, name) == op, name
    # pi(v, w) = v w^T pulls the built-in fields on a, b, c, d back to these
    pulled = [v1 * w1, v1 * w2, v2 * w1, v2 * w2]
    for theta, builtin in zip(act.fields, lr_action_mat2().fields):
        for x, image in zip(pulled, (apply_op(builtin, ExactPoly.variable(V, n)) for n in V)):
            assert apply_op(theta, x) == sum((c * pulled[e.index(1)] for e, c in image.terms.items()), z)


def test_linear_action_on_binary_quadratics_kills_the_discriminant():
    ring = QuotientRing(("u0", "u1", "u2"))
    act = linear_action(ring, sym_power_rep(2))
    u0, u1, u2 = (ring.var(x) for x in ring.variables)
    disc = u1 * u1 - 4 * u0 * u2
    assert not any(theta.is_zero() for theta in act.fields)
    assert all(apply_op(theta, disc).is_zero() for theta in act.fields)
    with pytest.raises(ValueError):
        linear_action(mat2_ring(), sym_power_rep(2))


def test_action_constructions_validate():
    lr_action_sl2()
    lr_action_mat2()
    lr_action_horocycle()


def test_actions_take_linear_fields_only():
    # `moment_table` multiplies by t x_k D_l term by term: for X = ab D_a the
    # lowered term of mu(X)^2 would read ab D_a instead of ab^2 D_a
    ring, d2 = mat2_ring(), sl2_desc()
    a, b = ring.var("a"), ring.var("b")
    Da, zero = WeylOp.partial(V, "a"), WeylOp.zero(V)
    for bad in (a * b * Da, Da, a * Da + Da, a * Da * Da, WeylOp.one(V)):
        with pytest.raises(ValueError, match="linear vector fields"):
            InfinitesimalAction(d2, ring, [bad, zero, zero])
    assert moment_map(UEnvElement.generator(d2, 0), InfinitesimalAction(d2, ring, [b * Da, zero, zero])) == b * Da


@pytest.mark.parametrize("builder", [lr_action_mat2, lr_action_sl2, lr_action_horocycle])
def test_moment_tables_are_the_field_products_in_normal_form(builder):
    act = builder()
    for e in (c[:6] for c in compositions(4, 7)):
        assert moment_table(e, act) == reduced(field_product(e, act), act.ring), e


def test_moment_map_multiplicative():
    # on a ring with a relation, mu(u) mu(v) is mu(uv) up to rel * D: both sides
    # are compared with their monomials in normal form
    rng = random.Random(4242)
    pair = sl2_pair_desc()

    def rand_u():
        t = {}
        for _ in range(2):
            e = [0] * 6
            for _ in range(rng.randint(0, 2)):
                e[rng.randrange(6)] += 1
            t[tuple(e)] = Fraction(rng.randint(-3, 3))
        return UEnvElement(pair, t)

    for act, pairs in ((lr_action_mat2(), 50), (lr_action_horocycle(), 40), (lr_action_sl2(), 40)):
        for _ in range(pairs):
            u, v = rand_u(), rand_u()
            product = WeylOp(V, reduced(moment_map(u, act) * moment_map(v, act), act.ring))
            assert moment_map(u * v, act) == product, act.ring


def test_moment_map_cache_is_per_action():
    pair = sl2_pair_desc()
    e1 = UEnvElement.generator(pair, pair.index("E1"))
    act = lr_action_mat2()
    assert moment_map(e1, act) == field_of(act, "E1")
    ring = mat2_ring()
    zero = InfinitesimalAction(pair, ring, [WeylOp.zero(ring.variables)] * pair.dim)
    assert moment_map(e1, zero) == WeylOp.zero(ring.variables)


def test_builtin_actions_are_built_once(monkeypatch):
    built = []

    class Counting(InfinitesimalAction):
        def __init__(self, desc, ring, fields):
            built.append(ring.name)
            super().__init__(desc, ring, fields)

    action._builtin_action.cache_clear()
    monkeypatch.setattr(action, "InfinitesimalAction", Counting)
    try:
        for builder in (lr_action_mat2, lr_action_sl2, lr_action_horocycle):
            first = builder()
            assert builder() is first and builder() is first
    finally:
        action._builtin_action.cache_clear()
    assert built == ["O(Mat2)", "O(SL2)", "O(Y)"]


def test_moment_map_casimir_identity():
    act = lr_action_mat2()
    d2 = sl2_desc()
    cas = casimir_sl2()
    one = UEnvElement.one(d2)
    left = moment_map(tensor(cas, one), act)
    right = moment_map(tensor(one, cas), act)
    Eu = euler_op(V)
    Da, Db, Dc, Dd = (WeylOp.partial(V, v) for v in V)
    rhs = Eu * Eu - WeylOp.from_poly(det_poly()) * (Da * Dd - Db * Dc) * 4
    assert left == right == rhs
    assert moment_map(tensor(one, one), act) == WeylOp.one(V)


def test_stabilizer_at_identity_is_diagonal():
    act = lr_action_sl2()
    s = stabilizer_subalgebra(act, RationalPoint((1, 0, 0, 1)))
    assert s.dim == 3
    d2 = sl2_desc()
    for name in ("E", "F", "H"):
        assert contains(s, {d2.index(name): 1, 3 + d2.index(name): 1})


def test_stabilizer_dimension_three_across_group_points():
    act = lr_action_sl2()
    for coords in [(1, 0, 0, 1), (2, 0, 0, Fraction(1, 2)), (1, 1, 0, 1), (3, 1, 2, 1)]:
        s = stabilizer_subalgebra(act, RationalPoint(coords))
        assert s.dim == 3, coords


def test_stabilizer_at_twisted_diagonal_point():
    act = lr_action_sl2()
    s = stabilizer_subalgebra(act, RationalPoint((2, 0, 0, Fraction(1, 2))))
    # contains the matched Cartan (H, H); raising pairs twist by the square of the torus value
    assert contains(s, {1: 1, 4: 1})


def test_stabilizer_on_rank_one_chart():
    act = lr_action_horocycle()
    s = stabilizer_subalgebra(act, RationalPoint((1, 0, 0, 0)))
    assert s.dim == 3
    for vec in ({2: 1}, {3: 1}, {1: 1, 4: 1}):  # E1, F2, H1 + H2
        assert contains(s, vec)


def test_point_validation():
    act = lr_action_sl2()
    with pytest.raises(PointNotOnVariety):
        stabilizer_subalgebra(act, RationalPoint((1, 2, 3, 4)))
    acty = lr_action_horocycle()
    with pytest.raises(PointNotOnVariety):
        stabilizer_subalgebra(acty, RationalPoint((0, 0, 0, 0)))


def test_coinvariants_dimension_table():
    act = lr_action_sl2()
    p = RationalPoint((1, 0, 0, 1))
    for m in range(4):
        for k in range(4):
            proj, _ = localization_fiber(module(m, k), act, p)
            assert len(proj) == (1 if m == k else 0), (m, k)


def test_coinvariants_projection_annihilates_action():
    act = lr_action_sl2()
    s = stabilizer_subalgebra(act, RationalPoint((1, 1, 0, 1)))
    mod = module(2, 2)
    proj, _ = coinvariants(mod, s)
    for v in s.vectors:
        assert not any(mat_mul(proj, act_rows(mod, v)))


def test_fiber_dimension_constant_on_orbits():
    act = lr_action_sl2()
    points = [RationalPoint((1, 0, 0, 1)), RationalPoint((2, 0, 0, Fraction(1, 2))), RationalPoint((1, 1, 0, 1))]
    for m, k in [(1, 1), (2, 1), (3, 3)]:
        dims = {len(localization_fiber(module(m, k), act, p)[0]) for p in points}
        assert len(dims) == 1


def test_trivial_module_always_one():
    acty = lr_action_horocycle()
    act = lr_action_sl2()
    mod = external_tensor(sym_power_rep(0), sym_power_rep(0))
    assert len(localization_fiber(mod, act, RationalPoint((1, 0, 0, 1)))[0]) == 1
    assert len(localization_fiber(mod, acty, RationalPoint((0, 1, 0, 0)))[0]) == 1


def test_commuting_subalgebra_must_normalize():
    pair = sl2_pair_desc()
    nsub = LieSubalgebra(pair, ({2: 1},))  # E1
    bad = LieSubalgebra(pair, ({0: 1},))  # F1
    with pytest.raises(ValueError):
        coinvariants(module(1, 1), nsub, commuting=bad)


def test_induced_matrices_well_defined():
    pair = sl2_pair_desc()
    e1, f2, h1, h2 = {2: 1}, {3: 1}, {1: 1}, {4: 1}
    nsub = LieSubalgebra(pair, (e1, f2))
    hh = LieSubalgebra(pair, (h1, h2))
    proj, induced = coinvariants(module(1, 1), nsub, commuting=hh)
    assert len(proj) == 1
    assert len(induced) == 2


def test_coinvariants_at_a_zero_dimensional_fiber_induce_one_empty_matrix():
    # V2 (x) V1* at a rank-one point: Schur's lemma leaves nothing, and the
    # Cartan H1 still induces its (0 x 0) matrix
    p = RationalPoint((0, 0, 0, 1))
    stab = stabilizer_subalgebra(lr_action_horocycle(), p)
    cartan = LieSubalgebra(stab.desc, ({1: 1},))
    assert cartan.normalizes(stab)
    assert coinvariants(module(2, 1), stab, commuting=cartan) == ([], [[]])


def test_point_json_writes_integers_without_a_denominator():
    assert RationalPoint((2, 0, 0, Fraction(1, 2))).to_json() == ["2", "0", "0", "1/2"]


def test_subalgebra_validation():
    pair = sl2_pair_desc()
    f1, h1, e1 = {0: 1}, {1: 1}, {2: 1}
    with pytest.raises(ValueError):
        LieSubalgebra(pair, (e1, e1))
    e1h1 = LieSubalgebra(pair, (e1, h1))  # closed: [h, e] = 2e
    assert e1h1.dim == 2
    with pytest.raises(ValueError):
        LieSubalgebra(pair, (e1, f1))  # not closed: [e, f] = h missing
