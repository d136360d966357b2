import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocycle.exactalg import (
    ArityMismatch,
    ExactPoly,
    MAT2_VARS,
    QuotientRing,
    compositions,
    det_poly,
    horocycle_ring,
    mat2_ring,
    sl2_ring,
)
from horocycle.linalg import IncrementalRank
from horocycle.weyl import (
    WeylOp,
    _accumulate_term_product,
    apply_op,
    commutator,
    euler_op,
    is_relative,
    op_to_text,
    preserves_ideal,
    relative_fields,
)

V = MAT2_VARS
a = ExactPoly.variable(V, "a")
b = ExactPoly.variable(V, "b")
c = ExactPoly.variable(V, "c")
d = ExactPoly.variable(V, "d")
zero = ExactPoly.zero(V)


def rand_op(rng, order=2, degree=2, terms=4):
    t = {}
    for _ in range(terms):
        xe = [0] * 4
        de = [0] * 4
        for _ in range(rng.randint(0, degree)):
            xe[rng.randrange(4)] += 1
        for _ in range(rng.randint(0, order)):
            de[rng.randrange(4)] += 1
        t[(tuple(xe), tuple(de))] = Fraction(rng.randint(-3, 3))
    return WeylOp(V, t)


def rand_field(rng, degree=2):
    coeffs = []
    for _ in range(4):
        t = {}
        for _ in range(3):
            e = [0] * 4
            for _ in range(rng.randint(0, degree)):
                e[rng.randrange(4)] += 1
            t[tuple(e)] = Fraction(rng.randint(-3, 3))
        coeffs.append(ExactPoly(V, t))
    return WeylOp.vector_field(coeffs)


def rand_poly(rng, degree=4):
    t = {}
    for _ in range(5):
        e = [0] * 4
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(4)] += 1
        t[tuple(e)] = Fraction(rng.randint(-4, 4))
    return ExactPoly(V, t)


def test_reordering_rule():
    Da = WeylOp.partial(V, "a")
    A = WeylOp.from_poly(a)
    assert Da * A == A * Da + WeylOp.one(V)


def test_euler_square_example():
    A = WeylOp.from_poly(a)
    Da = WeylOp.partial(V, "a")
    aDa = A * Da
    expected = WeylOp(V, {((2, 0, 0, 0), (2, 0, 0, 0)): 1, ((1, 0, 0, 0), (1, 0, 0, 0)): 1})
    assert aDa * aDa == expected
    # eigenvalue check: (a Da)^2 acts on a^k by k^2
    for k in range(5):
        mono = ExactPoly.monomial(V, (k, 0, 0, 0))
        assert apply_op(aDa * aDa, mono) == k * k * mono


def test_associativity_random():
    rng = random.Random(12345)
    for _ in range(100):
        p, q, r = rand_op(rng), rand_op(rng), rand_op(rng)
        assert (p * q) * r == p * (q * r)


def test_jacobi_random_fields():
    rng = random.Random(54321)
    for _ in range(25):
        x, y, z = rand_field(rng), rand_field(rng), rand_field(rng)
        lhs = (
            commutator(x, commutator(y, z))
            + commutator(y, commutator(z, x))
            + commutator(z, commutator(x, y))
        )
        assert lhs.is_zero()


def test_apply_intertwines_product():
    rng = random.Random(99)
    for _ in range(25):
        p, q = rand_op(rng), rand_op(rng)
        f = rand_poly(rng)
        assert apply_op(p * q, f) == apply_op(p, apply_op(q, f))


def test_apply_examples():
    Da = WeylOp.partial(V, "a")
    assert apply_op(Da, a * a) == 2 * a
    Eu = euler_op(V)
    one = ExactPoly.constant(V, 1)
    assert apply_op(Eu, one) == one
    theta = WeylOp.vector_field([c, d, zero, zero])
    assert apply_op(theta, det_poly()).is_zero()


def test_polynomials_combine_with_operators_as_order_zero_operators():
    rng = random.Random(7)
    for _ in range(10):
        f, op = rand_poly(rng), rand_op(rng)
        assert f * op == WeylOp.from_poly(f) * op
        assert f + op == WeylOp.from_poly(f) + op == op + f
        assert f - op == WeylOp.from_poly(f) - op
    with pytest.raises(TypeError):
        _ = a * 0.5


def test_is_relative_examples():
    dp = det_poly()
    assert is_relative(WeylOp.vector_field([c, d, zero, zero]), dp)
    assert not is_relative(WeylOp.vector_field([a, zero, zero, zero]), dp)
    assert is_relative(WeylOp.vector_field([a, zero, zero, -d]), dp)
    with pytest.raises(ValueError):
        is_relative(WeylOp.one(V) * 2, dp)


def _field_coords(coeffs):
    return {(slot, e): cf for slot, g in enumerate(coeffs) for e, cf in g.terms.items()}


@pytest.mark.parametrize("ring", [sl2_ring(), mat2_ring()], ids=lambda r: r.name)
def test_relative_fields_kill_det(ring):
    monos = [e for k in range(3) for e in ring.nf_monomials(k)]
    basis = relative_fields(ring, det_poly(), monos)
    assert basis
    elim = IncrementalRank()
    for coeffs in basis:
        assert all(set(g.terms) <= set(monos) for g in coeffs)
        assert ring.normal_form(apply_op(WeylOp.vector_field(list(coeffs)), det_poly())).is_zero()
        assert elim.add(_field_coords(coeffs))


def test_relative_fields_linear_kernel_is_the_six_fields():
    basis = relative_fields(mat2_ring(), det_poly(), compositions(1, 4))
    assert len(basis) == 6
    kernel = IncrementalRank()
    for coeffs in basis:
        kernel.add(_field_coords(coeffs))
    z = ExactPoly.zero(V)
    six = (
        (c, d, z, z),  # c Da + d Db
        (b, z, d, z),  # b Da + d Dc
        (a, z, z, -d),  # a Da - d Dd
        (z, b, -c, z),  # b Db - c Dc
        (z, a, z, c),  # a Db + c Dd
        (z, z, a, b),  # a Dc + b Dd
    )
    for coeffs in six:
        assert not kernel.add(_field_coords(coeffs))
    spanned = IncrementalRank()
    assert all(spanned.add(_field_coords(coeffs)) for coeffs in six)


def test_relative_fields_degenerate_inputs():
    one = ExactPoly.constant(V, 1)
    assert len(relative_fields(mat2_ring(), one, compositions(1, 4))) == 16
    assert relative_fields(sl2_ring(), det_poly(), []) == []
    # a monomial of the wrong arity is refused before it reaches the ring's memo
    ring = QuotientRing(V, sl2_ring().relation)
    with pytest.raises(ArityMismatch):
        relative_fields(ring, det_poly(), [(1, 0, 0, 0), (1, 0, 0)])
    assert not ring._nf_memo


def test_preserves_ideal():
    theta = WeylOp.vector_field([c, d, zero, zero])
    assert preserves_ideal(theta, horocycle_ring())
    assert not preserves_ideal(WeylOp.vector_field([a, zero, zero, zero]), sl2_ring())
    assert preserves_ideal(WeylOp.from_poly(a), sl2_ring())
    # the criterion is exact only up to order one, so a second-order operator is refused
    mu_like = WeylOp.vector_field([-c, -d, zero, zero]) * WeylOp.vector_field([a, zero, zero, -d])
    with pytest.raises(ValueError, match="order at most one"):
        preserves_ideal(mu_like, sl2_ring())


def test_serialization_roundtrip():
    # the text format is pinned literally: highest derivative order first
    p = WeylOp(
        V,
        {
            ((1, 0, 0, 0), (1, 0, 0, 0)): 1,
            ((0, 0, 0, 0), (0, 2, 0, 1)): Fraction(-1, 2),
            ((0, 1, 1, 0), (0, 0, 0, 0)): 3,
            ((0, 0, 0, 0), (0, 0, 0, 0)): -1,
        },
    )
    assert op_to_text(p) == "-1/2 * Db^2 Dd + 1 * a * Da + 3 * b c + -1"
    assert repr(euler_op(V)) == "WeylOp('1 * a * Da + 1 * b * Db + 1 * c * Dc + 1 * d * Dd + 1')"
    assert op_to_text(WeylOp.zero(V)) == "0"


def test_vector_field_recognition():
    theta = WeylOp.vector_field([a, b, c, d])
    assert theta.is_vector_field()
    assert not WeylOp.one(V).is_vector_field()
    assert max(sum(de) for _, de in (theta * theta).terms) == 2


def stack_term_product(out, xe1, de1, xe2, de2, coef):
    """The product `_accumulate_term_product` replaced, kept as its oracle: every
    variable expanded, k = 0 included, depth first over a stack."""
    n = len(xe1)
    expansions = [[(k, math.comb(m, k) * math.perm(p, k)) for k in range(min(m, p) + 1)]
                  for m, p in zip(de1, xe2)]
    stack = [(0, (), 1)]
    while stack:
        i, ks, mult = stack.pop()
        if i == n:
            xe = tuple(xe1[j] + xe2[j] - ks[j] for j in range(n))
            de = tuple(de1[j] + de2[j] - ks[j] for j in range(n))
            key = (xe, de)
            out[key] = out.get(key, 0) + coef * mult
            continue
        for k, w in expansions[i]:
            stack.append((i + 1, ks + (k,), mult * w))


EXP4 = st.tuples(*[st.integers(0, 3)] * 4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(EXP4, EXP4, EXP4, EXP4, st.integers(-5, 5)), min_size=1, max_size=4))
def test_term_product_matches_the_stack_oracle(pairs):
    """On term pairs of arity 4 with exponents <= 3, accumulated into one table,
    the product gives the oracle's table, in the oracle's key order."""
    fast, slow = {}, {}
    for args in pairs:
        _accumulate_term_product(fast, *args)
        stack_term_product(slow, *args)
    assert list(fast.items()) == list(slow.items())
