import math
import random
import sys
import threading
from fractions import Fraction

import pytest
import sympy

from horocycle.exactalg import (
    BOTTOM,
    ArityMismatch,
    ExactPoly,
    MAT2_VARS,
    QuotientRing,
    _divides,
    det_poly,
    horocycle_ring,
    mat2_ring,
    poly_to_text,
    poly_try_divide,
    compositions,
    pw_level,
    sl2_ring,
    vanishing_order,
)
from horocycle.lie import UEnvElement, sl2_desc, sl2_pair_desc
from horocycle.linalg import IncrementalRank, frac, num
from horocycle.rees import rees_fiber
from horocycle.weyl import WeylOp, apply_op
from matrices import rank, sparse

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


def pw_level_oracle(f: ExactPoly, ring: QuotientRing):
    """Minimal degree over coset representatives, by coset-membership solves."""
    nf = ring.normal_form(f)
    if nf.is_zero():
        return BOTTOM
    top = nf.degree()
    if ring.relation is None:
        return top
    for t in range(top):
        if _has_representative_of_degree(nf, ring, t):
            return t
    return top


def _has_representative_of_degree(nf: ExactPoly, ring: QuotientRing, t: int) -> bool:
    """Does nf + relation*g have degree <= t for some g?  The top part of
    relation*g never vanishes, so a g that lowers the degree has degree at most
    deg nf - deg relation; the rows are the monomials above degree t that nf or
    any such relation*g can hold."""
    rel = ring.relation
    gdeg = max(nf.degree() - rel.degree(), 0)
    gmonos = [e for d in range(gdeg + 1) for e in compositions(d, len(ring.variables))]
    high = [
        e
        for d in range(t + 1, max(nf.degree(), gdeg + rel.degree()) + 1)
        for e in compositions(d, len(ring.variables))
    ]
    if not high:
        return True
    row_index = {e: i for i, e in enumerate(high)}
    cols = []
    for ge in gmonos:
        col = [Fraction(0)] * len(high)
        for re, rc in rel.terms.items():
            e = tuple(x + y for x, y in zip(re, ge))
            if e in row_index:
                col[row_index[e]] = rc
        cols.append(col)
    target = [-nf.terms.get(e, Fraction(0)) for e in high]
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(high))]
    aug = [row + [target[i]] for i, row in enumerate(mat)]
    return rank(sparse(aug)) == rank(sparse(mat))


@pytest.mark.parametrize("ring", [sl2_ring(), horocycle_ring()], ids=lambda r: r.name)
def test_normal_forms_are_degree_minimal(ring):
    """Batched coset search up to degree 8: a class of normal-form degree k has
    a representative of smaller degree exactly when its degree-k part is hit by
    the multiples of the relation truncated to degrees >= k.  Those multiples
    come from g of degree <= k - 2, because the top part of relation * g is
    nonzero; every class is covered at once by asking that the normal-form
    monomials of degree k stay independent modulo that span."""
    nvars = len(ring.variables)
    for k in range(1, 9):
        elim = IncrementalRank()
        for gd in range(k - 1):
            for ge in compositions(gd, nvars):
                vec = {}
                for re, rc in ring.relation.terms.items():
                    e = tuple(x + y for x, y in zip(re, ge))
                    if sum(e) >= k:
                        vec[e] = rc
                if vec:
                    elim.add(vec)
        for e in ring.nf_monomials(k):
            assert elim.add({e: 1}), f"{ring.name}: degree {k} classes have smaller representatives"


def test_pw_level_examples():
    R = sl2_ring()
    assert pw_level(a, R) == 1
    assert pw_level(ExactPoly.constant(V, 1), R) == 0
    assert pw_level(a * d, R) == 2
    assert pw_level(ExactPoly.zero(V), R) == BOTTOM == -math.inf
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
    zero = ExactPoly.zero(V)
    zeros = 0
    for _ in range(30):
        f, g = (rng.choice([zero, rand_poly(rng, degree=3)]) for _ in range(2))
        zeros += f.is_zero() or g.is_zero()
        lf, lg = pw_level(f, R), pw_level(g, R)
        assert pw_level(f * g, R) <= lf + lg
        assert pw_level(f + g, R) <= max(lf, lg)
    assert zeros >= 5


def test_vanishing_order():
    dp = det_poly()
    assert vanishing_order(dp * dp, dp) == 2
    assert vanishing_order(a * b, dp) == 0
    assert vanishing_order(dp * a, dp) == 1
    assert vanishing_order(ExactPoly.zero(V), dp) == math.inf


def test_vanishing_order_rejects_a_constant_divisor():
    # a nonzero constant divides every polynomial to every order
    for f in (a, ExactPoly.zero(V)):
        with pytest.raises(ValueError):
            vanishing_order(f, ExactPoly.constant(V, 2))


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


def test_poly_division_edge_cases():
    dp = det_poly()
    # a single term over a single term still divides
    assert poly_try_divide(a * a * b, 2 * a) == ExactPoly.monomial(V, (1, 1, 0, 0), Fraction(1, 2))
    for dv in (dp, dp - 1, 2 * a, a + b):
        assert poly_try_divide(ExactPoly.zero(V), dv) == ExactPoly.zero(V)
    for k in range(4):
        for e in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 1, 0), (1, 0, 0, 3)):
            assert vanishing_order(dp**k * ExactPoly.monomial(V, e), dp) == k


def test_serialization_roundtrip():
    # the text format is pinned literally: graded order, highest degree first
    f = ExactPoly(V, {(2, 0, 0, 1): Fraction(3, 2), (0, 1, 1, 0): -1, (1, 0, 0, 0): Fraction(-2, 3), (0, 0, 0, 0): 5})
    assert poly_to_text(f) == "3/2 * a^2 d + -1 * b c + -2/3 * a + 5"
    assert repr(a * d - b * c) == "ExactPoly('1 * a d + -1 * b c')"
    assert poly_to_text(ExactPoly.zero(V)) == "0"
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


def _sparse_samples():
    """(element, the unit of its space, an element of another space) per class."""
    pair = sl2_pair_desc()
    F, H, E = (UEnvElement.generator(sl2_desc(), i) for i in range(3))
    Da = WeylOp.partial(V, "a")
    return {
        "ExactPoly": (a * b - 2 * c + Fraction(1, 3), ExactPoly.constant(V, 1), ExactPoly.variable(("x", "y"), "x")),
        "WeylOp": (
            WeylOp.from_poly(c) * Da + Da * 2 - WeylOp.from_poly(b * d),
            WeylOp.one(V),
            WeylOp.partial(("x", "y"), "x"),
        ),
        "UEnvElement": (E * F + 3 * H - 1, UEnvElement.one(sl2_desc()), UEnvElement.generator(pair, 0)),
    }


@pytest.mark.parametrize("kind", ["ExactPoly", "WeylOp", "UEnvElement"])
def test_sparse_element_arithmetic(kind):
    x, one, foreign = _sparse_samples()[kind]
    assert (x - x).is_zero()
    assert x**0 == one
    assert x**3 == x * x * x
    assert -(-x) == x
    assert x + 1 == 1 + x == x - (-1) and 1 - x == -(x - 1)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
        with pytest.raises(ValueError):
            op(x, foreign)


def _canonical(x) -> bool:
    """Every stored coefficient is a nonzero int, or a Fraction that is not integral."""
    return all(
        (type(c) is int and c) or (type(c) is Fraction and c.denominator > 1) for c in x.terms.values()
    )


def _rand_coef(rng):
    # ints, proper fractions and integral Fractions such as 4/2, which must be stored as ints
    return rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-6, 6), rng.randint(1, 3))))


def _rand_exp(rng, n, degree):
    e = [0] * n
    for _ in range(rng.randint(0, degree)):
        e[rng.randrange(n)] += 1
    return tuple(e)


def _to_sympy(f: ExactPoly, gens):
    out = 0
    for e, coef in f.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for g, k in zip(gens, e):
            term *= g**k
        out += term
    return sympy.expand(out)


def test_coefficients_stay_canonical():
    # sums, products, normal forms, operator actions and PBW products of seeded
    # elements with mixed int and Fraction coefficients never store an integral
    # Fraction, and division by the non-monic 2a + 3b matches sympy
    gens = sympy.symbols("a b c d")
    rng = random.Random(23)
    rings = (mat2_ring(), sl2_ring(), horocycle_ring())
    divisor = 2 * a + 3 * b
    quotients_with_halves = 0
    for _ in range(60):
        f = ExactPoly(V, {_rand_exp(rng, 4, 3): _rand_coef(rng) for _ in range(5)})
        g = ExactPoly(V, {_rand_exp(rng, 4, 3): _rand_coef(rng) for _ in range(5)})
        polys = [f, g, f + g, f - g, f * g, 2 * f, f * Fraction(1, 2), Fraction(2, 3) * g * 3]
        polys += [ring.normal_form(p) for ring in rings for p in (f, f * g)]
        p = WeylOp(V, {(_rand_exp(rng, 4, 2), _rand_exp(rng, 4, 2)): _rand_coef(rng) for _ in range(4)})
        q = WeylOp(V, {(_rand_exp(rng, 4, 2), _rand_exp(rng, 4, 2)): _rand_coef(rng) for _ in range(4)})
        polys += [apply_op(p, f), apply_op(p * q, g)]
        ops = [p + q, p * q, q * p, p * Fraction(3, 2), 2 * q]
        desc = rng.choice((sl2_desc(), sl2_pair_desc()))
        u = UEnvElement(desc, {_rand_exp(rng, desc.dim, 2): _rand_coef(rng) for _ in range(3)})
        w = UEnvElement(desc, {_rand_exp(rng, desc.dim, 2): _rand_coef(rng) for _ in range(3)})
        pbw = [u + w, u * w, w * u, u * Fraction(1, 2) * 2]
        assert all(_canonical(x) for x in polys + ops + pbw)
        for h in (f, f * divisor):
            quot = poly_try_divide(h, divisor)
            sq, sr = sympy.div(_to_sympy(h, gens), _to_sympy(divisor, gens), *gens)
            if quot is None:
                assert sr != 0
                continue
            assert _canonical(quot) and sr == 0
            assert sympy.expand(_to_sympy(quot, gens) - sq) == 0
            quotients_with_halves += any(type(x) is Fraction and x.denominator % 2 == 0 for x in quot.terms.values())
    assert quotients_with_halves >= 10


def test_float_coefficients_are_rejected():
    with pytest.raises(TypeError):
        ExactPoly(V, {(1, 0, 0, 0): 0.5})
    with pytest.raises(TypeError):
        WeylOp(V, {((1, 0, 0, 0), (0, 1, 0, 0)): 0.5})
    with pytest.raises(TypeError):
        UEnvElement(sl2_desc(), {(0, 1, 0): 0.5})
    for x in (a, WeylOp.partial(V, "a"), UEnvElement.generator(sl2_desc(), 1)):
        with pytest.raises(TypeError):
            _ = x * 0.5
        with pytest.raises(TypeError):
            _ = 0.5 * x
    with pytest.raises(TypeError):
        frac(0.5)
    with pytest.raises(TypeError):
        num(0.5)
    assert num(Fraction(4, 2)) == 2 and type(num(Fraction(4, 2))) is int
    assert num(Fraction(1, 2)) == Fraction(1, 2)


def test_constructors_convert_keys_and_sum_collisions():
    # range(4) is not a tuple, so it is a separate input key until converted
    half = Fraction(1, 2)
    for make, key, same, short in (
        (lambda t: ExactPoly(V, t), range(4), (0, 1, 2, 3), (0, 1)),
        (lambda t: UEnvElement(sl2_desc(), t), range(3), (0, 1, 2), (0, 1)),
        (lambda t: WeylOp(V, t), (range(4), (0,) * 4), ((0, 1, 2, 3), (0,) * 4), ((0, 1), (0,) * 4)),
    ):
        summed = make({key: half, same: Fraction(3, 2)})
        assert summed.terms == {same: 2} and type(summed.terms[same]) is int
        assert all(type(k) is tuple for k in make({key: 1}).terms)
        assert make({key: half, same: -half}).terms == {}
        with pytest.raises(ArityMismatch):
            make({short: 1})


def test_float_zero_coefficients_are_rejected():
    with pytest.raises(TypeError):
        ExactPoly(V, {(1, 0, 0, 0): 0.0, (0, 1, 0, 0): 1})
    with pytest.raises(TypeError):
        WeylOp(V, {((1, 0, 0, 0), (0, 1, 0, 0)): 0.0})
    with pytest.raises(TypeError):
        UEnvElement(sl2_desc(), {(0, 1, 0): -0.0})
    for x in (a, WeylOp.partial(V, "a"), UEnvElement.generator(sl2_desc(), 1)):
        with pytest.raises(TypeError):
            _ = x * 0.0
    # exact zeros are still dropped
    assert ExactPoly(V, {(1, 0, 0, 0): 0, (0, 1, 0, 0): Fraction(0)}).terms == {}


# --- rewrite kernels against the loops they replaced -------------------------
#
# As with `dense_rref` in test_linalg.py, the straightforward versions stay
# here as oracles: the work-list rewrite that `QuotientRing.normal_form` ran
# before its monomial memo, and the division that built a new remainder per
# step.  Both read the leading monomial off the relation itself, not off the
# ring's precomputed rewrite rule.


def worklist_normal_form(ring: QuotientRing, f: ExactPoly) -> ExactPoly:
    """Pop a term; rewrite it by the relation if the leading monomial divides it, else keep it."""
    if ring.relation is None:
        return f
    lead = ring.relation.leading_exponent()
    lc = ring.relation.terms[lead]
    rewrite = {e: Fraction(-c, lc) for e, c in ring.relation.terms.items() if e != lead}
    work = dict(f.terms)
    out: dict = {}
    while work:
        e, c = work.popitem()
        if not c:
            continue
        if all(x <= y for x, y in zip(lead, e)):
            rest = tuple(y - x for x, y in zip(lead, e))
            for re, rc in rewrite.items():
                ne = tuple(x + y for x, y in zip(re, rest))
                work[ne] = work.get(ne, 0) + c * rc
        else:
            out[e] = out.get(e, 0) + c
    return ExactPoly(ring.variables, out)


def leading_term_divide(f: ExactPoly, d: ExactPoly) -> ExactPoly | None:
    """Exact quotient by repeated subtraction of (quotient monomial) * d, or None."""
    lead = d.leading_exponent()
    rem, q = f, {}
    while not rem.is_zero():
        e = rem.leading_exponent()
        if not all(x <= y for x, y in zip(lead, e)):
            return None
        qe = tuple(x - y for x, y in zip(e, lead))
        qc = Fraction(rem.terms[e], d.terms[lead])
        q[qe] = q.get(qe, 0) + qc
        rem = rem - ExactPoly.monomial(f.variables, qe, qc) * d
    return ExactPoly(f.variables, q)


# 3ad - 2bc + 5: non-monic, so its rewrite rule ad -> (2bc - 5)/3 has Fraction coefficients
NON_MONIC = QuotientRing(V, ExactPoly(V, {(1, 0, 0, 1): 3, (0, 1, 1, 0): -2, (0, 0, 0, 0): 5}), name="3ad-2bc+5")
B_SQUARED = QuotientRing(V, ExactPoly(V, {(1, 0, 0, 0): 1, (0, 2, 0, 0): -1}), name="a-b^2")
# the Rees presentation C[A, B, C, D, z]/(AD - BC - z) of O(SL2): a relation with a
# degree-one term; z -> det maps it onto O(Mat2) (tests/test_rees.py)
REES_RING = QuotientRing(
    ("A", "B", "C", "D", "z"),
    ExactPoly(("A", "B", "C", "D", "z"), {(1, 0, 0, 1, 0): 1, (0, 1, 1, 0, 0): -1, (0, 0, 0, 0, 1): -1}),
    name="Rees(O(SL2))",
)
ORACLE_RINGS = [mat2_ring(), sl2_ring(), horocycle_ring(), rees_fiber(2), REES_RING, NON_MONIC, B_SQUARED]


def _rand_ring_poly(rng, variables, degree, terms):
    return ExactPoly(variables, {_rand_exp(rng, len(variables), degree): _rand_coef(rng) for _ in range(terms)})


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: r.name)
def test_memoized_normal_form_matches_worklist_rewrite(ring):
    rng = random.Random(2024)
    fresh = QuotientRing(ring.variables, ring.relation)  # an empty memo, filled below
    for i in range(120):
        f = _rand_ring_poly(rng, ring.variables, degree=2 + i % 9, terms=1 + i % 6)
        expected = worklist_normal_form(ring, f)
        for r in (ring, fresh):
            got = r.normal_form(f)
            assert got == expected and _canonical(got), (ring.name, f)
    for e in compositions(6, len(ring.variables)):  # every monomial of degree 6, twice
        mono = ExactPoly.monomial(ring.variables, e)
        assert fresh.normal_form(mono) == fresh.normal_form(mono) == worklist_normal_form(ring, mono)
    if ring.relation is not None:
        # each entry is its key's normal form, and the identity ((e, 1),) when the
        # leading monomial does not divide the key
        assert fresh._nf_memo
        for e, nf in fresh._nf_memo.items():
            assert dict(nf) == worklist_normal_form(ring, ExactPoly.monomial(ring.variables, e)).terms, (ring.name, e)
            assert _divides(ring.lead_exp, e) or nf == ((e, 1),), (ring.name, e)
    if ring is NON_MONIC:
        assert any(type(c) is Fraction for c in ring.normal_form(a * a * d * d).terms.values())


@pytest.mark.parametrize("variables", [V, REES_RING.variables], ids=["mat2", "rees"])
def test_in_place_division_matches_leading_term_division(variables):
    rng = random.Random(77)
    n = len(variables)
    det = ExactPoly(variables, {(1, 0, 0, 1) + (0,) * (n - 4): 1, (0, 1, 1, 0) + (0,) * (n - 4): -1})
    divisors = [det, det - 2, NON_MONIC.relation if n == 4 else REES_RING.relation, det * det]
    divisors += [_rand_ring_poly(rng, variables, 2, 3) for _ in range(6)]
    exact = 0
    for i in range(150):
        d = divisors[i % len(divisors)]
        if d.is_zero():
            continue
        f = _rand_ring_poly(rng, variables, degree=1 + i % 4, terms=1 + i % 4)
        for h in (f, f * d, f * d + ExactPoly.monomial(variables, _rand_exp(rng, n, 2))):
            expected = leading_term_divide(h, d)
            got = poly_try_divide(h, d)
            assert got == expected, (h, d)
            exact += got is not None
            assert got is None or _canonical(got)
    assert exact >= 150


def test_normal_form_memo_is_safe_under_threads():
    # eight threads fill one empty memo at once, with a thread switch forced
    # every microsecond; a torn or lost entry would give a wrong normal form
    ring = QuotientRing(V, sl2_ring().relation)
    monos = [ExactPoly.monomial(V, e) for k in range(9) for e in compositions(k, 4)]
    expected = [worklist_normal_form(ring, m) for m in monos]
    results = [None] * 8

    def work(i):
        step = -1 if i % 2 else 1  # half the threads run through the monomials backwards
        results[i] = [ring.normal_form(m) for m in monos[::step]][::step]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)


# --- the normal-form accumulator, the flat enumeration and the trailing test ----


def recursive_compositions(total: int, parts: int):
    """The chain of recursive generators that `compositions` replaced."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_flat_compositions_match_the_recursive_enumeration():
    for total in range(13):
        for parts in range(1, 8):
            assert compositions(total, parts) == list(recursive_compositions(total, parts)), (total, parts)


def _accumulator_inputs(ring, rng):
    """Random polynomials, g * rel + h with h of lower degree than g * rel (the top
    part cancels in normal form), and multiples g * rel (every sum is zero)."""
    n = len(ring.variables)
    for i in range(40):
        f = _rand_ring_poly(rng, ring.variables, degree=1 + i % 5, terms=1 + i % 4)
        yield f
        if ring.relation is not None:
            g = _rand_ring_poly(rng, ring.variables, degree=1 + i % 3, terms=1 + i % 3)
            h = ExactPoly(ring.variables, {_rand_exp(rng, n, max(g.degree(), 0)): _rand_coef(rng)})
            yield g * ring.relation + h
            yield g * ring.relation


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: r.name)
def test_nf_terms_and_pw_level_match_the_oracles(ring):
    rng = random.Random(36)
    zero_classes = top_cancelled = 0
    for f in _accumulator_inputs(ring, rng):
        expected = worklist_normal_form(ring, f)
        assert ExactPoly(ring.variables, ring.nf_terms(f.terms)) == expected, (ring.name, f)
        assert pw_level(f, ring) == pw_level_oracle(f, ring) == expected.degree(), (ring.name, f)
        zero_classes += not f.is_zero() and expected.is_zero()
        top_cancelled += expected.degree() < f.degree()
    if ring.relation is None:
        f = _rand_ring_poly(rng, ring.variables, 3, 4)
        assert ring.nf_terms(f.terms) is f.terms
    else:
        assert zero_classes and top_cancelled > zero_classes
    with pytest.raises(ArityMismatch):
        pw_level(ExactPoly.zero(ring.variables[:3]), ring)


def _least(f: ExactPoly):
    return min(f.terms, key=lambda e: (sum(e), e))


def test_trailing_test_division_matches_leading_term_division():
    rng = random.Random(36)
    det = det_poly()
    divisors = [det, det - 1, B_SQUARED.relation, NON_MONIC.relation, a + b * b, det * c + d]
    decided = passed_but_indivisible = 0
    for i in range(120):
        dv = divisors[i % len(divisors)]
        g = _rand_ring_poly(rng, V, 1 + i % 3, 1 + i % 3)
        if g.is_zero():
            continue
        # a low monomial spoils only the least one, a high one only the leading one
        low = ExactPoly.monomial(V, _rand_exp(rng, 4, 1))
        high = ExactPoly.monomial(V, (2, 0, 0, 2)) * g * g
        for f in (g * dv, g * dv + low, g * dv + high, g * dv * a + dv * low):
            expected = leading_term_divide(f, dv)
            assert poly_try_divide(f, dv) == expected, (f, dv)
            if f.is_zero():
                continue
            if not _divides(_least(dv), _least(f)):
                decided += 1
                assert expected is None
            elif expected is None:
                passed_but_indivisible += 1
    assert decided >= 30 and passed_but_indivisible >= 30
