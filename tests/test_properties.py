"""Property tests of the exact-algebra kernels over generated polynomials,
operators and enveloping-algebra elements.

Derandomized and without an example database, so a run is reproducible and
writes no files.
"""

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocycle.exactalg import (
    MAT2_VARS,
    ExactPoly,
    QuotientRing,
    horocycle_ring,
    poly_to_text,
    poly_try_divide,
    sl2_ring,
)
from horocycle.lie import LieAlgebraDesc, UEnvElement, sl2_desc, sl2_pair_desc
from horocycle.linalg import IncrementalRank, _primitive, rref, sparse_to_int
from horocycle.rees import rees_fiber
from horocycle.weyl import WeylOp, apply_op, op_to_text
from matrices import dense
from test_exactalg import REES_RING
from test_linalg import dense_rref

V = MAT2_VARS
RINGS = [
    sl2_ring(),
    horocycle_ring(),
    rees_fiber(2),
    REES_RING,
    QuotientRing(V, ExactPoly(V, {(1, 0, 0, 1): 3, (0, 1, 1, 0): -2, (0, 0, 0, 0): 5}), name="3ad-2bc+5"),
]

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coefs = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)),
)


def exps(n: int, top: int = 3):
    return st.tuples(*[st.integers(0, top)] * n)


def polys(variables, max_terms: int = 5):
    return st.dictionaries(exps(len(variables)), coefs, max_size=max_terms).map(
        lambda t: ExactPoly(variables, t)
    )


def ops(variables, max_terms: int = 3):
    n = len(variables)
    return st.dictionaries(st.tuples(exps(n, 2), exps(n, 2)), coefs, max_size=max_terms).map(
        lambda t: WeylOp(variables, t)
    )


@PROPERTY
@given(st.data())
def test_normal_form_is_idempotent_and_a_ring_map(data):
    ring = data.draw(st.sampled_from(RINGS), label="ring")
    f = data.draw(polys(ring.variables), label="f")
    g = data.draw(polys(ring.variables), label="g")
    nf_f, nf_g = ring.normal_form(f), ring.normal_form(g)
    assert ring.normal_form(nf_f) == nf_f
    assert ring.normal_form(f + g) == nf_f + nf_g
    assert ring.normal_form(f * g) == ring.normal_form(nf_f * nf_g)
    assert ring.in_ideal(f - nf_f)


@PROPERTY
@given(ops(V), ops(V), polys(V))
def test_apply_op_is_an_action(p, q, f):
    assert apply_op(p * q, f) == apply_op(p, apply_op(q, f))
    assert apply_op(p + q, f) == apply_op(p, f) + apply_op(q, f)


@PROPERTY
@given(st.data())
def test_division_recovers_the_cofactor(data):
    variables = data.draw(st.sampled_from([V, REES_RING.variables]), label="variables")
    f = data.draw(polys(variables), label="f")
    d = data.draw(polys(variables, max_terms=3).filter(lambda d: not d.is_zero()), label="d")
    assert poly_try_divide(f * d, d) == f


PAIR = sl2_pair_desc()


def pbw_elements(max_degree: int = 3, max_terms: int = 3):
    """Elements of U(sl2 (+) sl2) whose PBW monomials have degree <= max_degree."""
    pbw_exps = st.lists(st.integers(0, PAIR.dim - 1), max_size=max_degree).map(
        lambda word: tuple(word.count(i) for i in range(PAIR.dim))
    )
    return st.dictionaries(pbw_exps, coefs, max_size=max_terms).map(lambda t: UEnvElement(PAIR, t))


@PROPERTY
@given(pbw_elements(), pbw_elements(), pbw_elements())
def test_pbw_product_is_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


def test_pbw_generators_satisfy_the_axioms():
    """x_j x_i - x_i x_j = [x_j, x_i] on every pair of generators, and the
    product is associative on every triple, where a non-confluent rewrite
    (a bracket table failing Jacobi) first shows."""
    for desc in (sl2_desc(), PAIR):
        gens = [UEnvElement.generator(desc, i) for i in range(desc.dim)]
        for i, j in itertools.product(range(desc.dim), repeat=2):
            bracket = sum((gens[k] * c for k, c in desc.bracket_vector(j, i).items()), UEnvElement(desc, {}))
            assert gens[j] * gens[i] - gens[i] * gens[j] == bracket, (j, i)
        for i, j, k in itertools.product(range(desc.dim), repeat=3):
            assert (gens[i] * gens[j]) * gens[k] == gens[i] * (gens[j] * gens[k]), (i, j, k)


# --- sparse Lie vectors against the dense forms they replaced ----------------


def dense_bracket(desc, x, y):
    """Bracket of two dense coefficient lists, by the double loop over their entries."""
    out = [Fraction(0)] * desc.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            for k, c in desc.bracket_vector(i, j).items():
                out[k] += xi * yj * c
    return out


def first_jacobi_failure(brackets, n):
    """The first (i, j, k), i < j < k, where the cyclic sum of [x_a, [x_b, x_c]]
    is nonzero, by the triple loop over structure constants; None if there is none."""
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc: dict = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, coef in brackets.get((b, c), {}).items():
                        for t, v in brackets.get((a, m), {}).items():
                            acc[t] = acc.get(t, 0) + coef * v
                if any(acc.values()):
                    return i, j, k
    return None


@st.composite
def lie_vector_pairs(draw):
    desc = draw(st.sampled_from([sl2_desc(), PAIR]))
    vec = st.dictionaries(st.integers(0, desc.dim - 1), coefs, max_size=desc.dim)
    return desc, draw(vec), draw(vec)


@PROPERTY
@given(lie_vector_pairs())
def test_sparse_bracket_matches_the_dense_bracket(case):
    desc, x, y = case
    dense = [[v.get(i, 0) for i in range(desc.dim)] for v in (x, y)]
    expected = {k: c for k, c in enumerate(dense_bracket(desc, *dense)) if c}
    assert desc.bracket_of_vectors(x, y) == expected


@st.composite
def antisymmetric_tables(draw):
    """Structure constants on 3 or 4 basis elements, antisymmetric by construction;
    sparse, so that some satisfy the Jacobi identity and some do not."""
    n = draw(st.integers(3, 4))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2])
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = {k: c for k in range(n) if (c := draw(entry))}
            table[(i, j)] = vec
            table[(j, i)] = {k: -c for k, c in vec.items()}
    return n, table


@PROPERTY
@given(antisymmetric_tables())
def test_jacobi_validation_matches_the_triple_loop(case):
    n, table = case
    basis = tuple(f"x{i}" for i in range(n))
    failure = first_jacobi_failure(table, n)
    if failure is None:
        LieAlgebraDesc(basis, table)
    else:
        with pytest.raises(ValueError, match=r"Jacobi identity fails at \(%d,%d,%d\)" % failure):
            LieAlgebraDesc(basis, table)


# --- the one elimination routine against hit-by-hit elimination --------------


def _reduce_once(v, key, row):
    """v with its `key` entry eliminated by the pivot row, content removed: the
    single-hit step that both reduction and back-reduction once used."""
    c = v.get(key)
    if not c:
        return v
    p = row[key]
    g = gcd(p, c)
    p //= g
    c //= g
    new = {k: x * p for k, x in v.items()} if p != 1 else dict(v)
    for k, x in row.items():
        y = new.get(k, 0) - c * x
        if y:
            new[k] = y
        else:
            del new[k]
    return _primitive(new)


def _hit_by_hit_add(pivots, vec):
    """Insert vec into {pivot key: row} by eliminating one hit at a time, then
    back-reduce the rows holding the new pivot's key; True iff the rank grew."""
    v = sparse_to_int(vec)
    for k in [k for k in v if k in pivots]:
        v = _reduce_once(v, k, pivots[k])
    if not v:
        return False
    key = min(v)
    for pkey, row in pivots.items():
        if key in row:
            pivots[pkey] = _reduce_once(row, key, v)
    pivots[key] = v
    return True


def int_or_fraction_vectors(n: int):
    """Sparse vectors on keys 0..n-1, all-int or all-Fraction, with negative entries
    and explicit zeros."""
    ints = st.dictionaries(st.integers(0, n - 1), st.integers(-12, 12), max_size=n)
    fracs = st.dictionaries(
        st.integers(0, n - 1), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)), max_size=n
    )
    return st.one_of(ints, fracs)


@PROPERTY
@given(st.data())
def test_incremental_rank_keeps_its_row_invariants(data):
    n = data.draw(st.integers(1, 7), label="n")
    vecs = data.draw(st.lists(int_or_fraction_vectors(n), max_size=9), label="vecs")
    elim, reference = IncrementalRank(), {}
    for vec in vecs:
        assert elim.add(vec) == _hit_by_hit_add(reference, vec)
        assert elim.pivots == reference
        for key, row in elim.pivots.items():
            assert all(type(x) is int and x for x in row.values())
            g = 0
            for x in row.values():
                g = gcd(g, x)
            assert g == 1  # primitive
            assert key == min(row)
            assert not any(other in row for other in elim.pivots if other != key)
    mat = [[v.get(j, 0) for j in range(n)] for v in vecs]
    red, pivots = rref(vecs)
    expected, expected_pivots = dense_rref(mat) if mat else ([], [])
    assert (dense(red, n), pivots) == (expected[: len(expected_pivots)], expected_pivots)
    assert len(elim.pivots) == len(pivots)


def test_back_reduction_against_a_negative_pivot_matches_hit_by_hit():
    # the new vector's least entry is negative and row 0 holds its key, so the
    # back-reduction scales row 0 by a negative factor: its pivot entry turns negative
    elim = IncrementalRank()
    elim.add({0: 1, 1: 2})
    elim.add({1: -3, 2: 1})
    assert elim.pivots == {0: {0: -3, 2: -2}, 1: {1: -3, 2: 1}}
    reference: dict = {}
    for vec in ({0: 1, 1: 2}, {1: -3, 2: 1}):
        _hit_by_hit_add(reference, vec)
    assert elim.pivots == reference


class _WatchedRow(dict):
    """A stored row that records whether `add` looked inside it."""

    looked = False

    def __contains__(self, key):
        self.looked = True
        return super().__contains__(key)


def _watched(elim):
    """Replace each stored row in `pivots`, the one row store that `add` scans,
    by an equal `_WatchedRow`; returns {pivot: row}."""
    for key, row in elim.pivots.items():
        elim.pivots[key] = _WatchedRow(row)
    return dict(elim.pivots)


def test_a_new_pivot_below_every_stored_pivot_leaves_every_row_untouched():
    elim = IncrementalRank()
    for vec in ({4: 2, 5: 1, 7: 3}, {5: 1, 6: -2}, {6: 5, 7: 1}):
        elim.add(vec)
    before = _watched(elim)
    snapshot = {key: dict(row) for key, row in before.items()}
    # the new vector holds every stored pivot key; reduced, its least key 1 lies below them all
    assert elim.add({1: 3, 4: 1, 5: 2, 6: 1, 7: -4})
    assert min(elim.pivots) == 1
    for key, row in before.items():
        assert elim.pivots[key] is row and row == snapshot[key] and not row.looked, key


def test_a_new_pivot_between_stored_pivots_reduces_only_the_earlier_rows():
    vecs = ({0: 1, 3: 2, 5: 1}, {1: 3, 3: -1, 4: 1}, {6: 2, 7: 1}, {8: 1, 9: 5})
    elim, reference = IncrementalRank(), {}
    for vec in vecs:
        elim.add(vec)
        _hit_by_hit_add(reference, vec)
    before = _watched(elim)
    new = {3: 1, 6: 1, 9: 1}
    assert elim.add(new) and _hit_by_hit_add(reference, new)
    assert min(set(elim.pivots) - set(before)) == 3
    # rows 0 and 1 hold key 3 and are reduced; rows 6 and 8 come after it and are not read
    assert [key for key, row in before.items() if row.looked] == [0, 1]
    assert all(elim.pivots[key] is not before[key] for key in (0, 1))
    assert all(elim.pivots[key] is before[key] for key in (6, 8))
    assert elim.pivots == reference
    assert all(3 not in row for key, row in elim.pivots.items() if key != 3)


# --- the one monomial printer against the printers it replaced ---------------


def _old_fmt_coef(c) -> str:
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)


def _old_poly_to_text(f):
    if not f.terms:
        return "0"
    parts = []
    for e in sorted(f.terms, key=lambda e: (sum(e), e), reverse=True):
        c = f.terms[e]
        mono = " ".join(f"{v}^{k}" if k != 1 else v for v, k in zip(f.variables, e) if k)
        parts.append(f"{_old_fmt_coef(c)} * {mono}" if mono else _old_fmt_coef(c))
    return " + ".join(parts)


def _old_op_to_text(p):
    if not p.terms:
        return "0"
    parts = []
    for xe, de in sorted(p.terms, key=lambda k: (sum(k[1]), k[1], sum(k[0]), k[0]), reverse=True):
        c = p.terms[(xe, de)]
        xmono = " ".join(f"{v}^{k}" if k != 1 else v for v, k in zip(p.variables, xe) if k)
        dmono = " ".join(f"D{v}^{k}" if k != 1 else f"D{v}" for v, k in zip(p.variables, de) if k)
        piece = _old_fmt_coef(c)
        if xmono:
            piece += f" * {xmono}"
        if dmono:
            piece += f" * {dmono}"
        parts.append(piece)
    return " + ".join(parts)


def _old_uenv_repr(u):
    if not u.terms:
        return "UEnvElement(0)"
    parts = []
    for e in sorted(u.terms, key=lambda e: (sum(e), e)):
        mono = " ".join(f"{n}^{k}" if k > 1 else n for n, k in zip(u.desc.basis, e) if k)
        parts.append(f"{u.terms[e]}*{mono or '1'}")
    return "UEnvElement(" + " + ".join(parts) + ")"


@PROPERTY
@given(polys(V), polys(REES_RING.variables), ops(V), pbw_elements())
def test_text_forms_match_the_printers_they_replaced(f, g, p, u):
    assert poly_to_text(f) == _old_poly_to_text(f)
    assert poly_to_text(g) == _old_poly_to_text(g)
    assert op_to_text(p) == _old_op_to_text(p)
    assert repr(u) == _old_uenv_repr(u)
