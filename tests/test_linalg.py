import random
from fractions import Fraction
from math import gcd

import pytest

from horocycle import linalg
from horocycle.linalg import (
    IncrementalRank,
    char_poly,
    lincomb,
    mat_mul,
    nullspace,
    quotient,
    rref,
    transpose,
)
from matrices import dense, dense_mul, rank, sparse


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]



def padded_rref(mat):
    """rref of a dense matrix, written out dense with its zero rows, as dense_rref gives it."""
    cols = len(mat[0]) if mat else 0
    red, pivots = rref(sparse(mat))
    return dense(red, cols) + [[Fraction(0)] * cols for _ in range(len(mat) - len(red))], pivots


def rand_matrix(rng, n, m, density=0.6):
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else Fraction(0) for _ in range(m)]
        for _ in range(n)
    ]


def dense_rref(mat):
    """Reference reduced row echelon form by dense Gauss-Jordan over Fraction."""
    m = [[Fraction(x) for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def test_rref_matches_dense_gauss_jordan():
    rng = random.Random(4)

    def entry(density):
        if rng.random() >= density:
            return rng.choice((0, Fraction(0)))
        x = rng.randint(-6, 6)
        return x if rng.random() < 0.5 else Fraction(x, rng.randint(1, 5))

    shapes = [(0, 0), (1, 0), (3, 0), (1, 1), (1, 7), (7, 1), (9, 3), (12, 2)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(240)]
    for i, (n, m) in enumerate(shapes):
        density = (0.0, 0.2, 0.5, 0.9, 1.0)[i % 5]
        mat = [[entry(density) for _ in range(m)] for _ in range(n)]
        if n > 1 and i % 7 == 0:
            mat[rng.randrange(n)] = [0] * m  # a zero row
        if m > 1 and i % 11 == 0:
            col = rng.randrange(m)
            for row in mat:
                row[col] = Fraction(0)  # a zero column
        if n > 2 and i % 13 == 0:
            mat.append([2 * x - y for x, y in zip(mat[0], mat[1])])  # a dependent row
        expected = dense_rref(mat)
        assert padded_rref(mat) == expected, mat
        assert all(type(x) is Fraction for row in rref(sparse(mat))[0] for x in row.values())


def test_rref_and_rank_consistency():
    rng = random.Random(5)
    for _ in range(50):
        m = sparse(rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)))
        r, pivots = rref(m)
        assert rank(m) == len(pivots)


def test_nullspace_is_kernel():
    rng = random.Random(6)
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        cols = len(m[0])
        for v in nullspace(sparse(m), cols):
            assert all(x == 0 for x in mat_vec(m, dense([v], cols)[0]))
        assert len(nullspace(sparse(m), cols)) == cols - rank(sparse(m))


def test_left_nullspace():
    # {y : y M = 0} is the null space of the transpose
    rng = random.Random(7)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        rows, cols = len(m), len(m[0])
        mt = [list(col) for col in zip(*m)]
        assert dense(transpose(sparse(m), cols), rows) == mt
        for y in nullspace(transpose(sparse(m), cols), rows):
            assert all(x == 0 for x in mat_vec(mt, dense([y], rows)[0]))


def test_lincomb_and_mat_mul():
    assert lincomb([(2, {0: 1, 1: 3}), (-3, {1: 2, 2: Fraction(1, 3)})]) == {0: 2, 2: -1}
    assert lincomb([(1, {0: 1}), (-1, {0: 1})]) == {}
    rng = random.Random(10)
    for _ in range(30):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = rand_matrix(rng, n, k), rand_matrix(rng, k, m)
        expected = [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)] for i in range(n)]
        assert dense_mul(a, b) == expected
        assert all(x for row in mat_mul(sparse(a), sparse(b)) for x in row.values())


def test_incremental_rank_matches_dense():
    rng = random.Random(8)
    for _ in range(100):
        n, k = rng.randint(1, 7), rng.randint(1, 7)
        cols = []
        for _ in range(k):
            col = {i: Fraction(rng.randint(-4, 4)) for i in range(n) if rng.random() < 0.5}
            cols.append({i: v for i, v in col.items() if v})
        elim = IncrementalRank()
        for c in cols:
            elim.add(c)
        assert len(elim.pivots) == rank(transpose(cols, n))


def test_incremental_rank_reduce():
    elim = IncrementalRank()
    elim.add({0: 1, 1: 2})
    elim.add({1: 1, 2: Fraction(1, 2)})
    pivots = {k: dict(row) for k, row in elim.pivots.items()}
    assert elim.reduce({0: 3, 1: 8, 2: 1}) == {}  # 3 (e0 + 2 e1) + 2 (e1 + e2/2)
    rest = elim.reduce({0: 1, 2: 5})
    assert rest and set(rest) == {2} and rest[2] > 0
    assert elim.reduce({3: Fraction(2, 3)}) == {3: 1}
    assert elim.pivots == pivots and len(elim.pivots) == 2
    assert elim.add({0: 1, 2: 5}) and len(elim.pivots) == 3


def _hard_family(rng, n):
    """Rows of a random integer matrix with entries up to +-50, many of them negative."""
    rows = []
    for _ in range(rng.randint(n // 2, n)):
        row = {i: rng.choice((-1, 1)) * rng.randint(1, 50) for i in range(n) if rng.random() < 0.7}
        if row:
            rows.append(row)
    return rows


def _one_pass_reference(elim, v):
    """v - Sum (v[k] / p_k) row_k over the hit pivots k, over Fraction, made primitive
    and given the sign of the product of the p_k, as hit-by-hit elimination leaves it."""
    w = {k: Fraction(x) for k, x in v.items()}
    sign = 1
    for k in [k for k in v if k in elim.pivots]:
        row = elim.pivots[k]
        sign *= 1 if row[k] > 0 else -1
        for j, x in row.items():
            w[j] = w.get(j, 0) - Fraction(v[k], row[k]) * x
    w = {k: x for k, x in w.items() if x}
    den = 1
    for x in w.values():
        den = den * x.denominator // gcd(den, x.denominator)
    ints = {k: int(x * den) for k, x in w.items()}
    g = 0
    for x in ints.values():
        g = gcd(g, x)
    return {k: sign * x // g for k, x in ints.items()}


def test_incremental_rank_reduce_hard_cases():
    # each reduced vector hits at least 3 pivots; spans are compared by dense Gauss-Jordan
    rng = random.Random(13)
    dense_rank = lambda rows, n: len(dense_rref(dense(rows, n))[1])
    hits_seen = negative_pivots = 0
    for _ in range(40):
        n = rng.randint(6, 10)
        family = _hard_family(rng, n)
        elim = IncrementalRank()
        for row in family:
            before = len(elim.pivots)
            assert elim.add(row) == (len(elim.pivots) > before)
        assert len(elim.pivots) == dense_rank(family, n)
        negative_pivots += sum(1 for k, row in elim.pivots.items() if row[k] < 0)
        for _ in range(5):
            v = {i: rng.randint(-50, 50) for i in rng.sample(range(n), rng.randint(3, n))}
            v = {i: x for i, x in v.items() if x}
            if sum(1 for k in v if k in elim.pivots) < 3:
                continue
            hits_seen += 1
            red = elim.reduce(v)
            assert all(key not in red for key in elim.pivots)
            assert all(type(x) is int for x in red.values())
            g = 0
            for x in red.values():
                g = gcd(g, x)
            assert g == (1 if red else 0)  # primitive
            assert red == _one_pass_reference(elim, v)
            with_v = dense_rank(family + [v], n)
            assert with_v == dense_rank(family + [red], n) == dense_rank(family + [v, red], n)
            assert bool(red) == (with_v > len(elim.pivots))
            before = len(elim.pivots)
            assert elim.add(v) == (len(elim.pivots) > before) == bool(red)
            family.append(v)
    assert hits_seen > 100 and negative_pivots > 30, (hits_seen, negative_pivots)


def test_incremental_rank_reduces_int_input_as_given():
    # a non-primitive int vector with explicit zero entries, some of them at
    # (negative) pivots, reduces to the Fraction reference of its nonzero part,
    # and the input is left as it was
    rng = random.Random(17)
    zero_at_negative_pivot = 0
    for _ in range(40):
        n = rng.randint(6, 10)
        elim = IncrementalRank()
        for row in _hard_family(rng, n):
            elim.add(row)
        for _ in range(5):
            v = {i: rng.randint(-20, 20) for i in rng.sample(range(n), rng.randint(2, n))}
            v = {i: x for i, x in v.items() if x}
            zeros = rng.sample(sorted(set(range(n)) - set(v)), min(2, n - len(v)))
            g = rng.randint(2, 6)
            given = {**{i: g * x for i, x in v.items()}, **{i: 0 for i in zeros}}
            zero_at_negative_pivot += any(i in elim.pivots and elim.pivots[i][i] < 0 for i in zeros)
            before = dict(given)
            red = elim.reduce(given)
            assert given == before
            assert red == _one_pass_reference(elim, v)
            assert elim.reduce({i: Fraction(x, 3) for i, x in given.items()}) == red
    assert zero_at_negative_pivot > 20, zero_at_negative_pivot


def test_incremental_rank_pivot_profile():
    # coordinate i is stored under key n-1-i, so pivots (least keys) fall on
    # high coordinates and counting pivots in a downward closed set of
    # coordinates computes the intersection dimension with that subspace;
    # entries are ints or Fractions
    rng = random.Random(9)
    entry = lambda x: x if rng.random() < 0.5 else Fraction(x, rng.randint(1, 4))
    for _ in range(60):
        n, k = rng.randint(2, 7), rng.randint(1, 8)
        vecs = []
        for _ in range(k):
            col = {i: entry(rng.randint(-3, 3)) for i in range(n) if rng.random() < 0.6}
            col = {i: v for i, v in col.items() if v}
            if col:
                vecs.append(col)
        elim = IncrementalRank()
        for v in vecs:
            before = len(elim.pivots)
            assert elim.add({n - 1 - i: c for i, c in v.items()}) == (len(elim.pivots) > before)
        assert len(elim.pivots) == rank(vecs)
        for cutoff in range(n):
            # brute force: dim of span intersected with coords <= cutoff
            full = rank(vecs)
            outside = rank([{i: x for i, x in v.items() if i > cutoff} for v in vecs])
            expected = full - outside
            got = sum(1 for key in elim.pivots if key >= n - 1 - cutoff)
            assert got == expected, (vecs, cutoff)


def test_char_poly():
    m = sparse([[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]])
    assert char_poly(m) == [Fraction(1), Fraction(-5), Fraction(6)]
    assert char_poly([]) == [Fraction(1)]


def test_quotient():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 6)
        vectors = [list(row) for row in rand_matrix(rng, rng.randint(1, 4), n)]
        y, induced = quotient(sparse(vectors), n)
        assert induced == []
        assert len(y) == n - rank(transpose(sparse(vectors), n))
        for v in vectors:
            if y:
                assert all(x == 0 for x in mat_vec(dense(y, n), v))


def free_by_rank_kernel(span, n):
    """Reference kernel rows of `quotient`, as it once built them: for each free
    column f, 1 at f and then, pivot row by pivot row, minus the row's entry at f."""
    r, pivots = rref(span, n)
    y = []
    for fc in sorted(set(range(n)) - set(pivots)):
        v = {fc: Fraction(1)}
        for row, pc in zip(r, pivots):
            if fc in row:
                v[pc] = -row[fc]
        y.append(v)
    return y


def test_quotient_rows_match_the_free_by_rank_reference():
    # seeded wide systems, sparse and dense, compared with their key order
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(3, 14)
        rows = rng.randint(1, max(1, n // 2))
        span = sparse(rand_matrix(rng, rows, n, density=rng.choice((0.2, 0.5, 0.9))))
        y, _ = quotient(span, n)
        want = free_by_rank_kernel(span, n)
        assert [list(row.items()) for row in y] == [list(row.items()) for row in want]
        assert len(y) == n - len(rref(span, n)[1])


def _inverse(mat):
    n = len(mat)
    red, _ = dense_rref([list(row) + identity(n)[i] for i, row in enumerate(mat)])
    return [row[n:] for row in red]


def test_quotient_induced_actions():
    # A = S U S^-1 with U block upper triangular preserves the span of the
    # first k columns of S; a nonzero lower-left block of U moves it
    rng = random.Random(12)
    cases = 0
    for _ in range(40):
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        s = rand_matrix(rng, n, n, density=0.7)
        if rank(sparse(s)) < n:
            continue
        s_inv = _inverse(s)
        u = rand_matrix(rng, n, n)
        for i in range(k, n):
            for j in range(k):
                u[i][j] = Fraction(0)
        span = [list(col) for col in zip(*s)][:k]
        a = dense_mul(dense_mul(s, u), s_inv)
        y, (t,) = quotient(sparse(span), n, [sparse(a)])
        assert len(y) == n - k
        assert all(x == 0 for v in span for x in mat_vec(dense(y, n), v))
        assert mat_mul(t, y) == mat_mul(y, sparse(a))
        u[rng.randrange(k, n)][rng.randrange(k)] = Fraction(rng.choice((-2, -1, 1, 3)))
        with pytest.raises(ValueError):
            quotient(sparse(span), n, [sparse(dense_mul(dense_mul(s, u), s_inv))])
        cases += 1
    assert cases >= 20
    span = sparse([[1, 0, 0]])
    keeps = sparse([[1, 2, 3], [0, 4, 5], [0, 6, 7]])  # first column lies in the span
    y, (t,) = quotient(span, 3, [keeps])
    assert len(y) == 2
    assert mat_mul(t, y) == mat_mul(y, keeps)
    moves = sparse([[0, 0, 0], [1, 0, 0], [0, 0, 0]])  # e1 -> e2 leaves the span
    with pytest.raises(ValueError):
        quotient(span, 3, [moves])
    assert quotient([], 2) == (sparse(identity(2)), [])
    assert quotient(sparse(identity(2)), 2, [sparse(identity(2))] * 2) == ([], [[], []])
    # a redundant spanning set: every matrix descends to the zero quotient
    spanning = sparse([[1, 2, 0], [0, 1, 1], [1, 3, 1], [0, 0, 5]])
    assert quotient(spanning, 3, [sparse([[0, 1, 0], [0, 0, 1], [7, 0, 0]])]) == ([], [[]])


def _dense_kernel(mat, n):
    """Kernel basis of a dense matrix read off `dense_rref`: for each free column
    fc, e_fc minus the fc entries of the reduced rows at their pivots."""
    red, pivots = dense_rref(mat) if mat else ([], [])
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def test_elimination_stops_once_the_rows_span_the_space(monkeypatch):
    # rows are combinations of the first k columns of an invertible S, so they span
    # Q^n early when k = n and never when k < n; A = S U S^-1 with U block upper
    # triangular preserves their span.  rref, nullspace and quotient match the dense
    # references, and no row after the one that fills Q^n reaches the eliminator.
    inserted = []

    class Recording(IncrementalRank):
        def add(self, vec):
            inserted.append(vec)
            return super().add(vec)

    monkeypatch.setattr(linalg, "IncrementalRank", Recording)
    rng = random.Random(24)
    early = never = 0
    while early < 30 or never < 30:
        n = rng.randint(1, 6)
        s = rand_matrix(rng, n, n, density=0.8)
        if rank(sparse(s)) < n:
            continue
        k = n if rng.random() < 0.5 else rng.randint(0, n - 1)
        cols = [list(col) for col in zip(*s)][:k]
        coefs = [[rng.randint(-3, 3) for _ in cols] for _ in range(k + rng.randint(1, 4))]
        mat = [[sum((c * col[i] for c, col in zip(cs, cols)), Fraction(0)) for i in range(n)] for cs in coefs]
        rows = sparse(mat)
        if rank(rows) < k:
            continue
        filled = next((i for i in range(len(mat)) if rank(rows[: i + 1]) == n), None)
        if filled is not None and filled < len(mat) - 1:
            early += 1
        elif k < n:
            never += 1
        else:
            continue
        expected, pivots = dense_rref(mat)
        inserted.clear()
        red, got = rref(rows, n)
        assert (dense(red, n), got) == (expected[: len(pivots)], pivots)
        assert inserted == rows[: len(mat) if filled is None else filled + 1]
        assert rref(rows) == (red, got)
        assert dense(nullspace(rows, n), n) == _dense_kernel(mat, n)
        u = rand_matrix(rng, n, n)
        for i in range(k, n):
            for j in range(k):
                u[i][j] = Fraction(0)
        a = sparse(dense_mul(dense_mul(s, u), _inverse(s)))
        y, (t,) = quotient(rows, n, [a])
        assert dense(y, n) == _dense_kernel(mat, n)
        assert len(y) == n - k and (t == [] if filled is not None else mat_mul(t, y) == mat_mul(y, a))
