import random
from fractions import Fraction

import pytest

from horocycle.linalg import (
    IncrementalRank,
    char_poly,
    identity,
    left_nullspace,
    mat_mul,
    nullspace,
    quotient,
    rank,
    rref,
    solve_right_inverse,
    transpose,
)


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def rand_matrix(rng, n, m, density=0.6):
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else Fraction(0) for _ in range(m)]
        for _ in range(n)
    ]


def test_rref_and_rank_consistency():
    rng = random.Random(5)
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        r, pivots = rref(m)
        assert rank(m) == len(pivots)


def test_nullspace_is_kernel():
    rng = random.Random(6)
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        for v in nullspace(m):
            assert all(x == 0 for x in mat_vec(m, v))
        assert len(nullspace(m)) == len(m[0]) - rank(m)


def test_left_nullspace():
    rng = random.Random(7)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        for y in left_nullspace(m):
            assert all(x == 0 for x in mat_vec(transpose(m), y))


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
        dense = [[cols[j].get(i, Fraction(0)) for j in range(k)] for i in range(n)]
        assert elim.rank == rank(dense)


def test_incremental_rank_reduce():
    elim = IncrementalRank()
    elim.add({0: 1, 1: 2})
    elim.add({1: 1, 2: Fraction(1, 2)})
    pivots = {k: dict(row) for k, row in elim.pivots.items()}
    assert elim.reduce({0: 3, 1: 8, 2: 1}) == {}  # 3 (e0 + 2 e1) + 2 (e1 + e2/2)
    rest = elim.reduce({0: 1, 2: 5})
    assert rest and set(rest) == {2} and rest[2] > 0
    assert elim.reduce({3: Fraction(2, 3)}) == {3: 1}
    assert elim.pivots == pivots and elim.rank == 2
    assert elim.add({0: 1, 2: 5}) and elim.rank == 3


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
            before = elim.rank
            assert elim.add({n - 1 - i: c for i, c in v.items()}) == (elim.rank > before)
        dense = [[Fraction(v.get(i, 0)) for i in range(n)] for v in vecs]
        assert elim.rank == (rank(dense) if dense else 0)
        for cutoff in range(n):
            # brute force: dim of span intersected with coords <= cutoff
            if not dense:
                expected = 0
            else:
                full = rank(dense)
                outside = rank([[row[i] for i in range(cutoff + 1, n)] for row in dense]) if cutoff + 1 < n else 0
                expected = full - outside
            got = sum(1 for key in elim.pivots if key >= n - 1 - cutoff)
            assert got == expected, (vecs, cutoff)


def test_char_poly():
    m = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
    assert char_poly(m) == [Fraction(1), Fraction(-5), Fraction(6)]
    assert char_poly([]) == [Fraction(1)]


def test_solve_right_inverse():
    rng = random.Random(10)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        if rank(m) != rows:
            continue
        r = solve_right_inverse(m)
        assert mat_mul(m, r) == identity(rows)


def test_quotient():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 6)
        vectors = [list(row) for row in rand_matrix(rng, rng.randint(1, 4), n)]
        y, induced = quotient(vectors, n)
        assert induced == []
        assert len(y) == n - rank(transpose(vectors))
        for v in vectors:
            if y:
                assert all(x == 0 for x in mat_vec(y, v))


def test_quotient_induced_actions():
    span = [[1, 0, 0]]
    keeps = [[1, 2, 3], [0, 4, 5], [0, 6, 7]]  # first column lies in the span
    y, (t,) = quotient(span, 3, [keeps])
    assert len(y) == 2
    assert mat_mul(t, y) == mat_mul(y, keeps)
    moves = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]  # e1 -> e2 leaves the span
    with pytest.raises(ValueError):
        quotient(span, 3, [moves])
    assert quotient([], 2) == (identity(2), [])
    assert quotient(identity(2), 2, [identity(2), identity(2)]) == ([], [[], []])
