import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from horocycle.lie import (
    FinDimRep,
    LieAlgebraDesc,
    UEnvElement,
    casimir_sl2,
    direct_sum,
    dual_rep,
    external_tensor,
    sl2_desc,
    sl2_pair_desc,
    sym_power_rep,
    tensor,
    tensor_dual_rep,
)
from horocycle.linalg import lincomb
from matrices import act_rows, dense, dense_mul, sparse
from pbw_oracle import random_pbw_normal_form, word_product


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def dense_of(rep, name):
    return dense(rep.matrices[rep.desc.index(name)], rep.dim)


def basis_matrix(rep, i):
    return dense_of(rep, rep.desc.basis[i])



def gens():
    d = sl2_desc()
    return (
        UEnvElement.generator(d, 0),
        UEnvElement.generator(d, 1),
        UEnvElement.generator(d, 2),
    )


def test_pbw_defining_rewrites():
    F, H, E = gens()
    assert E * F == F * E + H
    assert H * E == E * H + 2 * E
    cas = casimir_sl2()
    assert (cas * E - E * cas).is_zero()


def test_casimir_normal_form():
    F, H, E = gens()
    assert casimir_sl2() == 1 + H * H + 4 * (F * E) + 2 * H


def is_central(u):
    basis = (UEnvElement.generator(u.desc, i) for i in range(u.desc.dim))
    return all((u * x - x * u).is_zero() for x in basis)


def act_uenv(rep, u):
    """Matrix of an enveloping-algebra element: PBW-ordered products of the rep's matrices."""
    out = [[Fraction(0)] * rep.dim for _ in range(rep.dim)]
    for e, c in u.terms.items():
        m = identity(rep.dim)
        for i, k in enumerate(e):
            for _ in range(k):
                m = dense_mul(m, basis_matrix(rep, i))
        out = [[x + c * y for x, y in zip(r1, r2)] for r1, r2 in zip(out, m)]
    return out


def test_centrality():
    F, H, E = gens()
    assert is_central(casimir_sl2())
    assert is_central(UEnvElement.one(sl2_desc()))
    assert not is_central(E)


def test_casimir_scalar_on_sym_powers():
    cas = casimir_sl2()
    for m in range(7):
        rep = sym_power_rep(m)
        mat = act_uenv(rep, cas)
        expected = [[Fraction((m + 1) ** 2) if i == j else Fraction(0) for j in range(rep.dim)] for i in range(rep.dim)]
        assert mat == expected


def test_pbw_confluence_random_strategies():
    rng = random.Random(2024)
    d = sl2_desc()
    for _ in range(100):
        word = tuple(rng.randrange(3) for _ in range(rng.randint(1, 5)))
        deterministic = word_product(d, word)
        randomized = random_pbw_normal_form(d, word, rng)
        assert deterministic == randomized


def test_sym_power_weights():
    rep = sym_power_rep(2)
    H = dense_of(rep, "H")
    assert [H[i][i] for i in range(3)] == [2, 0, -2]
    rep0 = sym_power_rep(0)
    assert all(x == 0 for i in range(3) for row in basis_matrix(rep0, i) for x in row)
    rep1 = sym_power_rep(1)
    assert [dense_of(rep1, "H")[i][i] for i in range(2)] == [1, -1]


def test_rep_validation_rejects_bad_matrices():
    d = sl2_desc()
    bad = [sparse(identity(2)) for _ in range(3)]
    with pytest.raises(ValueError):
        FinDimRep(d, 2, tuple(bad))


def test_rep_takes_only_sparse_rows_of_the_right_shape():
    rep = sym_power_rep(1)
    F, H, E = (dense_of(rep, name) for name in ("F", "H", "E"))
    with pytest.raises(ValueError, match="sparse rows"):
        FinDimRep(rep.desc, 2, (F, H, E))  # dense rows
    with pytest.raises(ValueError, match="sparse rows"):
        FinDimRep(rep.desc, 2, rep.matrices[:2])  # a matrix missing
    with pytest.raises(ValueError, match="sparse rows"):
        FinDimRep(rep.desc, 3, rep.matrices)  # rows missing


def test_rep_rows_take_only_nonzero_entries_at_columns_of_the_module():
    # a negative, a too-large or a non-int column key, or an explicit zero, is a
    # malformed row and not a matrix the quotient could read
    line = LieAlgebraDesc(("x",), {})
    for row in ({-1: 1}, {2: 1}, {5: 1}, {0: 0}, {1: Fraction(0)}, {1.0: 1}, {True: 1}):
        with pytest.raises(ValueError, match="sparse rows"):
            FinDimRep(line, 2, ([row, {}],))
    assert FinDimRep(line, 2, ([{1: 1}, {}],)).dim == 2
    rep = sym_power_rep(1)
    F, H, E = rep.matrices
    for bad in ([{2: 1}, {}], [{}, {-3: 1}], [{0: 0}, {}]):
        with pytest.raises(ValueError, match="sparse rows"):
            FinDimRep(rep.desc, 2, (F, H, bad))


def test_action_columns_are_the_columns_of_the_rows():
    # the one-pass column form against rows built from the basis matrices by
    # lincomb, at every basis element and at seeded rational combinations
    rng = random.Random(24)
    for m in range(4):
        for k in range(4):
            rep = tensor_dual_rep(m, k)
            assert rep is tensor_dual_rep(m, k)
            assert rep.matrices == external_tensor(sym_power_rep(m), dual_rep(sym_power_rep(k))).matrices
            elements = [{i: 1} for i in range(rep.desc.dim)]
            for _ in range(6):
                picked = rng.sample(range(rep.desc.dim), rng.randint(1, rep.desc.dim))
                elements.append({i: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for i in picked})
            elements.append({0: 1, 4: 2, 1: -2})  # F1 + 2 H2 - 2 H1: cancels on some entries
            for v in elements:
                cols = rep.act_columns(v)
                rows = dense(act_rows(rep, v), rep.dim)
                assert dense(cols, rep.dim) == [list(col) for col in zip(*rows)], (m, k, v)
                assert all(x for col in cols for x in col.values())


def test_rep_validation_rejects_one_changed_entry():
    rep = sym_power_rep(3)
    F, H, E = (dense_of(rep, name) for name in ("F", "H", "E"))
    FinDimRep(rep.desc, 4, (sparse(F), sparse(H), sparse(E)))
    for r, c in ((0, 1), (1, 2), (2, 3), (0, 2), (3, 0), (2, 1)):
        bad = [row[:] for row in E]
        bad[r][c] += 1
        with pytest.raises(ValueError, match="bracket relation"):
            FinDimRep(rep.desc, 4, (sparse(F), sparse(H), sparse(bad)))


def first_failing_bracket(desc, dim, mats):
    """Reference bracket check, row by row as `FinDimRep` once made it: the first
    pair i < j with a nonzero row of [M_i, M_j] - sum_k c_k M_k, or None."""
    for i in range(desc.dim):
        for j in range(i + 1, desc.dim):
            a, b = mats[i], mats[j]
            bracket = [(-c, mats[k]) for k, c in desc.bracket_vector(i, j).items()]
            for r in range(dim):
                terms = [(x, b[k]) for k, x in a[r].items()] + [(-x, a[k]) for k, x in b[r].items()]
                if lincomb(terms + [(c, m[r]) for c, m in bracket]):
                    return i, j
    return None


def test_rep_validation_matches_the_row_by_row_reference():
    # seeded single-entry changes (one sets the entry to zero) of every matrix of
    # each V_m (x) V_k*, and each matrix replaced by +-1 times another, some of
    # which are representations again: FinDimRep accepts exactly what the
    # reference accepts, and names the same first failing pair
    rng = random.Random(37)
    firsts = Counter()
    for m in range(4):
        for k in range(4):
            rep = tensor_dual_rep(m, k)
            changed = []
            for i, mat in enumerate(rep.matrices):
                entries = [(r, c) for r, row in enumerate(mat) for c in row]
                for step in (1, -1, rng.choice((-3, 2))) + ((None,) if entries else ()):
                    r, c = rng.choice(entries) if step is None else (rng.randrange(rep.dim), rng.randrange(rep.dim))
                    mats = [[dict(row) for row in a] for a in rep.matrices]
                    x = 0 if step is None else mats[i][r].get(c, 0) + step
                    mats[i][r][c] = x
                    if not x:
                        del mats[i][r][c]
                    changed.append(mats)
                for j in rng.sample(range(rep.desc.dim), 2):
                    for s in (1, -1):
                        mats = list(rep.matrices)
                        mats[i] = [{c: s * x for c, x in row.items()} for row in rep.matrices[j]]
                        changed.append(mats)
            for mats in changed:
                want = first_failing_bracket(rep.desc, rep.dim, mats)
                firsts[want] += 1
                if want is None:
                    assert FinDimRep(rep.desc, rep.dim, tuple(mats)).dim == rep.dim
                else:
                    with pytest.raises(ValueError, match=rf"bracket relation fails at \({want[0]},{want[1]}\)$"):
                        FinDimRep(rep.desc, rep.dim, tuple(mats))
    assert firsts[None] > 0
    # a left-right pair (E1, x2) is never the first to fail: on V_m (x) W a matrix
    # that passes its brackets with F1 and H1 acts on W alone, so it commutes with
    # E1, and an E1 that passes its brackets with F1 and H1 is E1 itself
    assert set(firsts) - {None} == set(itertools.combinations(range(6), 2)) - {(2, 3), (2, 4), (2, 5)}


def test_direct_sum_rep_rejects_noncommuting_factors():
    # on x (+) y the cross bracket vanishes, so the left factor x and the right
    # factor y must commute; diag(1, 0) and the raising matrix do not
    line = LieAlgebraDesc(("x",), {})
    pair = direct_sum(line, LieAlgebraDesc(("y",), {}))
    with pytest.raises(ValueError, match="bracket relation"):
        FinDimRep(pair, 2, (sparse([[1, 0], [0, 0]]), sparse([[0, 1], [0, 0]])))
    assert FinDimRep(pair, 2, (sparse([[1, 0], [0, 2]]), sparse([[3, 0], [0, 0]]))).dim == 2


def test_dual_rep():
    rep = dual_rep(sym_power_rep(1))
    H = dense_of(rep, "H")
    assert [H[i][i] for i in range(2)] == [-1, 1]


def test_external_tensor_commuting_actions():
    V1 = sym_power_rep(1)
    rep = external_tensor(V1, dual_rep(V1))
    assert rep.dim == 4
    for i in range(3):
        for j in range(3, 6):
            a, b = basis_matrix(rep, i), basis_matrix(rep, j)
            assert dense_mul(a, b) == dense_mul(b, a)
    trivial = external_tensor(sym_power_rep(0), sym_power_rep(0))
    assert trivial.dim == 1
    assert all(x == 0 for i in range(6) for row in basis_matrix(trivial, i) for x in row)


def test_tensor_factors_commute_in_uenv():
    d = sl2_desc()
    F, H, E = gens()
    left = tensor(E, UEnvElement.one(d))
    right = tensor(UEnvElement.one(d), F)
    assert left * right == right * left


def test_jacobi_validation():
    with pytest.raises(ValueError):
        LieAlgebraDesc(
            ("x", "y", "z"),
            {
                (0, 1): {2: Fraction(1)},
                (1, 0): {2: Fraction(-1)},
                (1, 2): {0: Fraction(1)},
                (2, 1): {0: Fraction(-1)},
                (2, 0): {0: Fraction(1)},
                (0, 2): {0: Fraction(-1)},
            },
        )


def test_direct_sum_structure():
    pair = sl2_pair_desc()
    assert pair.basis == ("F1", "H1", "E1", "F2", "H2", "E2")
    # cross brackets vanish
    for i in range(3):
        for j in range(3, 6):
            assert pair.bracket_vector(i, j) == {}
    fresh = direct_sum(sl2_desc(), sl2_desc())
    assert fresh.key == pair.key
