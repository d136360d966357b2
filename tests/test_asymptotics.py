from fractions import Fraction

import pytest

from horocycle.asymptotics import (
    bimodule_exponents,
    exponents_from_coinvariants,
    leading_exponent_check,
    matrix_coefficient_exponents,
)
from horocycle.lie import FinDimRep, sl2_desc, sym_power_rep
from horocycle.linalg import mat_mul, quotient, transpose


def test_coinvariant_exponent_examples():
    assert exponents_from_coinvariants(sym_power_rep(0)) == ([Fraction(0)], [])
    assert exponents_from_coinvariants(sym_power_rep(1)) == ([Fraction(-1)], [])
    assert exponents_from_coinvariants(sym_power_rep(2)) == ([Fraction(-2)], [])


def test_oracle_exponents():
    assert matrix_coefficient_exponents(0) == {0}
    assert matrix_coefficient_exponents(1) == {-1, 1}
    assert matrix_coefficient_exponents(2) == {-2, 0, 2}
    with pytest.raises(ValueError):
        matrix_coefficient_exponents(-1)


def test_leading_exponent_checks_through_eight():
    for m in range(9):
        rep = leading_exponent_check(m)
        assert rep.passed, rep.failures()
        exps, off_diagonal = exponents_from_coinvariants(sym_power_rep(m))
        oracle = matrix_coefficient_exponents(m)
        assert set(exps) <= oracle
        assert min(oracle) in exps
        assert len(exps) == 1
        assert off_diagonal == []


def conjugated_v0_plus_v2():
    """V0 (+) V2 conjugated by S = I + E_03: the coinvariant basis the quotient
    picks is no longer one of weight vectors, so the induced H is triangular."""
    s, s_inv = [{0: 1, 3: 1}, {1: 1}, {2: 1}, {3: 1}], [{0: 1, 3: -1}, {1: 1}, {2: 1}, {3: 1}]
    padded = ([{}] + [{k + 1: x for k, x in row.items()} for row in m] for m in sym_power_rep(2).matrices)
    return FinDimRep(sl2_desc(), 4, tuple(mat_mul(mat_mul(s, m), s_inv) for m in padded))


def test_non_diagonal_induced_cartan_is_rejected():
    rep = conjugated_v0_plus_v2()
    e, h = (rep.matrices[rep.desc.index(name)] for name in ("E", "H"))
    _, (induced,) = quotient(transpose(e, 4), 4, [h])
    assert induced == [{1: -2}, {1: -2}]
    # the diagonal of a non-diagonal induced H is read, not raised on, and the report fails
    exps = exponents_from_coinvariants(rep)
    assert exps == ([Fraction(-2), Fraction(0)], [(0, 1)])
    item = leading_exponent_check(2, exps).items[3]
    assert (item.name, item.got, item.passed) == (
        "Sym^2: induced Cartan is diagonal", "off-diagonal entries at [(0, 1)]", False
    )


def test_bimodule_consistency():
    for m in range(4):
        left, right, off_diagonal = bimodule_exponents(m)
        assert off_diagonal == []
        single = set(exponents_from_coinvariants(sym_power_rep(m))[0])
        assert left == single
        assert right == {-lam for lam in single}
