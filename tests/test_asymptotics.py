from fractions import Fraction

import pytest

from horocycle.asymptotics import (
    ExponentSet,
    bimodule_exponents,
    exponents_from_coinvariants,
    leading_exponent_check,
    matrix_coefficient_exponents,
)
from horocycle.lie import FinDimRep, sl2_desc, sym_power_rep
from horocycle.linalg import mat_mul, quotient, transpose


def test_coinvariant_exponent_examples():
    assert exponents_from_coinvariants(sym_power_rep(0)).entries == ((Fraction(0), 0),)
    assert exponents_from_coinvariants(sym_power_rep(1)).entries == ((Fraction(-1), 0),)
    assert exponents_from_coinvariants(sym_power_rep(2)).entries == ((Fraction(-2), 0),)


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
        exps = exponents_from_coinvariants(sym_power_rep(m))
        oracle = matrix_coefficient_exponents(m)
        assert exps.eigenvalues <= oracle
        assert min(oracle) in exps.eigenvalues
        assert len(exps.entries) == 1
        assert exps.max_log_power() == 0


def test_non_diagonal_induced_cartan_is_rejected():
    # V0 (+) V2 conjugated by S = I + E_03: the coinvariant basis the quotient
    # picks is no longer one of weight vectors, so the induced H is triangular
    s, s_inv = [{0: 1, 3: 1}, {1: 1}, {2: 1}, {3: 1}], [{0: 1, 3: -1}, {1: 1}, {2: 1}, {3: 1}]
    padded = ([{}] + [{k + 1: x for k, x in row.items()} for row in m] for m in sym_power_rep(2).matrices)
    rep = FinDimRep(sl2_desc(), 4, tuple(mat_mul(mat_mul(s, m), s_inv) for m in padded))
    _, (induced,) = quotient(transpose(rep.matrix_of("E"), 4), 4, [rep.matrix_of("H")])
    assert induced == [{1: -2}, {1: -2}]
    with pytest.raises(ValueError, match="not diagonal"):
        exponents_from_coinvariants(rep)


def test_exponent_set_json():
    s = ExponentSet(((Fraction(-2), 0),))
    assert s.to_json() == [["-2", 0]]


def test_bimodule_consistency():
    for m in range(4):
        left, right = bimodule_exponents(m)
        single = exponents_from_coinvariants(sym_power_rep(m)).eigenvalues
        assert left == single
        assert right == {-lam for lam in single}
