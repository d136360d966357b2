from fractions import Fraction

import pytest

from horocycle.asymptotics import (
    ExponentSet,
    _jordan_blocks,
    _rational_eigenvalues,
    bimodule_exponents,
    exponents_from_coinvariants,
    leading_exponent_check,
    matrix_coefficient_exponents,
)
from horocycle.lie import sym_power_rep
from matrices import sparse


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


def test_jordan_machinery_on_synthetic_nilpotent():
    # synthetic: a nilpotent Cartan action, as would arise from a non-semisimple input
    nilp = sparse([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
    eigen = _rational_eigenvalues(nilp)
    assert eigen == [Fraction(0), Fraction(0)]
    assert _jordan_blocks(nilp, Fraction(0), 2) == [2]
    mixed = sparse([
        [Fraction(3), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(3), Fraction(1)],
        [Fraction(0), Fraction(0), Fraction(3)],
    ])
    assert _jordan_blocks(mixed, Fraction(3), 3) == [2, 1]


def test_exponent_set_json():
    s = ExponentSet(((Fraction(-2), 0),))
    assert s.to_json() == [["-2", 0]]


def test_bimodule_consistency():
    for m in range(4):
        left, right = bimodule_exponents(m)
        single = exponents_from_coinvariants(sym_power_rep(m)).eigenvalues
        assert left == single
        assert right == {-lam for lam in single}
