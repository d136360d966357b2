"""Asymptotic exponents of matrix coefficients from nilpotent coinvariants.

For a finite-dimensional representation, the eigenvalues of the Cartan action
on coinvariants by the raising operator predict the characters appearing in
the expansion of matrix coefficients on the negative chamber (parameter
t -> -infinity for diag(e^t, e^-t)); the slowest-decaying term is the minimal
Laurent exponent.  In rank one the coinvariants are spanned by weight vectors,
so the induced Cartan is diagonal and the exponents are read off its diagonal.
The oracle is the weight-basis closed form {m - 2j} of the exponents of Sym^m
at diag(s, 1/s); it is written down, not evaluated on a group element (a
group-level oracle is item 2 of ROADMAP.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lie import FinDimRep, dual_rep, external_tensor, sym_power_rep
from .linalg import quotient, transpose
from .reports import CheckReport


@dataclass(frozen=True)
class ExponentSet:
    """Multiset of (eigenvalue, log power); log power is the block size minus one."""

    entries: tuple

    @property
    def eigenvalues(self) -> set:
        return {lam for lam, _ in self.entries}

    def max_log_power(self) -> int:
        return max((m for _, m in self.entries), default=0)

    def to_json(self) -> list:
        return [[str(lam), m] for lam, m in self.entries]


def _diagonal(matrix) -> list[Fraction]:
    """The diagonal entries of a diagonal matrix; ValueError if it is not diagonal.

    In rank one the coinvariants are spanned by weight vectors, so an induced
    Cartan is diagonal and its eigenvalues are its diagonal entries; being
    diagonal also certifies that it acts semisimply.
    """
    if any(k != i for i, row in enumerate(matrix) for k in row):
        raise ValueError("induced Cartan is not diagonal")
    return [Fraction(row.get(i, 0)) for i, row in enumerate(matrix)]


def exponents_from_coinvariants(rep: FinDimRep) -> ExponentSet:
    """Eigenvalues of the Cartan H on coinvariants by the image of the raising
    operator E, each with log power 0; ValueError unless the induced H is diagonal."""
    _, (induced,) = quotient(transpose(rep.matrix_of("E"), rep.dim), rep.dim, [rep.matrix_of("H")])
    return ExponentSet(tuple(sorted((lam, 0) for lam in _diagonal(induced))))


def matrix_coefficient_exponents(m: int) -> set:
    """Laurent exponents of s across the entries of Sym^m at diag(s, 1/s).

    The closed form in the monomial basis: x^(m-j) y^j scales by s^(m-2j), so
    the exponents are {m - 2j : 0 <= j <= m}.  No Lie-algebra matrix and no
    group element enters.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    return {m - 2 * j for j in range(m + 1)}


def bimodule_exponents(m: int) -> tuple[set, set]:
    """Left and right Cartan eigenvalues on the two-sided nilpotent coinvariants
    of V_m (x) V_m*; an auxiliary consistency view of the same exponents."""
    rep = external_tensor(sym_power_rep(m), dual_rep(sym_power_rep(m)))
    span = transpose(rep.matrix_of("E1"), rep.dim) + transpose(rep.matrix_of("F2"), rep.dim)
    cartans = [rep.matrix_of(name) for name in ("H1", "H2")]
    _, (left, right) = quotient(span, rep.dim, cartans)
    return set(_diagonal(left)), set(_diagonal(right))


def leading_exponent_check(m: int, exps=None, bimodule=None) -> CheckReport:
    """Coinvariant exponents against the symbolic oracle for Sym^m; a caller that
    has computed them or `bimodule_exponents(m)` passes `exps` and `bimodule`."""
    if m < 0:
        raise ValueError("m must be non-negative")
    report = CheckReport(check="exponents", parameters={"m": m})
    if exps is None:
        exps = exponents_from_coinvariants(sym_power_rep(m))
    oracle = matrix_coefficient_exponents(m)
    leading = min(oracle)
    coin = exps.eigenvalues
    report.add(
        f"Sym^{m}: coinvariant exponents inside the oracle set",
        "subset",
        f"{sorted(coin)} vs {sorted(oracle)}",
        all(lam in oracle for lam in coin),
    )
    report.add(
        f"Sym^{m}: chamber-leading exponent is a coinvariant exponent",
        str(leading),
        str(sorted(coin)),
        leading in coin,
    )
    report.add(
        f"Sym^{m}: coinvariant dimension",
        "1",
        str(len(exps.entries)),
        len(exps.entries) == 1,
    )
    report.add(
        f"Sym^{m}: Cartan acts semisimply (log powers zero)",
        "0",
        str(exps.max_log_power()),
        exps.max_log_power() == 0,
    )
    left, right = bimodule or bimodule_exponents(m)
    report.add(
        f"Sym^{m}: two-sided coinvariant left exponents match",
        str(sorted(coin)),
        str(sorted(left)),
        left == coin,
    )
    return report
