"""Asymptotic exponents of matrix coefficients from nilpotent coinvariants.

For a finite-dimensional representation, the eigenvalues of the Cartan action
on coinvariants by the raising operator predict the characters appearing in
the expansion of matrix coefficients on the negative chamber (parameter
t -> -infinity for diag(e^t, e^-t)); the slowest-decaying term is the minimal
Laurent exponent.  In rank one the coinvariants are spanned by weight vectors,
so the induced Cartan is diagonal and the exponents are read off its diagonal.
The oracle is the weight-basis closed form {m - 2j} of the exponents of Sym^m
at diag(s, 1/s); it is written down, not evaluated on a group element (a
group-level oracle is item 2 of ROADMAP.md).  Exponents are `linalg.num`
values, so an integral one prints as the oracle's ints do.
"""

from __future__ import annotations

from .action import LieSubalgebra, coinvariants
from .lie import FinDimRep, sym_power_rep, tensor_dual_rep
from .linalg import num
from .reports import CheckReport


def _cartans(rep: FinDimRep, nilpotent, cartan) -> list:
    """The Cartan elements named `cartan` induced on the coinvariants by the
    elements named `nilpotent`, which they normalize."""
    def span(names):
        return LieSubalgebra(rep.desc, tuple({rep.desc.index(name): 1} for name in names))

    _, induced = coinvariants(rep, span(nilpotent), commuting=span(cartan))
    return induced


def _off_diagonal(matrix) -> list[tuple[int, int]]:
    return [(i, k) for i, row in enumerate(matrix) for k in row if k != i]


def _diagonal(matrix) -> list:
    return [num(row.get(i, 0)) for i, row in enumerate(matrix)]


def exponents_from_coinvariants(rep: FinDimRep) -> tuple[list, list[tuple[int, int]]]:
    """(the sorted diagonal of the Cartan H induced on coinvariants by the raising
    operator E, the positions of its nonzero off-diagonal entries).

    In rank one the coinvariants are spanned by weight vectors, so the induced
    H is diagonal, which certifies that it acts semisimply, and its diagonal
    entries are the exponents; an off-diagonal position witnesses that they
    need not be.
    """
    (induced,) = _cartans(rep, ("E",), ("H",))
    return sorted(_diagonal(induced)), _off_diagonal(induced)


def matrix_coefficient_exponents(m: int) -> set:
    """Laurent exponents of s across the entries of Sym^m at diag(s, 1/s).

    The closed form in the monomial basis: x^(m-j) y^j scales by s^(m-2j), so
    the exponents are {m - 2j : 0 <= j <= m}.  No Lie-algebra matrix and no
    group element enters.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    return {m - 2 * j for j in range(m + 1)}


def bimodule_exponents(m: int) -> tuple[set, set, list]:
    """(left, right, off): the diagonals of the Cartans H1 and H2 induced on the
    two-sided nilpotent coinvariants of V_m (x) V_m*, and the positions
    (name, row, column) of their nonzero off-diagonal entries; an auxiliary
    consistency view of the same exponents."""
    rep = tensor_dual_rep(m, m)
    left, right = _cartans(rep, ("E1", "F2"), ("H1", "H2"))
    off = [(name, i, k) for name, h in (("H1", left), ("H2", right)) for i, k in _off_diagonal(h)]
    return set(_diagonal(left)), set(_diagonal(right)), off


def leading_exponent_check(m: int, exps=None, bimodule=None) -> CheckReport:
    """Coinvariant exponents against the symbolic oracle for Sym^m; a caller that
    has computed them or `bimodule_exponents(m)` passes `exps` and `bimodule`."""
    if m < 0:
        raise ValueError("m must be non-negative")
    report = CheckReport(check="exponents", parameters={"m": m})
    lams, off = exps or exponents_from_coinvariants(sym_power_rep(m))
    coin = set(lams)
    oracle = matrix_coefficient_exponents(m)
    leading = min(oracle)
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
    report.add(f"Sym^{m}: coinvariant dimension", "1", str(len(lams)), len(lams) == 1)
    report.add(
        f"Sym^{m}: induced Cartan is diagonal",
        "diagonal",
        f"off-diagonal entries at {off}" if off else "diagonal",
        not off,
    )
    left, _, two_sided_off = bimodule or bimodule_exponents(m)
    report.add(
        f"Sym^{m}: two-sided coinvariant left exponents match",
        str(sorted(coin)),
        f"off-diagonal entries at {two_sided_off}" if two_sided_off else str(sorted(left)),
        left == coin and not two_sided_off,
    )
    return report
