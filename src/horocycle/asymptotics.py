"""Asymptotic exponents of matrix coefficients from nilpotent coinvariants.

For a finite-dimensional representation, the generalized eigenvalues of the
Cartan action on coinvariants by the raising operator predict the characters
appearing in the expansion of matrix coefficients on the negative chamber
(parameter t -> -infinity for diag(e^t, e^-t)); the slowest-decaying term is
the minimal Laurent exponent.  A direct symbolic evaluation of the
representation at diag(s, 1/s) serves as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .lie import FinDimRep, dual_rep, external_tensor, sym_power_rep
from .linalg import char_poly, lincomb, mat_mul, quotient, rank, transpose
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


def _rational_eigenvalues(matrix) -> list:
    """Roots of the characteristic polynomial with multiplicity; must split over Q."""
    n = len(matrix)
    if n == 0:
        return []
    coeffs = char_poly(matrix)
    roots = []
    # rational root search on the monic char poly, deflating as we go
    poly = list(coeffs)
    while len(poly) > 1:
        root = _find_rational_root(poly)
        if root is None:
            raise ValueError("characteristic polynomial does not split over Q")
        roots.append(root)
        poly = _deflate(poly, root)
    return roots


def _find_rational_root(poly) -> Fraction | None:
    # poly is monic with rational coefficients, highest degree first
    den = 1
    for c in poly:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in poly]
    lead, const = ints[0], ints[-1]
    if const == 0:
        return Fraction(0)
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _eval_poly(poly, cand) == 0:
                    return cand
    return None


def _divisors(n: int):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _eval_poly(poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in poly:
        acc = acc * x + c
    return acc


def _deflate(poly, root: Fraction):
    out = [poly[0]]
    for c in poly[1:-1]:
        out.append(c + out[-1] * root)
    return out


def _jordan_blocks(matrix, lam: Fraction, multiplicity: int) -> list:
    """Block sizes of the eigenvalue, from nullity jumps of powers."""
    n = len(matrix)
    shifted = [lincomb(((1, row), (-lam, {i: 1}))) for i, row in enumerate(matrix)]
    nullities = [0]
    power = shifted
    while nullities[-1] < multiplicity:
        nullities.append(n - rank(power))
        power = mat_mul(power, shifted)
    jumps = [nullities[k + 1] - nullities[k] for k in range(len(nullities) - 1)]
    blocks = []
    for size in range(len(jumps), 0, -1):
        count = jumps[size - 1] - (jumps[size] if size < len(jumps) else 0)
        blocks.extend([size] * count)
    return sorted(blocks, reverse=True)


def exponents_from_coinvariants(rep: FinDimRep) -> ExponentSet:
    """Generalized eigenvalues with Jordan data of the Cartan H on coinvariants
    by the image of the raising operator E."""
    _, (induced,) = quotient(transpose(rep.matrix_of("E"), rep.dim), rep.dim, [rep.matrix_of("H")])
    if not induced:
        return ExponentSet(())
    eigen = _rational_eigenvalues(induced)
    mult: dict[Fraction, int] = {}
    for lam in eigen:
        mult[lam] = mult.get(lam, 0) + 1
    entries = []
    for lam in sorted(mult):
        for size in _jordan_blocks(induced, lam, mult[lam]):
            entries.append((lam, size - 1))
    return ExponentSet(tuple(sorted(entries)))


def matrix_coefficient_exponents(m: int) -> set:
    """Laurent exponents of s across the entries of Sym^m at diag(s, 1/s).

    Monomial basis vectors x^(m-j) y^j scale by s^(m-2j); the exponent set is
    computed symbolically from that substitution, independently of the
    Lie-algebra matrices.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    exponents = set()
    for j in range(m + 1):
        entry = {m - 2 * j: 1}  # Laurent polynomial of the (j,j) entry
        exponents.update(k for k, v in entry.items() if v)
    return exponents


def bimodule_exponents(m: int) -> tuple[set, set]:
    """Left and right Cartan eigenvalues on the two-sided nilpotent coinvariants
    of V_m (x) V_m*; an auxiliary consistency view of the same exponents."""
    rep = external_tensor(sym_power_rep(m), dual_rep(sym_power_rep(m)))
    span = transpose(rep.matrix_of("E1"), rep.dim) + transpose(rep.matrix_of("F2"), rep.dim)
    cartans = [rep.matrix_of(name) for name in ("H1", "H2")]
    _, (left, right) = quotient(span, rep.dim, cartans)
    return set(_rational_eigenvalues(left)), set(_rational_eigenvalues(right))


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
