"""Lie algebras by structure constants, PBW enveloping algebras, finite-dimensional representations.

The built-in algebra is sl2 with ordered basis F < H < E; its tensor square is
realised as the enveloping algebra of the direct sum, whose basis keeps the
left factor before the right factor.  PBW monomials are exponent vectors over
the ordered basis; products are normal-ordered by the rewriting
x_j x_i -> x_i x_j + [x_j, x_i] for j > i, which terminates and is confluent.
Structure constants and PBW coefficients are ints when integral and Fractions
otherwise, never floats.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .exactalg import SparseElement, monomial_text
from .linalg import lincomb, num, transpose

Exp = tuple[int, ...]


class LieAlgebraDesc:
    """A Lie algebra given by basis names and structure constants.

    brackets[(i, j)] is the sparse vector of [x_i, x_j]; antisymmetry and the
    Jacobi identity are validated at construction.
    """

    def __init__(self, basis, brackets: dict[tuple[int, int], dict[int, Fraction]]):
        self.basis = tuple(basis)
        n = len(self.basis)
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), vec in brackets.items():
            vec = {k: num(v) for k, v in vec.items() if v}
            if vec:
                table[(i, j)] = vec
        self.brackets = table
        self.key = (
            self.basis,
            tuple(
                (i, j, tuple(sorted(vec.items())))
                for (i, j), vec in sorted(table.items())
            ),
        )
        self._validate(n)

    def _validate(self, n):
        for i in range(n):
            for j in range(n):
                bij = self.bracket_vector(i, j)
                bji = self.bracket_vector(j, i)
                if any(bij.get(k, 0) + bji.get(k, 0) for k in set(bij) | set(bji)):
                    raise ValueError(f"structure constants not antisymmetric at ({i},{j})")
        br = self.bracket_of_vectors
        for i, j, k in itertools.combinations(range(n), 3):
            x, y, z = {i: 1}, {j: 1}, {k: 1}
            if lincomb((1, br(a, br(b, c))) for a, b, c in ((x, y, z), (y, z, x), (z, x, y))):
                raise ValueError(f"Jacobi identity fails at ({i},{j},{k})")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bracket_vector(self, i: int, j: int) -> dict[int, Fraction]:
        return dict(self.brackets.get((i, j), {}))

    def bracket_of_vectors(self, x: dict, y: dict) -> dict:
        """Bracket of two sparse vectors {basis index: coefficient}."""
        table = self.brackets
        return lincomb((xi * yj, table.get((i, j), {})) for i, xi in x.items() for j, yj in y.items())

    def index(self, name: str) -> int:
        return self.basis.index(name)


def sl2_desc() -> LieAlgebraDesc:
    return _SL2_DESC


def _make_sl2() -> LieAlgebraDesc:
    # basis order F < H < E
    F, H, E = 0, 1, 2
    brackets = {
        (H, E): {E: 2},
        (E, H): {E: -2},
        (H, F): {F: -2},
        (F, H): {F: 2},
        (E, F): {H: 1},
        (F, E): {H: -1},
    }
    return LieAlgebraDesc(("F", "H", "E"), brackets)


def direct_sum(left: LieAlgebraDesc, right: LieAlgebraDesc) -> LieAlgebraDesc:
    names = tuple(n + "1" for n in left.basis) + tuple(n + "2" for n in right.basis)
    off = left.dim
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), vec in left.brackets.items():
        brackets[(i, j)] = dict(vec)
    for (i, j), vec in right.brackets.items():
        brackets[(i + off, j + off)] = {k + off: v for k, v in vec.items()}
    return LieAlgebraDesc(names, brackets)


def sl2_pair_desc() -> LieAlgebraDesc:
    return _SL2_PAIR


_SL2_DESC = _make_sl2()
_SL2_PAIR = direct_sum(_SL2_DESC, _SL2_DESC)


# --- enveloping algebra -----------------------------------------------------


class UEnvElement(SparseElement):
    """Element of U(g) in PBW normal form over the ordered basis of g."""

    __slots__ = ("desc",)

    def __init__(self, desc: LieAlgebraDesc, terms: dict[Exp, Fraction]):
        self.desc = desc
        self._normalise(terms.items(), desc.dim)

    @property
    def _space(self):
        return self.desc.key

    def _new(self, terms):
        return UEnvElement(self.desc, terms)

    def _one(self):
        return UEnvElement.one(self.desc)

    @classmethod
    def one(cls, desc):
        return cls(desc, {(0,) * desc.dim: 1})

    @classmethod
    def generator(cls, desc, index: int):
        e = [0] * desc.dim
        e[index] = 1
        return cls(desc, {tuple(e): 1})

    def __mul__(self, other):
        if not isinstance(other, UEnvElement):
            return UEnvElement(self.desc, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                word = _exp_to_word(e1) + _exp_to_word(e2)
                for e, c in _word_normal_form(self.desc, word):
                    out[e] = out.get(e, 0) + c1 * c2 * c
        return UEnvElement(self.desc, out)

    def __rmul__(self, other):
        return UEnvElement(self.desc, {e: c * other for e, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "UEnvElement(0)"
        order = sorted(self.terms, key=lambda e: (sum(e), e))
        parts = (f"{self.terms[e]}*{monomial_text(self.desc.basis, e) or '1'}" for e in order)
        return "UEnvElement(" + " + ".join(parts) + ")"


def _exp_to_word(e: Exp) -> tuple[int, ...]:
    word: list[int] = []
    for i, k in enumerate(e):
        word.extend([i] * k)
    return tuple(word)


def _word_to_exp(word, n: int) -> Exp:
    e = [0] * n
    for i in word:
        e[i] += 1
    return tuple(e)


@functools.cache
def _word_normal_form(desc: LieAlgebraDesc, word: tuple[int, ...]) -> tuple[tuple[Exp, Fraction], ...]:
    """PBW normal form of a product of generators as (exponent, coefficient)
    pairs, rewriting the first descent (memoized)."""
    descents = [k for k in range(len(word) - 1) if word[k] > word[k + 1]]
    if not descents:
        return ((_word_to_exp(word, desc.dim), 1),)
    k = descents[0]
    i, j = word[k], word[k + 1]
    out = dict(_word_normal_form(desc, word[:k] + (j, i) + word[k + 2 :]))
    for m, coef in desc.bracket_vector(i, j).items():
        for e, c in _word_normal_form(desc, word[:k] + (m,) + word[k + 2 :]):
            out[e] = out.get(e, 0) + coef * c
    return tuple(filter(itemgetter(1), out.items()))


def casimir_sl2() -> UEnvElement:
    """1 + H^2 + 2EF + 2FE in U(sl2), returned in PBW normal form."""
    d = sl2_desc()
    F = UEnvElement.generator(d, 0)
    H = UEnvElement.generator(d, 1)
    E = UEnvElement.generator(d, 2)
    return UEnvElement.one(d) + H * H + 2 * (E * F) + 2 * (F * E)


# --- tensor squares ---------------------------------------------------------


def tensor(u: UEnvElement, v: UEnvElement) -> UEnvElement:
    """u (x) v inside U(sl2 (+) sl2), left factor first; the two factors commute."""
    pair = sl2_pair_desc()
    left = UEnvElement(pair, {e + (0,) * (pair.dim - u.desc.dim): c for e, c in u.terms.items()})
    right = UEnvElement(pair, {(0,) * (pair.dim - v.desc.dim) + e: c for e, c in v.terms.items()})
    return left * right


# --- finite dimensional representations --------------------------------------


@dataclass(frozen=True)
class FinDimRep:
    """Matrices for each basis element, satisfying the bracket relations.

    Each matrix is a list of `dim` sparse rows {column: coefficient}: every
    column key is an int in range(dim) and every coefficient is nonzero.  For
    each pair i < j, every entry of [M_i, M_j] - sum_k c_k M_k is summed in one
    pass into one {(row, col): value} dict, and any nonzero value raises.
    """

    desc: LieAlgebraDesc
    dim: int
    matrices: tuple

    def __post_init__(self):
        mats, cols = self.matrices, range(self.dim)
        rows = [row for m in mats for row in m]
        if (
            len(mats) != self.desc.dim
            or any(len(m) != self.dim for m in mats)
            or not all(isinstance(row, dict) for row in rows)
            or not all(type(c) is int and c in cols and x for row in rows for c, x in row.items())
        ):
            raise ValueError("one matrix of dim sparse rows per basis element required")
        # antisymmetry of the structure constants covers i >= j, and integral
        # constants are ints, so int matrices stay int
        for i, j in itertools.combinations(range(self.desc.dim), 2):
            acc: dict = {}
            get = acc.get
            for s, a, b in ((1, mats[i], mats[j]), (-1, mats[j], mats[i])):
                for r, row in enumerate(a):
                    for k, x in row.items():
                        sx = s * x
                        for c, y in b[k].items():
                            acc[r, c] = get((r, c), 0) + sx * y
            for k, s in self.desc.bracket_vector(i, j).items():
                for r, row in enumerate(mats[k]):
                    for c, y in row.items():
                        acc[r, c] = get((r, c), 0) - s * y
            if any(acc.values()):
                raise ValueError(f"bracket relation fails at ({i},{j})")

    def act_columns(self, coeffs: dict) -> list[dict]:
        """Columns x.e_j of the element x with coefficients {basis index: c}, as sparse
        dicts {row: coefficient}, built in one pass over the basis matrices' entries."""
        cols: list[dict] = [{} for _ in range(self.dim)]
        for i, c in coeffs.items():
            for r, row in enumerate(self.matrices[i]):
                for j, x in row.items():
                    col = cols[j]
                    col[r] = col.get(r, 0) + c * x
        return [{r: x for r, x in col.items() if x} for col in cols]


def sym_power_rep(m: int) -> FinDimRep:
    """Sym^m of the standard 2-dim representation, weight basis m, m-2, ..., -m."""
    if m < 0:
        raise ValueError("m must be non-negative")
    E = [{j + 1: j + 1} for j in range(m)] + [{}]
    F = [{}] + [{j: m - j} for j in range(m)]
    H = [{j: m - 2 * j} if m != 2 * j else {} for j in range(m + 1)]
    return FinDimRep(sl2_desc(), m + 1, (F, H, E))


def dual_rep(v: FinDimRep) -> FinDimRep:
    """Dual action x -> -x^T."""
    mats = tuple([{c: -x for c, x in row.items()} for row in transpose(m, v.dim)] for m in v.matrices)
    return FinDimRep(v.desc, v.dim, mats)


def external_tensor(v: FinDimRep, w: FinDimRep) -> FinDimRep:
    """V (x) W as a module over g (+) g: left factor acts on V, right on W.

    The bracket check of the direct sum already demands that the two factors'
    matrices commute, since its cross brackets vanish.
    """
    if v.desc.key == _SL2_DESC.key and w.desc.key == _SL2_DESC.key:
        pair = _SL2_PAIR
    else:
        pair = direct_sum(v.desc, w.desc)
    # basis vector v_i (x) w_t has index i * k + t: A (x) 1 and 1 (x) B, row by row
    k = w.dim
    left = tuple(
        [{j * k + t: x for j, x in row.items()} for row in a for t in range(k)] for a in v.matrices
    )
    right = tuple(
        [{i * k + c: x for c, x in row.items()} for i in range(v.dim) for row in b] for b in w.matrices
    )
    return FinDimRep(pair, v.dim * k, left + right)


@functools.cache
def tensor_dual_rep(m: int, k: int) -> FinDimRep:
    """V_m (x) V_k* over sl2 (+) sl2, built and validated once per (m, k); every
    caller shares the one module, so none may change its matrices."""
    return external_tensor(sym_power_rep(m), dual_rep(sym_power_rep(k)))
