"""Exact linear algebra over the rationals.

Everything here works on matrices given as lists of lists of Fractions (or
ints), returns fresh objects, and never rounds.  There is one eliminator,
`IncrementalRank`, fraction-free in the manner of Bareiss (Math. Comp. 22,
1968): it keeps primitive integer rows, clears denominators once per insert,
and each reduction step cancels the gcd of the two multipliers before it
cross-multiplies, then takes the content of the result once.  `rref` feeds
it the rows of a dense matrix and reads the reduced echelon form off its
mutually reduced pivot rows, so `rank`, `nullspace` and `quotient` avoid
per-operation rational normalisation too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def zeros(n: int, m: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * m for _ in range(n)]


def transpose(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    if not mat:
        return []
    return [list(col) for col in zip(*mat)]


def mat_mul(a, b) -> list[list[Fraction]]:
    if not a or not b:
        return []
    n, m = len(a), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i, row in enumerate(a):
        acc = out[i]
        for k, x in enumerate(row):
            if not x:
                continue
            brow = b[k]
            for j, y in enumerate(brow):
                if y:
                    acc[j] += x * y
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rref(mat) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices).

    The rows go through one IncrementalRank; its mutually reduced rows, each
    divided by its pivot entry, are the nonzero rows of R, since a row space
    has exactly one reduced echelon form.
    """
    cols = len(mat[0]) if mat else 0
    elim = IncrementalRank()
    for row in mat:
        elim.add({j: x for j, x in enumerate(row) if x})
    pivots = sorted(elim.pivots)
    out = []
    for c in pivots:
        vec = elim.pivots[c]
        r = [Fraction(0)] * cols
        for j, x in vec.items():
            r[j] = Fraction(x, vec[c])
        out.append(r)
    out += [[Fraction(0)] * cols for _ in range(len(mat) - len(pivots))]
    return out, pivots


def rank(mat) -> int:
    if not mat or not mat[0]:
        return 0
    return len(rref(mat)[1])


def _kernel(mat) -> tuple[list[list[Fraction]], list[int]]:
    """(basis of {v : M v = 0}, one vector per row; its free columns).

    Basis vector k is 1 at the k-th free column and 0 at the other free
    columns, so the basis restricted to the free columns is the identity.
    """
    cols = len(mat[0])
    r, pivots = rref(mat)
    free = sorted(set(range(cols)) - set(pivots))
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis, free


def nullspace(mat) -> list[list[Fraction]]:
    """Basis of the right null space {v : M v = 0}, one vector per row."""
    return _kernel(mat)[0] if mat else []


def left_nullspace(mat) -> list[list[Fraction]]:
    """Basis of {y : y M = 0}."""
    return nullspace(transpose(mat))


def quotient(span, n: int, acting=()):
    """Quotient of an n-dimensional space by the row span of `span`, with the
    induced actions of the matrices in `acting`.

    Returns (Y, [T for each A in acting]): Y is a full-row-rank matrix whose
    kernel is exactly the span, so v -> Y v gives coordinates on the quotient,
    and each T satisfies T Y = Y A.  Y is the identity on its free columns, so
    T is those columns of Y A.  Raises ValueError when some A does not
    preserve the span.
    """
    y, free = _kernel(span or zeros(1, n))
    if not y:
        return [], [zeros(0, 0) for _ in acting]
    induced = []
    for a in acting:
        ya = mat_mul(y, a)
        t = [[row[c] for c in free] for row in ya]
        if mat_mul(t, y) != ya:
            raise ValueError("action does not descend to the quotient")
        induced.append(t)
    return y, induced


def char_poly(mat) -> list[Fraction]:
    """Characteristic polynomial det(xI - M), coefficients from x^n down to x^0.

    Faddeev-LeVerrier; exact over Fraction.
    """
    n = len(mat)
    m = [[frac(x) for x in row] for row in mat]
    coeffs = [Fraction(1)]
    a = [row[:] for row in m]
    for k in range(1, n + 1):
        c = -sum(a[i][i] for i in range(n)) / k
        coeffs.append(c)
        if k < n:
            for i in range(n):
                a[i][i] += c
            a = mat_mul(m, a)
    return coeffs


def _primitive(vec: dict) -> dict:
    """vec divided by the gcd of its entries; the gcd pass stops at the first 1."""
    g = 0
    for x in vec.values():
        g = gcd(g, x)
        if g == 1:
            return vec
    if g > 1:
        return {k: x // g for k, x in vec.items()}
    return vec


def sparse_to_int(vec: dict) -> dict:
    """Clear denominators and common factors of a sparse vector; int-valued dict."""
    if all(type(v) is int for v in vec.values()):
        return _primitive({k: v for k, v in vec.items() if v})
    den = 1
    for v in vec.values():
        den = lcm(den, frac(v).denominator)
    return _primitive({k: int(frac(v) * den) for k, v in vec.items() if v})


def _reduce_once(v: dict, key, row: dict) -> dict:
    """v with its `key` entry eliminated by the pivot row, content removed."""
    c = v.get(key)
    if not c:
        return v
    p = row[key]
    g = gcd(p, c)
    p //= g
    c //= g
    new = {k: x * p for k, x in v.items()} if p != 1 else dict(v)
    for k, x in row.items():
        y = new.get(k, 0) - c * x
        if y:
            new[k] = y
        else:
            del new[k]
    return _primitive(new)


class IncrementalRank:
    """Incremental rank of a growing family of sparse vectors.

    Vectors are dicts key -> coefficient.  Rows are kept as primitive integer
    vectors and mutually reduced: each row is zero at every other row's pivot,
    so a single pass over the pivots fully reduces a new vector, and adding a
    pivot touches only the rows that contain its key.

    Each pivot is the least key of its row in the keys' own order, and each
    stored row has its support entirely at-or-after its pivot, so counting
    pivots inside a downward-closed coordinate set gives the dimension of the
    span's intersection with that coordinate subspace.
    """

    def __init__(self):
        self.pivots: dict[object, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """vec fully reduced against the pivots, as integers; {} iff vec lies in their span."""
        v = sparse_to_int(vec)
        pivots = self.pivots
        for key in [k for k in v if k in pivots]:
            v = _reduce_once(v, key, pivots[key])
        return v

    def add(self, vec: dict) -> bool:
        """Reduce vec against current pivots; returns True if rank grew."""
        v = self.reduce(vec)
        if not v:
            return False
        key = min(v)
        for pkey, row in self.pivots.items():
            if key in row:
                self.pivots[pkey] = _reduce_once(row, key, v)
        self.pivots[key] = v
        return True
