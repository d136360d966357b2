"""Exact linear algebra over the rationals.

A vector is a sparse dict {index: coefficient} without zero entries, and a
matrix is a list of such rows, so a matrix does not record its number of
columns: functions that need it (`transpose`, `nullspace`, `quotient`) take
it as an argument.  `lincomb` is the one kernel for linear combinations, and
`mat_mul` is a `lincomb` per row.  Entries are ints or Fractions, never
floats (`frac` and `num` raise TypeError on one); `num` is the one
normaliser, an int when integral and a Fraction otherwise.  Nothing rounds,
and functions return fresh objects.

There is one eliminator, `IncrementalRank`, fraction-free in the manner of
Bareiss (Math. Comp. 22, 1968): it keeps mutually reduced primitive integer
rows, clears denominators once per insert, and has one elimination routine,
which reduces a vector against every pivot it hits in one pass, scaled once
so that each hit cancels exactly, then takes its content once; the
back-reduction of the stored rows against a new pivot is the same routine
with a single hit.  Each row is stored once, in `pivots`, beside the sorted
pivot keys; its support starts at its pivot, so only the rows whose pivots
come before the new one can hold it, and only those are scanned.  No sign of
a stored row is fixed.  `rref` feeds it the rows, stopping once the rank
reaches the column count when it is given one, and reads the reduced echelon
form off its pivot rows in key order, dividing by each pivot entry.  One
routine, `quotient`, builds every kernel basis from that form, and
`nullspace` is its first part, so both avoid per-operation rational
normalisation too.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm


def frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError(f"inexact coefficient {x!r}")
    return x if isinstance(x, Fraction) else Fraction(x)


def num(x):
    """x as an int when integral, else as a Fraction; TypeError on a float."""
    if type(x) is int:
        return x
    x = frac(x)
    return x.numerator if x.denominator == 1 else x


def lincomb(pairs) -> dict:
    """The sparse vector sum of c * vec over the (c, vec) pairs."""
    out: dict = {}
    get = out.get
    for c, vec in pairs:
        for k, x in vec.items():
            out[k] = get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


def transpose(mat: list[dict], cols: int) -> list[dict]:
    out: list[dict] = [{} for _ in range(cols)]
    for i, row in enumerate(mat):
        for j, x in row.items():
            out[j][i] = x
    return out


def mat_mul(a: list[dict], b: list[dict]) -> list[dict]:
    return [lincomb((x, b[k]) for k, x in row.items()) for row in a]


def rref(mat: list[dict], cols: int | None = None) -> tuple[list[dict], list[int]]:
    """(the nonzero rows of the reduced row echelon form, their pivot columns).

    The rows go through one IncrementalRank; its mutually reduced rows, each
    divided by its pivot entry, are the nonzero rows of the reduced form,
    since a row space has exactly one reduced echelon form.  Given the column
    count `cols`, no row is added once the rank equals it: the rows then span
    Q^cols, whose reduced form is the identity whatever rows follow.
    """
    elim = IncrementalRank()
    for row in mat:
        if elim.add(row) and len(elim.pivots) == cols:
            break
    rows = [(c, elim.pivots[c]) for c in elim._keys]
    return [{j: Fraction(x, row[c]) for j, x in row.items()} for c, row in rows], elim._keys


def nullspace(rows: list[dict], n: int) -> list[dict]:
    """Basis of the right null space {v in Q^n : M v = 0} of the matrix with these rows."""
    return quotient(rows, n)[0]


def quotient(span: list[dict], n: int, acting=()):
    """Quotient of Q^n by the span of the vectors `span`, with the induced
    actions of the n x n matrices in `acting`.

    Returns (Y, [T for each A in acting]): Y is a full-row-rank matrix whose
    kernel is exactly the span, so v -> Y v gives coordinates on the quotient,
    and each T satisfies T Y = Y A.  Raises ValueError when some A does not
    preserve the span.  Y's rows are the basis of {v in Q^n : M v = 0}, M the
    matrix with rows `span`, read off its reduced echelon form: row k is 1 at
    the k-th free column and 0 at the other free columns, so T is those
    columns of Y A.  One pass over the reduced rows' entries builds Y: entry x
    of the row with pivot p at a free column f puts -x at p in f's row, whose
    keys run f, then pivots ascending.  `rref` is told n, so it stops at the
    first rows that span Q^n.
    """
    r, pivots = rref(span, n)
    free = sorted(set(range(n)) - set(pivots))
    kernel = {fc: {fc: Fraction(1)} for fc in free}
    for row, pc in zip(r, pivots):
        for c, x in row.items():
            if c != pc:
                kernel[c][pc] = -x
    y = list(kernel.values())
    slot = {c: i for i, c in enumerate(free)}
    induced = []
    for a in acting:
        ya = mat_mul(y, a)
        t = [{slot[c]: x for c, x in row.items() if c in slot} for row in ya]
        if mat_mul(t, y) != ya:
            raise ValueError("action does not descend to the quotient")
        induced.append(t)
    return y, induced


def char_poly(mat: list[dict]) -> list[Fraction]:
    """Characteristic polynomial det(xI - M), coefficients from x^n down to x^0.

    Faddeev-LeVerrier; exact over Fraction.
    """
    n = len(mat)
    coeffs = [Fraction(1)]
    a = mat
    for k in range(1, n + 1):
        c = -sum((row.get(i, 0) for i, row in enumerate(a)), Fraction(0)) / k
        coeffs.append(c)
        if k < n:
            a = mat_mul(mat, [lincomb(((1, row), (c, {i: 1}))) for i, row in enumerate(a)])
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
    den = 1
    for v in vec.values():
        den = lcm(den, frac(v).denominator)
    return _primitive({k: (v * den).numerator for k, v in vec.items() if v})


def _eliminate(v: dict, hits, pivots: dict) -> dict:
    """m v - Sum (m v[k] / p_k) row_k over the hit keys k, made primitive: v is
    an int vector without zero entries, the rows {k: row_k} are zero at each
    other's keys, p_k = row_k[k], and m, the lcm of the p_k / gcd(p_k, v[k])
    times the signs of the p_k, makes each hit cancel exactly."""
    m, sign = 1, 1
    for k in hits:
        p = pivots[k][k]
        m = lcm(m, p // gcd(p, v[k]))
        sign = -sign if p < 0 else sign
    m *= sign
    out = dict(v) if m == 1 else {k: m * x for k, x in v.items()}
    get = out.get
    for k in hits:
        row = pivots[k]
        c = m * v[k] // row[k]
        for j, x in row.items():
            y = get(j, 0) - c * x
            if y:
                out[j] = y
            else:
                del out[j]
    return _primitive(out)


class IncrementalRank:
    """Incremental rank of a growing family of sparse vectors.

    Vectors are dicts key -> coefficient.  Rows are kept as primitive integer
    vectors and mutually reduced: each row is zero at every other row's pivot,
    so no hit row changes a vector's entry at another hit.  One routine,
    `_eliminate`, does all elimination: `reduce` applies it to a vector with
    all the pivots it hits, in one pass, and `add` applies it to each stored
    row that contains the new pivot's key, with that one hit.  A row's
    support starts at its pivot, so a row whose pivot comes after the new
    key cannot hold that key: `add` scans only the rows whose pivots come
    before it, found by bisecting the sorted pivot keys `_keys`.  There is
    one row store, `pivots`, beside those keys, so each back-reduced row is
    written in one place.  The sign of a stored row is not fixed: `rref`
    divides by the pivot entry, and the other readers count pivots or test
    `reduce(x) == {}`.

    Each pivot is the least key of its row in the keys' own order, and each
    stored row has its support entirely at-or-after its pivot, so counting
    pivots inside a downward-closed coordinate set gives the dimension of the
    span's intersection with that coordinate subspace.
    """

    def __init__(self):
        self.pivots: dict[object, dict] = {}
        self._keys: list = []  # the keys of `pivots`, sorted

    def reduce(self, vec: dict) -> dict:
        """vec fully reduced against the pivots, as integers; {} iff vec lies in their span.

        An all-int vec without zero entries is reduced as given: scaling it
        changes only the content, which the last step removes.
        """
        v = vec if all(type(x) is int and x for x in vec.values()) else sparse_to_int(vec)
        return _eliminate(v, [k for k in v if k in self.pivots], self.pivots)

    def add(self, vec: dict) -> bool:
        """Reduce vec against current pivots; returns True if rank grew."""
        v = self.reduce(vec)
        if not v:
            return False
        key = min(v)
        new, pivots = {key: v}, self.pivots
        at = bisect_left(self._keys, key)
        for k in self._keys[:at]:
            row = pivots[k]
            if key in row:
                pivots[k] = _eliminate(row, (key,), new)
        self._keys.insert(at, key)
        pivots[key] = v
        return True
