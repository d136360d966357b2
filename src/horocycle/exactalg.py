"""Multivariate polynomials over exact rationals and single-relation quotient rings.

The built-in rings live on the coordinates a, b, c, d of 2x2 matrix space:
the full matrix space (no relation), the determinant-one locus
(relation a*d - b*c - 1) and the rank-one cone (relation a*d - b*c).
Each relation is a single binomial-plus-constant whose leading monomial under
the fixed graded order is a*d, so one substitution rule a*d -> lower terms
computes canonical representatives; no general Groebner machinery is needed.

All values are immutable after construction and all operations are pure,
except that a ring memoizes the normal form of each monomial it has seen,
((e, 1),) where nothing rewrites it; that memo is keyed by the exponent on an
immutable ring and filled idempotently, so concurrent use is still safe.  One
kernel, `QuotientRing.nf_terms`, sums normal forms for `normal_form`,
`pw_level`, `weyl.relative_fields` and `rees._graded_span_dim`; it and
`weyl.apply_images` read the memo directly, others through `monomial_nf`.  A
stored coefficient is an int when it is integral and a fractions.Fraction
otherwise (`linalg.num`), never a float.
The constructors of `ExactPoly`, `weyl.WeylOp` and `lie.UEnvElement` all
normalise in `SparseElement._normalise`, one pass over the given terms.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .linalg import frac, num

Exp = tuple[int, ...]


class ArityMismatch(ValueError):
    """Operands defined over different spaces: variable lists or Lie algebras."""


# the level and the degree of zero: below every integer, and -inf - 1 == -inf
BOTTOM = -math.inf


class SparseElement:
    """A finite sum of basis keys with nonzero rational coefficients (`terms`),
    each an int when integral and a Fraction otherwise, so `==` is exact.

    Subclasses supply `_space` (what two operands must share), `_new(terms)`
    (an element of the same space) and `_one()` (its unit).  Operands of
    another type enter sums as multiples of the unit, and leave the sum to the
    other operand when that multiple is not of this type.  Each subclass keeps
    its own product.
    """

    __slots__ = ("terms",)
    __hash__ = None

    def _normalise(self, items, arity: int) -> None:
        """Set `terms` from (key, coefficient) pairs in one pass: a key that is not
        a tuple of length `arity` is converted by `tuple` (ArityMismatch if its
        length is wrong), colliding keys are summed, and `num` normalises each
        coefficient that is not an int (TypeError on a float, zero included)."""
        out: dict = {}
        for k, c in items:
            if k.__class__ is not tuple or len(k) != arity:
                k = tuple(k)
                if len(k) != arity:
                    raise ArityMismatch(f"key {k} has wrong arity for {self._space}")
            if c.__class__ is not int:
                c = num(c)
            if k in out:
                c = num(out.pop(k) + c)
            if c:
                out[k] = c
        self.terms = out

    def _check(self, other):
        if self._space != other._space:
            raise ArityMismatch(f"{self._space} vs {other._space}")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            other = self._one() * other
            if not isinstance(other, type(self)):
                return NotImplemented
        self._check(other)
        t = dict(self.terms)
        for k, c in other.terms.items():
            t[k] = t.get(k, 0) + c
        return self._new(t)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = self._one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, type(self)) and self._space == other._space and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms


class ExactPoly(SparseElement):
    """Sparse polynomial: map from exponent vectors to nonzero rational coefficients."""

    __slots__ = ("variables",)

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        self._normalise(terms.items(), len(self.variables))

    @property
    def _space(self):
        return self.variables

    def _new(self, terms):
        return ExactPoly(self.variables, terms)

    def _one(self):
        return ExactPoly.constant(self.variables, 1)

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, c):
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def monomial(cls, variables, exponents, coef=1):
        return cls(variables, {tuple(exponents): coef})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        e = [0] * len(variables)
        e[i] = 1
        return cls(variables, {tuple(e): 1})

    def __mul__(self, other):
        if not isinstance(other, ExactPoly):
            if isinstance(other, SparseElement):
                return NotImplemented
            return ExactPoly(self.variables, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        t: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return ExactPoly(self.variables, t)

    __rmul__ = __mul__

    def degree(self):
        """Total degree; BOTTOM (-inf) for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=BOTTOM)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def evaluate(self, values) -> Fraction:
        vals = [frac(v) for v in values]
        if len(vals) != len(self.variables):
            raise ArityMismatch("wrong number of values")
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v**k
            total += term
        return total

    def leading_exponent(self) -> Exp:
        """Largest exponent under the graded order with earlier variables first."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=_graded)

    def __repr__(self):
        return f"ExactPoly({poly_to_text(self)!r})"


def _graded(e: Exp):
    """The key of the graded order: total degree, then earlier variables first."""
    return sum(e), e


def _divides(e1: Exp, e2: Exp) -> bool:
    return all(map(operator.le, e1, e2))


def _exp_sub(e1: Exp, e2: Exp) -> Exp:
    return tuple(map(operator.sub, e1, e2))


def poly_try_divide(f: ExactPoly, d: ExactPoly) -> ExactPoly | None:
    """Exact quotient f/d, or None when d does not divide f.  Two exact refusals
    come first, as lead and least monomials multiply under a monomial order:
    d's least monomial must divide f's, and a single-term f is no multiple of
    a d with several terms, since lead(q*d) and least(q*d) then differ."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._check(d)
    if len(f.terms) == 1 and len(d.terms) > 1:
        return None
    if f.terms and not _divides(min(d.terms, key=_graded), min(f.terms, key=_graded)):
        return None
    lead = d.leading_exponent()
    lc = d.terms[lead]
    rest = [(e, c) for e, c in d.terms.items() if e != lead]
    rem = dict(f.terms)
    q: dict = {}
    while rem:
        e = max(rem, key=_graded)
        if not _divides(lead, e):
            return None
        qe = _exp_sub(e, lead)
        r = rem.pop(e)
        exact = type(r) is int and type(lc) is int and not r % lc
        qc = q[qe] = r // lc if exact else num(Fraction(r, lc))
        for re, rc in rest:
            ne = tuple(map(operator.add, qe, re))
            c = rem.get(ne, 0) - qc * rc
            if c:
                rem[ne] = c
            else:
                del rem[ne]
    return ExactPoly(f.variables, q)


def vanishing_order(f: ExactPoly, d: ExactPoly):
    """Largest m with d^m dividing f exactly; math.inf for f = 0, ValueError for a constant d."""
    if d.degree() == 0:
        raise ValueError("vanishing order along a constant divisor")
    if f.is_zero():
        return math.inf
    order = 0
    cur = f
    while True:
        q = poly_try_divide(cur, d)
        if q is None:
            return order
        order += 1
        cur = q


class QuotientRing:
    """Polynomial ring modulo at most one relation, with a fixed rewrite rule.

    The leading monomial under the graded order (earlier variables first) has
    maximal total degree, so rewriting never raises degree; every rewrite step
    strictly decreases in the monomial well-order, so normal forms terminate
    and are minimal-degree representatives of their classes.
    """

    def __init__(self, variables, relation: ExactPoly | None = None, name: str = ""):
        self.variables = tuple(variables)
        self.relation = relation
        self.name = name or ",".join(self.variables)
        if relation is not None:
            if relation.variables != self.variables:
                raise ArityMismatch("relation defined over different variables")
            lead = relation.leading_exponent()
            lc = relation.terms[lead]
            rest = relation - ExactPoly.monomial(self.variables, lead, lc)
            self.lead_exp = lead
            self.rewrite = rest * Fraction(-1, lc)
        else:
            self.lead_exp = None
            self.rewrite = None
        rel_key = None if relation is None else tuple(sorted(relation.terms.items()))
        self.key = (self.variables, rel_key)
        self._nf_memo: dict[Exp, tuple] = {}

    def __repr__(self):
        return f"QuotientRing({self.name})"

    def var(self, name) -> ExactPoly:
        return ExactPoly.variable(self.variables, name)

    def nf_terms(self, terms: dict) -> dict:
        """{exponent: coefficient} summing the normal forms of the terms {e: c}
        (`monomial_nf`), zero sums kept; the terms as given on a ring without a
        relation.  Fills the ring's memo idempotently, so concurrent calls stay safe."""
        if self.relation is None:
            return terms
        memo, out = self._nf_memo, {}
        for e, c in terms.items():
            nf = memo.get(e)
            for ne, nc in self.monomial_nf(e) if nf is None else nf:
                out[ne] = out.get(ne, 0) + c * nc
        return out

    def normal_form(self, f: ExactPoly) -> ExactPoly:
        """Unique representative with no monomial divisible by the leading monomial:
        the `nf_terms` of f's terms, as a polynomial."""
        if f.variables != self.variables:
            raise ArityMismatch(f"{f.variables} vs {self.variables}")
        return f if self.relation is None else ExactPoly(self.variables, self.nf_terms(f.terms))

    def monomial_nf(self, e: Exp) -> tuple:
        """Normal form of x^e as (exponent, coefficient) pairs, memoized on the ring:
        the sum of rc * nf(x^(e - lead + re)) over the rewrite terms rc * x^re when
        the leading monomial divides x^e, else ((e, 1),), x^e itself."""
        nf = self._nf_memo.get(e)
        if nf is None:
            nf = ((e, 1),)
            if self.lead_exp is not None and _divides(self.lead_exp, e):
                rest = _exp_sub(e, self.lead_exp)
                acc: dict = {}
                for re, rc in self.rewrite.terms.items():
                    for ne, nc in self.monomial_nf(tuple(map(operator.add, re, rest))):
                        acc[ne] = acc.get(ne, 0) + rc * nc
                nf = tuple((ne, nc) for ne, nc in acc.items() if nc)
            self._nf_memo[e] = nf
        return nf

    def in_ideal(self, f: ExactPoly) -> bool:
        """Membership in the principal relation ideal."""
        return self.normal_form(f).is_zero()

    def nf_monomials(self, degree: int):
        """Normal-form monomial exponents of the given degree."""
        lead = self.lead_exp
        monos = compositions(degree, len(self.variables))
        return [e for e in monos if lead is None or not _divides(lead, e)]


def compositions(total: int, parts: int) -> list[Exp]:
    """Exponent vectors of `parts` entries summing to `total`, lexicographically increasing."""
    vecs = [()]
    for _ in range(parts - 1):
        vecs = [v + (k,) for v in vecs for k in range(total + 1 - sum(v))]
    return [v + (total - sum(v),) for v in vecs]


MAT2_VARS = ("a", "b", "c", "d")


def det_poly() -> ExactPoly:
    """The determinant a*d - b*c on matrix-space coordinates."""
    return ExactPoly(MAT2_VARS, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})


def mat2_ring() -> QuotientRing:
    return _MAT2


def sl2_ring() -> QuotientRing:
    return _SL2


def horocycle_ring() -> QuotientRing:
    return _HOROCYCLE


_MAT2 = QuotientRing(MAT2_VARS, None, name="O(Mat2)")
_SL2 = QuotientRing(MAT2_VARS, det_poly() - 1, name="O(SL2)")
_HOROCYCLE = QuotientRing(MAT2_VARS, det_poly(), name="O(Y)")


# --- Peter-Weyl levels ------------------------------------------------------
#
# The level of a nonzero class is the minimal total degree over all of its
# polynomial representatives.  The rewrite order is graded, so the relation's
# leading monomial (a*d on the built-in rings) has its maximal degree and no
# rewrite step raises degree.  A single relation is a Groebner basis of its ideal, so every
# representative f of a class rewrites to the same normal form, whose degree
# is then at most deg f.  The degree of the normal form is therefore the
# level, on every ring; tests/test_exactalg.py keeps a coset-search oracle.


def pw_level(f: ExactPoly, ring: QuotientRing):
    """Least filtration level of a class (its minimal degree); BOTTOM (-inf) for
    the zero class, so levels add under products and take a max under sums.

    The largest degree among the nonzero sums of `ring.nf_terms`, read without
    building the normal form; it may fill the ring's monomial memo (idempotently)."""
    if f.variables != ring.variables:
        raise ArityMismatch(f"{f.variables} vs {ring.variables}")
    return max((sum(e) for e, c in ring.nf_terms(f.terms).items() if c), default=BOTTOM)


# --- serialization ----------------------------------------------------------
#
# An exact value, an int or a Fraction, is written by `str`: "n" or "n/d".


def monomial_text(names, exponents, prefix: str = "") -> str:
    """The factors prefix+x^k of a monomial, written prefix+x when k = 1, joined by
    spaces; "" for the unit."""
    return " ".join(f"{prefix}{x}^{k}" if k != 1 else prefix + x for x, k in zip(names, exponents) if k)


def poly_to_text(f: ExactPoly) -> str:
    if not f.terms:
        return "0"
    order = sorted(f.terms, key=_graded, reverse=True)
    return " + ".join(" * ".join(filter(None, (str(f.terms[e]), monomial_text(f.variables, e)))) for e in order)
