"""Normal-ordered algebra of polynomial-coefficient differential operators.

Operators are stored with every coordinate factor to the left of every
derivative factor; this normal order is a basis, so equality of operators is
equality of coefficient tables.  The product is computed term by term from the
single reordering rule D_x x = x D_x + 1, extended to powers by the usual
binomial/falling-factorial expansion.  As in `exactalg`, a coefficient is an
int when integral and a Fraction otherwise, never a float.  One loop,
`apply_images`, applies an operator (by its stored plan, `WeylOp._plan`) to
monomials, in normal form when a ring is given; `apply_op` sums its images.
"""

from __future__ import annotations

import math
from operator import add, sub

from .exactalg import ArityMismatch, ExactPoly, QuotientRing, SparseElement, monomial_text
from .linalg import nullspace

Exp = tuple[int, ...]


def _exp(e, n: int) -> Exp:
    e = tuple(e)
    if len(e) != n:
        raise ArityMismatch(f"exponent {e} has wrong arity {n}")
    return e


class WeylOp(SparseElement):
    """Finite sum of (coordinate monomial)*(derivative monomial) terms."""

    __slots__ = ("variables", "_plan")

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        n = len(self.variables)
        self._normalise((((_exp(xe, n), _exp(de, n)), c) for (xe, de), c in terms.items()), 2)
        self._plan = None

    @property
    def _space(self):
        return self.variables

    def _new(self, terms):
        return WeylOp(self.variables, terms)

    def _one(self):
        return WeylOp.one(self.variables)

    # --- constructors ---

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def one(cls, variables):
        n = len(tuple(variables))
        return cls(variables, {((0,) * n, (0,) * n): 1})

    @classmethod
    def from_poly(cls, f: ExactPoly):
        n = len(f.variables)
        zero = (0,) * n
        return cls(f.variables, {(e, zero): c for e, c in f.terms.items()})

    @classmethod
    def partial(cls, variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        n = len(variables)
        de = [0] * n
        de[i] = 1
        return cls(variables, {((0,) * n, tuple(de)): 1})

    @classmethod
    def vector_field(cls, coefficients: list[ExactPoly]):
        """Sum coefficients[i] * D_{x_i}."""
        variables = coefficients[0].variables
        n = len(variables)
        terms: dict = {}
        for i, f in enumerate(coefficients):
            if f.variables != variables:
                raise ArityMismatch("mixed variable lists")
            de = [0] * n
            de[i] = 1
            de = tuple(de)
            terms.update(((e, de), c) for e, c in f.terms.items())
        return cls(variables, terms)

    # --- structure ---

    def is_vector_field(self) -> bool:
        return bool(self.terms) and all(sum(de) == 1 for _, de in self.terms)

    def coefficient_polys(self) -> dict[Exp, ExactPoly]:
        """Map derivative exponent -> its coordinate-polynomial coefficient."""
        out: dict[Exp, dict] = {}
        for (xe, de), c in self.terms.items():
            out.setdefault(de, {})[xe] = c
        return {de: ExactPoly(self.variables, t) for de, t in out.items()}

    # --- arithmetic ---

    def __mul__(self, other):
        if isinstance(other, ExactPoly):
            other = WeylOp.from_poly(other)
        if not isinstance(other, WeylOp):
            return WeylOp(self.variables, {k: c * other for k, c in self.terms.items()})
        self._check(other)
        out: dict = {}
        for (xe1, de1), c1 in self.terms.items():
            for (xe2, de2), c2 in other.terms.items():
                _accumulate_term_product(out, xe1, de1, xe2, de2, c1 * c2)
        return WeylOp(self.variables, out)

    def __rmul__(self, other):
        if isinstance(other, ExactPoly):
            return WeylOp.from_poly(other) * self
        return WeylOp(self.variables, {k: c * other for k, c in self.terms.items()})

    def __repr__(self):
        return f"WeylOp({op_to_text(self)!r})"


def _accumulate_term_product(out, xe1, de1, xe2, de2, coef):
    """Normal-order (x^xe1 D^de1)(x^xe2 D^de2) into out.

    D^m x^p = sum_k C(m,k) * p!/(p-k)! * x^(p-k) D^(m-k), variable by variable.
    Only the variables with both m and p nonzero expand beyond k = 0; terms
    reach `out` by decreasing k, the first variable most significant.
    """
    terms = [(tuple(map(add, xe1, xe2)), tuple(map(add, de1, de2)), coef)]
    for i, (m, p) in enumerate(zip(de1, xe2)):
        if m and p:
            terms = [
                (xe[:i] + (xe[i] - k,) + xe[i + 1:], de[:i] + (de[i] - k,) + de[i + 1:],
                 c * math.comb(m, k) * math.perm(p, k))
                for xe, de, c in terms for k in range(min(m, p), -1, -1)
            ]
    for xe, de, c in terms:
        out[xe, de] = out.get((xe, de), 0) + c


def commutator(p: WeylOp, q: WeylOp) -> WeylOp:
    return p * q - q * p


def apply_op(p: WeylOp, f: ExactPoly) -> ExactPoly:
    """Act on a polynomial, summing f's coefficients times `apply_images`;
    apply(PQ, f) = apply(P, apply(Q, f))."""
    if p.variables != f.variables:
        raise ArityMismatch(f"{p.variables} vs {f.variables}")
    out: dict = {}
    for fc, image in zip(f.terms.values(), apply_images(p, f.terms)):
        for e, c in image.items():
            out[e] = out.get(e, 0) + fc * c
    return ExactPoly(p.variables, out)


def apply_images(p: WeylOp, exponents, ring: QuotientRing | None = None):
    """Yield, for each exponent e, {exponent: coefficient} of p(x^e), zero sums
    kept, in normal form on a ring with a relation (read through its monomial
    memo).  The first call stores the plan: per term c x^xe D^de, the shift
    xe - de and the (slot, order) pairs with nonzero order."""
    if p._plan is None:
        p._plan = [(tuple(map(sub, xe, de)), [(i, k) for i, k in enumerate(de) if k], c)
                   for (xe, de), c in p.terms.items()]
    memo = None if ring is None or ring.relation is None else ring._nf_memo
    for fe in exponents:
        out: dict = {}
        get = out.get
        for shift, slots, mult in p._plan:
            for i, k in slots:
                if fe[i] < k:
                    break
                mult *= math.perm(fe[i], k)
            else:
                e = tuple(map(add, fe, shift))
                if memo is None:
                    out[e] = get(e, 0) + mult
                    continue
                nf = memo.get(e)
                for ne, nc in ring.monomial_nf(e) if nf is None else nf:
                    out[ne] = get(ne, 0) + mult * nc
        yield out


def is_relative(theta: WeylOp, f: ExactPoly) -> bool:
    """A vector field is relative to the fibration by f when it kills f."""
    if not theta.is_vector_field():
        raise ValueError("is_relative expects a vector field")
    return apply_op(theta, f).is_zero()


def relative_fields(ring: QuotientRing, f: ExactPoly, monomials) -> list[tuple]:
    """Basis of the vector fields sum_i g_i D_i that kill f in `ring`, with
    every g_i in the span of the given monomial exponents.

    theta(f) = sum_i g_i D_i(f), so the coefficient of x^e in slot i is the
    unknown whose column is the normal form of x^e D_i(f) (`ring.nf_terms` of
    D_i(f)'s terms shifted by e); the fields are the kernel.  Each basis field
    is a tuple of coefficient polynomials, one per variable.

    The unknowns are numbered monomial-major, monomials in degree order, then
    by slot, and the basis follows its free columns.  The reduced echelon form
    of a column prefix is the prefix of the reduced form, so the basis fields
    of degree <= k are the basis solved on the monomials of degree <= k alone;
    `rees` reads its lower caps off one solve this way.
    """
    variables = ring.variables
    gradient = [apply_op(WeylOp.partial(variables, v), f).terms for v in variables]
    monomials = sorted((_exp(e, len(variables)) for e in monomials), key=sum)
    unknowns = [(i, e) for e in monomials for i in range(len(variables))]
    rows: dict = {}  # monomial of theta(f) -> its row {unknown: coefficient}
    for j, (i, e) in enumerate(unknowns):
        for te, c in ring.nf_terms({tuple(map(add, e, ge)): gc for ge, gc in gradient[i].items()}).items():
            if c:
                rows.setdefault(te, {})[j] = c
    basis = []
    for vec in nullspace(list(rows.values()), len(unknowns)):
        coeffs = [{} for _ in variables]
        for j, v in sorted(vec.items()):
            i, e = unknowns[j]
            coeffs[i][e] = v
        basis.append(tuple(ExactPoly(variables, t) for t in coeffs))
    return basis


def preserves_ideal(p: WeylOp, ring: QuotientRing) -> bool:
    """Does the operator p, of order at most one, map the relation ideal into
    itself (so p descends to the quotient)?

    Exact: p(g * rel) = g * p(rel) + (p - p(1))(g) * rel, so p preserves the
    ideal iff p(rel) lies in it.  Raises ValueError for higher order.
    """
    if any(sum(de) > 1 for _, de in p.terms):
        raise ValueError("preserves_ideal needs an operator of order at most one")
    return ring.relation is None or ring.in_ideal(apply_op(p, ring.relation))


def euler_op(variables) -> WeylOp:
    """1 + sum_i x_i D_i."""
    variables = tuple(variables)
    out = WeylOp.one(variables)
    for name in variables:
        out = out + WeylOp.from_poly(ExactPoly.variable(variables, name)) * WeylOp.partial(
            variables, name
        )
    return out


# --- serialization ----------------------------------------------------------


def op_to_text(p: WeylOp) -> str:
    if not p.terms:
        return "0"
    order = sorted(p.terms, key=lambda k: (sum(k[1]), k[1], sum(k[0]), k[0]), reverse=True)
    texts = ((str(p.terms[k]), monomial_text(p.variables, k[0]), monomial_text(p.variables, k[1], "D")) for k in order)
    return " + ".join(" * ".join(filter(None, t)) for t in texts)
