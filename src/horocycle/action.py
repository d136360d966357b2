"""Infinitesimal group actions, the quantum moment map, stabilizers and coinvariants.

A linear action is built from a representation whose basis vectors are the
ring's variables (`linear_action`).  The built-in action is the two-sided
multiplication action of sl2 x sl2 on 2x2 matrix space End(V1) = V1 (x) V1*
and on the determinant level sets: on a matrix g, the left factor gives
-X.g and the right factor g.X.

Construction does not recompute field brackets: a linear action is a Lie
algebra map because its representation is (`linear_action`), and the
`identities` suite reports the residuals of `bracket_residuals` as items.
It does require linear fields, as the one moment map (`moment_table`) does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .exactalg import ExactPoly, QuotientRing, det_poly, horocycle_ring, mat2_ring, sl2_ring
from .lie import FinDimRep, LieAlgebraDesc, UEnvElement, tensor_dual_rep
from .linalg import IncrementalRank, frac, nullspace, num, quotient, transpose
from .weyl import WeylOp, commutator, preserves_ideal


class PointNotOnVariety(ValueError):
    """Coordinates do not satisfy the ring's defining relation."""


class InfinitesimalAction:
    """A Lie algebra map into vector fields on an affine variety."""

    def __init__(self, desc: LieAlgebraDesc, ring: QuotientRing, fields):
        self.desc = desc
        self.ring = ring
        self.fields = tuple(fields)
        if len(self.fields) != desc.dim:
            raise ValueError("one vector field per basis element required")
        for theta in self.fields:
            if any(sum(xe) != 1 or sum(de) != 1 for xe, de in theta.terms):
                raise ValueError("assignments must be linear vector fields Sum t x_k D_l")
            if not preserves_ideal(theta, ring):
                raise ValueError("assigned field does not preserve the relation ideal")

    def bracket_residuals(self):
        """(i, j, [f_i, f_j] - Sum_k c_k f_k) for i < j, with c the structure constants."""
        for i in range(self.desc.dim):
            for j in range(i + 1, self.desc.dim):
                rhs = WeylOp.zero(self.ring.variables)
                for k, c in self.desc.bracket_vector(i, j).items():
                    rhs = rhs + self.fields[k] * c
                yield i, j, commutator(self.fields[i], self.fields[j]) - rhs


def linear_action(ring: QuotientRing, rep: FinDimRep) -> InfinitesimalAction:
    """The action of rep's algebra on the ring whose variables are the coordinates
    of rep's basis: basis element X acts by the linear field x -> -rho(X) x.

    No bracket check is needed here: `FinDimRep` validates rho, and
    theta_X = -rho(X) x satisfies [theta_X, theta_Y] = theta_[X,Y].  The
    `identities` suite reports the field-level residuals of the built-in action.
    """
    if rep.dim != len(ring.variables):
        raise ValueError("one variable per basis vector of the representation required")
    xs = [ring.var(v) for v in ring.variables]
    zero = ExactPoly.zero(ring.variables)
    fields = (
        WeylOp.vector_field([sum((-c * xs[j] for j, c in row.items()), zero) for row in m])
        for m in rep.matrices
    )
    return InfinitesimalAction(rep.desc, ring, fields)


def lr_action_mat2() -> InfinitesimalAction:
    return _builtin_action(mat2_ring())


def lr_action_sl2() -> InfinitesimalAction:
    return _builtin_action(sl2_ring())


def lr_action_horocycle() -> InfinitesimalAction:
    return _builtin_action(horocycle_ring())


@functools.cache
def _builtin_action(ring: QuotientRing) -> InfinitesimalAction:
    """The left-right action on a built-in ring, built and validated once."""
    return linear_action(ring, tensor_dual_rep(1, 1))


def moment_map(u: UEnvElement, act: InfinitesimalAction) -> WeylOp:
    """Multiplicative extension of the field assignment to the enveloping algebra,
    with monomials in the ring's normal form: on a ring with a relation (no suite
    uses one) it differs from the fields' product by rel * D, which acts as 0."""
    if u.desc.key != act.desc.key:
        raise ValueError("element does not live in the acting algebra")
    out = WeylOp.zero(act.ring.variables)
    for e, coef in u.terms.items():
        out = out + WeylOp(act.ring.variables, moment_table(e, act)) * coef
    return out


@functools.cache
def moment_table(e, act: InfinitesimalAction) -> dict:
    """Table {(xe, de): c} of mu(x^e), x^e = x^prev X_i: the table of mu(x^prev)
    times the linear field Sum t x_k D_l of X_i, by (x^h D^de)(x_k D_l) =
    x^(h+e_k) D^(de+e_l) + de_k x^h D^(de-e_k+e_l), raised key first, with
    x^(h+e_k) in normal form (well defined: rel S theta = rel (S theta)).  Cached:
    callers do not mutate it."""
    if not any(e):
        return WeylOp.one(act.ring.variables).terms
    i = max(k for k in range(len(e)) if e[k])
    prev = list(e)
    prev[i] -= 1
    field = [(xe.index(1), dl, t) for (xe, dl), t in act.fields[i].terms.items()]
    acc: dict = {}
    for (h, de), c in moment_table(tuple(prev), act).items():
        for k, dl, t in field:
            up = tuple(map(add, de, dl))
            for ne, nc in act.ring.monomial_nf(h[:k] + (h[k] + 1,) + h[k + 1:]):
                acc[ne, up] = acc.get((ne, up), 0) + c * t * nc
            if de[k]:
                key = (h, up[:k] + (up[k] - 1,) + up[k + 1:])
                acc[key] = acc.get(key, 0) + c * t * de[k]
    return {k: v for k, v in acc.items() if v}


@dataclass(frozen=True)
class RationalPoint:
    """A rational point of 2x2 matrix space."""

    coords: tuple

    def __post_init__(self):
        if len(self.coords) != 4:
            raise ValueError(f"a point of 2x2 matrix space has 4 coordinates, got {len(self.coords)}")
        object.__setattr__(self, "coords", tuple(frac(x) for x in self.coords))

    @classmethod
    def parse(cls, text: str) -> "RationalPoint":
        return cls(tuple(Fraction(p.strip()) for p in text.split(",")))

    def is_on(self, ring: QuotientRing) -> bool:
        if ring.relation is None:
            return True
        if ring.relation.evaluate(self.coords) != 0:
            return False
        if ring.relation.is_homogeneous() and all(x == 0 for x in self.coords):
            return False  # the cone point is excluded from the rank-one chart
        return True

    def require_on(self, ring: QuotientRing):
        if not self.is_on(ring):
            raise PointNotOnVariety(f"{self.coords} is not on {ring.name}")

    def to_json(self) -> list:
        return [str(x) for x in self.coords]


def level_set_action(p: RationalPoint) -> tuple[str, InfinitesimalAction]:
    """(label, action) of the determinant level set through p: det=1, or det=0
    off the cone point; PointNotOnVariety when p lies on neither."""
    for label, act in (("det=1", lr_action_sl2()), ("det=0", lr_action_horocycle())):
        if p.is_on(act.ring):
            return label, act
    det = det_poly().evaluate(p.coords)
    raise PointNotOnVariety(f"point {','.join(p.to_json())} lies on neither supported variety (det={det})")


@dataclass(frozen=True)
class LieSubalgebra:
    """A bracket-closed subspace of the acting algebra, given by basis vectors,
    each a sparse dict {basis index: coefficient}.

    `span` is an eliminator holding the basis: a vector x lies in the
    subspace iff `span.reduce(x) == {}`.
    """

    desc: LieAlgebraDesc
    vectors: tuple
    span: IncrementalRank = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vecs = tuple({i: num(c) for i, c in v.items() if c} for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        span = IncrementalRank()
        object.__setattr__(self, "span", span)
        if not all(span.add(v) for v in vecs):
            raise ValueError("basis vectors are linearly dependent")
        if not self.normalizes(self):
            raise ValueError("subspace is not closed under bracket")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def normalizes(self, other: "LieSubalgebra") -> bool:
        return all(
            other.span.reduce(self.desc.bracket_of_vectors(v, w)) == {}
            for v in self.vectors
            for w in other.vectors
        )


def stabilizer_subalgebra(act: InfinitesimalAction, p: RationalPoint) -> LieSubalgebra:
    """Kernel of evaluating the assigned fields at p."""
    p.require_on(act.ring)
    # row `slot` holds the D_slot coefficient of each field at p
    rows = [{} for _ in act.ring.variables]
    for i, theta in enumerate(act.fields):
        for de, poly in theta.coefficient_polys().items():
            slot = next(k for k, d in enumerate(de) if d)
            rows[slot][i] = poly.evaluate(p.coords)
    return LieSubalgebra(act.desc, tuple(nullspace(rows, act.desc.dim)))


def coinvariants(
    rep: FinDimRep,
    sub: LieSubalgebra,
    commuting: LieSubalgebra | None = None,
) -> tuple[list, list]:
    """M / span{x.m : x in sub}, with the induced action of a commuting subalgebra.

    Returns `quotient`'s pair (Y, [T for each commuting basis vector]), as
    lists of sparse rows: Y is a full-row-rank matrix whose kernel is exactly
    the span, so the quotient has dimension len(Y) and Y * generator-action = 0
    holds exactly, and each T satisfies T Y = Y * action.  The span is the
    nonzero columns x.e_j of each x in `sub`, which `act_columns` builds, passed
    sparsest first: a row space has one reduced echelon form, so the order
    changes no Y or T, and `rref` reaches full rank sooner.  The acting
    matrices are the transposes of the same column form.
    """
    if sub.desc.key != rep.desc.key:
        raise ValueError("subalgebra does not live in the module's acting algebra")
    if commuting is not None and not commuting.normalizes(sub):
        raise ValueError("designated subalgebra does not normalize the quotient data")
    # the eliminator's primitive integer rows span the subalgebra and keep the span integral
    span = sorted((col for v in sub.span.pivots.values() for col in rep.act_columns(v) if col), key=len)
    acting = [] if commuting is None else [transpose(rep.act_columns(v), rep.dim) for v in commuting.vectors]
    return quotient(span, rep.dim, acting)
