"""Infinitesimal group actions, the quantum moment map, stabilizers and coinvariants.

The built-in action is the two-sided multiplication action of sl2 x sl2 on
2x2 matrix space and on the determinant level sets.  Its vector-field table is
hard-coded (left column / right column):

    E1 -> -c Da - d Db        E2 -> a Db + c Dd
    F1 -> -a Dc - b Dd        F2 -> b Da + d Dc
    H1 -> -a Da - b Db + c Dc + d Dd
    H2 ->  a Da - b Db + c Dc - d Dd

Bracket compatibility with the structure constants is validated whenever an
action is constructed, rather than re-derived from a group-level convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactalg import ExactPoly, QuotientRing, horocycle_ring, mat2_ring, sl2_ring
from .lie import (
    FinDimRep,
    LieAlgebraDesc,
    UEnvElement,
    sl2_pair_desc,
)
from .linalg import frac, left_nullspace, quotient, rank, transpose
from .weyl import WeylOp, commutator, preserves_ideal


class PointNotOnVariety(ValueError):
    """Coordinates do not satisfy the ring's defining relation."""


class InfinitesimalAction:
    """A Lie algebra map into vector fields on an affine variety."""

    def __init__(self, desc: LieAlgebraDesc, ring: QuotientRing, fields):
        self.desc = desc
        self.ring = ring
        self.fields = tuple(fields)
        self._moment_cache: dict[tuple, WeylOp] = {}
        if len(self.fields) != desc.dim:
            raise ValueError("one vector field per basis element required")
        for theta in self.fields:
            if not (theta.is_zero() or theta.is_vector_field()):
                raise ValueError("assignments must be vector fields")
            if not preserves_ideal(theta, ring):
                raise ValueError("assigned field does not preserve the relation ideal")
        for i in range(desc.dim):
            for j in range(i + 1, desc.dim):
                lhs = commutator(self.fields[i], self.fields[j])
                rhs = WeylOp.zero(ring.variables)
                for k, c in desc.bracket_vector(i, j).items():
                    rhs = rhs + self.fields[k] * c
                if lhs != rhs:
                    raise ValueError(
                        f"assignment is not a Lie algebra map at ({desc.basis[i]},{desc.basis[j]})"
                    )


def _mu_fields(variables) -> tuple[WeylOp, ...]:
    a = ExactPoly.variable(variables, "a")
    b = ExactPoly.variable(variables, "b")
    c = ExactPoly.variable(variables, "c")
    d = ExactPoly.variable(variables, "d")
    zero = ExactPoly.zero(variables)
    vf = WeylOp.vector_field
    return (
        vf([zero, zero, -a, -b]),          # F1
        vf([-a, -b, c, d]),                # H1
        vf([-c, -d, zero, zero]),          # E1
        vf([b, zero, d, zero]),            # F2
        vf([a, -b, c, -d]),                # H2
        vf([zero, a, zero, c]),            # E2
    )


def lr_action_mat2() -> InfinitesimalAction:
    return _builtin_action(mat2_ring())


def lr_action_sl2() -> InfinitesimalAction:
    return _builtin_action(sl2_ring())


def lr_action_horocycle() -> InfinitesimalAction:
    return _builtin_action(horocycle_ring())


def _builtin_action(ring: QuotientRing) -> InfinitesimalAction:
    """The left-right action on a built-in ring, built and validated once."""
    act = _ACTIONS.get(ring.key)
    if act is None:
        act = _ACTIONS[ring.key] = _make_action(ring)
    return act


def _make_action(ring: QuotientRing) -> InfinitesimalAction:
    return InfinitesimalAction(sl2_pair_desc(), ring, _mu_fields(ring.variables))


_ACTIONS: dict[tuple, InfinitesimalAction] = {}


def moment_map(u: UEnvElement, act: InfinitesimalAction) -> WeylOp:
    """Multiplicative extension of the field assignment to the enveloping algebra."""
    if u.desc.key != act.desc.key:
        raise ValueError("element does not live in the acting algebra")
    out = WeylOp.zero(act.ring.variables)
    for e, coef in u.terms.items():
        out = out + _moment_monomial(e, act) * coef
    return out


def _moment_monomial(e, act: InfinitesimalAction) -> WeylOp:
    hit = act._moment_cache.get(e)
    if hit is not None:
        return hit
    total = sum(e)
    if total == 0:
        out = WeylOp.one(act.ring.variables)
    else:
        i = max(k for k in range(len(e)) if e[k])
        prev = list(e)
        prev[i] -= 1
        out = _moment_monomial(tuple(prev), act) * act.fields[i]
    act._moment_cache[e] = out
    return out


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

    def determinant(self) -> Fraction:
        a, b, c, d = self.coords
        return a * d - b * c

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
        return [f"{x.numerator}/{x.denominator}" for x in self.coords]


@dataclass(frozen=True)
class LieSubalgebra:
    """A bracket-closed subspace of the acting algebra, given by basis vectors."""

    desc: LieAlgebraDesc
    vectors: tuple

    def __post_init__(self):
        vecs = tuple(tuple(frac(x) for x in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if vecs and rank([list(v) for v in vecs]) != len(vecs):
            raise ValueError("basis vectors are linearly dependent")
        for v in vecs:
            for w in vecs:
                br = self.desc.bracket_of_vectors(list(v), list(w))
                if not _in_span(vecs, br):
                    raise ValueError("subspace is not closed under bracket")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def normalizes(self, other: "LieSubalgebra") -> bool:
        for v in self.vectors:
            for w in other.vectors:
                if not _in_span(other.vectors, self.desc.bracket_of_vectors(list(v), list(w))):
                    return False
        return True


def _in_span(vectors, target) -> bool:
    if all(x == 0 for x in target):
        return True
    if not vectors:
        return False
    rows = [list(v) for v in vectors]
    return rank(rows) == rank(rows + [list(target)])


def stabilizer_subalgebra(act: InfinitesimalAction, p: RationalPoint) -> LieSubalgebra:
    """Kernel of evaluating the assigned fields at p."""
    p.require_on(act.ring)
    n = len(act.ring.variables)
    eval_matrix = []
    for theta in act.fields:
        coeffs = theta.coefficient_polys()
        row = [Fraction(0)] * n
        for de, poly in coeffs.items():
            slot = next(i for i, k in enumerate(de) if k)
            row[slot] += poly.evaluate(p.coords)
        eval_matrix.append(row)
    kernel = left_nullspace(eval_matrix)
    return LieSubalgebra(act.desc, tuple(tuple(v) for v in kernel))


@dataclass
class CoinvariantsResult:
    """Quotient of a module by the span of a subalgebra's action."""

    dimension: int
    projection: list
    induced: list = field(default_factory=list)

    def to_json(self) -> dict:
        fmt = lambda m: [[f"{x.numerator}/{x.denominator}" for x in row] for row in m]
        return {
            "dim": self.dimension,
            "projection": fmt(self.projection),
            "induced": [fmt(m) for m in self.induced],
        }


def coinvariants(
    rep: FinDimRep,
    sub: LieSubalgebra,
    commuting: LieSubalgebra | None = None,
) -> CoinvariantsResult:
    """M / span{x.m : x in sub}, with the induced action of a commuting subalgebra.

    The projection is a full-row-rank matrix Y whose kernel is exactly the
    span, so Y * generator-action = 0 holds exactly and the induced matrices T
    satisfy T Y = Y * action.
    """
    if sub.desc.key != rep.desc.key:
        raise ValueError("subalgebra does not live in the module's acting algebra")
    if commuting is not None and not commuting.normalizes(sub):
        raise ValueError("designated subalgebra does not normalize the quotient data")
    span_rows = [col for v in sub.vectors for col in transpose(rep.act_vector(list(v)))]
    acting = [rep.act_vector(list(v)) for v in commuting.vectors] if commuting is not None else []
    projection, induced = quotient(span_rows, rep.dim, acting)
    return CoinvariantsResult(len(projection), projection, induced)
