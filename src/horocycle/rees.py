"""Lattice dominance orders, filtered algebras, the derivations filtration and
the Rees interpolation between the determinant-one locus and the rank-one cone.

The built-in filtered algebra is the function ring of the determinant-one
locus, filtered by minimal representative degree with unit generator levels.
Its Rees presentation has four level-one variables A, B, C, D and one lattice
variable z with the single relation A*D - B*C = z; setting z = 1 recovers the
original ring and z = 0 its associated graded, the rank-one cone.

All isomorphism-style statements are certified degreewise: each check computes
both sides of a dimension table by independent exact kernel or rank
computations and compares them, with explicit witnesses where a claim is about
specific elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exactalg import (
    BOTTOM,
    ExactPoly,
    QuotientRing,
    compositions,
    det_poly,
    MAT2_VARS,
    pw_level,
    sl2_ring,
)
from .linalg import IncrementalRank, frac, rank, rref
from .reports import CheckReport, ReportItem
from .weyl import WeylOp, apply_op, preserves_ideal, relative_fields


@dataclass(frozen=True)
class LatticeOrder:
    """Z^r with the partial order generated by a full-rank positive monoid."""

    rank: int
    generators: tuple

    def __post_init__(self):
        gens = tuple(tuple(int(x) for x in g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if len(gens) != self.rank or any(len(g) != self.rank for g in gens):
            raise ValueError("need exactly rank generators of matching arity")
        if rank([list(map(Fraction, g)) for g in gens]) != self.rank:
            raise ValueError("generators must be linearly independent")

    def _vec(self, v):
        if isinstance(v, int):
            if self.rank != 1:
                raise ValueError("scalar level in a higher-rank lattice")
            return (v,)
        return tuple(int(x) for x in v)

    def leq(self, mu, lam) -> bool:
        """mu <= lam iff lam - mu is a nonnegative integer combination of generators."""
        mu, lam = self._vec(mu), self._vec(lam)
        target = [Fraction(lam[i] - mu[i]) for i in range(self.rank)]
        cols = [[Fraction(g[i]) for g in self.generators] for i in range(self.rank)]
        aug = [cols[i] + [target[i]] for i in range(self.rank)]
        red, pivots = rref(aug)
        if len(pivots) != self.rank or self.rank in pivots:
            return False
        sol = [red[i][self.rank] for i in range(self.rank)]
        return all(x.denominator == 1 and x >= 0 for x in sol)


ROOT_LATTICE_SL2 = LatticeOrder(1, ((2,),))


@dataclass(frozen=True)
class FilteredAlgebra:
    """A filtered commutative ring: generator levels plus a level function."""

    ring: QuotientRing
    generator_levels: tuple
    lattice: LatticeOrder

    def level(self, f: ExactPoly):
        return pw_level(f, self.ring)


def peter_weyl_sl2() -> FilteredAlgebra:
    return _PW_SL2


_PW_SL2 = FilteredAlgebra(sl2_ring(), (1, 1, 1, 1), ROOT_LATTICE_SL2)


def derivation_level(algebra: FilteredAlgebra, theta: WeylOp):
    """Least lattice level n with theta(A_{<=mu}) inside A_{<=mu+n}.

    Rank one: the integer max over generators of level(theta(x_i)) - g_i.
    Higher rank: the antichain of minimal dominating lattice points is
    returned when no least element exists.
    """
    if not preserves_ideal(theta, algebra.ring):
        raise ValueError("derivation does not preserve the relation ideal")
    ring = algebra.ring
    offsets = []
    for name, g in zip(ring.variables, algebra.generator_levels):
        image = ring.normal_form(apply_op(theta, ring.var(name)))
        lev = algebra.level(image)
        if lev is BOTTOM:
            continue
        if algebra.lattice.rank == 1:
            lev = lev if isinstance(lev, int) else lev[0]
            offsets.append(lev - g)
        else:
            offsets.append(tuple(a - b for a, b in zip(lev, g)))
    if not offsets:
        return BOTTOM
    if algebra.lattice.rank == 1:
        return max(offsets)
    return _minimal_dominating(algebra.lattice, offsets)


def _minimal_dominating(lattice: LatticeOrder, points):
    """Least lattice point dominating every point, or () when none exists.

    With linearly independent generators each point has a unique rational
    coefficient vector; common dominators exist precisely when all pairwise
    coefficient differences are integral, and then the least one is the
    componentwise coefficient maximum.  In particular no antichain of several
    minimal dominators can occur; an empty result records the obstruction.
    """
    r = lattice.rank
    gen_matrix = [[Fraction(g[i]) for g in lattice.generators] for i in range(r)]
    coeff_vectors = []
    for p in points:
        p = lattice._vec(p)
        aug = [gen_matrix[i] + [Fraction(p[i])] for i in range(r)]
        red, pivots = rref(aug)
        coeff_vectors.append([red[i][r] for i in range(r)])
    base = coeff_vectors[0]
    for other in coeff_vectors[1:]:
        if any((x - y).denominator != 1 for x, y in zip(base, other)):
            return ()
    top = [max(v[i] for v in coeff_vectors) for i in range(r)]
    least = tuple(
        sum(top[j] * lattice.generators[j][i] for j in range(r))
        for i in range(r)
    )
    assert all(x.denominator == 1 for x in least)
    return tuple(int(x) for x in least)


@dataclass(frozen=True)
class FilteredDerivation:
    field: WeylOp
    level: object


def certify_derivation_level(
    algebra: FilteredAlgebra, theta: WeylOp, bound: int = 6
) -> tuple[FilteredDerivation, dict]:
    """Certified level: checked on all monomial classes up to the bound, with a
    witness generator showing the level cannot be decremented."""
    n = derivation_level(algebra, theta)
    ring = algebra.ring
    detail = {"level": repr(n), "checked": 0, "witness": None}
    if n is BOTTOM:
        return FilteredDerivation(theta, n), detail
    for d in range(bound + 1):
        for e in ring.nf_monomials(d):
            mono = ExactPoly.monomial(ring.variables, e)
            image = ring.normal_form(apply_op(theta, mono))
            lev = algebra.level(image)
            if lev is BOTTOM:
                continue
            if not algebra.lattice.leq(lev, d + n):
                raise AssertionError(
                    f"level certificate fails on monomial {e}: {lev} vs {d + n}"
                )
            detail["checked"] += 1
    for name, g in zip(ring.variables, algebra.generator_levels):
        image = ring.normal_form(apply_op(theta, ring.var(name)))
        lev = algebra.level(image)
        if lev is not BOTTOM and lev - g == n:
            detail["witness"] = name
            break
    return FilteredDerivation(theta, n), detail


# --- the derivation spaces of the built-in rings -----------------------------

_derivation_space_cache: dict[tuple, list] = {}


def sl2_derivation_space(cap: int, parity: int) -> list:
    """Basis of derivations of the determinant-one ring whose generator images
    are spanned by normal-form monomials of degree <= cap, degree == parity mod 2.

    Returned as 4-tuples of coefficient polynomials (images of a, b, c, d).
    """
    key = (cap, parity % 2)
    hit = _derivation_space_cache.get(key)
    if hit is not None:
        return hit
    ring = sl2_ring()
    monos = [e for d in range(key[1], cap + 1, 2) for e in ring.nf_monomials(d)]
    basis = _derivation_space_cache[key] = relative_fields(ring, det_poly(), monos)
    return basis


# --- Rees presentation --------------------------------------------------------

REES_VARS = ("A", "B", "C", "D", "z")


@dataclass(frozen=True)
class ReesPresentation:
    """Graded presentation: level-one variables, one lattice variable, one relation."""

    ring: QuotientRing
    variable_levels: tuple
    lattice_variables: tuple
    lattice: LatticeOrder

    def graded_monomials(self, weight: int) -> list:
        out = []
        for zk in range(weight // 2 + 1):
            rest = weight - 2 * zk
            for e in compositions(rest, 4):
                if e[0] and e[3]:
                    continue  # reduced away by the rewrite
                out.append(e + (zk,))
        return out


def rees_build(algebra: FilteredAlgebra) -> ReesPresentation:
    """Rees presentation of the built-in filtered ring: A*D - B*C = z."""
    if algebra.ring.key != sl2_ring().key or algebra.generator_levels != (1, 1, 1, 1):
        raise ValueError("unsupported algebra: only the built-in filtration is presented")
    relation = ExactPoly(
        REES_VARS,
        {
            (1, 0, 0, 1, 0): Fraction(1),
            (0, 1, 1, 0, 0): Fraction(-1),
            (0, 0, 0, 0, 1): Fraction(-1),
        },
    )
    ring = QuotientRing(REES_VARS, relation, name="Rees(O(SL2))")
    return ReesPresentation(ring, (1, 1, 1, 1), ("z",), algebra.lattice)


def rees_fiber(pres: ReesPresentation, p) -> QuotientRing:
    """Specialize the lattice variable: nonzero p gives the original ring, 0 its graded."""
    if isinstance(p, (tuple, list)):
        if len(p) != 1:
            raise ValueError("one lattice coordinate expected")
        p = p[0]
    p = frac(p)
    relation = det_poly() - ExactPoly.constant(MAT2_VARS, p)
    return QuotientRing(MAT2_VARS, relation, name=f"O(det={p})")


def homogenize_presentation(g: ExactPoly, level: int) -> ExactPoly:
    """Lift a normal-form function to the weight-`level` graded piece, using z."""
    terms = {}
    for e, c in g.terms.items():
        k = sum(e)
        if (level - k) % 2 or k > level:
            raise ValueError(f"monomial of degree {k} has no lift to weight {level}")
        terms[e + ((level - k) // 2,)] = c
    return ExactPoly(REES_VARS, terms)


FREE_VARS = ("A", "B", "C", "D")
_DET_FREE = ExactPoly(FREE_VARS, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})


def homogenize_free(g: ExactPoly, level: int) -> ExactPoly:
    """Same lift with the lattice variable eliminated against A*D - B*C."""
    out = ExactPoly.zero(FREE_VARS)
    for e, c in g.terms.items():
        k = sum(e)
        if (level - k) % 2 or k > level:
            raise ValueError(f"monomial of degree {k} has no lift to weight {level}")
        out = out + ExactPoly.monomial(FREE_VARS, e, c) * _DET_FREE ** ((level - k) // 2)
    return out


def tau_map(algebra: FilteredAlgebra, theta: WeylOp, pres: ReesPresentation) -> WeylOp:
    """Lift a filtered derivation to the Rees presentation.

    The image has no derivative in the lattice direction, so it kills z by
    construction; preserving the presentation ideal is the checked content.
    """
    level = derivation_level(algebra, theta)
    if level is BOTTOM:
        return WeylOp.zero(REES_VARS)
    ring = algebra.ring
    coeffs = []
    for name, g in zip(ring.variables, algebra.generator_levels):
        image = ring.normal_form(apply_op(theta, ring.var(name)))
        if image.is_zero():
            coeffs.append(ExactPoly.zero(REES_VARS))
        else:
            coeffs.append(homogenize_presentation(image, g + level))
    coeffs.append(ExactPoly.zero(REES_VARS))  # no d/dz component
    return WeylOp.vector_field(coeffs)


def _free_relative_kernel_dim(coef_degree: int) -> int:
    """Relative fields on the free four-variable ring, per homogeneous degree k.

    theta -> theta(AD - BC) = P*D - Q*C - R*B + S*A maps the four slots of
    degree-k coefficients onto the degree-(k+1) polynomials (every monomial
    of positive degree is a multiple of some variable), so the kernel has
    dimension 4*C(k+3, 3) - C(k+4, 3).
    """
    return 4 * comb(coef_degree + 3, 3) - comb(coef_degree + 4, 3)


def _free_coords(polys):
    """Coordinate vector of a 4-tuple of homogeneous free polynomials."""
    vec = {}
    for slot, poly in enumerate(polys):
        for e, c in poly.terms.items():
            vec[(slot, e)] = c
    return vec


def tau_check(algebra: FilteredAlgebra, pres: ReesPresentation, level_bound: int = 4) -> CheckReport:
    """Degreewise certification that filtered derivations match relative fields.

    For each level the lifted images must kill the lattice coordinate and
    preserve the presentation ideal exactly, be linearly independent, and fill
    a space of the same dimension as the strict relative-field kernel on the
    free ring.
    """
    items = []
    for level in range(level_bound + 1):
        basis = sl2_derivation_space(1 + level, (1 + level) % 2)
        dim_lhs = len(basis)
        all_relative = True
        elim = IncrementalRank()
        independent = 0
        for coeffs in basis:
            frees = [homogenize_free(g, 1 + level) for g in coeffs]
            if not apply_op(WeylOp.vector_field(frees), _DET_FREE).is_zero():
                all_relative = False
            if elim.add(_free_coords(frees)):
                independent += 1
        dim_rhs = _free_relative_kernel_dim(1 + level)
        ok = all_relative and independent == dim_lhs and dim_lhs == dim_rhs
        items.append(
            ReportItem(
                name=f"level {level}: lifted derivations = relative fields",
                expected=f"dim {dim_rhs}, all images kill the base coordinates",
                got=f"dim {dim_lhs}, independent {independent}, relative {all_relative}",
                passed=ok,
            )
        )
    # spot checks on the presentation ring itself
    ring = algebra.ring
    a, b, c, d = (ring.var(v) for v in ring.variables)
    spots = [
        ("a Da - d Dd", WeylOp.vector_field([a, ExactPoly.zero(ring.variables), ExactPoly.zero(ring.variables), -d])),
        ("-c Da - d Db", WeylOp.vector_field([-c, -d, ExactPoly.zero(ring.variables), ExactPoly.zero(ring.variables)])),
    ]
    for name, theta in spots:
        lifted = tau_map(algebra, theta, pres)
        kills_z = all(de[4] == 0 for _, de in lifted.terms)
        ok = kills_z and preserves_ideal(lifted, pres.ring)
        items.append(
            ReportItem(
                name=f"tau({name}) is relative on the presentation",
                expected="kills z and preserves the relation",
                got=f"kills z: {kills_z}",
                passed=ok,
            )
        )
    return CheckReport(
        check="tau",
        parameters={"level_bound": level_bound},
        items=items,
    )


# --- associated graded comparison ---------------------------------------------

_SIX_FIELDS_COEFFS = None


def six_standard_fields():
    """Coefficient 4-tuples of the spanning relative fields on matrix space."""
    global _SIX_FIELDS_COEFFS
    if _SIX_FIELDS_COEFFS is None:
        V = MAT2_VARS
        a, b, c, d = (ExactPoly.variable(V, v) for v in V)
        z = ExactPoly.zero(V)
        _SIX_FIELDS_COEFFS = (
            (c, d, z, z),      # c Da + d Db
            (b, z, d, z),      # b Da + d Dc
            (a, z, z, -d),     # a Da - d Dd
            (z, b, -c, z),     # b Db - c Dc
            (z, a, z, c),      # a Db + c Dd
            (z, z, a, b),      # a Dc + b Dd
        )
    return _SIX_FIELDS_COEFFS


def _graded_span_dim(n: int) -> int:
    """Dimension of the weight-n piece of the module the six fields span on the cone."""
    from .exactalg import horocycle_ring

    ring = horocycle_ring()
    if n < 0:
        return 0
    elim = IncrementalRank()
    dim = 0
    for e in ring.nf_monomials(n):
        mono = ExactPoly.monomial(ring.variables, e)
        for coeffs in six_standard_fields():
            vec = {}
            for slot, g in enumerate(coeffs):
                red = ring.normal_form(mono * g)
                for te, tc in red.terms.items():
                    vec[(slot, te)] = tc
            if elim.add(vec):
                dim += 1
    return dim


def gr_derivations_check(level_bound: int = 4, coef_bound: int = 4) -> CheckReport:
    """Graded dimension tables: filtration quotients against the cone's fields.

    The graded side is realised concretely as the span of the six standard
    relative fields with homogeneous coefficients on the rank-one cone.
    """
    items = [
        ReportItem(
            name="level BOTTOM",
            expected="0",
            got="0",
            passed=True,
        )
    ]
    lhs_cache: dict[tuple, int] = {}

    def lhs_dim(cap: int, parity: int) -> int:
        if cap < 0:
            return 0
        key = (cap, parity % 2)
        if key not in lhs_cache:
            lhs_cache[key] = len(sl2_derivation_space(key[0], key[1]))
        return lhs_cache[key]

    rhs_cache: dict[int, int] = {}
    for n in range(-level_bound, level_bound + 1):
        for dcap in range(coef_bound + 1):
            big = lhs_dim(min(1 + n, dcap), (1 + n) % 2)
            small = lhs_dim(min(n - 1, dcap), (n - 1) % 2)
            lhs = big - small
            if n < 0 or 1 + n > dcap:
                rhs = 0
            else:
                if n not in rhs_cache:
                    rhs_cache[n] = _graded_span_dim(n)
                rhs = rhs_cache[n]
            items.append(
                ReportItem(
                    name=f"level {n}, coefficient degree <= {dcap}",
                    expected=str(rhs),
                    got=str(lhs),
                    passed=lhs == rhs,
                )
            )
    return CheckReport(
        check="grderv",
        parameters={"level_bound": level_bound, "coef_bound": coef_bound},
        items=items,
    )


def rees_dimension_check(bound: int = 6) -> CheckReport:
    """Graded/filtered dimension tables of the presentation and its two fibers."""
    algebra = peter_weyl_sl2()
    pres = rees_build(algebra)
    fiber1 = rees_fiber(pres, 1)
    fiber0 = rees_fiber(pres, 0)
    items = []
    t_rees = {}
    for lam in range(bound + 1):
        t_rees[lam] = len(pres.graded_monomials(lam))
        filt = sum(
            len(fiber1.nf_monomials(k))
            for k in range(lam % 2, lam + 1, 2)
        )
        items.append(
            ReportItem(
                name=f"weight {lam}: presentation piece = filtered piece at z=1",
                expected=str(filt),
                got=str(t_rees[lam]),
                passed=t_rees[lam] == filt,
            )
        )
    for lam in range(bound + 1):
        gr = len(fiber0.nf_monomials(lam))
        prev = t_rees.get(lam - 2, 0)
        items.append(
            ReportItem(
                name=f"weight {lam}: presentation jump = graded piece at z=0",
                expected=str(gr),
                got=str(t_rees[lam] - prev),
                passed=t_rees[lam] - prev == gr,
            )
        )
    items.append(
        ReportItem(
            name="fiber at z=1 relation",
            expected="a d - b c - 1",
            got="matches" if fiber1.key == sl2_ring().key else "differs",
            passed=fiber1.key == sl2_ring().key,
        )
    )
    from .exactalg import horocycle_ring

    items.append(
        ReportItem(
            name="fiber at z=0 relation",
            expected="a d - b c",
            got="matches" if fiber0.key == horocycle_ring().key else "differs",
            passed=fiber0.key == horocycle_ring().key,
        )
    )
    return CheckReport(check="rees", parameters={"bound": bound}, items=items)
