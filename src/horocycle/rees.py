"""The derivations filtration and the Rees interpolation between the
determinant-one locus and the rank-one cone.

The filtered algebra is the function ring of the determinant-one locus,
filtered by minimal representative degree (`exactalg.pw_level`), with every
generator at level one.  Its Rees algebra C[A, B, C, D, z]/(AD - BC - z), with
z of weight two, is O(Mat2) graded by degree: z -> det is an isomorphism.  So
the Rees family is the Vinberg semigroup of SL2, Mat2 -> A^1, g -> det g, whose
fiber at z = 1 is the original ring and at z = 0 its associated graded, the
rank-one cone (`rees_fiber`).  `homogenize` lifts a filtered element into it.

All isomorphism-style statements are certified degreewise: each check computes
both sides of a dimension table by independent exact kernel or rank
computations and compares them, with explicit witnesses where a claim is about
specific elements.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from math import comb
from operator import add

from .action import lr_action_horocycle
from .exactalg import (
    BOTTOM,
    ExactPoly,
    QuotientRing,
    det_poly,
    horocycle_ring,
    MAT2_VARS,
    mat2_ring,
    pw_level,
    sl2_ring,
)
from .linalg import IncrementalRank, frac
from .reports import CheckReport
from .weyl import WeylOp, apply_op, preserves_ideal, relative_fields


def derivation_level(theta: WeylOp):
    """Least level n with theta(A_{<=k}) inside A_{<=k+n} on the determinant-one
    ring: the max over the level-one generators of level(theta(x_i)) - 1,
    BOTTOM (-inf) when theta kills them."""
    ring = sl2_ring()
    if not preserves_ideal(theta, ring):
        raise ValueError("derivation does not preserve the relation ideal")
    return max(pw_level(apply_op(theta, ring.var(name)), ring) - 1 for name in ring.variables)


# --- the derivation spaces of the built-in rings -----------------------------

@functools.cache
def sl2_derivation_space(cap: int) -> tuple:
    """Basis of derivations of the determinant-one ring whose generator images
    are spanned by normal-form monomials of degree <= cap, degree == cap mod 2.

    Returned as 4-tuples of coefficient polynomials (images of a, b, c, d), in
    degree order; those of degree <= k are the space at cap k (`relative_fields`).
    """
    ring = sl2_ring()
    monos = [e for d in range(cap % 2, cap + 1, 2) for e in ring.nf_monomials(d)]
    return tuple(relative_fields(ring, det_poly(), monos))


def _derivation_spaces(top: int) -> list[tuple[list, tuple]]:
    """For parity 0 and 1, (degrees, fields): `sl2_derivation_space` at the cap
    top or top - 1 of that parity and its fields' ascending degrees.  The space
    at a cap k <= top is its first `bisect_right(degrees, k)` fields; top >= 1."""
    spaces = [None, None]
    for cap in (top - 1, top):
        fields = sl2_derivation_space(cap)
        spaces[cap % 2] = ([max(g.degree() for g in coeffs) for coeffs in fields], fields)
    return spaces


# --- the Rees algebra: O(Mat2) graded by degree --------------------------------

def rees_fiber(p) -> QuotientRing:
    """Specialize z = det: nonzero p gives the original ring, 0 its graded."""
    p = frac(p)
    relation = det_poly() - ExactPoly.constant(MAT2_VARS, p)
    return QuotientRing(MAT2_VARS, relation, name=f"O(det={p})")


@functools.cache
def _det_power(k: int) -> ExactPoly:
    return det_poly() ** k


def _lift_terms(terms: dict, level: int) -> dict:
    """The terms of `homogenize` of the function with terms {e: c}, zero sums kept."""
    out: dict = {}
    for e, c in terms.items():
        k = sum(e)
        if (level - k) % 2 or k > level:
            raise ValueError(f"monomial of degree {k} has no lift to weight {level}")
        for pe, pc in _det_power((level - k) // 2).terms.items():
            ne = tuple(map(add, e, pe))
            out[ne] = out.get(ne, 0) + c * pc
    return out


def homogenize(g: ExactPoly, level: int) -> ExactPoly:
    """Lift a normal-form function to the degree-`level` piece of O(Mat2): each
    monomial of degree k is multiplied by det^((level - k)/2) (`_lift_terms`)."""
    return ExactPoly(MAT2_VARS, _lift_terms(g.terms, level))


def _field_lift(coeffs, level: int) -> dict:
    """The nonzero terms of the field sum_i homogenize(coeffs[i], level) D_i,
    each keyed (monomial, slot) instead of by its unit D-exponent."""
    return {(e, i): c for i, g in enumerate(coeffs) for e, c in _lift_terms(g.terms, level).items() if c}


def _field_image(lift: dict, gradient: list) -> dict:
    """The terms of sum_i g_i D_i(f), zero sums kept, from a lift's terms and D_i(f)'s."""
    out: dict = {}
    for (e, i), c in lift.items():
        for ge, gc in gradient[i].items():
            ne = tuple(map(add, e, ge))
            out[ne] = out.get(ne, 0) + c * gc
    return out


def tau_map(theta: WeylOp) -> WeylOp:
    """Lift a filtered derivation of the determinant-one ring to the Rees algebra,
    as the field on Mat2 whose coefficients are the homogenized generator images."""
    level = derivation_level(theta)
    if level == BOTTOM:
        return WeylOp.zero(MAT2_VARS)
    ring = sl2_ring()
    return WeylOp.vector_field(
        [homogenize(ring.normal_form(apply_op(theta, ring.var(name))), 1 + level) for name in ring.variables]
    )


def _free_relative_kernel_dim(coef_degree: int) -> int:
    """Relative fields on Mat2 with homogeneous coefficients of degree k.

    theta -> theta(ad - bc) = P*d - Q*c - R*b + S*a maps the four slots of
    degree-k coefficients onto the degree-(k+1) polynomials (every monomial
    of positive degree is a multiple of some variable), so the kernel has
    dimension 4*C(k+3, 3) - C(k+4, 3).
    """
    return 4 * comb(coef_degree + 3, 3) - comb(coef_degree + 4, 3)


def tau_check(level_bound: int = 4) -> CheckReport:
    """Degreewise certification that filtered derivations match relative fields.

    For each level the lifted images must kill det, be linearly independent,
    and fill a space of the same dimension as the relative-field kernel on Mat2
    in that coefficient degree.  Each level's derivation space is read off
    `_derivation_spaces(1 + level_bound)`: one solve per parity.  A lift enters
    the eliminator as its terms (`_field_lift`); its det image is `_field_image`.
    """
    if level_bound < 0:
        raise ValueError("level bound must be non-negative")
    report = CheckReport(check="tau", parameters={"level_bound": level_bound})
    detp = det_poly()
    spaces = _derivation_spaces(1 + level_bound)
    gradient = [apply_op(WeylOp.partial(MAT2_VARS, v), detp).terms for v in MAT2_VARS]
    for level in range(level_bound + 1):
        degrees, fields = spaces[(1 + level) % 2]
        basis = fields[:bisect_right(degrees, 1 + level)]
        dim_lhs = len(basis)
        lifts = [_field_lift(coeffs, 1 + level) for coeffs in basis]
        all_relative = not any(c for lift in lifts for c in _field_image(lift, gradient).values())
        # a lift's keys (monomial, slot), numbered as ints, are its coordinates
        elim, code = IncrementalRank(), {}
        independent = sum(elim.add({code.setdefault(k, len(code)): c for k, c in lift.items()}) for lift in lifts)
        dim_rhs = _free_relative_kernel_dim(1 + level)
        report.add(
            f"level {level}: lifted derivations = relative fields",
            f"dim {dim_rhs}, all images kill the base coordinates",
            f"dim {dim_lhs}, independent {independent}, relative {all_relative}",
            all_relative and independent == dim_lhs and dim_lhs == dim_rhs,
        )
    # spot checks of tau_map on two level-zero fields
    ring = sl2_ring()
    a, b, c, d = (ring.var(v) for v in ring.variables)
    zero = ExactPoly.zero(ring.variables)
    spots = [("a Da - d Dd", WeylOp.vector_field([a, zero, zero, -d])),
             ("-c Da - d Db", WeylOp.vector_field([-c, -d, zero, zero]))]
    for name, theta in spots:
        # On Mat2 = Spec of the Rees algebra, z is det and the relation AD - BC - z
        # is zero, so every field preserves it; killing z is the checked content.
        kills_z = apply_op(tau_map(theta), detp).is_zero()
        report.add(
            f"tau({name}) is relative on the presentation",
            "kills z and preserves the relation",
            f"kills z: {kills_z}",
            kills_z,
        )
    return report


# --- associated graded comparison ---------------------------------------------

@functools.cache
def _graded_span_dim(n: int) -> int:
    """Dimension of the weight-n piece of the module that the fields of the
    built-in action span on the cone (six fields spanning its relative kernel);
    x^e times a slot's coefficient is `ring.nf_terms` of its shifted terms."""
    ring = horocycle_ring()
    fields = [theta.coefficient_polys() for theta in lr_action_horocycle().fields]
    # the (D-exponent, monomial) keys, numbered as ints, are the coordinates
    elim, code = IncrementalRank(), {}
    dim = 0
    for e in ring.nf_monomials(n):
        for coeffs in fields:
            vec = {}
            for de, g in coeffs.items():
                for te, tc in ring.nf_terms({tuple(map(add, e, ge)): gc for ge, gc in g.terms.items()}).items():
                    if tc:
                        vec[code.setdefault((de, te), len(code))] = tc
            if elim.add(vec):
                dim += 1
    return dim


# the least bound of `gr_derivations_check`: at 0 it compares only empty spaces
GRDERV_LEAST_BOUND = 1


def gr_derivations_check(bound: int = 4) -> CheckReport:
    """Graded dimension tables: filtration quotients against the cone's fields.

    The graded side is realised concretely as the span of the built-in
    action's six fields with homogeneous coefficients on the rank-one cone.
    The filtered side counts the fields of degree <= cap in the two spaces
    that `tau_check` reads at the same bound, so the two suites share two solves.
    """
    if bound < GRDERV_LEAST_BOUND:
        raise ValueError(f"level and coefficient bounds must be at least {GRDERV_LEAST_BOUND}")
    report = CheckReport(check="grderv", parameters={"level_bound": bound, "coef_bound": bound})
    report.add("level BOTTOM", 0, 0, True)
    spaces = _derivation_spaces(1 + bound)
    for n in range(-bound, bound + 1):
        degrees = spaces[(1 + n) % 2][0]  # 1 + n and n - 1 share a parity; caps below 0 count 0
        for dcap in range(bound + 1):
            lhs = bisect_right(degrees, min(1 + n, dcap)) - bisect_right(degrees, min(n - 1, dcap))
            rhs = 0 if n < 0 or 1 + n > dcap else _graded_span_dim(n)
            report.add(f"level {n}, coefficient degree <= {dcap}", rhs, lhs, lhs == rhs)
    return report


def rees_dimension_check(bound: int = 6) -> CheckReport:
    """Graded/filtered dimension tables of the Rees algebra O(Mat2) and its two fibers."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    fiber1 = rees_fiber(1)
    fiber0 = rees_fiber(0)
    report = CheckReport(check="rees", parameters={"bound": bound})
    t_rees = {}
    counts = [len(fiber1.nf_monomials(k)) for k in range(bound + 1)]
    for lam in range(bound + 1):
        t_rees[lam] = len(mat2_ring().nf_monomials(lam))
        filt = sum(counts[lam % 2 : lam + 1 : 2])
        report.add(
            f"weight {lam}: presentation piece = filtered piece at z=1", filt, t_rees[lam], t_rees[lam] == filt
        )
    for lam in range(bound + 1):
        gr = len(fiber0.nf_monomials(lam))
        prev = t_rees.get(lam - 2, 0)
        jump = t_rees[lam] - prev
        report.add(f"weight {lam}: presentation jump = graded piece at z=0", gr, jump, jump == gr)
    fibers = ((1, fiber1, "a d - b c - 1", sl2_ring()), (0, fiber0, "a d - b c", horocycle_ring()))
    for z, fiber, relation, ring in fibers:
        same = fiber.key == ring.key
        report.add(f"fiber at z={z} relation", relation, "matches" if same else "differs", same)
    return report
