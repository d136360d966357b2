import random
from fractions import Fraction

import pytest

from horocycle.action import RationalPoint
from horocycle.exactalg import compositions
from horocycle.lie import UEnvElement, casimir_sl2, sl2_desc, tensor
from horocycle import vinberg
from horocycle.linalg import IncrementalRank
from horocycle.vinberg import (
    _DY_MARGIN,
    _SmashContext,
    _dy_generators,
    _dy_ideal_span,
    _dy_kernel_profile,
    _integral,
    asymp_diagram_check,
    default_pw_samples,
    default_sample_points,
    parabolic_rank1_check,
    pw_vs_derivations_check,
    verify_dsl2_presentation,
    verify_dy_relation,
    verify_sl2_identities,
    vfiltration_check,
)


def test_identity_suite_passes():
    rep = verify_sl2_identities()
    assert rep.passed
    names = [it.name for it in rep.items]
    assert any("Casimir" in n for n in names)
    assert sum(1 for n in names if n.startswith("bracket")) == 15
    kernel_item = next(it for it in rep.items if "kernel dimension" in it.name)
    assert kernel_item.got == "6"


def test_presentation_suite_passes():
    rep = verify_dsl2_presentation()
    assert rep.passed
    assert len(rep.items) == 4  # three relations plus the vacuous one


def test_dy_coefficients_are_certified_integral():
    assert _integral({(1, 0): Fraction(-6, 2), (0, 1): 4}) == {(1, 0): -3, (0, 1): 4}
    with pytest.raises(ValueError):
        _integral({(0, 1): 2, (1, 0): Fraction(1, 2)})


def test_dy_small_bidegrees():
    rep = verify_dy_relation(2, 2)
    assert rep.passed
    by_name = {it.name: it for it in rep.items}
    assert by_name["bidegree (0,0): realization kernel = Casimir-difference ideal"].got == "0"
    two_zero = by_name["bidegree (2,0): realization kernel = Casimir-difference ideal"]
    assert two_zero.got == "1"  # the Casimir difference itself


UNITS = [tuple(int(i == j) for i in range(4)) for j in range(4)]
F0 = (0, 0, 0, 0)


def _f_shift(ctx, fe, elem):
    """x^fe times an element or a realized table, keyed (w, h) with h cone-normal.

    Multiplying by a monomial is injective on cone-normal monomials (the
    cone's ring is a domain), so this only re-keys: no two keys meet.
    """
    return {(w, ctx.mono_mul(h, fe)): c for (w, h), c in elem.items()}


def _delta():
    """The PBW coefficients of Delta = Casimir(x)1 - 1(x)Casimir."""
    one = UEnvElement.one(sl2_desc())
    return _integral((tensor(casimir_sl2(), one) - tensor(one, casimir_sl2())).terms)


def _dy_seeds(ctx, f_degree, u_degree):
    """The left multiples u_right(Delta m_f, u) for cone monomials f of degree <= f_degree
    and PBW monomials u of degree <= u_degree; with u_degree 0, the generators Delta m_f
    of the ideal that `_dy_generators` generates with five."""
    delta = _delta()
    seeds = []
    for q in range(f_degree + 1):
        for fe in ctx.ry.nf_monomials(q):
            base: dict = {}
            for ue, c in delta.items():
                for k, c2 in ctx.push(ue, fe).items():
                    base[k] = base.get(k, 0) + c * c2
            base = {k: v for k, v in base.items() if v}
            for ue in (c[:6] for c in compositions(u_degree, 7)):
                seed = ctx.u_right(base, ue)
                if seed:
                    seeds.append(seed)
    return seeds


def test_dy_kernel_columns_are_shifts_of_the_reduced_table():
    ctx = _SmashContext()
    f_exps = [fe for q in range(3) for fe in ctx.ry.nf_monomials(q)]
    for ue in (c[:6] for c in compositions(2, 7)):
        table = ctx.realize({(ue, F0): 1})
        for fe in f_exps:
            col = ctx.realize({(ue, fe): 1})
            shifted = _f_shift(ctx, fe, table)
            assert shifted == col and list(shifted) == list(col), (ue, fe)


def test_dy_shifts_commute_and_depend_on_the_cone_monomial():
    ctx = _SmashContext()
    seeds = _dy_seeds(ctx, 1, 1)
    assert len(seeds) > 20
    a, b, c, d = UNITS
    for v in seeds:
        for j in range(4):
            for k in range(j):
                jk = _f_shift(ctx, UNITS[j], _f_shift(ctx, UNITS[k], v))
                assert jk == _f_shift(ctx, UNITS[k], _f_shift(ctx, UNITS[j], v))
        # ad = bc on the cone, so the signature (seed, cone-normal g) fixes the vector
        assert _f_shift(ctx, a, _f_shift(ctx, d, v)) == _f_shift(ctx, b, _f_shift(ctx, c, v))


def test_dy_realization_commutes_with_function_shifts():
    ctx = _SmashContext()
    rng = random.Random(12)
    seeds = _dy_seeds(ctx, 1, 1)
    coords = [(ue, fe) for ue in (c[:6] for c in compositions(2, 7))
              for q in range(3) for fe in ctx.ry.nf_monomials(q)]
    mixes = [{key: rng.choice((-3, -1, 1, 2, 5)) for key in rng.sample(coords, 4)} for _ in range(40)]
    assert any(ctx.realize(v) for v in mixes)
    for v in seeds + mixes:
        realized = ctx.realize(v)
        for unit in UNITS:
            assert ctx.realize(_f_shift(ctx, unit, v)) == _f_shift(ctx, unit, realized)
    # the seeds lie in the kernel, so every shift of them does too
    assert not any(ctx.realize(v) for v in seeds)


def test_dy_generators_have_the_stated_degrees():
    ctx = _SmashContext()
    gens = _dy_generators(ctx, _delta())
    assert len(gens) == 5
    assert max(sum(ue) for ue, _ in gens[0]) == 2 and {fe for _, fe in gens[0]} == {F0}
    for unit, gen in zip(UNITS, gens[1:]):
        # D_j = Delta m_{x_j} - m_{x_j} Delta: the degree-2 parts cancel, the linear part stays
        assert max(sum(ue) for ue, _ in gen) == 1, unit
        assert {sum(fe) for _, fe in gen} == {1}
        assert not ctx.realize(gen)


@pytest.mark.parametrize("pbw_bound,poly_bound", [(3, 3), (2, 5)])
def test_dy_five_generators_span_the_ideal_of_every_left_multiple(pbw_bound, poly_bound):
    """Per block, the closure of Delta u and D_j u spans what the closure of
    every Delta m_f u spans (f over all cone monomials of degree <= poly_bound)."""
    ctx = _SmashContext()
    build = pbw_bound + _DY_MARGIN
    new, coords = _dy_ideal_span(ctx, _dy_generators(ctx, _delta()), build, poly_bound)
    old, old_coords = _dy_ideal_span(ctx, _dy_seeds(ctx, poly_bound, 0), build, poly_bound)
    assert coords == old_coords
    assert {k for k, (_, basis) in new.items() if basis} == {k for k, (_, basis) in old.items() if basis}
    for key, (elim, basis) in new.items():
        other, other_basis = old[key]
        assert len(elim.pivots) == len(other.pivots), key
        assert not any(other.reduce(v) for v in basis), key
        assert not any(elim.reduce(v) for v in other_basis), key


def _every_column_profile(ctx, pbw_bound, poly_bound):
    """The kernel-side profile with every column (u, f) realized and inserted."""
    blocks: dict = {}
    for ue in (c[:6] for c in compositions(pbw_bound, 7)):
        for q in range(poly_bound + 1):
            for fe in ctx.ry.nf_monomials(q):
                blocks.setdefault(ctx.block_of(ue, fe), []).append((ue, fe))
    profile = {}
    for key, members in blocks.items():
        elim = IncrementalRank()
        prof = profile[key] = {}
        for count, (ue, fe) in enumerate(sorted(members, key=lambda m: (sum(m[0]), m[0], m[1])), 1):
            elim.add(ctx.realize({(ue, fe): 1}))
            prof[sum(ue)] = (count, len(elim.pivots))
    return profile


# kernel-side inserts by (pbw_bound, poly_bound): the unit columns plus the distinct
# shifts of rank-raising columns, counted when the shifts were first pruned
KERNEL_INSERTS = {(3, 3): 1771, (3, 4): 2868, (2, 5): 1674, (4, 2): 2240}


@pytest.mark.parametrize("pbw_bound,poly_bound", list(KERNEL_INSERTS))
def test_dy_kernel_profile_of_rank_raising_shifts_is_that_of_every_column(monkeypatch, pbw_bound, poly_bound):
    """The pruned profile equals the every-column one, and the insert count
    shows that no column outside the rank-raising shifts is inserted."""
    calls = []

    class Counting(IncrementalRank):
        def add(self, vec):
            calls.append(vec)
            return super().add(vec)

    ctx = _SmashContext()
    monkeypatch.setattr(vinberg, "IncrementalRank", Counting)
    profile = _dy_kernel_profile(ctx, pbw_bound, poly_bound)
    monkeypatch.undo()
    assert profile == _every_column_profile(ctx, pbw_bound, poly_bound)
    assert len(calls) == KERNEL_INSERTS[pbw_bound, poly_bound]
    assert any(count > rank for prof in profile.values() for count, rank in prof.values())


def test_dy_rejects_small_bound():
    with pytest.raises(ValueError):
        verify_dy_relation(1, 1)


def test_pw_filtration_samples():
    samples = default_pw_samples()
    assert len(samples) >= 20
    rep = pw_vs_derivations_check(samples=samples[:6], bound=4)
    assert rep.passed


def test_vfilt_small():
    rep = vfiltration_check(6)
    assert rep.passed
    item = next(it for it in rep.items if it.name == "[1 * a b] / det^1")
    assert item.expected == "1" and item.got == "1"
    assert any(it.name == "det/det" for it in rep.items)


def test_vfilt_rejects_negative():
    with pytest.raises(ValueError):
        vfiltration_check(-1)


def test_asymp_diagram_small():
    rep = asymp_diagram_check(rep_bound=1)
    assert rep.passed
    det1, det0 = default_sample_points()
    assert len(det1) == 3 and len(det0) == 5


def test_asymp_diagram_rejects_off_fiber_points():
    with pytest.raises(ValueError):
        asymp_diagram_check(rep_bound=0, points=[RationalPoint((1, 0, 0, 2))])


def test_parabolic_small():
    rep = parabolic_rank1_check(rep_bound=1)
    assert rep.passed


def test_parabolic_rejects_off_fiber_points():
    with pytest.raises(ValueError):
        parabolic_rank1_check(rep_bound=0, points=[RationalPoint((1, 1, 0, 0))])
