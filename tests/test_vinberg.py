import json
import os
import random
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from horocycle.action import (
    LieSubalgebra,
    PointNotOnVariety,
    RationalPoint,
    coinvariants,
    lr_action_horocycle,
    lr_action_mat2,
    moment_map,
    moment_table,
    stabilizer_subalgebra,
)
from horocycle.exactalg import (
    BOTTOM,
    MAT2_VARS,
    ExactPoly,
    compositions,
    horocycle_ring,
    mat2_ring,
    pw_level,
    sl2_ring,
)
from horocycle.lie import UEnvElement, casimir_sl2, sl2_desc, sl2_pair_desc, tensor
from horocycle import action, vinberg
from horocycle.linalg import IncrementalRank, char_poly, lincomb
from horocycle.weyl import WeylOp, apply_images, apply_op
from horocycle.vinberg import (
    _DY_MARGIN,
    _block_of,
    _dy_generators,
    _dy_ideal,
    _dy_kernel,
    _field_act,
    _mono_mul,
    _pbw_mul,
    _phi,
    _phi_terms,
    _push,
    _realize,
    _sl2_mul,
    _u_right,
    _window,
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
from moment_oracle import field_product
from test_caches import clear_all_caches


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


def test_dy_small_bidegrees():
    rep = verify_dy_relation(2)
    assert rep.passed
    by_name = {it.name: it for it in rep.items}
    assert by_name["bidegree (0,0): realization kernel = Casimir-difference ideal"].got == "0"
    two_zero = by_name["bidegree (2,0): realization kernel = Casimir-difference ideal"]
    assert two_zero.got == "1"  # the Casimir difference itself


UNITS = [tuple(int(i == j) for i in range(4)) for j in range(4)]
F0 = (0, 0, 0, 0)


def _f_shift(fe, elem):
    """x^fe times an element or a realized table, keyed (w, h) with h cone-normal.

    Multiplying by a monomial is injective on cone-normal monomials (the
    cone's ring is a domain), so this only re-keys: no two keys meet.
    """
    return {(w, _mono_mul(h, fe)): c for (w, h), c in elem.items()}


def _delta():
    """The PBW coefficients of Delta = Casimir(x)1 - 1(x)Casimir."""
    one = UEnvElement.one(sl2_desc())
    return (tensor(casimir_sl2(), one) - tensor(one, casimir_sl2())).terms


def _delta_times(fe):
    """Delta m_{x^fe}, keyed (pbw exp, monomial)."""
    out: dict = {}
    for ue, c in _delta().items():
        for k, c2 in _push(ue, fe).items():
            out[k] = out.get(k, 0) + c * c2
    return {k: v for k, v in out.items() if v}


def _cone_monomials(f_degree):
    return [fe for q in range(f_degree + 1) for fe in horocycle_ring().nf_monomials(q)]


def _dy_seeds(f_degree, u_degree):
    """The nonzero left multiples u_right(Delta m_f, u) for cone monomials f of degree
    <= f_degree and PBW monomials u of degree <= u_degree."""
    products = [_delta_times(fe) for fe in _cone_monomials(f_degree)]
    return [seed for base in products for ue in (c[:6] for c in compositions(u_degree, 7))
            if (seed := _u_right(base, ue))]


def test_dy_kernel_columns_are_shifts_of_the_reduced_table():
    f_exps = [fe for q in range(3) for fe in horocycle_ring().nf_monomials(q)]
    for ue in (c[:6] for c in compositions(2, 7)):
        table = _realize({(ue, F0): 1})
        for fe in f_exps:
            col = _realize({(ue, fe): 1})
            shifted = _f_shift(fe, table)
            assert shifted == col and list(shifted) == list(col), (ue, fe)


def test_dy_cone_tables_are_the_moment_map_reduced_on_the_cone():
    # the oracle: the product of the fields of Mat2 along u's PBW word,
    # normal-ordered in the Weyl algebra of Mat2, then each coordinate
    # monomial re-keyed to its cone normal form
    act = lr_action_mat2()
    for ue in (c[:6] for c in compositions(4, 7)):
        oracle: dict = {}
        for (xe, de), c in field_product(ue, act).terms.items():
            key = (de, _mono_mul(xe, F0))
            oracle[key] = oracle.get(key, 0) + c
        assert _realize({(ue, F0): 1}) == {k: c for k, c in oracle.items() if c}, ue


def test_dy_pair_products_are_the_products_of_their_factors():
    pair = sl2_pair_desc()

    def oracle(e1, e2):
        return (UEnvElement(pair, {e1: 1}) * UEnvElement(pair, {e2: 1})).terms

    low = [c[:6] for c in compositions(2, 7)]
    for e1 in low:
        for e2 in low:
            assert _pbw_mul(e1, e2) == oracle(e1, e2), (e1, e2)
    rng = random.Random(7)
    three = list(compositions(3, 6))
    for _ in range(60):
        e1, e2 = rng.choice(three), rng.choice(three)
        assert _pbw_mul(e1, e2) == oracle(e1, e2), (e1, e2)


def test_dy_shifts_commute_and_depend_on_the_cone_monomial():
    seeds = _dy_seeds(1, 1)
    assert len(seeds) > 20
    a, b, c, d = UNITS
    for v in seeds:
        for j in range(4):
            for k in range(j):
                jk = _f_shift(UNITS[j], _f_shift(UNITS[k], v))
                assert jk == _f_shift(UNITS[k], _f_shift(UNITS[j], v))
        # ad = bc on the cone, so the signature (seed, cone-normal g) fixes the vector
        assert _f_shift(a, _f_shift(d, v)) == _f_shift(b, _f_shift(c, v))


def test_dy_realization_commutes_with_function_shifts():
    rng = random.Random(12)
    seeds = _dy_seeds(1, 1)
    coords = [(ue, fe) for ue in (c[:6] for c in compositions(2, 7))
              for q in range(3) for fe in horocycle_ring().nf_monomials(q)]
    mixes = [{key: rng.choice((-3, -1, 1, 2, 5)) for key in rng.sample(coords, 4)} for _ in range(40)]
    assert any(_realize(v) for v in mixes)
    for v in seeds + mixes:
        realized = _realize(v)
        for unit in UNITS:
            assert _realize(_f_shift(unit, v)) == _f_shift(unit, realized)
    # the seeds lie in the kernel, so every shift of them does too
    assert not any(_realize(v) for v in seeds)


def test_dy_generators_have_the_stated_degrees():
    gens = _dy_generators(_delta())
    assert list(gens) == [F0] + UNITS
    assert max(sum(ue) for ue, _ in gens[F0]) == 2 and {fe for _, fe in gens[F0]} == {F0}
    for unit in UNITS:
        # D_j = Delta m_{x_j} - m_{x_j} Delta: the degree-2 parts cancel, the linear part stays
        assert max(sum(ue) for ue, _ in gens[unit]) == 1, unit
        assert {sum(fe) for _, fe in gens[unit]} == {1}
        assert not _realize(gens[unit])


def _act(i, f):
    """The field of basis element i on a function {monomial: coefficient}."""
    out = Counter()
    for fe, c in f.items():
        for h, c2 in _field_act(i, fe).items():
            out[h] += c * c2
    return out


def _commutator_with_delta(unit):
    """D_j = [Delta, m_{x_j}] for x_j = x^unit, keyed (pbw exp, monomial), without
    `_push`.  Delta has PBW degree 2 and no constant term, so each of its PBW
    monomials is X or XY with X <= Y in PBW order, and [X, m_x] = m_{Xx},
    [XY, m_x] = m_{Yx} X + m_{X(Yx)} + m_{Xx} Y."""
    u0, units = (0,) * 6, [tuple(int(i == j) for i in range(6)) for j in range(6)]
    x, out = {unit: 1}, Counter()
    for ue, c in _delta().items():
        factors = [i for i in range(6) for _ in range(ue[i])]
        if len(factors) == 1:
            terms = [(u0, _act(factors[0], x))]
        else:
            i, j = factors
            terms = [(units[i], _act(j, x)), (u0, _act(i, _act(j, x))), (units[j], _act(i, x))]
        for w, f in terms:
            for h, c2 in f.items():
                out[w, h] += c * c2
    return {k: v for k, v in out.items() if v}


def test_dy_generators_match_the_commutator_closed_form():
    gens = _dy_generators(_delta())
    for unit in UNITS:
        assert gens[unit] == _commutator_with_delta(unit), unit


def test_dy_tables_have_int_coefficients():
    """At bound 3 every coefficient of the sl2 and pair products, the field
    actions, the cone action's moment tables, the five generators and the
    ideal's seeds is an int, as the WeylOp, UEnvElement and ExactPoly
    constructors store it."""
    bound = 3
    sl2 = [c[:3] for c in compositions(bound, 4)]
    pair = [c[:6] for c in compositions(bound, 7)]
    gens = _dy_generators(_delta())
    tables = [_sl2_mul(e1, e2) for e1 in sl2 for e2 in sl2]
    tables += [_pbw_mul(e1, e2) for e1 in pair for e2 in pair]
    tables += [_field_act(j, fe) for j in range(6) for fe in _cone_monomials(bound)]
    tables += [moment_table(ue, lr_action_horocycle()) for ue in pair]
    tables += list(gens.values())
    tables += [_u_right(g, c[:6]) for g in gens.values() for c in compositions(bound + _DY_MARGIN - 2, 7)]
    bad = [(k, c) for table in tables for k, c in table.items() if type(c) is not int]
    assert bad == []


def test_dy_u_right_is_the_lincomb_of_the_rekeyed_products():
    """`_u_right` sums in one pass what `lincomb` sums over the re-keyed
    `_pbw_mul` tables, with the keys in the same first-sight order, for every
    generator and every u of degree <= 3."""
    for g in _dy_generators(_delta()).values():
        for ue in (c[:6] for c in compositions(3, 7)):
            want = lincomb((c, {(w2, h): c2 for w2, c2 in _pbw_mul(w, ue).items()}) for (w, h), c in g.items())
            assert list(_u_right(g, ue).items()) == list(want.items()), ue


def _signed_equal(x, y):
    """Whether x = y or x = -y, for nonzero sparse vectors."""
    return x == y or x == {k: -c for k, c in y.items()}


def _names_follow_phi(gens):
    """Whether phi(g_fe u) = +-g_{phi fe} phi(u) for every name fe and deg u <= 3."""
    return all(
        _signed_equal(_phi_terms(_u_right(g, ue)), _u_right(gens[_phi(fe)[0]], _phi(ue)[0]))
        for ue in (c[:6] for c in compositions(3, 7)) for fe, g in gens.items()
    )


def test_dy_seed_names_follow_phi():
    """The name phi(sig) that the closure deduplicates against names +- the
    phi image of the vector named sig, on both sides of dy: phi(g_fe u) =
    +-g_{phi fe} phi(u) and phi(mu(u)) = +-mu(phi(u)).  Generators listed
    under each other's names fail it."""
    gens = _dy_generators(_delta())
    assert _names_follow_phi(gens)
    a, b = UNITS[:2]
    assert not _names_follow_phi({**gens, a: gens[b], b: gens[a]})
    for ue in (c[:6] for c in compositions(3, 7)):
        assert _signed_equal(_phi_terms(_realize({(ue, F0): 1})), _realize({(_phi(ue)[0], F0): 1})), ue


def _key_space(blocks, keys):
    """{block: IncrementalRank} of each block's rows over keys (u, f), ordered
    by (-deg u, u, f), so that the spans and per-degree pivot counts of two
    closures with different numberings can be compared."""
    out = {}
    for block, elim in blocks.items():
        out[block] = IncrementalRank()
        for row in elim.pivots.values():
            out[block].add({(-sum(keys[i][0]),) + keys[i]: c for i, c in row.items()})
    return out


def _same_span(x: IncrementalRank, y: IncrementalRank) -> bool:
    return (set(x.pivots) == set(y.pivots) and not any(y.reduce(v) for v in x.pivots.values())
            and not any(x.reduce(v) for v in y.pivots.values()))


def _record(monkeypatch, run):
    """(run(), every IncrementalRank that run made in vinberg, the number of
    their add calls).  The recorded eliminators keep their rows after the
    closure has counted and dropped them."""
    made, calls = [], []

    class Recording(IncrementalRank):
        def __init__(self):
            super().__init__()
            made.append(self)

        def add(self, vec):
            calls.append(vec)
            return super().add(vec)

    monkeypatch.setattr(vinberg, "IncrementalRank", Recording)
    out = run()
    monkeypatch.undo()
    return out, made, len(calls)


def _ideal_blocks(monkeypatch, gens, build_bound, poly_bound):
    """({block: IncrementalRank}, keys, add calls, pivots) of `_dy_ideal`: each recorded
    eliminator with rows is mapped to the one block of its rows' keys, and the
    Counter the closure returns must count their pivots by top degree on the
    domain blocks and on no collar block."""
    (pivots, keys, _), made, inserts = _record(monkeypatch, lambda: _dy_ideal(gens, build_bound, poly_bound))
    blocks = {}
    for elim in (e for e in made if e.pivots):
        [block] = {_block_of(*keys[k]) for row in elim.pivots.values() for k in row}
        assert block not in blocks
        blocks[block] = elim
    counted = {block: elim for block, elim in blocks.items() if _in_domain(block)}
    assert pivots == Counter((block, sum(keys[k][0])) for block, elim in counted.items() for k in elim.pivots)
    return blocks, keys, inserts, pivots


@pytest.mark.parametrize("pbw_bound,poly_bound", [(3, 3), (2, 5)])
def test_dy_five_generators_span_the_ideal_of_every_left_multiple(monkeypatch, pbw_bound, poly_bound):
    """Per block, the closure of Delta u and D_j u spans what the closure of
    every Delta m_f u spans (f over all cone monomials of degree <= poly_bound),
    with the same pivots in key space."""
    build = pbw_bound + _DY_MARGIN
    new = _key_space(*_ideal_blocks(monkeypatch, _dy_generators(_delta()), build, poly_bound)[:2])
    every = {fe: _delta_times(fe) for fe in _cone_monomials(poly_bound)}
    old = _key_space(*_ideal_blocks(monkeypatch, every, build, poly_bound)[:2])
    assert {k for k, elim in new.items() if elim.pivots} == {k for k, elim in old.items() if elim.pivots}
    for key, elim in new.items():
        assert _same_span(elim, old[key]), key


def _in_domain(block):
    """Whether a block (q, (w0, w1)) lies in the fundamental domain w0 >= w1 >= 0
    of <W, phi> whose counts dy returns."""
    return block[1][0] >= block[1][1] >= 0


def _built(block, poly_bound):
    """Whether the closure builds block (q, (w0, w1)): the domain and the collar
    w0 >= w1 >= q - poly_bound below it, which shrinks to nothing at the top level."""
    return block[1][0] >= block[1][1] >= block[0] - poly_bound


def _mirror(block):
    q, (w0, w1) = block
    return q, (w1, w0)


def _orbit(w):
    """The weights g(w) for the 8 elements g of <W, phi>: W = {+-1}^2 changes
    the signs of w0 and w1, phi swaps them."""
    return {(s0 * x, s1 * y) for x, y in (w, w[::-1]) for s0 in (1, -1) for s1 in (1, -1)}


def _assert_orbit_invariant(counts):
    """Each count {((q, w), d): n} is the same at every weight of the orbit of w."""
    for ((q, w), d), n in counts.items():
        for image in _orbit(w):
            assert counts[(q, image), d] == n, (q, w, image, d)


def _assert_windows_unfold(domain, full, pbw_bound, poly_bound):
    """Each window's orbit-weighted sum of the domain counts is the full plane's sum."""
    for p in range(pbw_bound + 1):
        for q in range(poly_bound + 1):
            want = sum(n for ((fq, _), d), n in full.items() if fq <= q and d <= p)
            assert _window(domain, p, q) == want, (p, q)


def test_dy_window_weights_each_domain_block_by_its_orbit_size():
    for w0 in range(6):
        for w1 in range(w0 + 1):
            assert _window(Counter({((0, (w0, w1)), 0): 1}), 0, 0) == len(_orbit((w0, w1))), (w0, w1)
    # a count enters the windows at or above its function degree and enveloping degree
    dims = Counter({((2, (3, 1)), 1): 5})
    assert _window(dims, 0, 2) == _window(dims, 1, 1) == 0 and _window(dims, 1, 2) == 40


def test_phi_is_the_adjugate_substitution_and_an_involution():
    """phi on keys is f(a, b, c, d) -> f(d, -b, -c, a) on functions, the factor
    swap on PBW exponents, and the weight mirror on blocks; phi^2 = 1."""
    a, b, c, d = (ExactPoly.variable(MAT2_VARS, name) for name in MAT2_VARS)
    for e in compositions(4, 5):
        e = e[:4]
        assert _phi_terms({e: 1}) == (d ** e[0] * (-b) ** e[1] * (-c) ** e[2] * a ** e[3]).terms
    for ue in (comp[:6] for comp in compositions(2, 7)):
        for fe in horocycle_ring().nf_monomials(2):
            image, sign = _phi((ue, fe))
            assert image == (ue[3:] + ue[:3], _phi(fe)[0]) and sign == _phi(fe)[1]
            assert _phi(image) == ((ue, fe), sign)
            assert _block_of(*image) == _mirror(_block_of(ue, fe))


def _full_plane_ideal_span(gens, build_bound, poly_bound):
    """The ideal closure over every weight block, without the symmetry and over
    keys (u, f) ordered by (-deg u, u, f): the oracle of the domain closure
    in `_dy_ideal`.  {block: (IncrementalRank, rows inserted)}."""
    blocks: dict = {}
    work: list = []
    seen = set()

    def insert(key, sig, elem):
        elim, basis = blocks.get(key) or blocks.setdefault(key, (IncrementalRank(), []))
        if elim.add(elem):
            basis.append(elem)
            work.append((key, sig, elem))

    for fe, g in gens.items():
        for ue in (c[:6] for c in compositions(build_bound - 2, 7)):
            seed = _u_right(g, ue)
            if seed:
                insert(_block_of(*next(iter(seed))), ((ue, fe), F0),
                       {(-sum(u), u, f): c for (u, f), c in seed.items()})
    while work:
        (q, (wt0, wt1)), (name, g), vec = work.pop()
        if q >= poly_bound:
            continue
        for unit, (dw0, dw1) in zip(UNITS, vinberg._VAR_WEIGHTS):
            sig = (name, _mono_mul(g, unit))
            if sig not in seen:
                seen.add(sig)
                insert((q + 1, (wt0 + dw0, wt1 + dw1)), sig,
                       {(d, u, _mono_mul(f, unit)): c for (d, u, f), c in vec.items()})
    return blocks


# ideal-side inserts by (pbw_bound, poly_bound): the seeds in the built blocks
# plus the distinct shifts of rank-raising vectors into built blocks and, in a
# diagonal block, the phi images of those whose name phi(sig) is not inserted yet
IDEAL_INSERTS = {(3, 3): 583, (2, 5): 561, (4, 2): 908, (4, 4): 4080}


@pytest.mark.parametrize("pbw_bound,poly_bound", list(IDEAL_INSERTS))
def test_dy_half_plane_ideal_is_the_full_plane_closure(monkeypatch, pbw_bound, poly_bound):
    """Every block the closure builds, the domain w0 >= w1 >= 0 and its
    collar, has the oracle's pivots and span in key space, and the closure's
    counts of pivots by top degree are the oracle's on the domain.  The
    oracle's counts are invariant under <W, phi>, and phi maps each block's
    basis into the span of its mirror block, so every window's orbit-weighted
    sum of the domain counts is the full plane's."""
    gens = _dy_generators(_delta())
    build = pbw_bound + _DY_MARGIN
    blocks, keys, inserts, pivots = _ideal_blocks(monkeypatch, gens, build, poly_bound)
    built = _key_space(blocks, keys)
    full = _full_plane_ideal_span(gens, build, poly_bound)
    assert set(built) == {k for k, (_, basis) in full.items() if basis and _built(k, poly_bound)}
    for key, elim in built.items():
        assert _same_span(elim, full[key][0]), key
    for key, (elim, basis) in full.items():
        mirror = full[_mirror(key)][0]
        images = ({(d,) + image: s * c for (d, *k), c in v.items() for image, s in [_phi(tuple(k))]} for v in basis)
        assert not any(mirror.reduce(v) for v in images), key
    # an oracle pivot (-deg u, u, f) has its row's top enveloping degree
    every = Counter((key, -k[0]) for key, (elim, _) in full.items() for k in elim.pivots)
    _assert_orbit_invariant(every)
    assert pivots == Counter({(key, d): n for (key, d), n in every.items() if _in_domain(key)})
    _assert_windows_unfold(pivots, every, build, poly_bound)
    assert inserts == IDEAL_INSERTS[pbw_bound, poly_bound]


def _every_column_dims(pbw_bound, poly_bound):
    """The kernel side's {(block, d): columns of degree d minus the rank they
    add} with every column (u, f) of every block realized and inserted."""
    blocks: dict = {}
    for ue in (c[:6] for c in compositions(pbw_bound, 7)):
        for fe in _cone_monomials(poly_bound):
            blocks.setdefault(_block_of(ue, fe), []).append((ue, fe))
    dims: Counter = Counter()
    for key, members in blocks.items():
        elim = IncrementalRank()
        for ue, fe in sorted(members, key=lambda m: (sum(m[0]), m[0], m[1])):
            dims[key, sum(ue)] += not elim.add(_realize({(ue, fe): 1}))
    return dims


# kernel-side inserts by (pbw_bound, poly_bound): the unit columns of the built
# blocks plus the distinct shifts of rank-raising columns into built blocks
KERNEL_INSERTS = {(3, 3): 410, (3, 4): 848, (2, 5): 427, (4, 2): 646}


@pytest.mark.parametrize("pbw_bound,poly_bound", list(KERNEL_INSERTS))
def test_dy_kernel_profile_of_rank_raising_shifts_is_that_of_every_column(monkeypatch, pbw_bound, poly_bound):
    """The closure's increments equal the every-column ones on the domain
    w0 >= w1 >= 0, the every-column increments are invariant under <W, phi>,
    so each window's orbit-weighted sum is the full plane's, and the insert
    count shows that no column outside the rank-raising shifts is inserted:
    the kernel side needs no phi images."""
    dims, _, inserts = _record(monkeypatch, lambda: _dy_kernel(pbw_bound, poly_bound))
    every = _every_column_dims(pbw_bound, poly_bound)
    _assert_orbit_invariant(every)
    assert dims == Counter({(block, d): n for (block, d), n in every.items() if _in_domain(block)})
    assert inserts == KERNEL_INSERTS[pbw_bound, poly_bound]
    assert any(n > 0 for n in dims.values())
    _assert_windows_unfold(dims, every, pbw_bound, poly_bound)


def test_dy_kernel_closure_builds_a_collar_of_parents_below_the_domain(monkeypatch):
    """At (3, 3) the kernel closure holds rows in exactly the blocks
    w0 >= w1 >= q - 3 that hold them in the full plane, collar blocks w1 < 0
    among them, and counts only the domain w0 >= w1 >= 0: a shift moves w1 by
    +-1, so a domain block's parents reach one step further below w1 = 0 per
    level down, and without them its span falls short.  The ideal side's
    blocks are checked against its oracle above."""
    pbw_bound, poly_bound = 3, 3
    cols = [(c[:6], fe) for c in compositions(pbw_bound, 7) for fe in _cone_monomials(poly_bound)]
    full = {_block_of(*col) for col in cols if _realize({col: 1})}
    closures, closure = [], vinberg._shift_closure
    monkeypatch.setattr(vinberg, "_shift_closure", lambda *args: closures.append(closure(*args)) or closures[-1])
    dims, made, _ = _record(monkeypatch, lambda: _dy_kernel(pbw_bound, poly_bound))
    [(_, keys, _)] = closures
    rows = set()
    for elim in (e for e in made if e.pivots):
        # a key (de, h) is the term m_h d^de, of function degree deg h - deg de
        blocks = set()
        for k in (k for row in elim.pivots.values() for k in row):
            de, h = keys[k]
            (w0, w1), (d0, d1) = (vinberg._weight(e, vinberg._VAR_WEIGHTS) for e in (h, de))
            blocks.add((sum(h) - sum(de), (w0 - d0, w1 - d1)))
        [block] = blocks
        rows.add(block)
    assert rows == {block for block in full if _built(block, poly_bound)}
    assert any(not _in_domain(block) for block in rows)
    assert all(_in_domain(block) for block, _ in dims)


def test_dy_ideal_loses_a_window_without_its_phi_images(monkeypatch):
    """The ideal side's phi images complete its counts: without them window
    (2, 2) falls from 127 to 122, below the kernel's, and the report fails."""
    gens = _dy_generators(_delta())
    window = _window(_dy_ideal(gens, 2 + _DY_MARGIN, 2)[0], 2, 2)
    closure = vinberg._shift_closure
    monkeypatch.setattr(vinberg, "_shift_closure", lambda *args: closure(*args[:4]))  # no mirror
    assert (window, _window(_dy_ideal(gens, 2 + _DY_MARGIN, 2)[0], 2, 2)) == (127, 122)
    assert not verify_dy_relation(2).passed


def test_dy_rejects_small_bound():
    with pytest.raises(ValueError):
        verify_dy_relation(1)


@pytest.mark.parametrize("pbw_bound", [2, 3, 4])
def test_dy_low_function_degree_windows_match_the_golden(pbw_bound):
    # at function degree 0 every D_j seed (function degree 1) lies above the
    # bound; the windows are those of the bound-4 report, whose q = 0 column
    # reads C(p + 4, 6) for p >= 2; each window is compared as verify_dy_relation does
    golden = json.loads((Path(__file__).parent / "golden" / "verify_dy.json").read_text())
    expected = {it["name"]: it["got"] for it in golden["checks"][0]["items"] if it["name"].startswith("bidegree")}
    gens = _dy_generators(_delta())
    for poly_bound in (0, 1):
        kernel = _dy_kernel(pbw_bound, poly_bound)
        ideal = _dy_ideal(gens, pbw_bound + _DY_MARGIN, poly_bound)[0]
        windows = {}
        for p in range(pbw_bound + 1):
            for q in range(poly_bound + 1):
                k, s = _window(kernel, p, q), _window(ideal, p, q)
                assert k == s, (p, q)
                windows[f"bidegree ({p},{q}): realization kernel = Casimir-difference ideal"] = str(k)
        assert len(windows) == (pbw_bound + 1) * (poly_bound + 1)
        assert windows == {name: expected[name] for name in windows}
    assert windows[f"bidegree ({pbw_bound},0): realization kernel = Casimir-difference ideal"] == str(
        comb(pbw_bound + 4, 6)
    )


def test_empty_reports_do_not_pass():
    for report in (
        asymp_diagram_check(1, []),
        parabolic_rank1_check(1, []),
    ):
        assert report.items == [] and not report.passed


def test_pw_vs_derivations_check_rejects_bounds_below_one():
    # at bound 0 every sample's action level is read on the constants alone
    for bound in (-1, 0):
        with pytest.raises(ValueError):
            pw_vs_derivations_check(bound=bound)


def test_pw_filtration_samples():
    samples = default_pw_samples()
    assert len(samples) >= 20
    rep = pw_vs_derivations_check(4)
    assert rep.passed and len(rep.items) == len(samples)


def _image_by_product(op, e):
    """op(x^e) read off the normal-ordered product op * x^e: its D-free terms."""
    product = op * ExactPoly.monomial(MAT2_VARS, e)
    return ExactPoly(MAT2_VARS, {xe: c for (xe, de), c in product.terms.items() if not any(de)})


def test_fused_action_levels_match_the_operator_product_oracle():
    # each sample operator on every normal-form monomial of degree <= 6: the
    # images `apply_images` yields without a relation are op(x^e), and on
    # O(SL2) their levels are pw_level of op(x^e), as `pwfilt` reports them
    ring, act = sl2_ring(), lr_action_mat2()
    monos = [(deg, e) for deg in range(7) for e in ring.nf_monomials(deg)]
    exps = [e for _, e in monos]
    report = pw_vs_derivations_check(6)
    samples = default_pw_samples()
    assert len(report.items) == len(samples)
    for (name, pairs), item in zip(samples, report.items):
        op = sum((WeylOp.from_poly(f) * moment_map(u, act) for f, u in pairs), WeylOp.zero(MAT2_VARS))
        raw = list(apply_images(op, exps, mat2_ring()))
        fused = list(apply_images(op, exps, ring))
        assert len(raw) == len(fused) == len(exps)
        action_level = BOTTOM
        for (deg, e), image, nf_image in zip(monos, raw, fused):
            direct = _image_by_product(op, e)
            assert apply_op(op, ExactPoly.monomial(MAT2_VARS, e)) == direct == ExactPoly(MAT2_VARS, image), (name, e)
            level = max((sum(k) for k, c in nf_image.items() if c), default=BOTTOM)
            assert level == pw_level(direct, ring), (name, e)
            assert ExactPoly(MAT2_VARS, nf_image) == ring.normal_form(direct), (name, e)
            action_level = max(action_level, level - deg)
        assert item.got == str(action_level), name


def test_vfilt_small():
    rep = vfiltration_check(6)
    assert rep.passed
    item = next(it for it in rep.items if it.name == "[1 * a b] / det^1")
    assert item.expected == "1" and item.got == "1"
    assert any(it.name == "det/det" for it in rep.items)


def test_vfilt_rejects_negative():
    with pytest.raises(ValueError):
        vfiltration_check(-1)


def test_asymp_diagram_small(monkeypatch):
    # one stabilizer per point and one quotient per (module, point)
    calls = Counter()

    def counted(name):
        def call(*args, original=getattr(vinberg, name), **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in ("stabilizer_subalgebra", "coinvariants"):
        monkeypatch.setattr(vinberg, name, counted(name))
    rep = asymp_diagram_check(rep_bound=1)
    assert rep.passed
    det1, det0 = default_sample_points()
    assert len(det1) == 3 and len(det0) == 5
    assert calls == {"stabilizer_subalgebra": 8, "coinvariants": 4 * 8} and len(rep.items) == 4 * 8


def test_asymp_diagram_rejects_off_fiber_points():
    with pytest.raises(PointNotOnVariety):
        asymp_diagram_check(rep_bound=1, points=[RationalPoint((1, 0, 0, 2))])


def test_asymp_diagram_rejects_rep_bounds_below_one():
    # below rep bound 1 only V0 (x) V0* is left, whose coinvariants are 1 everywhere
    for rep_bound in (-1, 0):
        with pytest.raises(ValueError, match="rep bound"):
            asymp_diagram_check(rep_bound)


def test_asymp_diagram_fails_when_the_right_factor_acts_by_zero(monkeypatch):
    # sl2 (+) 0 is still an action, but the stabilizer of a point then holds the
    # whole right factor, which kills V_k* unless k = 0: the items V_m (x) V_m*,
    # m > 0, read 0, and V_m (x) V0* reads the nonzero coinvariants of V_m
    # under the stabilizer's left part
    builtin = action._builtin_action

    def left_only(ring):
        act = builtin(ring)
        zero = WeylOp.zero(ring.variables)
        return action.InfinitesimalAction(act.desc, ring, act.fields[:3] + (zero,) * 3)

    clear_all_caches()
    monkeypatch.setattr(action, "_builtin_action", left_only)
    try:
        rep = asymp_diagram_check(2)
    finally:
        monkeypatch.undo()
        clear_all_caches()
    failed = {it.name.split(" at ")[0] for it in rep.items if not it.passed}
    assert failed == {"V1 (x) V0*", "V2 (x) V0*", "V1 (x) V1*", "V2 (x) V2*"}
    assert len(rep.items) == 72 and sum(not it.passed for it in rep.items) == 32


def test_parabolic_small():
    rep = parabolic_rank1_check(rep_bound=1)
    assert rep.passed


def _count_coinvariants(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return coinvariants(*args, **kwargs)

    monkeypatch.setattr(vinberg, "coinvariants", counted)
    return calls


def test_parabolic_computes_the_direct_side_once_per_stabilizer_span(monkeypatch):
    # the three default points share one stabilizer: 16 staged and 16 direct quotients
    calls = _count_coinvariants(monkeypatch)
    report = parabolic_rank1_check(3)
    assert len(calls) == 32
    assert report.passed and len(report.items) == 48


def test_parabolic_recomputes_the_direct_side_for_another_stabilizer_span(monkeypatch):
    # the second point gets a smaller subalgebra (the nilradicals, without H1 + H2)
    # and the third the same span as the true stabilizer, from rows of other signs
    pair = sl2_pair_desc()
    nil = LieSubalgebra(pair, ({2: 1}, {3: 1}))
    same = LieSubalgebra(pair, ({3: -1}, {1: 2, 2: -1, 4: 2}, {2: -1}))
    assert any(row[k] < 0 for k, row in same.span.pivots.items())
    stabilizers = iter([None, nil, same])

    def patched(act, p):
        return next(stabilizers) or stabilizer_subalgebra(act, p)

    monkeypatch.setattr(vinberg, "stabilizer_subalgebra", patched)
    calls = _count_coinvariants(monkeypatch)
    report = parabolic_rank1_check(3)
    assert len(calls) == 48 and sum(sub is nil for sub in calls) == 16
    cartan_left = LieSubalgebra(pair, ({1: 1},))
    items = [it for it in report.items if " at ('2', " in it.name]
    assert len(items) == 16
    for it, (_, _, _, module) in zip(items, vinberg._rep_family(3)):
        proj, (cartan,) = coinvariants(module, nil, commuting=cartan_left)
        assert it.expected == f"dim {len(proj)}, cartan {char_poly(cartan)}"
    assert not all(it.passed for it in items)
    assert all(it.passed for it in report.items if it not in items)


def test_parabolic_rejects_off_fiber_points():
    with pytest.raises(ValueError, match="torus fiber"):
        parabolic_rank1_check(rep_bound=1, points=[RationalPoint((1, 1, 0, 0))])


def test_parabolic_rejects_rep_bounds_below_one():
    for rep_bound in (-1, 0):
        with pytest.raises(ValueError, match="rep bound"):
            parabolic_rank1_check(rep_bound)


def test_cone_monomial_normal_form_matches_the_quotient_ring():
    # the closed form a^t d^t -> b^t c^t of a monomial's normal form on the rank-one cone,
    # against the memoized rewrite of QuotientRing.normal_form (every exponent of degree <= 8)
    # and against the cached tables of dy's smash-product arithmetic that read it
    def closed(e):
        t = min(e[0], e[3])
        return (e[0] - t, e[1] + t, e[2] + t, e[3] - t)

    ring = horocycle_ring()
    for deg in range(9):
        for e in compositions(deg, 4):
            nf = ring.normal_form(ExactPoly.monomial(MAT2_VARS, e))
            assert nf.terms == {closed(e): 1}, e
    monos = [e for deg in range(5) for e in compositions(deg, 4)]
    for e1 in monos:
        for e2 in monos:
            assert _mono_mul(e1, e2) == closed(tuple(x + y for x, y in zip(e1, e2))), (e1, e2)
    for fe in monos:
        if sum(fe) > 3:
            continue
        for j, theta in enumerate(lr_action_mat2().fields):
            expected = Counter()
            for e, c in apply_op(theta, ExactPoly.monomial(MAT2_VARS, fe)).terms.items():
                expected[closed(e)] += c
            assert _field_act(j, fe) == {k: c for k, c in expected.items() if c}, (j, fe)


@pytest.fixture
def started(monkeypatch):
    """{pid: exit code, None until reaped} of the children that os.fork makes
    while a test runs; none may be left after it."""
    children = {}
    fork, waitpid = os.fork, os.waitpid

    def counting_fork():
        pid = fork()
        if pid:
            children[pid] = None
        return pid

    def recording_waitpid(pid, options):
        reaped, status = waitpid(pid, options)
        if reaped in children:
            children[reaped] = os.waitstatus_to_exitcode(status)
        return reaped, status

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    yield children
    monkeypatch.undo()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_dy_runs_the_kernel_in_one_worker_that_ends_with_the_call(started):
    assert verify_dy_relation(2).passed
    assert list(started.values()) == [0]


def test_dy_error_on_the_ideal_side_reaches_the_caller_and_ends_the_worker(started, monkeypatch):
    def fail(*args):
        raise RuntimeError("ideal side")

    monkeypatch.setattr(vinberg, "_dy_ideal", fail)
    with pytest.raises(RuntimeError, match="ideal side"):
        verify_dy_relation(2)
    assert len(started) == 1 and None not in started.values()


def test_dy_error_in_the_worker_reaches_the_caller(started, monkeypatch):
    def fail(*args):
        raise ZeroDivisionError("kernel side")

    monkeypatch.setattr(vinberg, "_dy_kernel", fail)
    with pytest.raises(ZeroDivisionError, match="kernel side") as raised:
        verify_dy_relation(2)
    assert "in _dy_kernel_worker" in str(raised.value.__cause__)  # the worker's traceback
    assert list(started.values()) == [1]


def test_dy_worker_that_dies_without_a_reply_fails_the_call(started, monkeypatch):
    monkeypatch.setattr(vinberg, "_dy_kernel", lambda *args: os._exit(3))
    with pytest.raises(RuntimeError, match="status 3"):
        verify_dy_relation(2)
    assert list(started.values()) == [3]


def test_dy_leaves_no_file_descriptor_open(started):
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("no /proc/self/fd to count open descriptors")
    before = len(list(fds.iterdir()))
    assert verify_dy_relation(2).passed
    assert len(list(fds.iterdir())) == before


def test_dy_cli_does_not_import_multiprocessing():
    code = (
        "import sys\n"
        "from horocycle.cli import main\n"
        "try:\n"
        "    main(['verify', 'dy', '--bound', '2', '--quiet'], standalone_mode=False)\n"
        "finally:\n"
        "    print('multiprocessing' in sys.modules)\n"
    )
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_dy_runs_in_process_without_fork(started, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert verify_dy_relation(2).passed
    assert started == {}
