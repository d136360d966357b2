"""Verification suites for the rank-one case: operator identity tables, algebra
presentations, filtration comparisons and fiberwise localization checks.

Every suite returns a CheckReport whose items record an expected value, a
computed value and an exact pass flag; nothing is compared up to tolerance.
"""

from __future__ import annotations

import contextlib
import functools
import marshal
import os
import signal
from collections import Counter
from fractions import Fraction

from .action import (
    InfinitesimalAction,
    RationalPoint,
    LieSubalgebra,
    coinvariants,
    level_set_action,
    lr_action_horocycle,
    lr_action_mat2,
    moment_map,
    moment_table,
    stabilizer_subalgebra,
)
from .exactalg import (
    BOTTOM,
    ExactPoly,
    MAT2_VARS,
    compositions,
    det_poly,
    horocycle_ring,
    mat2_ring,
    poly_to_text,
    pw_level,
    sl2_ring,
    vanishing_order,
)
from .lie import (
    UEnvElement,
    casimir_sl2,
    sl2_desc,
    sl2_pair_desc,
    tensor,
    tensor_dual_rep,
)
from .linalg import IncrementalRank, char_poly, lincomb, quotient, transpose
from .reports import CheckReport
from .weyl import WeylOp, apply_images, apply_op, euler_op, is_relative, op_to_text, relative_fields

V = MAT2_VARS


def casimir_operator_identity_rhs() -> WeylOp:
    """Euler-squared minus four times det times the mixed second-order term.

    The scalar four is forced: expanding the normal-ordered left side gives
    coefficient four on det*(Da Dd - Db Dc) for the spin normalisation whose
    eigenvalue on the (m+1)-dimensional representation is (m+1)^2.
    """
    Eu = euler_op(V)
    Da, Db, Dc, Dd = (WeylOp.partial(V, name) for name in V)
    return Eu * Eu - WeylOp.from_poly(det_poly()) * (Da * Dd - Db * Dc) * 4


def _cross_relations(mu: dict[str, WeylOp]) -> list[tuple[str, str, WeylOp]]:
    """(X, text, rhs) for X = E, F, H, with det * mu(1(x)X) = rhs in the left-factor fields."""
    a, b, c, d = (ExactPoly.variable(V, name) for name in V)
    P = WeylOp.from_poly
    e1, f1, h1 = mu["E1"], mu["F1"], mu["H1"]
    return [
        ("E", "-a^2 mu(E(x)1) + c^2 mu(F(x)1) + ac mu(H(x)1)",
         P(-(a * a)) * e1 + P(c * c) * f1 + P(a * c) * h1),
        ("F", "b^2 mu(E(x)1) - d^2 mu(F(x)1) - bd mu(H(x)1)",
         P(b * b) * e1 - P(d * d) * f1 - P(b * d) * h1),
        ("H", "2ab mu(E(x)1) - 2cd mu(F(x)1) - (ad+bc) mu(H(x)1)",
         P(2 * a * b) * e1 - P(2 * c * d) * f1 - P(a * d + b * c) * h1),
    ]


def verify_sl2_identities() -> CheckReport:
    """The operator identity table: cross relations, Casimir images, bracket
    compatibility and the span of relative fields with linear coefficients."""
    act = lr_action_mat2()
    mu = dict(zip(act.desc.basis, act.fields))
    detw = WeylOp.from_poly(det_poly())
    d2 = sl2_desc()
    cas = casimir_sl2()
    one = UEnvElement.one(d2)
    mu_cas_left = moment_map(tensor(cas, one), act)
    mu_cas_right = moment_map(tensor(one, cas), act)

    report = CheckReport(check="identities", parameters={})
    identities = [
        (f"det * mu(1(x){x}) = {text}", detw * mu[x + "2"], rhs) for x, text, rhs in _cross_relations(mu)
    ] + [
        ("mu(Casimir(x)1) = mu(1(x)Casimir)", mu_cas_left, mu_cas_right),
        (
            "mu(Casimir(x)1) = Eu^2 - 4 det (Da Dd - Db Dc)",
            mu_cas_left,
            casimir_operator_identity_rhs(),
        ),
        ("mu(1) = 1", moment_map(tensor(one, one), act), WeylOp.one(V)),
    ]
    for name, lhs, rhs in identities:
        diff = lhs - rhs
        report.add(name, "0", op_to_text(diff), diff.is_zero())

    pair = sl2_pair_desc()
    for i, j, diff in act.bracket_residuals():
        name = f"bracket [{pair.basis[i]}, {pair.basis[j]}]"
        report.add(name, "0", op_to_text(diff), diff.is_zero())

    # linear-coefficient relative fields: a 6-dimensional space spanned by the table
    dim, contains_all, spans = _linear_relative_field_span(act)
    report.add("relative fields with linear coefficients: kernel dimension", "6", str(dim), dim == 6)
    report.add(
        "the six standard fields lie in and span that kernel",
        "contained and spanning",
        f"contained={contains_all}, rank={spans}",
        contains_all and spans == 6,
    )
    for i, name in enumerate(pair.basis):
        ok = is_relative(act.fields[i], det_poly())
        report.add(f"mu({name}) kills det", "True", str(ok), ok)
    return report


def _linear_relative_field_span(act: InfinitesimalAction):
    """Dimension of the relative fields with linear coefficients, whether the
    action's fields are such fields, and the rank of their span."""
    dim = len(relative_fields(mat2_ring(), det_poly(), compositions(1, 4)))
    # `InfinitesimalAction` already demands linear coefficients
    contains_all = all(theta.is_vector_field() and is_relative(theta, det_poly()) for theta in act.fields)
    span = IncrementalRank()
    return dim, contains_all, sum(span.add(theta.terms) for theta in act.fields)


def verify_dsl2_presentation() -> CheckReport:
    """Each presentation relation exhibited with its explicit cofactor in the
    left ideal generated by det - 1."""
    act = lr_action_mat2()
    mu = dict(zip(act.desc.basis, act.fields))
    relp = WeylOp.from_poly(det_poly() - 1)
    report = CheckReport(check="presentation", parameters={})
    for x, _, rhs in _cross_relations(mu):
        cofactor = -mu[x + "2"]
        diff = (mu[x + "2"] - rhs) - relp * cofactor
        name = f"relation for 1(x){x}: residual = (det - 1) * cofactor"
        report.add(name, "0", op_to_text(diff), diff.is_zero())
    report.add("relation for 1(x)1 (vacuous)", "0", "0", True)
    return report


# --- the rank-one-cone presentation kernel ------------------------------------

_GEN_WEIGHTS = ((-2, 0), (0, 0), (2, 0), (0, -2), (0, 0), (0, 2))  # F1 H1 E1 F2 H2 E2
_VAR_WEIGHTS = ((-1, 1), (-1, -1), (1, 1), (1, -1))  # a b c d

# extra enveloping degrees the dy ideal is generated with, beyond the window
_DY_MARGIN = 1

# the least PBW bound of `verify_dy_relation`: the relation has PBW degree 2
DY_LEAST_BOUND = 2


def _weight(e, table):
    """Torus weight of the monomial with exponents e, given the weight of each factor."""
    return (sum(k * w[0] for k, w in zip(e, table)), sum(k * w[1] for k, w in zip(e, table)))


def _phi(key):
    """(image, sign) of a key under phi = adjugate (a, b, c, d) -> (d, -b, -c, a)
    with the sl2 factor swap: a PBW exponent swaps halves, a monomial or derivative
    exponent e goes to (e3, e1, e2, e0) with sign (-1)^(e1 + e2), a pair part-wise."""
    if isinstance(key[0], tuple):
        (k0, s0), (k1, s1) = _phi(key[0]), _phi(key[1])
        return (k0, k1), s0 * s1
    if len(key) == 6:
        return key[3:] + key[:3], 1
    return (key[3], key[1], key[2], key[0]), -1 if (key[1] + key[2]) & 1 else 1


def _phi_terms(terms: dict) -> dict:
    return {image: s * c for k, c in terms.items() for image, s in [_phi(k)]}


_F0 = (0,) * 4  # the exponent of the constant function 1
_U0 = (0,) * 6  # the PBW exponent of 1
_UNITS = tuple(tuple(int(i == j) for i in range(4)) for j in range(4))  # a b c d

# The smash-product arithmetic of dy: an element Sum m_f mu(u) is a dict keyed
# (pbw exp, monomial), with functions kept in `horocycle_ring()` normal form,
# where the normal form of a monomial is one monomial (ad -> bc).  All products
# preserve both the function degree and the torus biweight, so elements stay
# inside one homogeneity block.  mu(u) is read from the cone action's
# `moment_table`.  Every coefficient is an int: the fields, sl2 PBW products
# and field actions are the terms of a WeylOp, UEnvElement or ExactPoly, whose
# constructors store an integral coefficient as an int (`linalg.num`), and the
# other tables are sums of their products.  No count relies on that, since
# `IncrementalRank` clears denominators itself.  Callers do not mutate a cached table.


@functools.cache
def _sl2_mul(e1, e2) -> dict:
    """x^e1 x^e2 for PBW exponents e1, e2 of U(sl2)."""
    d = sl2_desc()
    return (UEnvElement(d, {e1: 1}) * UEnvElement(d, {e2: 1})).terms


@functools.cache
def _pbw_mul(e1, e2) -> dict:
    """x^e1 x^e2 in U(sl2 + sl2) = U(sl2) (x) U(sl2), factor by factor: a PBW
    exponent lists the left factor's generators first and the two factors
    commute, so the product is that of the left halves times that of the
    right halves."""
    left, right = _sl2_mul(e1[:3], e2[:3]), _sl2_mul(e1[3:], e2[3:])
    return {s + t: c * d for s, c in left.items() for t, d in right.items()}


def _field_act(j, fe) -> dict:
    poly = apply_op(lr_action_mat2().fields[j], ExactPoly.monomial(V, fe))
    return horocycle_ring().normal_form(poly).terms


def _push(ue, fe) -> dict:
    """mu(x^ue) * m_{x^fe} rewritten with the function on the left."""
    if ue == _U0:
        return {(_U0, fe): 1}
    j = next(i for i in range(6) if ue[i])
    rest = list(ue)
    rest[j] -= 1
    unit = tuple(1 if i == j else 0 for i in range(6))
    return lincomb(
        (c, vec) for (w, h), c in _push(tuple(rest), fe).items()
        for vec in ({(w2, h): c2 for w2, c2 in _pbw_mul(unit, w).items()},
                    {(w, h2): c2 for h2, c2 in _field_act(j, h).items()})
    )


def _u_right(elem: dict, ue) -> dict:
    """elem * mu(x^ue), summed in one pass over the re-keyed `_pbw_mul` terms,
    keys in first-sight order as `lincomb` keeps them."""
    acc: dict = {}
    for (w, h), c in elem.items():
        for w2, c2 in _pbw_mul(w, ue).items():
            key = (w2, h)
            acc[key] = acc.get(key, 0) + c * c2
    return {k: v for k, v in acc.items() if v}


@functools.cache
def _mono_mul(e1, e2):
    """The cone-reduced exponent of x^e1 * x^e2."""
    e = tuple(x + y for x, y in zip(e1, e2))
    (nf,) = horocycle_ring().normal_form(ExactPoly.monomial(V, e)).terms
    return nf


def _realize(elem: dict) -> dict:
    """Det-reduced coefficient table of the operator Sum m_f mu(u), keyed
    (de, h) for the term x^h D^de: the cone action's `moment_table(u)`
    shifted by x^f, that is re-keyed by `_mono_mul`.  The kernel's columns
    and the generator certificate of `verify_dy_relation` are realized so."""
    act = lr_action_horocycle()
    return lincomb(
        (cf, {(de, _mono_mul(h, fe)): c for (h, de), c in moment_table(ue, act).items()}) for (ue, fe), cf in elem.items()
    )


def _block_of(ue, fe):
    uw = _weight(ue, _GEN_WEIGHTS)
    fw = _weight(fe, _VAR_WEIGHTS)
    return (sum(fe), (uw[0] + fw[0], uw[1] + fw[1]))


def _dy_generators(delta: dict) -> dict:
    """{fe: g_fe}: Delta under the exponent of 1 and D_j = Delta m_{x_j} - m_{x_j}
    Delta under that of x_j = a, b, c, d, keyed (pbw exp, monomial), from the PBW
    coefficients `delta` of Delta.

    In the smash product Leibniz gives Delta m_f = m_f Delta + Sum_j m_{d_j f} D_j
    + m_{mu(Delta) f}, and mu(Delta) = 0 (the dy report's first item), so these
    five generate the two-sided ideal of Delta as a left O-module under right
    multiplication by U.  Each D_j has enveloping degree at most 1.  The names
    follow phi: phi(g_fe u) = +-g_{phi fe} phi(u), since phi(Delta) = -Delta.
    """
    gens = {_F0: {(ue, _F0): c for ue, c in delta.items()}}
    for unit in _UNITS:
        right = {(ue, unit): c for ue, c in delta.items()}  # m_{x_j} Delta
        gens[unit] = lincomb([(-1, right)] + [(c, _push(ue, unit)) for ue, c in delta.items()])
    return gens


def _shift_closure(names, seed, poly_bound: int, order, mirror=None):
    """(pivots, keys, raised): the span, block by block, of the function
    shifts x^g v of the seeds v = seed(name), name = (u, fe) in `names`, with
    deg x^g v <= poly_bound, as the Counter {(block, d): its pivots of top degree d}.

    A seed is a dict over keys (top, h): h a cone-normal monomial that x_j
    multiplies, and sum(top) the key's enveloping or differential degree,
    which no shift changes.  `keys` maps each number back to its key.
    Numbers order keys by decreasing degree of top, then by reverse first
    sight, so a row's pivot is a key of its top degree.  x_j re-keys a vector
    through a table, number -> number of (top, nf(h x_j)), exactly, since
    nf(nf(h) x_j) = nf(h x_j), and moves it from block (q, w) to
    (q + 1, w + weight(x_j)); the seed named (u, fe) lies in block
    _block_of(u, fe).  A shift is named (name, nf(g)): shifts commute, so a
    repeated name is the identical vector, already in the span, and is
    skipped.  A vector that does not raise its block's rank is a combination
    of stored rows, so its shifts lie in the span of theirs: only the shifts
    of rank-raising vectors are inserted.
    A seed whose block lies above poly_bound is skipped.
    Only the blocks (q, (w0, w1)) with w0 >= w1 >= q - poly_bound are built,
    seeds and shifts alike, and only those with w1 >= 0, a fundamental domain
    of <W, phi>, are counted in `pivots` and `raised`.  The collar w1 < 0
    holds parents: a shift raises q by 1 and moves w1 by +-1, so each span is
    exact.  phi maps block (q, (w0, w1)) to (q, (w1, w0)) and the vector named
    sig to +- the one named phi(sig): the callers' seeds are named so.  Every
    parent of a built vector is built, except the x_d-parent of a vector in a
    diagonal block, whose x_d-shift is +- the phi image of the x_a-shift of
    its mirror.  So, given `mirror`, the (image, sign) map of phi on names and
    keys, a diagonal block also gets the mirror image of each shift inserted
    into it.  `_dy_ideal` passes `_phi`: without the images its window (2, 2)
    falls from 127 to 122.  `_dy_kernel` passes none, since a vector its
    closure misses can only lower the rank its columns reach, that is raise
    a kernel count, and no kernel window moves without them.
    Each function degree is inserted once all shifts into it are known, block
    by block, in the order of order(sig, vec); no later level inserts into a
    done one, so its eliminators are counted then and dropped.
    `raised` lists (block, sig) of the rank-raising inserts.
    """
    codes: dict = {}
    keys: dict = {}

    def code(key) -> int:
        hit = codes.get(key)
        if hit is None:
            hit = codes[key] = -len(codes) - (sum(key[0]) << 32)
            keys[hit] = key
        return hit

    def built(block) -> bool:
        return block[0] <= poly_bound and block[1][0] >= block[1][1] >= block[0] - poly_bound

    levels: list[list] = [[] for _ in range(poly_bound + 1)]
    for name in names:
        block = _block_of(*name)
        if built(block) and (vec := seed(name)):
            levels[block[0]].append((block, (name, _F0), {code(k): c for k, c in vec.items()}))
    shift: list[dict] = [{} for _ in _UNITS]
    images: dict = {}
    pivots: Counter = Counter()
    raised = []
    seen = set()
    for q, level in enumerate(levels):
        level.sort(key=lambda item: (item[0], order(*item[1:])))
        blocks: dict = {}
        for block, sig, vec in level:
            elim = blocks.get(block) or blocks.setdefault(block, IncrementalRank())
            if not elim.add(vec):
                continue
            if block[1][1] >= 0:
                raised.append((block, sig))
            if q == poly_bound:
                continue
            (name, g), (w0, w1) = sig, block[1]
            for unit, table, (dw0, dw1) in zip(_UNITS, shift, _VAR_WEIGHTS):
                child, target = (name, _mono_mul(g, unit)), (q + 1, (w0 + dw0, w1 + dw1))
                if child in seen or not built(target):
                    continue
                seen.add(child)
                for k in vec:
                    if k not in table:
                        top, h = keys[k]
                        table[k] = code((top, _mono_mul(h, unit)))
                shifted = {table[k]: c for k, c in vec.items()}
                levels[q + 1].append((target, child, shifted))
                if mirror and w0 + dw0 == w1 + dw1 and (image := mirror(child)[0]) not in seen:
                    seen.add(image)
                    out = {}
                    for k, c in shifted.items():
                        hit = images.get(k)
                        if hit is None:
                            key, s = mirror(keys[k])
                            hit = images[k] = (code(key), s)
                        out[hit[0]] = hit[1] * c
                    levels[q + 1].append((target, image, out))
        level.clear()
        pivots.update((b, sum(keys[k][0])) for b, elim in blocks.items() if b[1][1] >= 0 for k in elim.pivots)
    return pivots, keys, raised


def _dy_kernel(pbw_bound: int, poly_bound: int) -> Counter:
    """{(block, d): the columns of enveloping degree d in the block minus the
    rank they add to those of lower degree}, on the blocks with w0 >= w1 >= 0
    (the fundamental domain that `_window` unfolds by orbit size; its
    closure's collar w1 < 0 is built but not counted).

    Column (u, f) is x^f times the cone-reduced table of mu(u), keyed
    (de, h): the seed named (u, 1), the cone action's `moment_table(u)`
    (`_realize`), shifted by x^f.  mu(u) on Mat2 has monomials (ad, bc) that
    meet on the cone, which a re-keying shift loses.
    Each block's columns go in by (deg u, u, f), so the counts of degree
    <= p sum to the columns of degree <= p minus the rank that the inserted
    ones reach.  The closure inserts no phi images (`_shift_closure`), so it
    may miss a column outside the span of the inserted ones, which lowers
    that rank.  So each window (`_window`) of these counts is an upper bound
    on the true kernel's, and exact where it meets the ideal's window, since
    the ideal lies inside the kernel.  A column of enveloping degree d has
    differential order at most d, and no row of lower degree holds a key of
    order d, so a new pivot of order d is met only by rows of degree d:
    back-reduction stays among the rows of one degree unless a column's
    top-order part reduces to zero.
    """
    u_exps = [c[:6] for c in compositions(pbw_bound, 7)]
    _, _, raised = _shift_closure(
        ((ue, _F0) for ue in u_exps), lambda name: _realize({name: 1}), poly_bound,
        lambda sig, vec: (sum(sig[0][0]), sig[0][0], sig[1]),
    )
    u_count = Counter((sum(ue), _weight(ue, _GEN_WEIGHTS)) for ue in u_exps)
    dims: Counter = Counter()
    for q in range(poly_bound + 1):
        for fe in horocycle_ring().nf_monomials(q):
            fw0, fw1 = _weight(fe, _VAR_WEIGHTS)
            for (d, (uw0, uw1)), n in u_count.items():
                if uw0 + fw0 >= uw1 + fw1 >= 0:
                    dims[(q, (uw0 + fw0, uw1 + fw1)), d] += n
    dims.subtract((block, sum(sig[0][0])) for block, sig in raised)
    return dims


def _dy_ideal(gens: dict, build_bound: int, poly_bound: int):
    """The closure of the vectors x^g g_fe u, deg u <= build_bound - 2, named
    ((u, fe), g) and keyed (u, f) for the element Sum m_f mu(u).

    Each level is inserted block by block, largest least number first, that
    is lowest top enveloping degree first, so a new pivot is seldom held by
    a stored row: little back-reduction.
    """
    return _shift_closure(
        ((c[:6], fe) for fe in gens for c in compositions(build_bound - 2, 7)),
        lambda name: _u_right(gens[name[1]], name[0]), poly_bound, lambda sig, vec: -min(vec), _phi,
    )


@contextlib.contextmanager
def _dy_kernel_worker(pbw_bound: int, poly_bound: int):
    """Compute `_dy_kernel(pbw_bound, poly_bound)` in a forked child while the
    with block runs, and yield a dict that holds it once the block is left.

    The child writes the kernel to a pipe as a marshalled dict and exits 0,
    or writes the pickled (exception, its traceback) and exits 1.  It leaves
    only through os._exit, so it never returns into its parent's frames; any
    other exit status means it died without a reply.  The parent reads the
    pipe to EOF after the block, kills the child if the block raises, and
    reaps it on every path.  A worker error is raised again as its own type,
    with the worker's traceback as its cause.  Where os has no fork, the
    kernel is computed in process, before the block.
    """
    if not hasattr(os, "fork"):
        yield _dy_kernel(pbw_bound, poly_bound)
        return
    kernel: dict = {}
    results, sender = os.pipe()
    with open(results, "rb") as pipe:
        with open(sender, "wb") as out:
            pid = os.fork()
            if not pid:
                status = 2
                try:
                    try:
                        reply, done = marshal.dumps(dict(_dy_kernel(pbw_bound, poly_bound))), 0
                    except Exception as exc:
                        import pickle
                        import traceback

                        reply, done = pickle.dumps((exc, traceback.format_exc())), 1
                    out.write(reply)
                    out.flush()
                    status = done
                finally:
                    os._exit(status)
        try:
            yield kernel
            reply = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status == 1:
        import pickle

        exc, trace = pickle.loads(reply)
        raise exc from RuntimeError(f"in the dy kernel worker:\n{trace}")
    if status:
        raise RuntimeError(f"the dy kernel worker exited with status {status} and no reply")
    kernel.update(marshal.loads(reply))


def _window(dims: Counter, p: int, q: int) -> int:
    """The sum of `dims` over enveloping degree <= p and function degree <= q,
    a block of weight w0 >= w1 >= 0 weighted by the size of its orbit under
    <W, phi>: 1 at (0, 0), 4 if w1 = 0 or w0 = w1, 8 otherwise.  A window of
    either side is a submodule under ad of sl2 + sl2 (ad keeps U_{<=p}, the
    linear fields keep O_q and Delta is central, so ad_X(D_j) lies in the span
    of the D_k), so its weight multiplicities are invariant under W and phi."""
    return sum(n * (1 if w0 == 0 else 4 if w1 in (0, w0) else 8)
               for ((fq, (w0, w1)), d), n in dims.items() if fq <= q and d <= p)


def verify_dy_relation(bound: int = 4) -> CheckReport:
    """Kernel of the bounded realization on the rank-one cone against the
    two-sided ideal generated by the Casimir difference, window by window, at
    enveloping and function degrees up to `bound`.

    An operator kills every function on the cone exactly when det divides all
    of its normal-ordered coefficients (commute with the coordinates and
    induct on order), so an element's det-reduced coefficient table is a
    faithful model of its action.  The kernel's columns are the cone
    action's `moment_table`s, reduced on the cone as they are built, and
    `_realize` sums their shifts for the generator certificate.  The first
    item reads mu(Delta) on Mat2 from the same tables, so no two operators
    of the Weyl algebra are multiplied.  The Casimir difference Delta is
    central in the enveloping factor, so its two-sided ideal is spanned by function
    multiples of its left multiples Delta m_f u.  By Leibniz, Delta m_f =
    m_f Delta + Sum_j m_{d_j f} D_j + m_{mu(Delta) f} with D_j = Delta m_{x_j}
    - m_{x_j} Delta; the last term, which no generator would cover, drops
    because mu(Delta) = 0 (the first item), so under the same degree bounds
    the function multiples of Delta u and D_j u span it.  The ideal is
    generated with `_DY_MARGIN` extra enveloping degrees so that
    cancellations landing inside a window are found.  Containment: a
    generator realizing to zero is det P in normal order, and f det P mu(u)
    is again det times an operator, so the span realizes to zero and equal
    windows prove kernel = ideal.  Items certify that phi (`_phi`) is an
    automorphism with phi(Delta) = -Delta.
    Both sides are one `_shift_closure` on the fundamental domain w0 >= w1
    >= 0 of W = {+-1}^2 and phi, with a collar of parents, each reduced to a
    count per (block, enveloping degree d): the kernel's columns of degree d
    minus the rank they add, the ideal's pivots of degree d, a pivot being a
    key of its row's top degree.  A window is one `_window` sum of these
    counts, each block weighted by its orbit size, since each window of
    either side is an sl2 + sl2-module under ad, whose counts W and phi keep.
    The collar and, on the ideal side only, the phi images just make the
    counts complete: every inserted vector lies in its side's span, so a
    vector the closure fails to insert can only lower an ideal count, or
    lower the rank the kernel's columns add and so raise a kernel count.
    With the ideal inside the kernel, such a miss can make a window fail but
    never pass wrongly.
    The kernel closure runs in a child forked by `_dy_kernel_worker` as soon
    as the bound is checked, while this process makes the certificate items,
    the generators, the ideal closure and the generator certificate: the
    sides share no state and meet only in the window sums, which read the
    kernel's counts as this process would compute them, so no report byte
    depends on where a side runs.  An error on either side reaches the
    caller after the child is reaped, or killed and reaped; so does a child
    that dies without a reply.
    """
    if bound < DY_LEAST_BOUND:
        raise ValueError(f"bound too small to see the relation (< {DY_LEAST_BOUND})")
    with _dy_kernel_worker(bound, bound) as kernel:
        act = lr_action_mat2()
        report = CheckReport(check="dy", parameters={"pbw_bound": bound, "poly_bound": bound, "margin": _DY_MARGIN})

        cas, one = casimir_sl2(), UEnvElement.one(sl2_desc())
        delta_diff = tensor(cas, one) - tensor(one, cas)
        diff_op = moment_map(delta_diff, act)
        name = "mu(Casimir(x)1 - 1(x)Casimir) vanishes identically"
        report.add(name, "0", op_to_text(diff_op), diff_op.is_zero())

        pair, delta = sl2_pair_desc(), delta_diff.terms
        # phi on the basis F1 H1 E1 F2 H2 E2, read off the unit PBW exponents
        swap = [_phi(tuple(int(k == i) for k in range(6)))[0].index(1) for i in range(6)]
        ok = pair.brackets == {
            (swap[i], swap[j]): {swap[k]: c for k, c in vec.items()} for (i, j), vec in pair.brackets.items()
        }
        report.add("phi = adjugate (x) factor swap preserves the brackets of sl2 (+) sl2", "True", str(ok), ok)
        det, image = det_poly(), ExactPoly(V, _phi_terms(det_poly().terms))
        report.add("phi preserves det", poly_to_text(det), poly_to_text(image), image == det)
        fields = [field.terms for field in act.fields]
        pushed = " ".join(pair.basis[fields.index(t)] if t in fields else "?" for t in map(_phi_terms, fields))
        want = " ".join(pair.basis[k] for k in swap)
        report.add(f"phi pushes mu({' '.join(pair.basis)}) forward to mu of", want, pushed, pushed == want)
        ok = _phi_terms(delta) == {k: -c for k, c in delta.items()}
        report.add("phi sends Delta to -Delta", "True", str(ok), ok)

        gens = _dy_generators(delta)
        ideal = _dy_ideal(gens, bound + _DY_MARGIN, bound)[0]
        zero = sum(not _realize(g) for g in gens.values())

    name = "the ideal generators Delta, D_a, D_b, D_c, D_d realize to the zero operator"
    report.add(name, str(len(gens)), str(zero), zero == len(gens))

    for p in range(bound + 1):
        for q in range(bound + 1):
            k, s = _window(kernel, p, q), _window(ideal, p, q)
            report.add(f"bidegree ({p},{q}): realization kernel = Casimir-difference ideal", str(s), str(k), k == s)
    return report


# --- filtration comparisons ---------------------------------------------------


def default_pw_samples():
    """Named operators Sum f * mu(u) with their expression levels."""
    d2 = sl2_desc()
    one = UEnvElement.one(d2)
    E = UEnvElement.generator(d2, d2.index("E"))
    F = UEnvElement.generator(d2, d2.index("F"))
    H = UEnvElement.generator(d2, d2.index("H"))
    ring = sl2_ring()
    a, b, c, d = (ring.var(v) for v in ring.variables)
    onep = ExactPoly.constant(ring.variables, 1)
    us = {
        "E1": tensor(E, one),
        "F1": tensor(F, one),
        "H1": tensor(H, one),
        "E2": tensor(one, E),
        "F2": tensor(one, F),
        "H2": tensor(one, H),
        "E1F1": tensor(E * F, one),
        "H1H2": tensor(H, H),
        "1": tensor(one, one),
    }
    samples = [("identity", [(onep, us["1"])])]
    for name in ("E1", "F1", "H1", "E2", "F2", "H2", "E1F1", "H1H2"):
        samples.append((f"mu({name})", [(onep, us[name])]))
    fs = {
        "a": a,
        "b": b,
        "d": d,
        "ab": a * b,
        "cd": c * d,
        "a^2": a * a,
        "abc": a * b * c,
        "b^2c": b * b * c,
        "d^3": d * d * d,
    }
    for fname, f in fs.items():
        samples.append((f"{fname} * mu(E1)", [(f, us["E1"])]))
    samples.append(("a * mu(H2) + b * mu(E1)", [(a, us["H2"]), (b, us["E1"])]))
    samples.append(("ab * mu(E1F1)", [(a * b, us["E1F1"])]))
    samples.append(("abc * mu(H1H2)", [(a * b * c, us["H1H2"])]))
    return samples


# the least bound of `pw_vs_derivations_check`: at 0 it sees only constants, which every sample kills
PWFILT_LEAST_BOUND = 1


def pw_vs_derivations_check(bound: int = 6) -> CheckReport:
    """Expression level (max level of the function coefficients) against the
    action level (least shift of the filtration on monomial classes), for each
    of `default_pw_samples()` on the monomials of degree <= `bound`.

    The expression level bounds the operator's filtration level from above and
    the action level bounds it from below, so agreement pins the level exactly.
    Each monomial's image level is the largest degree among the nonzero sums of
    the normal-form image that `weyl.apply_images` yields on the ring.
    """
    if bound < PWFILT_LEAST_BOUND:
        raise ValueError(f"bound must be at least {PWFILT_LEAST_BOUND}")
    act = lr_action_mat2()
    ring = sl2_ring()
    samples = default_pw_samples()
    report = CheckReport(check="pwfilt", parameters={"bound": bound, "samples": len(samples)})
    monos = [(deg, e) for deg in range(bound + 1) for e in ring.nf_monomials(deg)]
    for name, pairs in samples:
        expr_level = max(pw_level(f, ring) for f, _ in pairs)
        op = sum((WeylOp.from_poly(f) * moment_map(u, act) for f, u in pairs), WeylOp.zero(ring.variables))
        images = apply_images(op, (e for _, e in monos), ring)
        action_level = max(max((sum(e) for e, c in image.items() if c), default=BOTTOM) - deg
                           for (deg, _), image in zip(monos, images))
        report.add(f"{name}: expression level = action level", expr_level, action_level, expr_level == action_level)
    return report


def vfiltration_check(bound: int = 12) -> CheckReport:
    """Pole order along the determinant divisor against the minimal-degree
    level of the corresponding class on the determinant-one locus, in
    root-lattice units, for every even monomial class up to the bound."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    ring = sl2_ring()
    detp = det_poly()
    report = CheckReport(check="vfilt", parameters={"bound": bound})

    def cases():
        for deg in range(0, bound + 1, 2):  # even homogeneous monomials
            for e in compositions(deg, 4):
                mono = ExactPoly.monomial(V, e)
                yield f"[{poly_to_text(mono)}] / det^{deg // 2}", mono, deg // 2
        yield "det/det", detp, 1
        yield "det*ab/det^2", detp * ExactPoly.monomial(V, (1, 1, 0, 0)), 2
        yield "det^2*bc/det^3", detp * detp * ExactPoly.monomial(V, (0, 1, 1, 0)), 3
        yield "det^3/det^3", detp * detp * detp, 3

    for name, f, k in cases():
        pole = k - vanishing_order(f, detp)
        lev = pw_level(f, ring)
        mc = "odd class" if lev % 2 else lev // 2
        report.add(name, str(pole), str(mc), pole == mc)
    return report


# --- fiberwise localization checks ---------------------------------------------


def default_sample_points():
    """Orbit-representative points on the two fibers of the determinant."""
    det1 = [
        RationalPoint((1, 0, 0, 1)),
        RationalPoint((2, 0, 0, Fraction(1, 2))),
        RationalPoint((1, 1, 0, 1)),
    ]
    det0 = [
        RationalPoint((1, 0, 0, 0)),
        RationalPoint((0, 1, 0, 0)),
        RationalPoint((0, 0, 1, 0)),
        RationalPoint((0, 0, 0, 1)),
        RationalPoint((1, 2, 3, 6)),
    ]
    return det1, det0


# the least rep bound of `asymp_diagram_check` and `parabolic_rank1_check`:
# at 0 they check only V0 (x) V0*
REP_LEAST_BOUND = 1


def _rep_family(rep_bound: int):
    """(name, m, k, V_m (x) V_k*) for m, k <= rep_bound, which must be at least
    REP_LEAST_BOUND."""
    if rep_bound < REP_LEAST_BOUND:
        raise ValueError(f"rep bound must be at least {REP_LEAST_BOUND}")
    ms = range(rep_bound + 1)
    return [(f"V{m} (x) V{k}*", m, k, tensor_dual_rep(m, k)) for m in ms for k in ms]


def asymp_diagram_check(rep_bound: int = 3, points=None) -> CheckReport:
    """Coinvariant dimension of V_m (x) V_k* under the stabilizer of each point
    in its determinant level set, against Schur's lemma: 1 if m = k, else 0.
    On det=1 the stabilizer is a twisted diagonal sl2; on det=0 it is conjugate
    to (upper, lower) triangular pairs with one diagonal, whose nilradicals
    leave the weights -m and k for the shared torus to match."""
    if points is None:
        det1, det0 = default_sample_points()
        points = det1 + det0
    report = CheckReport(check="asymp-diagram", parameters={"rep_bound": rep_bound, "points": len(points)})
    stabs = []
    for p in points:
        fiber, act = level_set_action(p)
        stabs.append((f"{tuple(str(x) for x in p.coords)} ({fiber})", stabilizer_subalgebra(act, p)))
    for name, m, k, module in _rep_family(rep_bound):
        want = str(int(m == k))
        for where, stab in stabs:
            proj, _ = coinvariants(module, stab)
            got = str(len(proj))
            report.add(f"{name} at {where}", want, got, got == want)
    return report


def default_torus_fiber_points():
    return [
        RationalPoint((1, 0, 0, 0)),
        RationalPoint((2, 0, 0, 0)),
        RationalPoint((Fraction(1, 3), 0, 0, 0)),
    ]


def parabolic_rank1_check(rep_bound: int = 3, points=None) -> CheckReport:
    """Staged coinvariants (nilpotent radicals first, then the torus stabilizer)
    against direct stabilizer coinvariants on the rank-one chart, with matching
    induced Cartan actions.  Every point gets its stabilizer and its items, but
    the direct side is computed once per (module, stabilizer span)."""
    act0 = lr_action_horocycle()
    pair = sl2_pair_desc()
    if points is None:
        points = default_torus_fiber_points()
    report = CheckReport(check="parabolic", parameters={"rep_bound": rep_bound, "points": len(points)})

    n_sub = LieSubalgebra(pair, ({2: 1}, {3: 1}))  # E on the left, F on the right
    hh = LieSubalgebra(pair, ({1: 1, 4: 1}, {1: 1}))  # H1 + H2, H1
    cartan_left = LieSubalgebra(pair, ({1: 1},))

    for p in points:
        if p.coords[1] or p.coords[2] or p.coords[3] or not p.coords[0]:
            raise ValueError(f"{p.coords} is not on the designated torus fiber")
    # the staged side does not depend on the point
    staged = []
    for name, _, _, module in _rep_family(rep_bound):
        proj1, (t_sum, t_h1) = coinvariants(module, n_sub, commuting=hh)
        # [H1, H1 + H2] = 0, so H1 descends to the quotient by H1 + H2
        proj2, (cartan,) = quotient(transpose(t_sum, len(proj1)), len(proj1), [t_h1])
        staged.append((name, module, len(proj2), char_poly(cartan)))
    direct = {}  # (module name, canonical stabilizer span) -> (dim, cartan char poly)
    for p in points:
        dir_stab = stabilizer_subalgebra(act0, p)
        # the eliminator's rows with positive pivot entries: one key per subspace
        rows = dir_stab.span.pivots.items()
        span = frozenset((k, c, x if row[k] > 0 else -x) for k, row in rows for c, x in row.items())
        for name, module, staged_dim, staged_poly in staged:
            if (name, span) not in direct:
                proj, (direct_cartan,) = coinvariants(module, dir_stab, commuting=cartan_left)
                direct[name, span] = len(proj), char_poly(direct_cartan)
            dim, direct_poly = direct[name, span]
            report.add(
                f"{name} at {tuple(str(x) for x in p.coords)}: staged = direct",
                f"dim {dim}, cartan {direct_poly}",
                f"dim {staged_dim}, cartan {staged_poly}",
                staged_dim == dim and staged_poly == direct_poly,
            )
    return report
