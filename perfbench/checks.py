"""Checks of the program's reports, computed apart from the program.

Each report must validate against docs/report_schema.json and every item
must pass.  An item whose expected and computed values are both integers
must have them equal.  On top of that each suite has closed forms, derived
by hand from the mathematics, that its numbers must match:

- dy: window dimensions are nondecreasing in p and q; the windows (0, q)
  and (1, 0) are 0; the column q = 0 is C(p+4, 6).
- exponents: the coinvariant exponent set of Sym^m is {(-m, 0)}, the oracle
  set is {m - 2j}, and the two-sided exponents are {-m} and {m}.
- asymp-diagram: V_m (x) V_k* has coinvariant dimension 1 if m = k and 0
  otherwise at every point (Schur's lemma), on the fibre det(point) names.
- parabolic: the same dimensions, and the induced Cartan eigenvalue is -m.
- rees: the filtered piece at weight l is the sum of (k+1)^2 over k <= l,
  k = l mod 2, and the graded piece is (l+1)^2 (Peter-Weyl dimensions).
- tau: the dimension at level l is 4 C(d+3, 3) - C(d+4, 3), d = l + 1.
- grderv and vfilt: the number of items follows from the bounds.
"""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction
from math import comb

_INT = re.compile(r"-?\d+")


def load_schema(path: str):
    import jsonschema

    with open(path) as fh:
        return jsonschema.Draft7Validator(json.load(fh))


def _int(text: str):
    return int(text) if _INT.fullmatch(text) else None


def _items(payload: dict) -> list[dict]:
    return [item for check in payload.get("checks", []) for item in check.get("items", [])]


def _match(pattern: str, payload: dict):
    """(regex match on the item name, item) for every item whose name matches."""
    rx = re.compile(pattern)
    return [(m, item) for item in _items(payload) if (m := rx.fullmatch(item["name"]))]


def _dy(call: dict, payload: dict, stdout: str) -> list[str]:
    bound = call["bound"]
    dims = {}
    for m, item in _match(r"bidegree \((\d+),(\d+)\): realization kernel = Casimir-difference ideal", payload):
        dims[int(m[1]), int(m[2])] = _int(item["got"])
    errors = []
    want = {(p, q) for p in range(bound + 1) for q in range(bound + 1)}
    if set(dims) != want:
        return [f"dy: windows {sorted(dims)} instead of 0..{bound} squared"]
    for (p, q), d in sorted(dims.items()):
        if p and d < dims[p - 1, q] or q and d < dims[p, q - 1]:
            errors.append(f"dy: window ({p},{q}) = {d} decreases")
        if p == 0 and d != 0:
            errors.append(f"dy: window (0,{q}) = {d}, not 0")
        if q == 0 and d != comb(p + 4, 6):
            errors.append(f"dy: window ({p},0) = {d}, not C({p + 4},6) = {comb(p + 4, 6)}")
    return errors


_TWO_SIDED = re.compile(r"two-sided \(left, right\) exponents: (\[.*?\]), (\[.*?\])")


def _exponents(call: dict, payload: dict, stdout: str) -> list[str]:
    m = call["m"]
    errors = []
    if payload.get("coinvariant_exponents") != [[str(-m), 0]]:
        errors.append(f"exponents m={m}: coinvariant exponents {payload.get('coinvariant_exponents')}")
    if payload.get("oracle_exponents") != sorted(m - 2 * j for j in range(m + 1)):
        errors.append(f"exponents m={m}: oracle exponents {payload.get('oracle_exponents')}")
    if payload.get("leading") != -m:
        errors.append(f"exponents m={m}: leading exponent {payload.get('leading')}")
    found = _TWO_SIDED.search(stdout)
    sides = found and [sorted(Fraction(x) for x in ast.literal_eval(found[i])) for i in (1, 2)]
    if sides != [[-m], [m]]:
        errors.append(f"exponents m={m}: two-sided exponents {found and found[0]}")
    return errors


def _points(payload: dict, pattern: str) -> dict:
    out = {}
    for m, item in _match(pattern, payload):
        coords = tuple(Fraction(x) for x in ast.literal_eval(m["point"]))
        out[int(m["m"]), int(m["k"]), coords] = (m, item)
    return out


def _check_points(call: dict, payload: dict, found: dict, suite: str) -> list[str]:
    extra = {tuple(Fraction(x) for x in p) for p in call["extra_points"]}
    points = {key[2] for key in found}
    errors = []
    if not extra <= points:
        errors.append(f"{suite}: generated points {sorted(extra - points)} missing")
    if len(points) != payload["parameters"].get("points"):
        errors.append(f"{suite}: {len(points)} points reported of {payload['parameters'].get('points')}")
    r = call["rep_bound"]
    if len(found) != (r + 1) ** 2 * len(points):
        errors.append(f"{suite}: {len(found)} items for {len(points)} points and rep bound {r}")
    return errors


def _asymp(call: dict, payload: dict, stdout: str) -> list[str]:
    found = _points(payload, r"V(?P<m>\d+) \(x\) V(?P<k>\d+)\* at (?P<point>\(.*\)) \((?P<fibre>det=[01])\)")
    errors = _check_points(call, payload, found, "asymp-diagram")
    for (m, k, (a, b, c, d)), (match, item) in found.items():
        det = a * d - b * c
        if match["fibre"] != f"det={det}" or (det == 0 and not any((a, b, c, d))):
            errors.append(f"asymp-diagram: {item['name']} labelled {match['fibre']}, det is {det}")
        want = str(int(m == k))
        if (item["expected"], item["got"]) != (want, want):
            errors.append(f"asymp-diagram: {item['name']}: {item['expected']}/{item['got']}, want {want}")
    return errors


_STAGED = re.compile(r"dim (\d+), cartan \[(.*)\]")
_FRACTION = re.compile(r"Fraction\((-?\d+), (\d+)\)")


def _parabolic(call: dict, payload: dict, stdout: str) -> list[str]:
    found = _points(payload, r"V(?P<m>\d+) \(x\) V(?P<k>\d+)\* at (?P<point>\(.*\)): staged = direct")
    errors = _check_points(call, payload, found, "parabolic")
    for (m, k, (a, b, c, d)), (_, item) in found.items():
        if not a or b or c or d:
            errors.append(f"parabolic: {item['name']} is not on the torus fibre")
        # dim 1 with char poly x + m (eigenvalue -m) when m = k, else dim 0
        want = (1, [Fraction(1), Fraction(m)]) if m == k else (0, [Fraction(1)])
        for side in ("expected", "got"):
            parsed = _STAGED.fullmatch(item[side])
            coeffs = parsed and [Fraction(int(p), int(q)) for p, q in _FRACTION.findall(parsed[2])]
            if not parsed or (int(parsed[1]), coeffs) != want:
                errors.append(f"parabolic: {item['name']} {side} {item[side]!r}")
    return errors


def _rees(call: dict, payload: dict, stdout: str) -> list[str]:
    bound = call["bound"]
    filtered = {int(m[1]): item for m, item in _match(r"weight (\d+): presentation piece = filtered piece at z=1", payload)}
    graded = {int(m[1]): item for m, item in _match(r"weight (\d+): presentation jump = graded piece at z=0", payload)}
    errors = []
    if set(filtered) != set(range(bound + 1)) or set(graded) != set(range(bound + 1)):
        return [f"rees: weights {sorted(filtered)} / {sorted(graded)} instead of 0..{bound}"]
    for lam in range(bound + 1):
        want = str(sum((k + 1) ** 2 for k in range(lam % 2, lam + 1, 2)))
        if (filtered[lam]["expected"], filtered[lam]["got"]) != (want, want):
            errors.append(f"rees: filtered piece at weight {lam} is not {want}")
        want = str((lam + 1) ** 2)
        if (graded[lam]["expected"], graded[lam]["got"]) != (want, want):
            errors.append(f"rees: graded piece at weight {lam} is not {want}")
    return errors


_TAU_EXPECTED = re.compile(r"dim (\d+), all images kill the base coordinates")
_TAU_GOT = re.compile(r"dim (\d+), independent (\d+), relative True")


def _tau(call: dict, payload: dict, stdout: str) -> list[str]:
    bound = call["bound"]
    levels = {int(m[1]): item for m, item in _match(r"level (\d+): lifted derivations = relative fields", payload)}
    if set(levels) != set(range(bound + 1)):
        return [f"tau: levels {sorted(levels)} instead of 0..{bound}"]
    errors = []
    for level, item in sorted(levels.items()):
        d = level + 1
        want = str(4 * comb(d + 3, 3) - comb(d + 4, 3))
        e, g = _TAU_EXPECTED.fullmatch(item["expected"]), _TAU_GOT.fullmatch(item["got"])
        if not (e and g and e[1] == g[1] == g[2] == want):
            errors.append(f"tau: level {level} is not dimension {want}: {item['got']!r}")
    return errors


def _grderv(call: dict, payload: dict, stdout: str) -> list[str]:
    n = call["bound"]
    want = 1 + (2 * n + 1) * (n + 1)
    got = len(_items(payload))
    return [] if got == want else [f"grderv: {got} items, want {want}"]


def _vfilt(call: dict, payload: dict, stdout: str) -> list[str]:
    # one item per monomial of each even degree in four variables, plus four extras
    want = sum(comb(deg + 3, 3) for deg in range(0, call["bound"] + 1, 2)) + 4
    got = len(_items(payload))
    return [] if got == want else [f"vfilt: {got} items, want {want}"]


CLOSED_FORMS = {
    "dy": _dy,
    "exponents": _exponents,
    "asymp-diagram": _asymp,
    "parabolic": _parabolic,
    "rees": _rees,
    "tau": _tau,
    "grderv": _grderv,
    "vfilt": _vfilt,
}


def check_report(call: dict, payload: dict, stdout: str, schema) -> list[str]:
    """Every reason the report of one call is wrong; empty when it is right."""
    suite = call["suite"]
    errors = [f"{suite}: schema: {e.message}" for e in schema.iter_errors(payload)]
    if errors:
        return errors
    if payload["pass"] is not True or not payload["checks"]:
        errors.append(f"{suite}: report does not pass")
    for check in payload["checks"]:
        if check["pass"] is not True or not check["items"]:
            errors.append(f"{suite}: check {check['check']} does not pass")
        for item in check["items"]:
            if item["pass"] is not True:
                errors.append(f"{suite}: item {item['name']!r} fails")
            e, g = _int(item["expected"]), _int(item["got"])
            if e is not None and g is not None and e != g:
                errors.append(f"{suite}: item {item['name']!r}: expected {e}, got {g}")
    closed_form = CLOSED_FORMS.get(suite)
    if closed_form is not None:
        errors += closed_form(call, payload, stdout)
    return errors


def count_items(payload: dict) -> int:
    return len(_items(payload))
