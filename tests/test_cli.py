"""CLI contract: exit codes, JSON schema, deterministic output."""

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from horocycle import action, asymptotics, cli, lie, rees, vinberg
from horocycle.cli import main
from test_asymptotics import conjugated_v0_plus_v2
from test_caches import clear_all_caches

SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "report_schema.json").read_text())


def invoke(args):
    return CliRunner().invoke(main, args)


def test_verify_identities_passes():
    result = invoke(["verify", "identities", "--quiet"])
    assert result.exit_code == 0
    assert "overall: PASS" in result.output


def test_verify_identities_fails_on_negated_fields(monkeypatch, tmp_path):
    # x -> +rho(X) x is not a Lie algebra map: the same-factor brackets (and the
    # Casimir, whose linear term changes sign) fail as items, exit 1, no traceback
    builtin = action._builtin_action

    def negated(ring):
        act = builtin(ring)
        return action.InfinitesimalAction(act.desc, ring, [theta * -1 for theta in act.fields])

    clear_all_caches()
    monkeypatch.setattr(action, "_builtin_action", negated)
    out = tmp_path / "identities.json"
    result = invoke(["verify", "identities", "--json", str(out)])
    clear_all_caches()
    assert result.exit_code == 1, result.output
    assert "overall: FAIL" in result.output
    failed = {item["name"] for item in json.loads(out.read_text())["checks"][0]["items"] if not item["pass"]}
    same_factor = {f"bracket [{x}{i}, {y}{i}]" for i in (1, 2) for x, y in (("F", "H"), ("F", "E"), ("H", "E"))}
    assert {name for name in failed if name.startswith("bracket")} == same_factor


def test_verify_unknown_suite_is_usage_error():
    result = invoke(["verify", "bogus"])
    assert result.exit_code == 2


def test_verify_negative_bound_is_usage_error():
    result = invoke(["verify", "identities", "--bound", "-3"])
    assert result.exit_code == 2


def test_exponents_command():
    result = invoke(["exponents", "--m", "2"])
    assert result.exit_code == 0
    assert "[['-2', 0]]" in result.output
    assert "[-2, 0, 2]" in result.output


def test_exponents_computes_each_part_once(monkeypatch):
    # the check and the echo share one result; every binding in the package is counted
    calls = Counter()
    names = ("leading_exponent_check", "exponents_from_coinvariants", "bimodule_exponents", "external_tensor")
    lie.tensor_dual_rep.cache_clear()  # V6 (x) V6* is built by this command, not by an earlier test
    for name in names:
        original = getattr(lie if name == "external_tensor" else asymptotics, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("horocycle") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    result = invoke(["exponents", "--m", "6"])
    assert result.exit_code == 0, result.output
    assert calls == {name: 1 for name in names}


def test_exponents_fails_on_a_non_diagonal_induced_cartan(monkeypatch, tmp_path):
    # the one-sided coinvariants of a module whose induced H is triangular: a failed item, exit 1
    monkeypatch.setattr(cli, "sym_power_rep", lambda m: conjugated_v0_plus_v2())
    out = tmp_path / "exponents.json"
    result = invoke(["exponents", "--m", "2", "--json", str(out)])
    assert result.exit_code == 1, result.output
    assert "overall: FAIL" in result.output
    items = json.loads(out.read_text())["checks"][0]["items"]
    assert {
        "name": "Sym^2: induced Cartan is diagonal",
        "expected": "diagonal",
        "got": "off-diagonal entries at [(0, 1)]",
        "pass": False,
    } in items


def test_exponents_fails_on_a_non_diagonal_two_sided_cartan(monkeypatch, tmp_path):
    # the two-sided coinvariants of a module whose induced H1 and H2 are triangular: the
    # left-exponent item fails with the off-diagonal positions as its witness, exit 1
    bimodule = lie.external_tensor(conjugated_v0_plus_v2(), lie.dual_rep(conjugated_v0_plus_v2()))
    monkeypatch.setattr(asymptotics, "tensor_dual_rep", lambda m, k: bimodule)
    out = tmp_path / "exponents.json"
    result = invoke(["exponents", "--m", "2", "--json", str(out)])
    assert result.exit_code == 1, result.output
    assert "exponents: FAIL (5 items, 1 failures)" in result.output
    assert "overall: FAIL" in result.output
    items = json.loads(out.read_text())["checks"][0]["items"]
    assert [item for item in items if not item["pass"]] == [{
        "name": "Sym^2: two-sided coinvariant left exponents match",
        "expected": "[-2]",
        "got": "off-diagonal entries at [('H1', 0, 2), ('H1', 1, 3), ('H2', 1, 0), ('H2', 3, 2)]",
        "pass": False,
    }]


def test_exponents_rejects_negative_m():
    result = invoke(["exponents", "--m", "-1"])
    assert result.exit_code == 2


def test_localize_examples():
    result = invoke(["localize", "--rep", "1,1", "--point", "1,0,0,1", "--quiet"])
    assert result.exit_code == 0
    assert "dimension: 1" in result.output
    result = invoke(["localize", "--rep", "1,0", "--point", "1,0,0,1", "--quiet"])
    assert "dimension: 0" in result.output
    result = invoke(["localize", "--rep", "0,0", "--point", "2,0,0,1/2", "--quiet"])
    assert "dimension: 1" in result.output


def test_localize_off_variety_is_usage_error():
    result = invoke(["localize", "--rep", "1,1", "--point", "1,2,3,4"])
    assert result.exit_code == 2
    result = invoke(["localize", "--rep", "1,1", "--point", "0,0,0,0"])
    assert result.exit_code == 2
    result = invoke(["localize", "--rep", "x,y", "--point", "1,0,0,1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("point", ["1,2,3", "1,0,0,1,5"])
def test_localize_point_needs_four_coordinates(point):
    result = invoke(["localize", "--rep", "1,1", "--point", point])
    assert result.exit_code == 2
    assert "--point expects four rationals" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "identities", "--quiet"],
        ["exponents", "--m", "1"],
        ["localize", "--rep", "1,1", "--point", "1,0,0,1"],
    ],
    ids=["verify", "exponents", "localize"],
)
def test_unwritable_json_path_is_usage_error(tmp_path, args):
    path = tmp_path / "missing" / "report.json"
    result = invoke(args + ["--json", str(path)])
    assert result.exit_code == 2, result.output
    assert "cannot write the JSON report" in result.output
    assert not path.exists()


LOCALIZE_ECHO = {
    ("3,3", "0,1,0,0"): """chart: det=0
stabilizer dimension: 3
  basis: ['0', '0', '1', '0', '0', '0']
  basis: ['0', '-1', '0', '0', '1', '0']
  basis: ['0', '0', '0', '0', '0', '1']
coinvariants dimension: 1
induced Cartan matrix: [['-3']]
dimension: 1
""",
    ("2,1", "0,0,0,1"): """chart: det=0
stabilizer dimension: 3
  basis: ['1', '0', '0', '0', '0', '0']
  basis: ['0', '1', '0', '0', '1', '0']
  basis: ['0', '0', '0', '0', '0', '1']
coinvariants dimension: 0
induced Cartan matrix: []
dimension: 0
""",
    ("2,2", "1,1,0,1"): """chart: det=1
stabilizer dimension: 3
  basis: ['1', '1', '-1', '1', '0', '0']
  basis: ['0', '1', '-2', '0', '1', '0']
  basis: ['0', '0', '1', '0', '0', '1']
coinvariants dimension: 1
induced Cartan action: not applicable (Cartan does not normalize stabilizer)
dimension: 1
""",
}


@pytest.mark.parametrize("rep,point", sorted(LOCALIZE_ECHO), ids=lambda x: x)
def test_localize_echo(rep, point):
    result = invoke(["localize", "--rep", rep, "--point", point])
    assert result.exit_code == 0
    assert result.stdout == LOCALIZE_ECHO[rep, point]


def test_dense_writes_each_exact_entry_as_its_str():
    pair = lie.sl2_pair_desc()
    nsub = action.LieSubalgebra(pair, ({2: 1}, {3: 1}))  # E1, F2
    hh = action.LieSubalgebra(pair, ({1: 1}, {4: 1}))  # H1, H2
    proj, induced = action.coinvariants(lie.tensor_dual_rep(1, 1), nsub, commuting=hh)
    # integral entries are written as integers, the same as everywhere else in the reports
    assert cli._dense(proj, 4) == [["0", "0", "0", "1"]]
    assert [cli._dense(t, len(proj)) for t in induced] == [[["-1"]], [["1"]]]
    assert cli._dense([{1: Fraction(1, 2)}, {}], 3) == [["0", "1/2", "0"], ["0", "0", "0"]]


def test_json_report_schema_and_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    r1 = invoke(["verify", "identities", "--quiet", "--json", str(out1)])
    r2 = invoke(["verify", "identities", "--quiet", "--json", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert r1.stdout == r2.stdout  # timing goes to stderr only
    payload = json.loads(out1.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["pass"] is True
    assert payload["checks"][0]["check"] == "identities"


def test_exponents_json(tmp_path):
    out = tmp_path / "e.json"
    result = invoke(["exponents", "--m", "3", "--json", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["m"] == 3
    assert payload["coinvariant_exponents"] == [["-3", 0]]
    assert payload["oracle_exponents"] == [-3, -1, 1, 3]
    assert payload["leading"] == -3
    assert payload["pass"] is True


def test_localize_json(tmp_path):
    out = tmp_path / "l.json"
    result = invoke(["localize", "--rep", "2,2", "--point", "1,0,0,1", "--json", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["dim"] == 1
    assert payload["chart"] == "det=1"
    assert len(payload["stabilizer"]) == 3


def test_bound_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("HOROCYCLE_BOUND", "4")
    result = invoke(["verify", "vfilt", "--quiet"])
    assert result.exit_code == 0


@pytest.mark.parametrize(
    "env,args,message",
    [
        ("x", ["verify", "rees"], "HOROCYCLE_BOUND must be an integer"),
        ("-3", ["verify", "rees"], "bound must be non-negative"),
        (None, ["verify", "identities", "--bound", "-1"], "bound must be non-negative"),
        (None, ["verify", "dy", "--bound", "1"], "suite dy needs a bound of at least 2"),
        (None, ["verify", "all", "--bound", "1"], "suite dy needs a bound of at least 2"),
        (None, ["verify", "pwfilt", "--bound", "0"], "suite pwfilt needs a bound of at least 1"),
        (None, ["verify", "grderv", "--bound", "0"], "suite grderv needs a bound of at least 1"),
        (None, ["verify", "asymp-diagram", "--bound", "0"], "suite asymp-diagram needs a bound of at least 1"),
        (None, ["verify", "parabolic", "--bound", "0"], "suite parabolic needs a bound of at least 1"),
    ],
    ids=["env-not-integer", "env-negative", "identities-bound-negative", "dy-bound-1", "all-bound-1",
         "pwfilt-bound-0", "grderv-bound-0", "asymp-diagram-bound-0", "parabolic-bound-0"],
)
def test_bad_bound_is_usage_error(env, args, message):
    result = CliRunner().invoke(main, args, env={"HOROCYCLE_BOUND": env})
    assert result.exit_code == 2
    assert message in result.output
    assert "overall" not in result.output  # rejected before any suite runs


LEAST_BOUNDS = [
    ("dy", vinberg.DY_LEAST_BOUND, 2, vinberg.verify_dy_relation,
     "bound too small to see the relation (< 2)"),
    ("grderv", rees.GRDERV_LEAST_BOUND, 1, rees.gr_derivations_check,
     "level and coefficient bounds must be at least 1"),
    ("pwfilt", vinberg.PWFILT_LEAST_BOUND, 1, vinberg.pw_vs_derivations_check,
     "bound must be at least 1"),
    ("asymp-diagram", vinberg.REP_LEAST_BOUND, 1, lambda b: vinberg.asymp_diagram_check(rep_bound=b),
     "rep bound must be at least 1"),
    ("parabolic", vinberg.REP_LEAST_BOUND, 1, lambda b: vinberg.parabolic_rank1_check(rep_bound=b),
     "rep bound must be at least 1"),
]


@pytest.mark.parametrize("suite,constant,least,run,message", LEAST_BOUNDS, ids=[case[0] for case in LEAST_BOUNDS])
def test_each_least_bound_is_one_constant_that_library_and_cli_read(suite, constant, least, run, message):
    # the library's constant and the CLI's table read the pinned value; one below it
    # the library raises its unchanged message and the CLI exits 2
    assert constant == cli._SUITES[suite][1] == least
    with pytest.raises(ValueError) as excinfo:
        run(least - 1)
    assert str(excinfo.value) == message
    result = CliRunner().invoke(main, ["verify", suite, "--bound", str(least - 1)], env={"HOROCYCLE_BOUND": None})
    assert result.exit_code == 2
    assert f"suite {suite} needs a bound of at least {least}" in result.output


def test_verify_without_a_bound_runs_the_suite_at_its_own_default(monkeypatch):
    # the CLI states no default bound: `verify tau` runs tau_check at its signature's default
    monkeypatch.setattr(rees.tau_check, "__defaults__", (1,))
    result = CliRunner().invoke(main, ["verify", "tau"], env={"HOROCYCLE_BOUND": None})
    assert result.exit_code == 0
    levels = [line for line in result.output.splitlines() if "lifted derivations = relative fields" in line]
    assert len(levels) == 2  # levels 0 and 1


def test_verify_calls_each_suite_by_its_name_in_the_cli_module(monkeypatch):
    # perfbench's tracer rebinds each suite's name in every module; calling the
    # function objects held in _SUITES would bypass its wrappers
    calls = []
    monkeypatch.setattr(cli, "tau_check", lambda *args: calls.append(args) or rees.tau_check(*args))
    result = CliRunner().invoke(main, ["verify", "tau", "--bound", "1"], env={"HOROCYCLE_BOUND": None})
    assert result.exit_code == 0 and calls == [(1,)]
