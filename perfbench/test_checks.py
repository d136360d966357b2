"""The benchmark's checks accept real reports and reject a report with one
number altered.  Reports come from small runs of the same calls the
workloads make.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import workloads  # noqa: E402

SCHEMA = checks.load_schema(str(BENCH.parent / "docs" / "report_schema.json"))


def _item(payload, prefix):
    return next(i for c in payload["checks"] for i in c["items"] if i["name"].startswith(prefix))


def _both(payload, prefix, value):
    item = _item(payload, prefix)
    item["expected"] = item["got"] = value


def _set_exponent(payload, stdout):
    payload["coinvariant_exponents"][0][0] = "-1"
    return stdout


def _set_right_exponent(payload, stdout):
    return stdout.replace("['2']", "['1']")


_LADDER = {call["suite"]: call for call in workloads.plan("coinvariant-ladder", 11)}

# (call, mutation that alters one number and returns the stdout to check)
CASES = {
    "dy": ({"kind": "cli", "suite": "dy", "bound": 2, "argv": ["verify", "dy", "--bound", "2", "--quiet"]},
           lambda p, out: _both(p, "bidegree (2,0)", "2") or out),
    "dy-got": ({"kind": "cli", "suite": "dy", "bound": 2, "argv": ["verify", "dy", "--bound", "2", "--quiet"]},
               lambda p, out: _item(p, "bidegree (2,2)").update(got="5") or out),
    "exponents": ({"kind": "cli", "suite": "exponents", "m": 2, "argv": ["exponents", "--m", "2"]},
                  _set_exponent),
    "exponents-right": ({"kind": "cli", "suite": "exponents", "m": 2, "argv": ["exponents", "--m", "2"]},
                        _set_right_exponent),
    "asymp-diagram": ({**_LADDER["asymp-diagram"], "rep_bound": 1},
                      lambda p, out: _both(p, f"V1 (x) V1* at ('{_LADDER['asymp-diagram']['extra_points'][1][0]}'",
                                           "2") or out),
    "parabolic": ({**_LADDER["parabolic"], "rep_bound": 1},
                  lambda p, out: _both(p, f"V1 (x) V1* at ('{_LADDER['parabolic']['extra_points'][0][0]}'",
                                       "dim 1, cartan [Fraction(1, 1), Fraction(2, 1)]") or out),
    "rees": ({"kind": "cli", "suite": "rees", "bound": 5, "argv": ["verify", "rees", "--bound", "5", "--quiet"]},
             lambda p, out: _both(p, "weight 3: presentation piece", "21") or out),
    "tau": ({"kind": "cli", "suite": "tau", "bound": 1, "argv": ["verify", "tau", "--bound", "1", "--quiet"]},
            lambda p, out: _item(p, "level 1:").update(got="dim 21, independent 21, relative True") or out),
    "vfilt": ({"kind": "cli", "suite": "vfilt", "bound": 4, "argv": ["verify", "vfilt", "--bound", "4", "--quiet"]},
              lambda p, out: p["checks"][0]["items"].pop() and out),
}


def _run(call, tmp_path):
    path = str(tmp_path / "report.json")
    runner = child._run_cli if call["kind"] == "cli" else child._run_api
    code, stdout = runner(call, path)
    assert code == 0
    return json.loads(Path(path).read_text()), stdout


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_altered_number_fails(case, tmp_path):
    call, mutate = CASES[case]
    payload, stdout = _run(call, tmp_path)
    assert checks.check_report(call, payload, stdout, SCHEMA) == []
    stdout = mutate(payload, stdout)
    assert checks.check_report(call, payload, stdout, SCHEMA)


def test_schema_violation_fails(tmp_path):
    call = CASES["rees"][0]
    payload, stdout = _run(call, tmp_path)
    payload["checks"][0]["items"][0]["pass"] = "true"
    assert checks.check_report(call, payload, stdout, SCHEMA)


def test_generated_points_lie_on_their_varieties():
    import random

    rng = random.Random(7)
    for _ in range(50):
        a, b, c, d = workloads.det_one_point(rng)
        assert a * d - b * c == 1
        a, b, c, d = workloads.cone_point(rng)
        assert a * d - b * c == 0 and any((a, b, c, d))
        a, b, c, d = workloads.torus_fibre_point(rng)
        assert a and not (b or c or d)


def test_plans_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.plan(name, 3) == workloads.plan(name, 3)
    assert workloads.plan("coinvariant-ladder", 1) != workloads.plan("coinvariant-ladder", 2)


def test_traced_run_prints_every_per_layer_metric():
    import tracing

    names = set(tracing.Tracer().metrics(1.0)) | {"trace.overhead_s", "py_calls.fractions"}
    names |= {f"py_calls.{m}" for m in tracing.PY_CALL_MODULES}
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert names == {m["name"] for m in bench["per_layer"]}
