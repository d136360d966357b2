"""One repetition of a workload in a fresh interpreter.

    python3 child.py MODE PLAN_FILE OUT_PREFIX

MODE is `setup` (import only), `plain` (the untraced measurement), `wrap`
(per-layer wrappers) or `profile` (wrappers plus cProfile, for call counts
only).  The last line of standard output is one JSON object with the
timings; each report goes to OUT_PREFIX-<i>.json for the parent to check.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction

import horocycle
import horocycle.cli  # imports every module of the package
from horocycle import vinberg
from horocycle.action import RationalPoint

T_IMPORTED = time.perf_counter()

import speed  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 15


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _run_cli(call: dict, path: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            horocycle.cli.main(call["argv"] + ["--json", path], standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def _run_api(call: dict, path: str) -> tuple[int, str]:
    extra = [RationalPoint(tuple(Fraction(x) for x in p)) for p in call["extra_points"]]
    if call["suite"] == "asymp-diagram":
        det1, det0 = vinberg.default_sample_points()
        points = det1 + det0 + extra
        report = vinberg.asymp_diagram_check(rep_bound=call["rep_bound"], points=points)
    else:
        points = vinberg.default_torus_fiber_points() + extra
        report = vinberg.parabolic_rank1_check(rep_bound=call["rep_bound"], points=points)
    payload = {
        "tool": "horocycle",
        "version": horocycle.__version__,
        "command": call["suite"],
        "parameters": {"suite": call["suite"], "rep_bound": call["rep_bound"], "points": len(points)},
        "checks": [report.to_json()],
        "pass": report.passed,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return (0 if report.passed else 1), ""


def main() -> int:
    mode, plan_file, out_prefix = sys.argv[1:4]
    setup = speed.Sampler()
    for _ in range(SETUP_PROBES):
        setup.sample()
    result = {"t_imported": T_IMPORTED, "setup_factor": setup.factors()[0]}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    with open(plan_file) as fh:
        calls = json.load(fh)
    sampler = speed.Sampler()
    tracer = profile = None
    if mode in ("wrap", "profile"):
        tracer = tracing.Tracer(probe_clock=lambda: sampler.spent_wall)
        tracer.install()
    if mode == "profile":
        import cProfile

        profile = cProfile.Profile()
    else:
        sampler.start()

    wall = cpu = 0.0
    outcomes = []
    for i, call in enumerate(calls):
        path = f"{out_prefix}-{i}.json"
        runner = _run_cli if call["kind"] == "cli" else _run_api
        spent_w, spent_c = sampler.spent_wall, sampler.spent_cpu
        if profile is not None:
            profile.enable()
        c0 = _cpu()
        t0 = time.perf_counter()
        try:
            code, stdout = runner(call, path)
            error = None
        except Exception as exc:  # a crash is one failed operation; the rest still run
            code, stdout, error = None, "", f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = _cpu()
        if profile is not None:
            profile.disable()
        wall += (t1 - t0) - (sampler.spent_wall - spent_w)
        cpu += (c1 - c0) - (sampler.spent_cpu - spent_c)
        outcomes.append({"path": path, "exit": code, "stdout": stdout, "error": error})
    if profile is None:
        sampler.stop()
    wall_factor, cpu_factor = (sampler if sampler.wall else setup).factors()

    result.update(
        wall=wall,
        cpu=cpu,
        wall_factor=wall_factor,
        cpu_factor=cpu_factor,
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        outcomes=outcomes,
    )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(wall_factor)
        result["calls"] = dict(tracer.calls)
    if profile is not None:
        result["py_calls"] = tracing.py_calls(profile)
    result["left_wrapped"] = tracing.wrapped_bindings()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
