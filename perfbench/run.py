"""Cold-start benchmark of the horocycle verification suites.

    python3 perfbench/run.py --workload dy-cone --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Every repetition starts a fresh
interpreter (perfbench/child.py) that imports horocycle from ./src, runs the
workload's calls and writes their reports; this process checks each report
against closed forms computed here (perfbench/checks.py) and prints, as the
last line, one JSON object: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "report_schema.json"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3  # import-only interpreters at the start; one more before each repetition
MIN_REPS = 2
CHILD_TIMEOUT_S = 170


class RepFailed(Exception):
    pass


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "HOROCYCLE_BOUND"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    return env


def _spawn(mode: str, plan_file: Path, prefix: Path) -> tuple[float, dict]:
    """Run one child; returns (spawn time, its result)."""
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), mode, str(plan_file), str(prefix)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"child {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return t_spawn, json.loads(lines[-1])


class Run:
    """The repetitions of one run and what they measured."""

    def __init__(self, workload: str, calls: list, plan_file: Path, schema):
        self.workload = workload
        self.calls = calls
        self.plan_file = plan_file
        self.schema = schema
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup: list[float] = []
        self.raw_setup: list[float] = []
        self.reps: list[dict] = []

    def _add_setup(self, t_spawn: float, res: dict):
        raw = res["t_imported"] - t_spawn
        self.raw_setup.append(raw)
        self.setup.append(raw * res["setup_factor"])

    def setup_sample(self):
        self._add_setup(*_spawn("setup", self.plan_file, OUT / f"{os.getpid()}-setup"))

    def rep(self, mode: str) -> dict | None:
        """One repetition; its reports are checked and removed."""
        prefix = OUT / f"{os.getpid()}-{len(self.reps)}"
        self.attempted += len(self.calls)
        try:
            t_spawn, res = _spawn(mode, self.plan_file, prefix)
        except (RepFailed, subprocess.TimeoutExpired) as exc:
            self.failed += len(self.calls)
            print(f"failed repetition: {exc}", file=sys.stderr)
            return None
        items = 0
        for call, outcome in zip(self.calls, res["outcomes"]):
            path = Path(outcome["path"])
            if outcome["error"] is None and not path.is_file():
                outcome["error"] = f"exit code {outcome['exit']} and no report"
            if outcome["error"] is not None:
                self.failed += 1
                print(f"failed call {call['suite']}: {outcome['error']}", file=sys.stderr)
                continue
            with open(path) as fh:
                payload = json.load(fh)
            path.unlink()
            items += checks.count_items(payload)
            self.errors += checks.check_report(call, payload, outcome["stdout"], self.schema)
        if res["left_wrapped"]:
            self.errors.append(f"{mode} repetition left wrappers at {res['left_wrapped']}")
        res["items"] = items
        self._add_setup(t_spawn, res)
        self.reps.append(res)
        return res

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


def measure(run: Run, seconds: float) -> dict:
    start = time.perf_counter()
    for _ in range(SETUP_SAMPLES):
        run.setup_sample()
    last = 0.0
    attempts = 0
    while attempts < MIN_REPS or time.perf_counter() - start + last / 2 < seconds:
        t0 = time.perf_counter()
        run.setup_sample()
        run.rep("plain")
        attempts += 1
        last = time.perf_counter() - t0
    if not run.reps:
        raise RepFailed("no repetition completed")
    plain = run.reps
    items = {r["items"] for r in plain}
    if len(items) != 1:
        run.errors.append(f"items checked differ between repetitions: {sorted(items)}")
    med = statistics.median
    print(
        f"# {run.workload}: {len(plain)} repetitions; raw medians wall {med(r['wall'] for r in plain):.4f} s, "
        f"cpu {med(r['cpu'] for r in plain):.4f} s, setup {med(run.raw_setup):.4f} s; "
        f"speed factor wall {med(r['wall_factor'] for r in plain):.4f}, cpu {med(r['cpu_factor'] for r in plain):.4f}"
    )
    return {
        "wall_s": (med(r["wall"] * r["wall_factor"] for r in plain), "s"),
        "cpu_s": (med(r["cpu"] * r["cpu_factor"] for r in plain), "s"),
        "setup_s": (med(run.setup), "s"),
        "peak_rss_mb": (med(r["peak_rss_kib"] / 1024 for r in plain), "MiB"),
        "items_checked": (min(items), "count"),
    }


def trace(run: Run) -> dict:
    plain = run.rep("plain")
    wrapped = run.rep("wrap")
    profiled = run.rep("profile")
    if plain is None or wrapped is None or profiled is None:
        raise RepFailed("a traced repetition failed")
    if wrapped["calls"] != profiled["calls"]:
        diff = {g: (n, profiled["calls"][g]) for g, n in wrapped["calls"].items() if n != profiled["calls"][g]}
        run.errors.append(f"call counts differ between two traced repetitions: {diff}")
    idle = [g for g in tracing.STRESSED[run.workload] if not wrapped["calls"][g]]
    if idle:
        raise RepFailed(f"{run.workload} never called {', '.join(idle)}")
    metrics = {}
    for name, value in {**wrapped["layers"], **profiled["py_calls"]}.items():
        unit = "s" if name.endswith(".s") else "ratio" if name.endswith("ratio") else "count"
        metrics[name] = (value, unit)
    overhead = wrapped["wall"] * wrapped["wall_factor"] - plain["wall"] * plain["wall_factor"]
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in (SRC / "horocycle" / "__init__.py", SCHEMA) if not p.is_file()]
    if missing:
        print(f"run from a checkout of the repository: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    calls = workloads.plan(args.workload, args.seed)
    plan_file = OUT / f"plan-{os.getpid()}.json"
    plan_file.write_text(json.dumps(calls))
    try:
        run = Run(args.workload, calls, plan_file, checks.load_schema(str(SCHEMA)))
        _spawn("setup", plan_file, OUT / "warm")  # compiles bytecode; not timed
        metrics = trace(run) if args.trace else measure(run, args.seconds)
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        plan_file.unlink()
    for error in run.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(run.result(metrics)))
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
