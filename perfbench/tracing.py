"""Per-layer tracing from outside the program.

Every target below is a public function or method of one horocycle module.
`install` replaces it at every binding site: the defining module or class,
and each module that bound the same object with `from .x import name`.  The
wrapper counts calls and measures self time, the time inside the call minus
the time in other wrapped calls it made and minus the speed probe's own
time.  `py_calls` counts Python-level calls per source file with cProfile.
"""

from __future__ import annotations

import cProfile
import fractions
import os
import sys
import time

# metric prefix -> (module, qualified name); one prefix may group several targets
TARGETS = [
    ("linalg.rank_add", "horocycle.linalg", "IncrementalRank.add"),
    ("linalg.rref", "horocycle.linalg", "rref"),
    ("linalg.mat_mul", "horocycle.linalg", "mat_mul"),
    ("linalg.char_poly", "horocycle.linalg", "char_poly"),
    ("lie.rep_build", "horocycle.lie", "sym_power_rep"),
    ("lie.rep_build", "horocycle.lie", "dual_rep"),
    ("lie.rep_build", "horocycle.lie", "external_tensor"),
    ("lie.uenv_mul", "horocycle.lie", "UEnvElement.__mul__"),
    ("action.coinvariants", "horocycle.action", "coinvariants"),
    ("action.stabilizer", "horocycle.action", "stabilizer_subalgebra"),
    ("action.moment_map", "horocycle.action", "moment_map"),
    ("asymptotics.exponents", "horocycle.asymptotics", "exponents_from_coinvariants"),
    ("asymptotics.bimodule_exponents", "horocycle.asymptotics", "bimodule_exponents"),
    ("exactalg.normal_form", "horocycle.exactalg", "QuotientRing.normal_form"),
    ("exactalg.poly_mul", "horocycle.exactalg", "ExactPoly.__mul__"),
    ("weyl.apply_op", "horocycle.weyl", "apply_op"),
    ("weyl.op_mul", "horocycle.weyl", "WeylOp.__mul__"),
    ("rees.derivation_space", "horocycle.rees", "sl2_derivation_space"),
    ("reports.to_json", "horocycle.reports", "CheckReport.to_json"),
    # the suites; `exponents_check` because `asymptotics.exponents` names a layer
    ("vinberg.dy", "horocycle.vinberg", "verify_dy_relation"),
    ("vinberg.identities", "horocycle.vinberg", "verify_sl2_identities"),
    ("vinberg.presentation", "horocycle.vinberg", "verify_dsl2_presentation"),
    ("vinberg.pwfilt", "horocycle.vinberg", "pw_vs_derivations_check"),
    ("vinberg.vfilt", "horocycle.vinberg", "vfiltration_check"),
    ("vinberg.asymp-diagram", "horocycle.vinberg", "asymp_diagram_check"),
    ("vinberg.parabolic", "horocycle.vinberg", "parabolic_rank1_check"),
    ("rees.rees", "horocycle.rees", "rees_dimension_check"),
    ("rees.tau", "horocycle.rees", "tau_check"),
    ("rees.grderv", "horocycle.rees", "gr_derivations_check"),
    ("asymptotics.exponents_check", "horocycle.asymptotics", "leading_exponent_check"),
]

GROUPS = list(dict.fromkeys(prefix for prefix, _, _ in TARGETS))

# Metrics each group reports besides `.s`, which all report.
EXTRA_METRICS = {
    "linalg.rank_add": ("calls", "useful_ratio"),
    "linalg.rref": ("calls", "cells"),
    "linalg.mat_mul": ("calls",),
    "lie.rep_build": ("calls",),
    "lie.uenv_mul": ("calls",),
    "action.coinvariants": ("calls",),
    "action.moment_map": ("calls",),
    "exactalg.normal_form": ("calls",),
    "weyl.apply_op": ("calls",),
    "weyl.op_mul": ("calls",),
}

PY_CALL_MODULES = ("linalg", "exactalg", "weyl", "lie", "action", "asymptotics", "rees", "vinberg")

# Groups a workload is meant to stress: a traced run fails if one has no calls.
STRESSED = {
    "dy-cone": ("linalg.rank_add", "weyl.op_mul", "lie.uenv_mul", "action.moment_map",
                "reports.to_json", "vinberg.dy"),
    "coinvariant-ladder": ("linalg.rref", "linalg.mat_mul", "linalg.char_poly", "lie.rep_build",
                           "action.coinvariants", "action.stabilizer", "asymptotics.exponents",
                           "asymptotics.bimodule_exponents", "reports.to_json",
                           "vinberg.asymp-diagram", "vinberg.parabolic",
                           "asymptotics.exponents_check"),
    "filtration-sweep": ("exactalg.normal_form", "exactalg.poly_mul", "weyl.apply_op",
                         "rees.derivation_space", "linalg.rref", "linalg.rank_add",
                         "reports.to_json", "vinberg.identities", "vinberg.presentation",
                         "rees.rees", "rees.tau", "rees.grderv", "vinberg.pwfilt",
                         "vinberg.vfilt"),
}

_MARK = "_perfbench_group"


def _resolve(module: str, qualname: str):
    """([(owner, attribute) for each binding of the target], the original function)."""
    mod = sys.modules[module]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(mod, cls_name)
        fn = cls.__dict__[attr]
        return [(cls, name) for name, v in vars(cls).items() if v is fn], fn
    fn = getattr(mod, qualname)
    sites = []
    for name, m in sorted(sys.modules.items()):
        if name == "horocycle" or name.startswith("horocycle."):
            sites += [(m, attr) for attr, v in vars(m).items() if v is fn]
    return sites, fn


class Tracer:
    """Call counts and self times per group, filled by the installed wrappers."""

    def __init__(self, probe_clock=lambda: 0.0):
        self.calls = {g: 0 for g in GROUPS}
        self.self_s = {g: 0.0 for g in GROUPS}
        self.useful = 0
        self.cells = 0
        self._probe_clock = probe_clock
        self._stack: list[list[float]] = []
        self._installed: list[tuple] = []

    def _wrap(self, group: str, fn):
        tracer = self
        calls, self_s, stack = self.calls, self.self_s, self._stack
        probe_clock = self._probe_clock
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[group] += 1
            if group == "linalg.rref":
                mat = args[0]
                tracer.cells += len(mat) * (len(mat[0]) if mat else 0)
            frame = [0.0]
            stack.append(frame)
            p0 = probe_clock()
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0 - (probe_clock() - p0)
                stack.pop()
                self_s[group] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if group == "linalg.rank_add" and out:
                tracer.useful += 1
            return out

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        setattr(wrapper, _MARK, group)
        return wrapper

    def install(self):
        for group, module, qualname in TARGETS:
            sites, fn = _resolve(module, qualname)
            wrapper = self._wrap(group, fn)
            for owner, attr in sites:
                self._installed.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def metrics(self, scale: float) -> dict:
        """Group metrics; times are multiplied by `scale` (reference seconds per second)."""
        out = {}
        for group in GROUPS:
            extras = EXTRA_METRICS.get(group, ())
            if "calls" in extras:
                out[f"{group}.calls"] = self.calls[group]
            if "useful_ratio" in extras:
                n = self.calls[group]
                out[f"{group}.useful_ratio"] = self.useful / n if n else 0.0
            if "cells" in extras:
                out[f"{group}.cells"] = self.cells
            out[f"{group}.s"] = self.self_s[group] * scale
        return out


def wrapped_bindings() -> list[str]:
    """Bindings in any horocycle module or class that still hold a wrapper."""
    found = []
    for name, mod in sorted(sys.modules.items()):
        if not (name == "horocycle" or name.startswith("horocycle.")):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                found += [f"{name}.{attr}.{a}" for a, v in vars(value).items() if hasattr(v, _MARK)]
    return found


def py_calls(profile: cProfile.Profile) -> dict:
    """Python-level call counts of the profiled span, per source module."""
    src = os.path.dirname(sys.modules["horocycle"].__file__)
    files = {os.path.join(src, f"{m}.py"): f"py_calls.{m}" for m in PY_CALL_MODULES}
    files[fractions.__file__] = "py_calls.fractions"
    counts = {key: 0 for key in files.values()}
    for entry in profile.getstats():
        code = entry.code
        if not isinstance(code, str) and code.co_filename in files:
            counts[files[code.co_filename]] += entry.callcount
    return counts
