"""Every memo of the package is a `functools.cache`, apart from the rings'
normal-form memos (`QuotientRing._nf_memo`) and each operator's apply plan
(`WeylOp._plan`, which lives and dies with its operator, so clearing the
caches that hold operators drops it), and a warm cache changes no report.

A caller that mutated a shared cached table would make a later run differ
from a cold one, so each report is compared with its golden file after all
caches and normal-form memos are cleared and again with every cache warm.
"""

import importlib
import pkgutil
from pathlib import Path

from click.testing import CliRunner

import horocycle
from horocycle.cli import main
from horocycle.exactalg import horocycle_ring, mat2_ring, sl2_ring

GOLDEN = Path(__file__).parent / "golden"

EXPECTED = {
    "action._builtin_action",
    "action.moment_table",
    "lie._word_normal_form",
    "lie.tensor_dual_rep",
    "rees._det_power",
    "rees._graded_span_dim",
    "rees.sl2_derivation_space",
    "vinberg._mono_mul",
    "vinberg._pbw_mul",
    "vinberg._sl2_mul",
}

# the rings whose normal forms the suites memoize (`QuotientRing._nf_memo`)
MEMO_RINGS = (mat2_ring(), sl2_ring(), horocycle_ring())

CASES = [
    (["verify", "asymp-diagram"], "verify_asymp-diagram.json"),
    (["verify", "parabolic"], "verify_parabolic.json"),
    (["verify", "dy", "--bound", "3"], "verify_dy_bound3.json"),
    (["verify", "tau"], "verify_tau.json"),
    (["verify", "grderv"], "verify_grderv.json"),
    (["verify", "pwfilt"], "verify_pwfilt.json"),
]


def package_caches() -> dict:
    """{module.name: function} of every module-level `functools.cache` of the package."""
    found = {}
    for info in pkgutil.iter_modules(horocycle.__path__):
        mod = importlib.import_module(f"horocycle.{info.name}")
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == mod.__name__:
                found[f"{info.name}.{value.__qualname__}"] = value
    return found


def clear_all_caches():
    for fn in package_caches().values():
        fn.cache_clear()
    for ring in MEMO_RINGS:
        ring._nf_memo.clear()


def test_the_package_memoizes_through_functools_cache():
    assert set(package_caches()) == EXPECTED


def test_cold_and_warm_caches_give_the_golden_reports(tmp_path):
    clear_all_caches()
    caches = package_caches().values()
    assert not any(fn.cache_info().currsize for fn in caches)
    assert not any(ring._nf_memo for ring in MEMO_RINGS)
    for run in ("cold", "warm"):
        for args, name in CASES:
            out = tmp_path / f"{run}-{name}"
            result = CliRunner().invoke(
                main, args + ["--quiet", "--json", str(out)], env={"HOROCYCLE_BOUND": None}
            )
            assert result.exit_code == 0, result.output
            assert out.read_bytes() == (GOLDEN / name).read_bytes(), (run, name)
    assert all(fn.cache_info().hits for fn in caches)
