"""Each benchmark workload reaches every layer it is meant to stress.

`perfbench/run.py --trace 1` fails a workload whose stressed layer
(`tracing.STRESSED`) is never called.  This test installs the same per-layer
wrappers (`tracing.Tracer`) around in-process CLI runs of each workload's
suites at small bounds, with every cache cleared first as in a fresh
interpreter, so a change that leaves a stressed layer idle fails here.
"""

import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from horocycle.cli import main
from test_caches import clear_all_caches

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

SWEEP = ["identities", "presentation", "rees", "tau", "grderv", "pwfilt", "vfilt"]

RUNS = {
    "dy-cone": [["verify", "dy", "--bound", "2"]],
    "coinvariant-ladder": [
        ["exponents", "--m", "2"],
        ["verify", "asymp-diagram", "--bound", "1"],
        ["verify", "parabolic", "--bound", "1"],
    ],
    "filtration-sweep": [["verify", suite, "--bound", "2"] for suite in SWEEP],
}


@pytest.mark.parametrize("workload", list(RUNS))
def test_no_stressed_layer_is_idle(workload, tmp_path):
    clear_all_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(RUNS[workload]):
            out = tmp_path / f"{i}.json"
            result = CliRunner().invoke(main, argv + ["--quiet", "--json", str(out)], env={"HOROCYCLE_BOUND": None})
            assert result.exit_code == 0, result.output
    finally:
        tracer.uninstall()
    assert tracing.wrapped_bindings() == []
    assert [g for g in tracing.STRESSED[workload] if not tracer.calls[g]] == []
