"""Behaviour anchor: the JSON reports of the coinvariant computations and of the
relative-field and filtration suites, byte for byte.

The files under golden/ pin the quotient maps Y and the induced matrices T as
well as the item lists, so any change to how quotients are formed shows here;
the identities, tau and grderv reports pin the relative-field kernels, the
vfilt item names pin the polynomial text format, the vfilt reports at bounds 6,
12 (the default) and 16 and the rees report at bound 16 pin the normal forms on
O(SL2) up to the benchmark's bounds, and the dy report pins the window counts
of the incremental eliminator.  `verify all` runs every suite in one process,
with the caches they share, and must report each suite's golden checks.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from horocycle.cli import _SUITES, main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (["verify", "asymp-diagram"], "verify_asymp-diagram.json"),
    (["verify", "parabolic"], "verify_parabolic.json"),
    (["verify", "identities"], "verify_identities.json"),
    (["verify", "tau"], "verify_tau.json"),
    (["verify", "grderv"], "verify_grderv.json"),
    (["verify", "presentation"], "verify_presentation.json"),
    (["verify", "rees"], "verify_rees.json"),
    (["verify", "pwfilt"], "verify_pwfilt.json"),
    (["verify", "vfilt"], "verify_vfilt.json"),
    (["verify", "grderv", "--bound", "6"], "verify_grderv_bound6.json"),
    (["verify", "tau", "--bound", "6"], "verify_tau_bound6.json"),
    (["verify", "pwfilt", "--bound", "10"], "verify_pwfilt_bound10.json"),
    (["verify", "vfilt", "--bound", "6"], "verify_vfilt_bound6.json"),
    (["verify", "vfilt", "--bound", "16"], "verify_vfilt_bound16.json"),
    (["verify", "rees", "--bound", "16"], "verify_rees_bound16.json"),
    (["verify", "dy", "--bound", "3"], "verify_dy_bound3.json"),
    (["verify", "dy"], "verify_dy.json"),
    (["exponents", "--m", "5"], "exponents_m5.json"),
    (["localize", "--rep", "2,2", "--point", "1,1,0,1"], "localize_2_2_at_1_1_0_1.json"),
    (["localize", "--rep", "3,3", "--point", "0,1,0,0"], "localize_3_3_at_0_1_0_0.json"),
]


@pytest.mark.parametrize("args,name", CASES, ids=[name for _, name in CASES])
def test_report_bytes_match_golden(tmp_path, args, name):
    out = tmp_path / name
    result = CliRunner().invoke(
        main, args + ["--quiet", "--json", str(out)], env={"HOROCYCLE_BOUND": None}
    )
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_verify_all_reports_every_suite_golden(tmp_path):
    out = tmp_path / "all.json"
    result = CliRunner().invoke(main, ["verify", "all", "--quiet", "--json", str(out)], env={"HOROCYCLE_BOUND": None})
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    goldens = [json.loads((GOLDEN / f"verify_{suite}.json").read_text()) for suite in sorted(_SUITES)]
    assert len(goldens) == 10
    assert payload["pass"] is True
    assert payload["checks"] == [check for golden in goldens for check in golden["checks"]]


def test_only_the_parabolic_golden_holds_fraction_reprs():
    # the parabolic items print char_poly's coefficients as a list of Fractions;
    # a new golden that writes a repr fails here
    holders = {path.name: sum("Fraction(" in line for line in path.read_text().splitlines())
               for path in GOLDEN.glob("*.json") if "Fraction(" in path.read_text()}
    assert holders == {"verify_parabolic.json": 96}
