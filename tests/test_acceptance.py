"""Acceptance gate: one test per criterion, exact tolerances, stated time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

from horocycle.action import (
    RationalPoint,
    coinvariants,
    lr_action_sl2,
    stabilizer_subalgebra,
)
from horocycle.asymptotics import (
    exponents_from_coinvariants,
    leading_exponent_check,
    matrix_coefficient_exponents,
)
from horocycle.cli import main
from horocycle.lie import dual_rep, external_tensor, sl2_desc, sym_power_rep
from horocycle.linalg import mat_mul
from horocycle.rees import (
    gr_derivations_check,
    rees_dimension_check,
    tau_check,
)
from horocycle.vinberg import (
    asymp_diagram_check,
    default_pw_samples,
    parabolic_rank1_check,
    pw_vs_derivations_check,
    verify_dsl2_presentation,
    verify_dy_relation,
    verify_sl2_identities,
    vfiltration_check,
)
from horocycle.weyl import WeylOp
from matrices import act_rows
from pbw_oracle import random_pbw_normal_form, word_product


def _within(name: str, budget: float, fn):
    t0 = time.monotonic()
    result = fn()
    elapsed = time.monotonic() - t0
    ok = bool(result)
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"{name} failed"
    assert elapsed < budget, f"{name} exceeded budget: {elapsed:.2f}s >= {budget}s"
    return result


def test_criterion_01_identity_suite():
    def run():
        report = verify_sl2_identities()
        names = [it.name for it in report.items]
        assert sum(1 for n in names if n.startswith("det *")) == 3
        assert any("Casimir(x)1) = mu(1(x)Casimir" in n for n in names)
        assert any("Eu^2" in n for n in names)
        return report.passed

    _within("1 (operator identity table)", 5, run)


def test_criterion_02_moment_map_structure():
    def run():
        report = verify_sl2_identities()
        brackets = [it for it in report.items if it.name.startswith("bracket")]
        assert len(brackets) == 15
        kernel = next(it for it in report.items if "kernel dimension" in it.name)
        assert kernel.got == "6"
        span = next(it for it in report.items if "span that kernel" in it.name)
        return all(it.passed for it in brackets) and kernel.passed and span.passed

    _within("2 (moment-map structure)", 5, run)


def test_criterion_03_presentation():
    def run():
        report = verify_dsl2_presentation()
        assert len([it for it in report.items if "cofactor" in it.name]) == 3
        return report.passed

    _within("3 (determinant-one presentation)", 5, run)


def test_criterion_04_cone_relation():
    def run():
        report = verify_dy_relation(4)
        windows = [it for it in report.items if it.name.startswith("bidegree")]
        assert len(windows) == 25
        return report.passed

    _within("4 (rank-one cone relation)", 3, run)


def test_criterion_04_stretch_bound_5():
    golden = (Path(__file__).parent / "golden" / "verify_dy_bound5.json").read_text()

    def run():
        report = verify_dy_relation(5)
        assert json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n" == golden
        return report.passed

    _within("4 stretch (rank-one cone relation, bound 5)", 3, run)


def test_criterion_04_stretch_bound_6():
    golden = (Path(__file__).parent / "golden" / "verify_dy_bound6.json").read_text()

    def run():
        report = verify_dy_relation(6)
        assert json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n" == golden
        return report.passed

    _within("4 stretch (rank-one cone relation, bound 6)", 6, run)


def test_criterion_05_rees_machinery():
    def run():
        tau = tau_check(level_bound=4)
        gr = gr_derivations_check(4)
        fibers = rees_dimension_check(6)
        return tau.passed and gr.passed and fibers.passed

    _within("5 (Rees machinery)", 3, run)


def test_criterion_06_filtration_agreement():
    def run():
        samples = default_pw_samples()
        assert len(samples) >= 20
        report = pw_vs_derivations_check(6)
        return report.passed

    _within("6 (Peter-Weyl vs derivations levels)", 3, run)


def test_criterion_07_pole_orders():
    def run():
        report = vfiltration_check(12)
        monomials = [it for it in report.items if it.name.startswith("[")]
        assert len(monomials) == 1036
        return report.passed

    _within("7 (pole order vs matrix-coefficient level)", 3, run)


def test_criterion_06_stretch_bound_10():
    def run():
        report = pw_vs_derivations_check(bound=10)
        assert len(report.items) == 21
        return report.passed

    _within("6 stretch (Peter-Weyl vs derivations levels, bound 10)", 2, run)


def test_criterion_07_stretch_bound_16():
    def run():
        report = vfiltration_check(16)
        monomials = [it for it in report.items if it.name.startswith("[")]
        assert len(monomials) == 2685
        return report.passed

    _within("7 stretch (pole order vs matrix-coefficient level, bound 16)", 2, run)


def test_criterion_08_fiberwise_localization():
    def run():
        report = asymp_diagram_check(rep_bound=3)
        assert len(report.items) == 16 * 8
        return report.passed

    _within("8 (fiberwise localization)", 3, run)


def test_criterion_09_parabolic_rank_one():
    def run():
        report = parabolic_rank1_check(rep_bound=3)
        assert report.parameters["points"] >= 3
        return report.passed

    _within("9 (staged vs direct coinvariants)", 3, run)


def test_criterion_10_asymptotic_exponents():
    def run():
        for m in range(9):
            report = leading_exponent_check(m)
            if not report.passed:
                return False
            exps, off_diagonal = exponents_from_coinvariants(sym_power_rep(m))
            oracle = matrix_coefficient_exponents(m)
            assert set(exps) <= oracle
            assert min(oracle) in exps
            assert len(exps) == 1 and off_diagonal == []
        return True

    _within("10 (asymptotic exponents)", 3, run)


def test_criterion_08_stretch_rep_bound_5():
    def run():
        report = asymp_diagram_check(rep_bound=5)
        assert len(report.items) == 36 * 8
        return report.passed

    _within("8 stretch (fiberwise localization, rep_bound 5)", 2, run)


def test_criterion_09_stretch_rep_bound_5():
    def run():
        report = parabolic_rank1_check(rep_bound=5)
        assert len(report.items) == 36 * 3
        return report.passed

    _within("9 stretch (staged vs direct coinvariants, rep_bound 5)", 2, run)


def test_criterion_10_stretch_m16():
    def run():
        report = leading_exponent_check(16)
        assert len(report.items) == 5
        return report.passed

    _within("10 stretch (asymptotic exponents, m = 16)", 5, run)


def test_criterion_11_kernel_soundness():
    def run():
        rng = random.Random(12345)
        V = ("a", "b", "c", "d")

        def rand_op():
            t = {}
            for _ in range(4):
                xe = [0] * 4
                de = [0] * 4
                for _ in range(rng.randint(0, 2)):
                    xe[rng.randrange(4)] += 1
                for _ in range(rng.randint(0, 2)):
                    de[rng.randrange(4)] += 1
                t[(tuple(xe), tuple(de))] = Fraction(rng.randint(-3, 3))
            return WeylOp(V, t)

        for _ in range(100):
            p, q, r = rand_op(), rand_op(), rand_op()
            if (p * q) * r != p * (q * r):
                return False

        d = sl2_desc()
        for _ in range(100):
            word = tuple(rng.randrange(3) for _ in range(rng.randint(1, 5)))
            if word_product(d, word) != random_pbw_normal_form(d, word, rng):
                return False

        act = lr_action_sl2()
        for coords in [(1, 0, 0, 1), (1, 1, 0, 1)]:
            s = stabilizer_subalgebra(act, RationalPoint(coords))
            module = external_tensor(sym_power_rep(2), dual_rep(sym_power_rep(1)))
            proj, _ = coinvariants(module, s)
            for v in s.vectors:
                if any(mat_mul(proj, act_rows(module, v))):
                    return False

        runner = CliRunner()
        outs = []
        for _ in range(2):
            result = runner.invoke(main, ["exponents", "--m", "4"])
            if result.exit_code != 0:
                return False
            outs.append(result.stdout)
        return outs[0] == outs[1]

    _within("11 (kernel soundness and determinism)", 3, run)
