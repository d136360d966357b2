"""Command-line driver for the verification suites and the point computations.

Exit codes: 0 when every check passes, 1 when any check fails, 2 on usage
errors (unknown suite, malformed points, points on no supported variety, a
bound from --bound or HOROCYCLE_BOUND that is not an integer, is negative or
is below the suite's minimum).
JSON output is deterministic: identical invocations write identical bytes.
"""

from __future__ import annotations

import os
import time

import click

from . import __version__
from .action import (
    PointNotOnVariety,
    RationalPoint,
    LieSubalgebra,
    coinvariants,
    level_set_action,
    stabilizer_subalgebra,
)
from .asymptotics import (
    bimodule_exponents,
    exponents_from_coinvariants,
    leading_exponent_check,
    matrix_coefficient_exponents,
)
from .lie import sym_power_rep, tensor_dual_rep
from .rees import (
    GRDERV_LEAST_BOUND,
    gr_derivations_check,
    rees_dimension_check,
    tau_check,
)
from .reports import CheckReport, write_json
from .vinberg import (
    DY_LEAST_BOUND,
    PWFILT_LEAST_BOUND,
    REP_LEAST_BOUND,
    asymp_diagram_check,
    parabolic_rank1_check,
    pw_vs_derivations_check,
    verify_dsl2_presentation,
    verify_dy_relation,
    verify_sl2_identities,
    vfiltration_check,
)

BOUND_ENV = "HOROCYCLE_BOUND"

# suite name -> (suite function, least bound it accepts or None if it takes no
# bound); a suite's default bound is the one in its signature.  A least bound
# above zero is the named constant that the suite's own ValueError check reads,
# set where a lower bound leaves nothing substantive (see each constant).  vfilt
# needs no minimum: at every bound it checks the constant class and four fixed
# det-power quotients, which exercise vanishing_order and pw_level, so its 5
# items at bounds 0 and 1 can fail.
_SUITES = {
    "identities": (verify_sl2_identities, None),
    "presentation": (verify_dsl2_presentation, None),
    "dy": (verify_dy_relation, DY_LEAST_BOUND),
    "rees": (rees_dimension_check, 0),
    "tau": (tau_check, 0),
    "grderv": (gr_derivations_check, GRDERV_LEAST_BOUND),
    "pwfilt": (pw_vs_derivations_check, PWFILT_LEAST_BOUND),
    "vfilt": (vfiltration_check, 0),
    "asymp-diagram": (asymp_diagram_check, REP_LEAST_BOUND),
    "parabolic": (parabolic_rank1_check, REP_LEAST_BOUND),
}


def _effective_bound(suite: str, bound: int | None) -> int | None:
    """The bound from --bound or HOROCYCLE_BOUND; None for the suite's own default or no bound."""
    least = _SUITES[suite][1]
    env = os.environ.get(BOUND_ENV)
    if bound is None and least is not None and env is not None:
        try:
            bound = int(env)
        except ValueError:
            raise click.UsageError(f"{BOUND_ENV} must be an integer, got {env!r}")
    if bound is not None and bound < 0:
        raise click.UsageError("bound must be non-negative")
    if least is not None and bound is not None and bound < least:
        raise click.UsageError(f"suite {suite} needs a bound of at least {least}")
    return None if least is None else bound


def _dense(rows: list[dict], cols: int) -> list[list[str]]:
    """Sparse rows written out dense, each exact entry as its `str`."""
    return [[str(row.get(j, 0)) for j in range(cols)] for row in rows]


def _write_report(path, command: str, fields: dict) -> None:
    """Write a command's JSON report: the tool, version and command header plus `fields`."""
    payload = {"tool": "horocycle", "version": __version__, "command": command, **fields}
    try:
        with open(path, "w") as fh:
            write_json(payload, fh)
            fh.write("\n")
    except OSError as exc:
        raise click.UsageError(f"cannot write the JSON report to {path}: {exc.strerror}")


def _emit(reports: list[CheckReport], command: str, parameters: dict, json_path, quiet: bool):
    overall = all(r.passed for r in reports)
    for r in reports:
        if not quiet:
            for item in r.items:
                status = "pass" if item.passed else "FAIL"
                click.echo(f"  [{status}] {item.name}: expected {item.expected}, got {item.got}")
        click.echo(r.summary())
    click.echo(f"overall: {'PASS' if overall else 'FAIL'}")
    if json_path:
        checks = [r.to_json() for r in reports]
        _write_report(json_path, command, {"parameters": parameters, "checks": checks, "pass": overall})
    return overall


@click.group()
@click.version_option(__version__)
def main():
    """Exact verification suites for the rank-one degeneration kernel."""


@main.command()
@click.argument("suite", type=click.Choice(sorted(_SUITES) + ["all"]))
@click.option("--bound", type=int, default=None, help="Degree bound; suite-specific default.")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
@click.option("--quiet", is_flag=True, help="Only print per-suite summaries.")
def verify(suite, bound, json_path, quiet):
    """Run one verification suite, or `all` of them."""
    names = sorted(_SUITES) if suite == "all" else [suite]
    bounds = {name: _effective_bound(name, bound) for name in names}
    t0 = time.monotonic()
    # each suite by its name in this module, so that a rebinding of the name (a tracer's wrapper) is what runs
    suites = {name: globals()[_SUITES[name][0].__name__] for name in names}
    reports = [suites[name]() if bounds[name] is None else suites[name](bounds[name]) for name in names]
    duration = time.monotonic() - t0
    overall = _emit(reports, f"verify {suite}", {"suite": suite, "bound": bound}, json_path, quiet)
    click.echo(f"elapsed: {duration:.2f}s", err=True)
    raise SystemExit(0 if overall else 1)


@main.command()
@click.option("--m", "m", type=click.IntRange(min=0), required=True)
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
@click.option("--quiet", is_flag=True)
def exponents(m, json_path, quiet):
    """Asymptotic exponents of Sym^m: coinvariants against the symbolic oracle."""
    exps = exponents_from_coinvariants(sym_power_rep(m))
    left, right, _ = bimodule = bimodule_exponents(m)
    report = leading_exponent_check(m, exps, bimodule)
    oracle = sorted(matrix_coefficient_exponents(m))
    # [exponent, log power]: a diagonal induced Cartan acts semisimply, so every log power is 0
    coinvariant_exponents = [[str(lam), 0] for lam in exps[0]]
    if not quiet:
        click.echo(f"coinvariant exponents: {coinvariant_exponents}")
        click.echo(f"oracle exponents: {oracle}")
        click.echo(f"leading exponent: {min(oracle)}")
        click.echo(
            "two-sided (left, right) exponents: "
            f"{[str(x) for x in sorted(left)]}, {[str(x) for x in sorted(right)]}"
        )
    click.echo(report.summary())
    click.echo(f"overall: {'PASS' if report.passed else 'FAIL'}")
    if json_path:
        _write_report(json_path, "exponents", {
            "m": m,
            "coinvariant_exponents": coinvariant_exponents,
            "oracle_exponents": oracle,
            "leading": min(oracle),
            "checks": [report.to_json()],
            "pass": report.passed,
        })
    raise SystemExit(0 if report.passed else 1)


@main.command()
@click.option("--rep", "rep_spec", required=True, help="m,k for V_m (x) V_k*.")
@click.option("--point", "point_spec", required=True, help="a,b,c,d with p/q entries.")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
@click.option("--quiet", is_flag=True)
def localize(rep_spec, point_spec, json_path, quiet):
    """Stabilizer and localization fiber of V_m (x) V_k* at a rational point."""
    try:
        m, k = (int(x) for x in rep_spec.split(","))
        if m < 0 or k < 0:
            raise ValueError
    except ValueError:
        raise click.UsageError("--rep expects two non-negative integers m,k")
    try:
        point = RationalPoint.parse(point_spec)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError("--point expects four rationals a,b,c,d")
    try:
        chart, act = level_set_action(point)
    except PointNotOnVariety as exc:
        raise click.UsageError(str(exc))
    module = tensor_dual_rep(m, k)
    stab = stabilizer_subalgebra(act, point)
    cartan = LieSubalgebra(stab.desc, ({1: 1},))
    commuting = cartan if cartan.normalizes(stab) else None
    projection, induced = coinvariants(module, stab, commuting=commuting)
    dim = len(projection)
    basis = _dense(stab.vectors, stab.desc.dim)
    cartans = [_dense(t, dim) for t in induced]
    if not quiet:
        click.echo(f"chart: {chart}")
        click.echo(f"stabilizer dimension: {stab.dim}")
        for v in basis:
            click.echo(f"  basis: {v}")
        click.echo(f"coinvariants dimension: {dim}")
        if commuting is not None:
            click.echo(f"induced Cartan matrix: {cartans[0]}")
        else:
            click.echo("induced Cartan action: not applicable (Cartan does not normalize stabilizer)")
    click.echo(f"dimension: {dim}")
    if json_path:
        _write_report(json_path, "localize", {
            "rep": [m, k],
            "point": point.to_json(),
            "chart": chart,
            "stabilizer": basis,
            "result": {"dim": dim, "projection": _dense(projection, module.dim), "induced": cartans},
        })
    raise SystemExit(0)


if __name__ == "__main__":
    main()
