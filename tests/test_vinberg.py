from fractions import Fraction

import pytest

from horocycle.action import RationalPoint
from horocycle.vinberg import (
    _integral,
    asymp_diagram_check,
    default_pw_samples,
    default_sample_points,
    parabolic_rank1_check,
    pw_vs_derivations_check,
    verify_dsl2_presentation,
    verify_dy_relation,
    verify_sl2_identities,
    vfiltration_check,
)


def test_identity_suite_passes():
    rep = verify_sl2_identities()
    assert rep.passed
    names = [it.name for it in rep.items]
    assert any("Casimir" in n for n in names)
    assert sum(1 for n in names if n.startswith("bracket")) == 15
    kernel_item = next(it for it in rep.items if "kernel dimension" in it.name)
    assert kernel_item.got == "6"


def test_presentation_suite_passes():
    rep = verify_dsl2_presentation()
    assert rep.passed
    assert len(rep.items) == 4  # three relations plus the vacuous one


def test_dy_coefficients_are_certified_integral():
    assert _integral({(1, 0): Fraction(-6, 2), (0, 1): 4}) == {(1, 0): -3, (0, 1): 4}
    with pytest.raises(ValueError):
        _integral({(0, 1): 2, (1, 0): Fraction(1, 2)})


def test_dy_small_bidegrees():
    rep = verify_dy_relation(2, 2)
    assert rep.passed
    by_name = {it.name: it for it in rep.items}
    assert by_name["bidegree (0,0): realization kernel = Casimir-difference ideal"].got == "0"
    two_zero = by_name["bidegree (2,0): realization kernel = Casimir-difference ideal"]
    assert two_zero.got == "1"  # the Casimir difference itself


def test_dy_rejects_small_bound():
    with pytest.raises(ValueError):
        verify_dy_relation(1, 1)


def test_pw_filtration_samples():
    samples = default_pw_samples()
    assert len(samples) >= 20
    rep = pw_vs_derivations_check(samples=samples[:6], bound=4)
    assert rep.passed


def test_vfilt_small():
    rep = vfiltration_check(6)
    assert rep.passed
    item = next(it for it in rep.items if it.name == "[1 * a b] / det^1")
    assert item.expected == "1" and item.got == "1"
    assert any(it.name == "det/det" for it in rep.items)


def test_vfilt_rejects_negative():
    with pytest.raises(ValueError):
        vfiltration_check(-1)


def test_asymp_diagram_small():
    rep = asymp_diagram_check(rep_bound=1)
    assert rep.passed
    det1, det0 = default_sample_points()
    assert len(det1) == 3 and len(det0) == 5


def test_asymp_diagram_rejects_off_fiber_points():
    with pytest.raises(ValueError):
        asymp_diagram_check(rep_bound=0, points=[RationalPoint((1, 0, 0, 2))])


def test_parabolic_small():
    rep = parabolic_rank1_check(rep_bound=1)
    assert rep.passed


def test_parabolic_rejects_off_fiber_points():
    with pytest.raises(ValueError):
        parabolic_rank1_check(rep_bound=0, points=[RationalPoint((1, 1, 0, 0))])
