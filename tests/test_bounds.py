import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treegroups import bounds
from treegroups.bounds import (SMALL_X_THRESHOLD, build_bounds_report,
                               compare_case_bounds, delta0,
                               free_product_bound, hyperbolic_branch_bound,
                               s0_core, s0_general, s0_jsj,
                               small_x_auxiliary_holds,
                               threshold_implication_holds,
                               volume_lower_bound)
from treegroups.growth import free_group_entropy_root

from conftest import count_calls


def mp_s0(x: float) -> float:
    """Independent 50-digit oracle for log(1 + 4/(e^x - 1))."""
    with mpmath.workdps(50):
        return float(mpmath.log1p(4 / mpmath.expm1(mpmath.mpf(x))))


def mp_exact(x: float) -> float:
    """log(1 + 4/(e^x - 1)) at 120 digits, rounded once to the nearest
    double through an exact fraction (correct for subnormals too)."""
    with mpmath.workdps(120):
        man, exp = mpmath.log1p(4 / mpmath.expm1(mpmath.mpf(x))).man_exp
    if man.bit_length() + exp < -1075:  # below half the least subnormal
        return 0.0
    return float(Fraction(man) * Fraction(2) ** exp)


def mp_60_digit_path(x: float) -> float:
    """The 60-digit expression that the high path evaluated through mpmath."""
    with mpmath.workdps(60):
        return float(mpmath.log1p(4 / mpmath.expm1(mpmath.mpf(x))))


ED_GRID = [0.01, 0.02, 0.05, 0.1, 21.0 / 125.0, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]


# -- closed forms -----------------------------------------------------------------

def test_s0_jsj_unit_inputs():
    value = s0_jsj(1.0, 1.0)
    oracle = mp_s0(26.0)
    assert abs(value - oracle) <= 1e-12 * oracle
    assert abs(value - 2.0436e-11) <= 1e-14


def test_s0_jsj_equals_k4():
    for E, D in [(1.0, 1.0), (0.1, 1.0), (2.0, 0.3)]:
        assert s0_jsj(E, D) == s0_general(E, D, 4)


def test_s0_smaller_entropy():
    # E = 0.1, D = 1: 10 * log(1 + 4/(e^2.6 - 1))
    assert s0_jsj(0.1, 1.0) == pytest.approx(10 * mp_s0(2.6), rel=1e-12)
    assert s0_jsj(0.1, 1.0) == pytest.approx(2.7833679, rel=1e-6)


def test_s0_k0():
    assert s0_general(1.0, 1.0, 0) == pytest.approx(mp_s0(10.0), rel=1e-12)
    oracle = mp_s0(120.0)  # past the trigger: the 60-digit path
    assert abs(s0_general(1.0, 12.0, 0) - oracle) <= 1e-12 * oracle
    assert s0_general(1.0, 1.0, 0) == pytest.approx(1.81591e-4, rel=1e-4)


def test_s0_diverges_as_ed_vanishes():
    values = [s0_general(e, 1.0, 4) for e in (1.0, 0.1, 0.01, 0.001)]
    assert values == sorted(values)
    assert values[-1] > 1e3


def test_s0_monotone_decreasing_in_ed_and_k():
    for k in range(0, 9):
        vals = [s0_core((4 * k + 10) * x) for x in ED_GRID]
        assert vals == sorted(vals, reverse=True)
    for x in ED_GRID:
        by_k = [s0_core((4 * k + 10) * x) for k in range(0, 9)]
        assert by_k == sorted(by_k, reverse=True)


def test_high_and_double_paths_agree():
    # the double path up to the trigger, the 60-digit path above it
    for x in [0.5, 2.0, 10.0, 26.0, 29.0, 40.0, 120.0, 420.0, 650.0]:
        value, oracle = s0_core(x), mp_exact(x)
        assert value > 0
        assert abs(value - oracle) <= 1e-9 * oracle


def test_high_precision_survives_double_overflow():
    # e^720 overflows a double, but 4 e^-720 is still a representable
    # subnormal: the 60-digit path keeps it, and reaches 0.0 past ~745
    for x in (701.0, 705.0, 709.0, 720.0, 740.0):
        assert s0_core(x) > 0.0
        assert s0_core(x) == mp_exact(x), x
    assert s0_core(800.0) == 0.0
    with mpmath.workdps(60):
        expected = float(4 * mpmath.exp(-720))
    assert s0_core(720.0) == pytest.approx(expected, rel=1e-6)


def test_subnormal_results_are_correctly_rounded():
    # mpmath's float conversion rounded this one 0.59 ulp off, to ...791e-308
    assert s0_core(710.2694132963206) == 1.3676442127367906e-308
    rng = random.Random(709)
    for x in [rng.uniform(709.78, 746.0) for _ in range(300)]:
        assert s0_core(x) == mp_exact(x), x


def test_high_path_matches_the_mpmath_expression():
    # bit-identical wherever the result is a normal double; subnormal
    # results are the correctly rounded ones, and 0.0 stays 0.0
    rng = random.Random(30)
    xs = [math.exp(rng.uniform(math.log(30.0), math.log(1e6))) for _ in range(2000)]
    xs += [30.0000001, 700.0, 709.7, 745.0, 746.0, 800.0, 1e9, 1e18, 1e300, math.inf]
    for x in xs:
        got, old = s0_core(x), mp_60_digit_path(x)
        if old >= sys.float_info.min:
            assert got == old, x
        else:
            assert got == mp_exact(x), x


def test_hyperbolic_branch_bound():
    assert hyperbolic_branch_bound(1.0, 1.0) == pytest.approx(math.exp(-6), rel=1e-15)
    assert hyperbolic_branch_bound(1.0, 1e-12) == pytest.approx(1.0, rel=1e-9)
    for E, D in [(0.5, 2.0), (2.0, 0.5), (1.0, 1.0)]:
        assert hyperbolic_branch_bound(E, D) == math.exp(-6.0 * E * D) / E


def test_free_product_bound():
    oracle = mp_s0(2.0)
    assert free_product_bound(1.0, 1.0) == pytest.approx(oracle, rel=1e-12)
    assert free_product_bound(1.0, 1.0) == pytest.approx(0.4861664117819902, rel=1e-12)
    # dominance over the k = 0 general bound on the grid
    for x in ED_GRID:
        assert s0_core(2 * x) >= s0_core(10 * x)
    assert free_product_bound(1.0, 20.0) < 1e-16


@settings(max_examples=300, deadline=None)
@given(log_e=st.floats(math.log(0.01), math.log(10)),
       log_d=st.floats(math.log(0.01), math.log(10)), k=st.integers(0, 8))
def test_bounds_are_free_group_entropy_weights(log_e, log_d, k):
    # s0 is the weight that, with (4k+10) D, gives the free group entropy E
    E, D = math.exp(log_e), math.exp(log_d)
    for weight, other in ((s0_general(E, D, k), (4 * k + 10) * D),
                          (free_product_bound(E, D), 2 * D)):
        # s0 underflows for large E D; weights near the least normal float
        # are rejected by the root, since E times them would fall below it
        assume(weight >= 1e-300)
        assert free_group_entropy_root(weight, other) == pytest.approx(E, rel=1e-15)


def test_delta0():
    assert 40.0 * delta0(1.0, 1.0) == s0_jsj(1.0, 1.0)
    assert delta0(1.0, 1.0) == pytest.approx(5.109089e-13, rel=1e-6)
    assert delta0(0.1, 1.0) == pytest.approx(0.0695842, rel=1e-5)


def test_volume_lower_bound():
    s0 = s0_general(1.0, 1.0, 4)
    assert volume_lower_bound(1.0, 1.0, 4, 3, 1.0) == s0 ** 3
    assert volume_lower_bound(1.0, 1.0, 4, 3, 1.0) == pytest.approx(8.535e-33, rel=1e-3)
    assert volume_lower_bound(1.0, 1.0, 4, 3, 2.0) == 2.0 * volume_lower_bound(1.0, 1.0, 4, 3, 1.0)
    k0 = volume_lower_bound(1.0, 1.0, 0, 3, 1.0)
    assert k0 == pytest.approx(s0_general(1.0, 1.0, 0) ** 3, rel=1e-15)
    assert k0 == pytest.approx(5.988e-12, rel=1e-3)


def test_input_validation():
    for bad in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)]:
        with pytest.raises(ValueError):
            s0_general(bad[0], bad[1], 4)
    with pytest.raises(ValueError):
        s0_general(1.0, 1.0, -1)
    with pytest.raises(ValueError):
        volume_lower_bound(1.0, 1.0, 4, 0, 1.0)
    with pytest.raises(ValueError):
        volume_lower_bound(1.0, 1.0, 4, 3, 0.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 2.5])
def test_non_finite_or_fractional_k_and_n_are_value_errors(value):
    # int() of an infinity raises OverflowError, of NaN ValueError: neither
    # may escape the one rejection path
    with pytest.raises(ValueError, match="k must be a nonnegative integer"):
        s0_general(1.0, 1.0, value)
    with pytest.raises(ValueError, match="k must be a nonnegative integer"):
        compare_case_bounds(1.0, 1.0, value)
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        volume_lower_bound(1.0, 1.0, 4, n=value)
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        build_bounds_report(1.0, 1.0, 4, n=value)


# -- the proof's case comparison ----------------------------------------------------

def test_compare_unit_inputs():
    cc = compare_case_bounds(1.0, 1.0, 4)
    assert cc.dominant_branch == "hyperbolic_branch"
    assert cc.hyperbolic_branch == pytest.approx(2.4787521e-3, rel=1e-6)
    assert cc.s0_general == pytest.approx(2.0436356e-11, rel=1e-6)
    assert cc.effective_bound == cc.s0_general
    assert cc.threshold_implication is True


def test_compare_routes_k0():
    cc = compare_case_bounds(1.0, 1.0, 0)
    assert cc.dominant_branch == "free_product"
    assert cc.effective_bound == free_product_bound(1.0, 1.0)
    assert cc.threshold_implication is None


def test_threshold_values_at_21_125():
    x = 21.0 / 125.0
    assert 2 * x == pytest.approx(0.336, abs=1e-12)
    assert math.exp(-6 * x) == pytest.approx(0.3649481464, rel=1e-9)
    assert small_x_auxiliary_holds(x)


def test_threshold_implication_across_grid():
    # the branch comparison: whenever the hyperbolic-branch bound falls below
    # the elliptic-branch bound, x is at most 21/125 (checkable everywhere)
    for k in range(1, 9):
        for x in ED_GRID:
            assert threshold_implication_holds(x, k)


def test_unconditional_comparison_above_threshold():
    for k in range(1, 9):
        for x in [v for v in ED_GRID if v >= SMALL_X_THRESHOLD]:
            assert math.exp(-6 * x) >= s0_core((4 * k + 10) * x)


def test_comparison_genuinely_fails_below_threshold():
    # the reason the implication form is needed: at small x the elliptic
    # branch wins as a pure formula statement
    assert math.exp(-6 * 0.01) < s0_core(14 * 0.01)


def test_small_x_auxiliary_dense_grid():
    for i in range(1, 2001):
        x = i * SMALL_X_THRESHOLD / 2000.0
        assert small_x_auxiliary_holds(x)


def test_bounds_report_computes_each_bound_once(monkeypatch):
    # s0_general and the threshold's premise, s0_jsj, the free-product bound
    calls = count_calls(monkeypatch, bounds, "s0_core")
    build_bounds_report(1.0, 1.0, 3)
    assert len(calls) == 4
    calls.clear()
    build_bounds_report(1.0, 1.0, 0)  # the free-product bound is the effective one
    assert len(calls) == 3


def test_bounds_report():
    rep = build_bounds_report(1.0, 1.0, 4)
    assert rep.s0_jsj == rep.s0_general
    assert rep.delta0 == rep.s0_jsj / 40.0
    assert rep.volume_lb == rep.s0_general ** 3
    assert rep.effective_systole_lb == rep.s0_general
    doc = rep.to_json_dict()
    assert doc["inputs"]["k"] == 4
    rep0 = build_bounds_report(1.0, 1.0, 0, include_volume=False, volume_note="why")
    assert rep0.volume_lb is None and rep0.volume_note == "why"
    assert rep0.effective_systole_lb == free_product_bound(1.0, 1.0)
    # every emitted value is positive wherever a double can represent it
    # (the cube of s0 underflows past ED ~ 7 at k = 4)
    for x in ED_GRID:
        r = build_bounds_report(1.0, x, 4)
        assert r.s0_general > 0 and r.delta0 > 0 and r.free_product_k0 > 0
        if x <= 5.0:
            assert r.volume_lb > 0
