import itertools
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegroups import growth
from treegroups.growth import (BallCountSeries, analytic_root_estimate,
                               ball_series, bcg_lower_bound,
                               entropy_from_counts, free_group_entropy_root,
                               free_group_equation_residual,
                               semigroup_entropy_root,
                               semigroup_equation_residual)

WEIGHT_GRID = [Fraction(1, 2), Fraction(1), Fraction(2)]

# 300 seeded log-uniform weight pairs in [1e-2, 1e2], and pairs whose weights
# lie far apart
_rng = random.Random(17)
ROOT_PAIRS = ([(10.0 ** _rng.uniform(-2, 2), 10.0 ** _rng.uniform(-2, 2))
               for _ in range(300)]
              + [(1.0, 1000.0), (0.01, 100.0), (1e-6, 1e6), (1e-12, 1e12)])


# -- brute-force enumeration oracles (independent of the DP) -------------------

def enumerate_free_group_count(l1, l2, radius) -> int:
    """Count reduced words over {a, A, b, B} of weight <= radius by DFS."""
    l1, l2, radius = Fraction(l1), Fraction(l2), Fraction(radius)
    weights = {"a": l1, "A": l1, "b": l2, "B": l2}
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
    count = 0
    stack = [("", Fraction(0))]
    while stack:
        last, weight = stack.pop()
        count += 1
        for letter, lw in weights.items():
            if last and inverse[last[-1]] == letter:
                continue
            if weight + lw <= radius:
                stack.append((last + letter, weight + lw))
    return count


def enumerate_semigroup_count(l1, l2, radius) -> int:
    l1, l2, radius = Fraction(l1), Fraction(l2), Fraction(radius)
    count = 0
    stack = [Fraction(0)]
    while stack:
        weight = stack.pop()
        count += 1
        for lw in (l1, l2):
            if weight + lw <= radius:
                stack.append(weight + lw)
    return count


# -- exact counting -------------------------------------------------------------

def test_unit_weight_counts():
    group = ball_series("group", 1, 1, 8).counts
    semigroup = ball_series("semigroup", 1, 1, 8).counts
    assert group[1] == 5
    for n in range(9):
        assert group[n] == 2 * 3 ** n - 1
        assert semigroup[n] == 2 ** (n + 1) - 1
    assert semigroup[0] == 1


def test_mixed_weight_counts_frozen_from_enumeration():
    # enumeration oracle values for the (1,2) weights
    assert enumerate_free_group_count(1, 2, 2) == 7
    assert ball_series("group", 1, 2, 2).counts[2] == 7
    assert enumerate_semigroup_count(1, 2, 3) == 7
    assert ball_series("semigroup", 1, 2, 3).counts[3] == 7


def test_dp_matches_enumeration_on_grid():
    for l1 in WEIGHT_GRID:
        for l2 in WEIGHT_GRID:
            radius = 8 * min(l1, l2)
            assert ball_series("group", l1, l2, radius).counts[-1] == \
                enumerate_free_group_count(l1, l2, radius)
            assert ball_series("semigroup", l1, l2, radius).counts[-1] == \
                enumerate_semigroup_count(l1, l2, radius)


SERIES_WEIGHTS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
                  Fraction(3, 2), Fraction(2)]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["group", "semigroup"]),
       l1=st.sampled_from(SERIES_WEIGHTS), l2=st.sampled_from(SERIES_WEIGHTS),
       steps=st.integers(0, 24).map(lambda n: Fraction(n, 4)))
def test_series_matches_enumeration_at_every_radius(kind, l1, l2, steps):
    # radius up to 6 steps of the lighter weight; the grid may overshoot it
    series = ball_series(kind, l1, l2, steps * min(l1, l2))
    enumerate_count = (enumerate_free_group_count if kind == "group"
                       else enumerate_semigroup_count)
    assert len(series.radii) == max(int(steps), 3) + 1
    for i, count in enumerate(series.counts):
        assert count == enumerate_count(l1, l2, i * min(l1, l2))


def test_counts_handle_float_weights_exactly():
    # 0.5 is exactly representable: the float path must agree with Fractions
    assert ball_series("group", 0.5, 0.5, 4).counts == ball_series(
        "group", Fraction(1, 2), Fraction(1, 2), 4).counts
    assert ball_series("group", 0.5, 2.0, 4.0).counts == ball_series(
        "group", Fraction(1, 2), 2, 4).counts


def test_count_validation():
    with pytest.raises(ValueError):
        ball_series("group", 0, 1, 3)
    with pytest.raises(ValueError):
        ball_series("semigroup", 1, 1, -1)
    for l1, l2, radius in [(math.inf, 1, 3), (1, math.nan, 3), (1, 1, math.inf),
                           (1, 1, math.nan), (-1.0, 1, 3)]:
        with pytest.raises(ValueError):
            ball_series("group", l1, l2, radius)
    with pytest.raises(ValueError):
        ball_series("monoid", 1, 1, 3)


def test_cell_limit(monkeypatch):
    # i + j <= 3 is 10 cells
    monkeypatch.setattr(growth, "MAX_BALL_CELLS", 10)
    assert ball_series("group", 1, 1, 3).counts[-1] == 53
    monkeypatch.setattr(growth, "MAX_BALL_CELLS", 9)
    with pytest.raises(ValueError, match="cells"):
        ball_series("group", 1, 1, 3)


def test_cell_limit_rejects_huge_balls_at_once():
    # about 1.1 million cells; filling them would take tens of seconds
    for radius in (15, 1e300):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cells"):
            ball_series("group", 0.01, 0.01, radius)
        assert time.perf_counter() - start < 1.0


# -- entropy estimation ----------------------------------------------------------

def test_entropy_estimate_free_group():
    series = ball_series("group", 1, 1, 15)
    est = entropy_from_counts(series)
    assert est.method == "dp_exact"
    assert abs(est.lower - math.log(3)) <= 5e-2
    assert abs(est.upper - math.log(3)) <= 5e-2
    assert est.lower <= est.upper


def test_entropy_estimate_semigroup():
    series = ball_series("semigroup", 1, 1, 20)
    est = entropy_from_counts(series)
    assert abs(est.lower - math.log(2)) <= 5e-2
    assert abs(est.upper - math.log(2)) <= 5e-2


def test_entropy_constant_counts_is_zero():
    series = BallCountSeries((0.0, 1.0, 2.0, 3.0), (6, 6, 6, 6))
    est = entropy_from_counts(series)
    assert est.lower == est.upper == 0.0


def test_entropy_needs_three_radii():
    with pytest.raises(ValueError):
        entropy_from_counts(BallCountSeries((0.0, 1.0), (1, 5)))


def test_series_validation():
    with pytest.raises(ValueError):
        BallCountSeries((0.0, 1.0, 2.0), (5, 3, 7))  # not nondecreasing


def test_analytic_agreement_on_weight_grid():
    # |slope estimate - analytic root| <= 5e-2 at R >= 15/min(l)
    for l1 in WEIGHT_GRID:
        for l2 in WEIGHT_GRID:
            est = entropy_from_counts(ball_series("group", l1, l2, 15))
            root = free_group_entropy_root(l1, l2)
            assert abs(est.lower - root) <= 5e-2
            assert abs(est.upper - root) <= 5e-2


def test_slope_converges_to_root():
    for l1, l2 in [(1, 1), (1, 1.5), (0.5, 2), (0.8, 1.3), (2.3, 0.7)]:
        root = free_group_entropy_root(l1, l2)
        gaps = []
        for radius in (15, 60, 120):
            est = entropy_from_counts(ball_series("group", l1, l2, radius))
            gaps.append(max(abs(est.lower - root), abs(est.upper - root)))
        assert gaps[0] > gaps[1] > gaps[2]


# -- analytic roots ---------------------------------------------------------------

def test_free_group_root_unit_weights():
    root = free_group_entropy_root(1, 1)
    assert abs(root - math.log(3)) <= 1e-10
    assert abs(free_group_equation_residual(root, 1, 1)) <= 1e-12


def test_free_group_root_12_matches_polynomial():
    # (e^E - 1)(e^{2E} - 1) = 4 means t = e^E solves (t-1)^2 (t+1) = 4
    root = free_group_entropy_root(1, 2)
    t = math.exp(root)
    assert abs((t - 1) ** 2 * (t + 1) - 4) <= 1e-10
    assert abs(root - 0.7563) <= 1e-3


def test_semigroup_root_values():
    assert abs(semigroup_entropy_root(1, 1) - math.log(2)) <= 1e-12
    golden = math.log((1 + math.sqrt(5)) / 2)
    assert abs(semigroup_entropy_root(1, 2) - golden) <= 1e-12
    root = semigroup_entropy_root(1, 2)
    assert abs(semigroup_equation_residual(root, 1, 2)) <= 1e-12


def test_root_scaling_covariance():
    base = free_group_entropy_root(1, 1)
    for c in (0.25, 0.5, 3.0, 17.0):
        scaled = free_group_entropy_root(c, c)
        assert abs(scaled - base / c) <= 1e-10 * max(1.0, base / c)
    assert abs(semigroup_entropy_root(3, 3) - math.log(2) / 3) <= 1e-12


def test_root_strictly_decreasing_in_weights():
    grid = [0.5, 1.0, 2.0]
    for l2 in grid:
        roots = [free_group_entropy_root(l1, l2) for l1 in grid]
        assert roots[0] > roots[1] > roots[2]


def test_analytic_root_estimate_wrapper():
    est = analytic_root_estimate("group", 1, 1)
    assert est.method == "analytic_root"
    assert est.lower == est.upper
    assert abs(est.residual) <= 1e-12
    with pytest.raises(ValueError):
        analytic_root_estimate("monoid", 1, 1)


def mp_root(kind, l1, l2, dps=60) -> float:
    """Independent dps-digit bisection on the paper's form of the equation,
    (e^{E l1} - 1)(e^{E l2} - 1) = 4 or e^{-E l1} + e^{-E l2} = 1, started
    from a bracket wide enough for any positive weights and run until it is
    2^-80 relative."""
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(l1), mpmath.mpf(l2)
        if kind == "group":
            f = lambda e: mpmath.expm1(e * a) * mpmath.expm1(e * b) - 4
        else:
            f = lambda e: 1 - mpmath.exp(-e * a) - mpmath.exp(-e * b)
        lo, hi = mpmath.mpf(0.5) / max(a, b), mpmath.mpf(2) / min(a, b)
        assert f(lo) < 0 < f(hi)
        while hi - lo > hi * mpmath.mpf(2) ** -80:
            mid = (lo + hi) / 2
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        return float(hi)


@pytest.mark.parametrize("kind,root", [("group", free_group_entropy_root),
                                       ("semigroup", semigroup_entropy_root)])
def test_roots_within_4_ulps_of_60_digit_bisection(kind, root):
    for l1, l2 in ROOT_PAIRS:
        expected = mp_root(kind, l1, l2)
        got = root(l1, l2)
        assert abs(got - expected) <= 4 * math.ulp(expected), (l1, l2, got, expected)


def test_root_of_subnormal_weight_is_an_input_error():
    for kind in ("group", "semigroup"):
        with pytest.raises(ValueError, match="largest float"):
            analytic_root_estimate(kind, 1e-320, 1.0)


@pytest.mark.parametrize("kind,root", [("group", free_group_entropy_root),
                                       ("semigroup", semigroup_entropy_root)])
def test_roots_of_weights_up_to_1e300_apart_within_4_ulps(kind, root):
    # 1 - e^{-E l_min} is about 700 / ratio here, so the semigroup form
    # cancels about log10(ratio) digits: bisect at 400
    for l1, l2 in [(1e300, 1.0), (1.0, 1e-300), (1e150, 1e-150),
                   (2.3e-8, 2.3e-308), (1.7e308, 1.7e8)]:
        expected = mp_root(kind, l1, l2, dps=400)
        got = root(l1, l2)
        assert abs(got - expected) <= 4 * math.ulp(expected), (l1, l2, got, expected)


def test_root_of_weights_too_far_apart_is_an_input_error():
    # E l_min underflows there, so the residual would read 0 short of the
    # root 8.301e-306 (the parent returned 4.38e-306)
    for root in (free_group_entropy_root, semigroup_entropy_root):
        with pytest.raises(ValueError, match="too far apart"):
            root(1.7e308, 1e-300)


def test_root_of_weight_beyond_the_float_range_is_an_input_error():
    # exact weights reach _root unrounded; float() overflows or gives 0.0.
    # A subnormal smaller weight would put the upper end log c / l_min past
    # the largest float (bisection would return inf), or near it.
    tiny = Fraction(1, 10 ** 400)
    for root in (free_group_entropy_root, semigroup_entropy_root):
        for l1, l2 in [(10 ** 400, 1), (tiny, 1), (tiny, tiny),
                       (1e-300, 1e-310), (1e-310, 1e-310)]:
            with pytest.raises(ValueError, match="largest float"):
                root(l1, l2)


# -- the semigroup lower bound -----------------------------------------------------

def bcg_objective(a: float, l1, l2) -> float:
    """((1+a) log(1+a) - a log a) / (l1 + a l2) for a > 0, whose sup over a
    is ``bcg_lower_bound``."""
    if a <= 0.0:
        raise ValueError("the objective is defined for a > 0")
    num = (1.0 + a) * math.log1p(a) - a * math.log(a)
    return num / (float(l1) + a * float(l2))


def test_bcg_unit_weights_is_log2():
    assert abs(bcg_lower_bound(1, 1) - math.log(2)) <= 1e-12


def test_bcg_below_semigroup_root_on_grid():
    # the sup is the semigroup growth rate (Gibbs variational principle), so
    # it is at most the root and equals log 2 / l at equal weights l
    for l1 in WEIGHT_GRID:
        for l2 in WEIGHT_GRID:
            bcg = bcg_lower_bound(l1, l2)
            root = semigroup_entropy_root(l1, l2)
            assert bcg <= root + 1e-9
            if l1 == l2:
                assert abs(bcg - root) <= 1e-9
                assert abs(bcg - math.log(2) / l1) <= 1e-9


def test_bcg_objective_unimodal_on_grid():
    # the objective rises to its sup at a* = e^{-E (l2 - l1)}, then falls
    for l1, l2 in itertools.product(WEIGHT_GRID, repeat=2):
        values = [bcg_objective(10.0 ** e, l1, l2)
                  for e in [i / 8.0 for i in range(-48, 49)]]
        rises = [i for i in range(1, len(values)) if values[i] > values[i - 1]]
        falls = [i for i in range(1, len(values)) if values[i] < values[i - 1]]
        assert not rises or not falls or max(rises) < min(falls)


def test_bcg_is_the_semigroup_root_and_the_sup_of_the_objective():
    rng = random.Random(7)
    for l1, l2 in ROOT_PAIRS[:60] + [(1.0, 2.0), (0.8, 1.3)]:
        e = semigroup_entropy_root(l1, l2)
        assert bcg_lower_bound(l1, l2) == e
        for a in (10.0 ** rng.uniform(-6, 6) for _ in range(20)):
            assert bcg_objective(a, l1, l2) <= e * (1 + 1e-12)
        a_star = math.exp(-e * (l2 - l1))
        assert abs(bcg_objective(a_star, l1, l2) - e) <= 1e-12 * e


def test_bcg_proof_step_inequality():
    # with E the exact semigroup rate, evaluating at a = E*l1 recovers
    # l1 >= (1/E) e^{-E l2}; with l2 <= 6D this is the e^{-6DE}/E bound
    for l1 in WEIGHT_GRID:
        for l2 in WEIGHT_GRID:
            e_star = semigroup_entropy_root(l1, l2)
            assert e_star >= bcg_objective(e_star * float(l1), l1, l2) - 1e-11
            assert float(l1) >= (1.0 / e_star) * math.exp(-e_star * float(l2)) - 1e-11


def monotonicity_check(series1: BallCountSeries, w1, series2: BallCountSeries, w2) -> bool:
    """Ball nesting: with pointwise-comparable weight vectors w1 and w2, the
    series of the smaller weights dominates; True iff count1(R) >= count2(R)
    on the shared radii.  Incomparable weight vectors are rejected."""
    le = all(a <= b for a, b in zip(w1, w2))
    ge = all(a >= b for a, b in zip(w1, w2))
    if not (le or ge):
        raise ValueError(f"incomparable weight vectors {w1} vs {w2}")
    common = sorted(set(series1.radii) & set(series2.radii))
    if not common:
        raise ValueError("the series share no sample radii")
    c1 = dict(zip(series1.radii, series1.counts))
    c2 = dict(zip(series2.radii, series2.counts))
    return all(c1[r] >= c2[r] for r in common)


def test_monotonicity_check():
    s_small = ball_series("group", 1, 1, 8)
    s_large = ball_series("group", 1, 2, 8)
    assert monotonicity_check(s_small, (1, 1), s_large, (1, 2))
    assert monotonicity_check(s_small, (1, 1), s_small, (1, 1))
    incomparable = ball_series("group", 2, 1, 8)
    with pytest.raises(ValueError):
        monotonicity_check(ball_series("group", 1, 3, 8), (1, 3), incomparable, (2, 1))
    with pytest.raises(ValueError):
        monotonicity_check(BallCountSeries((0.5,), (1,)), (1, 1), s_small, (1, 1))
