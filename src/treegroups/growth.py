"""Weighted word-metric growth: exact ball counts, entropy estimates,
analytic roots, and the semigroup lower bound.

Ball counts come from one pass of the growth-series recurrence in exact
integer arithmetic: weights and radii are converted to Fractions (floats
convert exactly through as_integer_ratio) and scaled by their common
denominator, so counts can be compared verbatim against brute-force
enumeration.  The analytic roots are solved by bisection with geometric
bracket growth, and the semigroup lower bound by golden-section search on its
unimodal objective.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# most (i, j) cells ``ball_series`` fills; its time grows with the cell count
# and the bit length of the counts (0.13 s at 180,000 cells of weight 1, about
# 1 s at 1.1 million cells of weight 0.01), so larger balls are input errors
MAX_BALL_CELLS = 200_000

# kind -> (c, d): the growth series is ((1+x)(1+y))^d / (1 - x - y - c xy)
_GROWTH_SERIES = {"group": (3, 1), "semigroup": (0, 0)}


def _as_fraction(x, what: str) -> Fraction:
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    return Fraction(x)


def _check_weights(l1, l2) -> Tuple[Fraction, Fraction]:
    f1, f2 = _as_fraction(l1, "weights"), _as_fraction(l2, "weights")
    if f1 <= 0 or f2 <= 0:
        raise ValueError(f"weights must be positive, got ({l1}, {l2})")
    return f1, f2


class _BallCountFields(NamedTuple):
    radii: Tuple[float, ...]
    counts: Tuple[int, ...]
    weights: Optional[Tuple[float, float]] = None


class BallCountSeries(_BallCountFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.radii) != len(self.counts):
            raise ValueError("radii and counts must have equal length")
        if any(c2 < c1 for c1, c2 in zip(self.counts, self.counts[1:])):
            raise ValueError("counts must be nondecreasing in the radius")
        if self.counts and self.counts[0] < 1:
            raise ValueError("count at the smallest radius must be >= 1")
        return self


class EntropyEstimate(NamedTuple):
    lower: float
    upper: float
    method: str  # dp_exact | analytic_root
    radius_used: float
    residual: Optional[float] = None

    def to_json_dict(self) -> dict:
        return self._asdict()


# ---------------------------------------------------------------------------
# exact counting
# ---------------------------------------------------------------------------


def ball_series(kind: str, l1, l2, radius) -> BallCountSeries:
    """Exact ball counts of the rank-2 free group (kind ``"group"``) or free
    semigroup (``"semigroup"``) with generator weights l1, l2 (a generator
    and its inverse share a weight), at the radii 0, s, 2s, ..., s*max(
    floor(radius / s), 3) with s = min(l1, l2).

    Let N(i, j) be the number of elements spelled by i letters of weight l1
    and j of weight l2.  The growth series of a free product satisfies
    1/f = 1/f_A + 1/f_B - 1 (de la Harpe, Topics in Geometric Group Theory,
    VI.A), so sum N(i, j) x^i y^j is (1+x)(1+y) / (1 - x - y - 3xy) for F2
    and 1 / (1 - x - y) for the free semigroup, and

        N(i, j) = N(i-1, j) + N(i, j-1) + c N(i-1, j-1) + [numerator term]

    with c = 3 or 0.  One pass fills N over the cells i l1 + j l2 <= the
    largest radius, adding each cell to the shell of the first radius that
    holds it; the count at each radius is a prefix sum of the shells.

    Nonpositive or non-finite weights, a negative or non-finite radius and
    more than ``MAX_BALL_CELLS`` cells raise ValueError before anything is
    counted.
    """
    if kind not in _GROWTH_SERIES:
        raise ValueError(f"unknown kind {kind!r}")
    w1, w2 = _check_weights(l1, l2)
    r = _as_fraction(radius, "radius")
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    too_many = (f"a ball of radius {radius} with weights ({l1}, {l2}) has more "
                f"than {MAX_BALL_CELLS} cells")
    if r / min(w1, w2) >= MAX_BALL_CELLS:  # the cells (i, 0) or (0, j) alone
        raise ValueError(too_many)
    step = min(l1, l2)
    radii = [i * step for i in range(max(int(radius / step), 3) + 1)]
    exact = [Fraction(x) for x in radii]
    scale = math.lcm(w1.denominator, w2.denominator, *(x.denominator for x in exact))
    a, b = int(w1 * scale), int(w2 * scale)
    scaled = [int(x * scale) for x in exact]
    rows = [(scaled[-1] - i * a) // b + 1 for i in range(scaled[-1] // a + 1)]
    if sum(rows) > MAX_BALL_CELLS:
        raise ValueError(too_many)

    c, d = _GROWTH_SERIES[kind]
    shells = [0] * len(radii)  # shells[k]: cells above radii[k-1], within radii[k]
    prev: List[int] = []
    for i, length in enumerate(rows):
        row: List[int] = []
        for j in range(length):
            n = 1 if i <= d and j <= d else 0
            if i:
                n += prev[j] + (c * prev[j - 1] if j else 0)
            if j:
                n += row[j - 1]
            row.append(n)
            shells[bisect.bisect_left(scaled, i * a + j * b)] += n
        prev = row
    counts = tuple(itertools.accumulate(shells))
    return BallCountSeries(tuple(float(x) for x in radii), counts,
                           (float(l1), float(l2)))


# ---------------------------------------------------------------------------
# entropy from counts
# ---------------------------------------------------------------------------


def entropy_from_counts(series: BallCountSeries) -> EntropyEstimate:
    """Bracketed slope estimate of (1/R) log #B(R).

    The bracket holds the two-point slope over the last third of the radii
    and the global slope; constant counts give entropy 0 exactly.
    """
    if len(series.radii) < 3:
        raise ValueError("need at least 3 sample radii")
    radii, counts = series.radii, series.counts
    if counts[-1] == counts[0]:
        return EntropyEstimate(0.0, 0.0, "dp_exact", radii[-1])
    if radii[-1] <= radii[0]:
        raise ValueError("radii must increase")
    global_slope = (math.log(counts[-1]) - math.log(counts[0])) / (radii[-1] - radii[0])
    cutoff = radii[0] + 2.0 * (radii[-1] - radii[0]) / 3.0
    i0 = next(i for i, r in enumerate(radii) if r >= cutoff)
    if i0 == len(radii) - 1:
        i0 -= 1
    tail_slope = (math.log(counts[-1]) - math.log(counts[i0])) / (radii[-1] - radii[i0])
    lo, hi = sorted((tail_slope, global_slope))
    return EntropyEstimate(lo, hi, "dp_exact", radii[-1])


def monotonicity_check(series1: BallCountSeries, series2: BallCountSeries) -> bool:
    """Ball nesting: with pointwise-comparable weights, the series of the
    smaller weights dominates; True iff count1(R) >= count2(R) on the shared
    radii.  Incomparable or missing weight vectors are rejected."""
    if series1.weights is None or series2.weights is None:
        raise ValueError("both series must carry their weight vectors")
    w1, w2 = series1.weights, series2.weights
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


# ---------------------------------------------------------------------------
# analytic roots
# ---------------------------------------------------------------------------


def _bisect_increasing(f, lo: float, hi: float) -> float:
    """Root of increasing f with f(lo) <= 0 <= f(hi), to relative tolerance 1e-15.

    That is machine precision: the defining equations have O(10) derivatives
    at their roots, and reported residuals must stay below 1e-12."""
    for _ in range(260):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * max(abs(mid), 1e-300):
            return mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve(f, scale: float) -> float:
    lo = 1e-9
    while f(lo) > 0.0:
        lo /= 16.0
        if lo < 1e-300:
            raise ArithmeticError("no positive root bracket found")
    hi = scale
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("no positive root bracket found")
    return _bisect_increasing(f, lo, hi)


def free_group_entropy_root(l1, l2) -> float:
    """The unique E > 0 with (e^{E l1} - 1)(e^{E l2} - 1) = 4: the entropy of
    the weighted free group of rank 2."""
    f1, f2 = _check_weights(l1, l2)
    a, b = float(f1), float(f2)
    return _solve(lambda e: free_group_equation_residual(e, a, b), 1.0 / min(a, b))


def free_group_equation_residual(root: float, l1, l2) -> float:
    return math.expm1(root * float(l1)) * math.expm1(root * float(l2)) - 4.0


def semigroup_entropy_root(l1, l2) -> float:
    """The unique E > 0 with e^{-E l1} + e^{-E l2} = 1: the exact growth rate
    of the weighted free semigroup of rank 2 (independent oracle for the
    lower bound)."""
    f1, f2 = _check_weights(l1, l2)
    a, b = float(f1), float(f2)
    return _solve(lambda e: semigroup_equation_residual(e, a, b), 1.0 / min(a, b))


def semigroup_equation_residual(root: float, l1, l2) -> float:
    return 1.0 - math.exp(-root * float(l1)) - math.exp(-root * float(l2))


def analytic_root_estimate(kind: str, l1, l2) -> EntropyEstimate:
    if kind == "group":
        root = free_group_entropy_root(l1, l2)
        res = free_group_equation_residual(root, l1, l2)
    elif kind == "semigroup":
        root = semigroup_entropy_root(l1, l2)
        res = semigroup_equation_residual(root, l1, l2)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return EntropyEstimate(root, root, "analytic_root", math.inf, res)


# ---------------------------------------------------------------------------
# the semigroup entropy lower bound
# ---------------------------------------------------------------------------


def bcg_objective(a: float, l1, l2) -> float:
    """((1+a) log(1+a) - a log a) / (l1 + a l2) for a > 0."""
    if a <= 0.0:
        raise ValueError("the objective is defined for a > 0")
    num = (1.0 + a) * math.log1p(a) - a * math.log(a)
    return num / (float(l1) + a * float(l2))


def bcg_lower_bound(l1, l2) -> float:
    """sup over a in (0, inf) of the semigroup-entropy objective, by
    golden-section search to a bracket of width 1e-10 after geometric bracket
    growth (the objective is strictly unimodal, vanishing at both ends)."""
    _check_weights(l1, l2)
    f = lambda a: bcg_objective(a, l1, l2)
    lo, mid, hi = 1e-8, 1.0, 2.0
    while f(hi) > f(mid):
        lo, mid, hi = mid, hi, hi * 2.0
        if hi > 1e12:
            raise ArithmeticError("objective failed to turn over")
    while f(lo) > f(mid):
        lo, mid, hi = lo / 2.0, lo, mid
        if lo < 1e-300:
            raise ArithmeticError("objective failed to turn over")
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-10:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    return f(0.5 * (lo + hi))
