"""Weighted word-metric growth: exact ball counts, entropy estimates,
analytic roots, and the semigroup lower bound.

Ball counts come from one pass of the growth-series recurrence in exact
integer arithmetic: weights and radii are converted to Fractions (floats
convert exactly through as_integer_ratio) and scaled by their common
denominator, so counts can be compared verbatim against brute-force
enumeration.  Both analytic roots come from one bisection on the closed-form
bracket [log c / max(l1, l2), log c / min(l1, l2)] (c = 3 for the free group,
2 for the free semigroup), run to adjacent doubles.  The semigroup lower
bound is the semigroup root itself, by the Gibbs variational principle.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

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
    return BallCountSeries(tuple(float(x) for x in radii), counts)


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


# ---------------------------------------------------------------------------
# analytic roots
# ---------------------------------------------------------------------------


def free_group_equation_residual(root: float, l1, l2) -> float:
    """(1 - e^{-E l1})(1 - e^{-E l2}) - 4 e^{-E(l1+l2)}: the free-group
    equation times e^{-E(l1+l2)}, strictly increasing in E, in [-4, 1] and
    free of overflow and cancellation."""
    a, b = float(l1), float(l2)
    return math.expm1(-root * a) * math.expm1(-root * b) - 4.0 * math.exp(-root * (a + b))


def semigroup_equation_residual(root: float, l1, l2) -> float:
    """(1 - e^{-E l_min}) - e^{-E l_max}: the semigroup equation, strictly
    increasing in E, with expm1 on the smaller weight, whose term is the
    larger one."""
    lo, hi = sorted((float(l1), float(l2)))
    return -math.expm1(-root * lo) - math.exp(-root * hi)


# kind -> (c, residual): with equal weights l the entropy is log(c) / l
_ROOTS = {"group": (3, free_group_equation_residual),
          "semigroup": (2, semigroup_equation_residual)}


def _root(kind: str, l1, l2) -> float:
    """The least double E at which the kind's residual is >= 0.

    The root lies in [log c / l_max, log c / l_min].  At E = log c / l the
    weight l gives its equal-weight root value, e^{E l} - 1 = 2 for the
    group (c = 3) and e^{-E l} = 1/2 for the semigroup (c = 2).  At the
    lower end the other weight is l_min, so its factor e^{E l_min} - 1 is
    <= 2 (its term e^{-E l_min} is >= 1/2) and the residual is <= 0; at the
    upper end the other weight is l_max and the residual is >= 0.  So
    bisection needs no bracket search, and it stops when the ends are
    adjacent doubles.  A weight past the largest float or below the least
    normal one (so that the upper end would overflow), or weights so far
    apart that E l_min >= lo l_min underflows (the residual would read 0
    short of the root), raise ValueError.
    """
    if kind not in _ROOTS:
        raise ValueError(f"unknown kind {kind!r}")
    c, residual = _ROOTS[kind]
    try:
        a, b = map(float, _check_weights(l1, l2))
    except OverflowError:
        raise ValueError(f"weights ({l1}, {l2}) lie beyond the largest float") from None
    l_min, l_max = sorted((a, b))
    if l_min < sys.float_info.min or not math.isfinite(hi := math.log(c) / l_min):
        raise ValueError(f"weights ({l1}, {l2}): the smaller lies below the least "
                         "normal float, so E would pass the largest float")
    lo = math.log(c) / l_max
    if lo * l_min < sys.float_info.min:
        raise ValueError(f"weights ({l1}, {l2}) lie too far apart: E times the "
                         "smaller weight falls below the least normal float")
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        if residual(mid, a, b) >= 0.0:
            hi = mid
        else:
            lo = mid
    return lo if residual(lo, a, b) >= 0.0 else hi


def free_group_entropy_root(l1, l2) -> float:
    """The unique E > 0 with (e^{E l1} - 1)(e^{E l2} - 1) = 4: the entropy of
    the weighted free group of rank 2."""
    return _root("group", l1, l2)


def semigroup_entropy_root(l1, l2) -> float:
    """The unique E > 0 with e^{-E l1} + e^{-E l2} = 1: the exact growth rate
    of the weighted free semigroup of rank 2."""
    return _root("semigroup", l1, l2)


def analytic_root_estimate(kind: str, l1, l2) -> EntropyEstimate:
    root = _root(kind, l1, l2)
    res = _ROOTS[kind][1](root, l1, l2)
    return EntropyEstimate(root, root, "analytic_root", math.inf, res)


# ---------------------------------------------------------------------------
# the semigroup entropy lower bound
# ---------------------------------------------------------------------------


def bcg_lower_bound(l1, l2) -> float:
    """sup over a > 0 of ((1+a) log(1+a) - a log a) / (l1 + a l2), which is
    the semigroup root.

    With p = 1/(1+a) the objective is H(p) / (p l1 + (1-p) l2), where
    H(p) = -p log p - (1-p) log(1-p): the entropy of a two-letter
    distribution per unit of weighted length.  For any p and E,
    H(p) - E (p l1 + (1-p) l2) = sum p_i log(e^{-E l_i} / p_i)
    <= log(e^{-E l1} + e^{-E l2}) by Jensen, with equality iff
    p_i = e^{-E l_i} / (e^{-E l1} + e^{-E l2}).  At the semigroup root E the
    right side is log 1 = 0, so the objective is <= E everywhere and equals
    E at p_i = e^{-E l_i}, that is at a* = e^{-E (l2 - l1)} (the Gibbs
    variational principle).  So the sup is attained and is the root.
    """
    return semigroup_entropy_root(l1, l2)
