"""Closed-form systole, volume and rigidity-radius lower bounds.

Everything is a pure function of (E, D, k, n, C_n).  The core quantity is
s0 = (1/E) log(1 + 4/(e^{(4k+10) E D} - 1)).  ``s0_core`` chooses the path
from x = (4k+10) E D alone: up to the trigger it evaluates
log1p(4/expm1(x)) in doubles, and above it switches to 60-digit arithmetic
in the standard library's ``decimal``, imported on first use.  The 60-digit
value is rounded to a double once, so the result is correctly rounded,
subnormal results included, and the JSON reports are byte-stable.
Since e^{E s0} - 1 = 4/(e^{(4k+10) E D} - 1), E is the free-group entropy
of the weights (s0, (4k+10) D): ``growth.free_group_entropy_root``
returns it (and likewise for ``free_product_bound`` with 2D).

C_n (the dimensional systolic constant) is a user-supplied parameter with
default 1.0; no value for it is derived here.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

HIGH_PRECISION_TRIGGER = 30.0
HIGH_PRECISION_DPS = 60

SMALL_X_THRESHOLD = 21.0 / 125.0


def _validate_ed(E: float, D: float) -> None:
    if not (0 < E < math.inf and 0 < D < math.inf):
        raise ValueError(f"E and D must be positive and finite, got E={E}, D={D}")


def _is_whole(x: float, least: int) -> bool:
    """Whether x is a whole number >= least; infinities and NaN are not."""
    try:
        return int(x) == x >= least
    except (OverflowError, ValueError):  # int() of an infinity, of NaN
        return False


def _validate_k(k: int) -> None:
    if not _is_whole(k, 0):
        raise ValueError(f"k must be a nonnegative integer, got {k}")


def s0_core(x: float) -> float:
    """log(1 + 4/(e^x - 1)), in 60 digits when x exceeds the trigger."""
    if x <= HIGH_PRECISION_TRIGGER:
        return math.log1p(4.0 / math.expm1(x))
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal  # only the high path loads it
    ctx = Context(prec=HIGH_PRECISION_DPS, Emin=MIN_EMIN, Emax=MAX_EMAX, traps=[])
    y = ctx.divide(4, ctx.subtract(ctx.exp(Decimal(x)), 1))  # Decimal(x) is exact
    if y.adjusted() < -20:
        # 1 + y rounds to 1 once y < 1e-60; the series' next term is y^3/3
        return float(ctx.subtract(y, ctx.divide(ctx.multiply(y, y), 2)))
    return float(ctx.ln(ctx.add(1, y)))


def s0_general(E: float, D: float, k: int) -> float:
    """(1/E) log(1 + 4/(e^{(4k+10) E D} - 1)): the systole lower bound for a
    non-elementary k-acylindrical splitting."""
    _validate_ed(E, D)
    _validate_k(k)
    return s0_core((4 * k + 10) * E * D) / E


def s0_jsj(E: float, D: float) -> float:
    """The canonical JSJ specialization k = 4 (exponent 26)."""
    return s0_general(E, D, 4)


def hyperbolic_branch_bound(E: float, D: float) -> float:
    """e^{-6 E D} / E: the systole bound from the free-semigroup branch."""
    _validate_ed(E, D)
    return math.exp(-6.0 * E * D) / E


def free_product_bound(E: float, D: float) -> float:
    """(1/E) log(1 + 4/(e^{2 E D} - 1)): the sharper bound for torsionless
    free products (trivial edge stabilizers, k = 0)."""
    _validate_ed(E, D)
    return s0_core(2.0 * E * D) / E


def delta0(E: float, D: float) -> float:
    """Gromov-Hausdorff rigidity radius: s0_jsj / 40."""
    return s0_jsj(E, D) / 40.0


def volume_lower_bound(E: float, D: float, k: int, n: int = 3,
                       C_n: float = 1.0) -> float:
    """C_n * s0_general^n (volume bound for 1-essential closed manifolds)."""
    _validate_ed(E, D)
    _validate_k(k)
    _validate_volume(n, C_n)
    return C_n * s0_general(E, D, k) ** n


def _validate_volume(n: int, C_n: float) -> None:
    if not _is_whole(n, 1):
        raise ValueError(f"dimension must be a positive integer, got {n}")
    if not 0 < C_n < math.inf:
        raise ValueError(f"C_n must be positive and finite, got {C_n}")


# ---------------------------------------------------------------------------
# the proof's case comparison
# ---------------------------------------------------------------------------


def threshold_implication_holds(x: float, k: int) -> bool:
    """For k >= 1: e^{-6x} < log(1 + 4/(e^{(4k+10)x} - 1)) forces x <= 21/125."""
    if k < 1 or x <= 0:
        raise ValueError("the implication is about k >= 1 and x > 0")
    premise = math.exp(-6.0 * x) < s0_core((4 * k + 10) * x)
    return (not premise) or (x <= SMALL_X_THRESHOLD)


def small_x_auxiliary_holds(x: float) -> bool:
    """The auxiliary inequality 2x < e^{-6x} (valid on 0 < x <= 21/125)."""
    if x <= 0:
        raise ValueError("x must be positive")
    return 2.0 * x < math.exp(-6.0 * x)


class CaseComparison(NamedTuple):
    dominant_branch: str  # free_product | hyperbolic_branch | elliptic_branch
    hyperbolic_branch: float
    s0_general: float
    effective_bound: float
    threshold_implication: Optional[bool]  # None when k = 0
    small_x_auxiliary: Optional[bool]  # None when x > 21/125


def compare_case_bounds(E: float, D: float, k: int) -> CaseComparison:
    """Compare the proof's branch bounds; the headline bound stays s0_general
    (that is the guaranteed bound), with k = 0 routed to the free-product bound.

    The two threshold facts of the comparison argument are exposed as
    sub-assertions: the implication "branch premise forces x <= 21/125" and
    the small-x inequality 2x < e^{-6x}.
    """
    _validate_ed(E, D)
    _validate_k(k)
    hb = hyperbolic_branch_bound(E, D)
    if k == 0:
        s0 = s0_general(E, D, 0)
        return CaseComparison("free_product", hb, s0, free_product_bound(E, D),
                              None, None)
    s0 = s0_general(E, D, k)
    x = E * D
    dominant = "hyperbolic_branch" if hb >= s0 else "elliptic_branch"
    aux = small_x_auxiliary_holds(x) if x <= SMALL_X_THRESHOLD else None
    return CaseComparison(dominant, hb, s0, s0,
                          threshold_implication_holds(x, k), aux)


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------


class BoundsReport(NamedTuple):
    E: float
    D: float
    k: int
    n: int
    C_n: float
    s0_general: float
    s0_jsj: float
    hyperbolic_branch: float
    free_product_k0: float
    effective_systole_lb: float
    volume_lb: Optional[float]
    delta0: float
    dominant_branch: str
    volume_note: Optional[str] = None

    def to_json_dict(self) -> dict:
        fields = self._asdict()
        return {"inputs": {key: fields.pop(key) for key in ("E", "D", "k", "n", "C_n")},
                **fields}


def build_bounds_report(E: float, D: float, k: int, n: int = 3,
                        C_n: float = 1.0, include_volume: bool = True,
                        volume_note: Optional[str] = None,
                        comparison: Optional[CaseComparison] = None) -> BoundsReport:
    """Every bound for (E, D, k, n, C_n); the inputs are checked even where
    the volume is suppressed, and a report holding a float that is not
    finite is rejected with a ValueError that names the inputs.  A caller
    that holds ``compare_case_bounds(E, D, k)`` passes it as ``comparison``."""
    comparison = comparison or compare_case_bounds(E, D, k)
    _validate_volume(n, C_n)
    try:
        volume = C_n * comparison.s0_general ** n
    except OverflowError:  # C_n s0^n past the largest double
        volume = math.inf
    jsj = s0_jsj(E, D)
    report = BoundsReport(
        E=E, D=D, k=k, n=n, C_n=C_n,
        s0_general=comparison.s0_general,
        s0_jsj=jsj,
        hyperbolic_branch=comparison.hyperbolic_branch,
        free_product_k0=comparison.effective_bound if k == 0 else free_product_bound(E, D),
        effective_systole_lb=comparison.effective_bound,
        volume_lb=volume if include_volume else None,
        delta0=jsj / 40.0,
        dominant_branch=comparison.dominant_branch,
        volume_note=volume_note,
    )
    if not all(math.isfinite(v) for v in report if isinstance(v, float)):
        raise ValueError(f"the bounds for E={E}, D={D}, k={k}, n={n}, C_n={C_n} "
                         "are not finite doubles")
    return report
