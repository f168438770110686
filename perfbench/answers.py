"""Expected answers, derived without importing ``treegroups``.

Each function here states the mathematics a benchmark check relies on, so a
wrong answer from the library cannot also make its own check pass.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath

Letter = Tuple[str, int]


# ---------------------------------------------------------------------------
# free products of cyclic groups, one generator per factor
# ---------------------------------------------------------------------------


def _reduce_into(out: List[Letter], gen: str, exp: int, orders: Dict[str, int]) -> None:
    n = orders[gen]
    if out and out[-1][0] == gen:
        exp += out.pop()[1]
    if n:
        exp %= n
    if exp:
        out.append((gen, exp))


def free_product_tau(letters: Sequence[Letter], orders: Dict[str, int]) -> int:
    """Translation length of an element of a free product of cyclic groups
    <g> (order ``orders[g]``, 0 for infinite) on its Bass-Serre tree.

    The element is freely reduced, then cyclically reduced; a cyclically
    reduced element of syllable length m >= 2 translates by m, and one of
    length <= 1 lies in a factor and is elliptic (Serre, Trees, I.4).
    """
    out: List[Letter] = []
    for gen, exp in letters:
        _reduce_into(out, gen, exp, orders)
    while len(out) >= 2 and out[0][0] == out[-1][0]:
        gen, last = out.pop()
        first = out.pop(0)[1]
        merged: List[Letter] = []
        _reduce_into(merged, gen, first + last, orders)
        out = merged + out
    return len(out) if len(out) >= 2 else 0


def parse_letters(text: str) -> List[Letter]:
    letters = []
    for token in text.split():
        gen, _, exp = token.partition("^")
        letters.append((gen, int(exp) if exp else 1))
    return letters


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def s0_closed_form(E: float, D: float, k: int) -> float:
    """s0 = (1/E) log(1 + 4/(e^{(4k+10) E D} - 1)), evaluated with 30 more
    digits than the sum 1 + 4/(e^x - 1) needs to keep its small term."""
    x = (4 * k + 10) * E * D
    with mpmath.workdps(30 + int(x / math.log(10))):
        x = (4 * k + 10) * mpmath.mpf(E) * mpmath.mpf(D)
        return float(mpmath.log(1 + 4 / (mpmath.exp(x) - 1)) / mpmath.mpf(E))


def entropy_residual(kind: str, root: float, l1: float, l2: float) -> float:
    """Residual of the defining equation at a claimed entropy root:
    (e^{E l1} - 1)(e^{E l2} - 1) = 4 for the free group, and
    e^{-E l1} + e^{-E l2} = 1 for the free semigroup."""
    if kind == "group":
        return math.expm1(root * l1) * math.expm1(root * l2) - 4.0
    return 1.0 - math.exp(-root * l1) - math.exp(-root * l2)


# ---------------------------------------------------------------------------
# the dichotomy case analysis
# ---------------------------------------------------------------------------


def _twisted_double_trace(m) -> int:
    """|trace| of J M J M^-1 with J = diag(-1, 1)."""
    (a, b), (c, d) = m
    jmj = ((a, -b), (-c, d))
    inv = ((d, -b), (-c, a))
    return abs(jmj[0][0] * inv[0][0] + jmj[0][1] * inv[1][0]
               + jmj[1][0] * inv[0][1] + jmj[1][1] * inv[1][1])


def dichotomy_verdict(desc: dict) -> Tuple[str, Optional[int]]:
    """(verdict, k) for a manifold description, by the paper's case analysis:
    spherical boundary is out of scope; RP^3 # RP^3 is geometric and every
    other nontrivial prime decomposition splits 0-acylindrically; a single
    piece is geometric unless it has a nontrivial JSJ splitting outside the
    Sol cases (Anosov torus-bundle monodromy, Anosov J A J A^-1 for a twisted
    double), which is 4-acylindrical."""
    if desc.get("boundary") == "spherical_present":
        return "not_applicable", None
    pieces = desc["prime_pieces"]
    if len(pieces) >= 2:
        if len(pieces) == 2 and all(p["kind"] == "rp3" for p in pieces):
            return "geometric", None
        return "acylindrical", 0
    piece = pieces[0]
    if piece["kind"] == "twisted_double":
        if _twisted_double_trace(piece["gluing"]) > 2:
            return "geometric", None
        return "acylindrical", 4
    if piece["kind"] == "irreducible_with_jsj":
        return "acylindrical", 4
    return "geometric", None
