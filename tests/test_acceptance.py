"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Brute-force oracles here are deliberately independent of the library
code paths they check (dedicated free-product models, direct enumeration,
50-digit arithmetic).
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from treegroups.bounds import (SMALL_X_THRESHOLD, delta0, free_product_bound,
                               s0_core, s0_jsj, small_x_auxiliary_holds,
                               threshold_implication_holds, volume_lower_bound)
from treegroups.freeness import (WitnessInputError, certify_rank2_free,
                                 semigroup_witness, product_translation_length,
                                 witness_elliptic_hyperbolic,
                                 witness_elliptic_pair,
                                 witness_hyperbolic_pair,
                                 witness_length_bound_holds)
from treegroups.growth import (ball_series, bcg_lower_bound,
                               entropy_from_counts, free_group_entropy_root,
                               semigroup_entropy_root)
from treegroups.manifolds import (JsjGraph, ManifoldDescription,
                                  PieceDescription, SL2Matrix,
                                  classify_manifold, sl2_trace,
                                  systole_bound_for, twisted_double_conjugate)
from treegroups.tree import (axis_window, base_vertex, check_acylindricity, classify,
                             tree_distance)
from treegroups.words import Word

from conftest import act, random_elliptic, random_word

W = Word.parse


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {text}")


# ---------------------------------------------------------------------------
# independent displacement oracles (used by criteria 3 and 10)
# ---------------------------------------------------------------------------


class CyclicFreeProductModel:
    """From-scratch model of Z/m * Z/n acting on its coset tree.

    Elements are alternating tuples of (side, nonzero residue); vertices are
    coset words ending on the opposite side.  Nothing here touches the
    library's normal-form machinery.
    """

    def __init__(self, m, n, gen_a, gen_b):
        self.mods = (m, n)
        self.gens = (gen_a, gen_b)
        self._ball_cache = {}

    def from_word(self, w: Word):
        out = []
        for name, exp in w.letters:
            side = self.gens.index(name)
            self._push(out, side, exp)
        return tuple(out)

    def _push(self, out, side, exp):
        mod = self.mods[side]
        if out and out[-1][0] == side:
            r = (out[-1][1] + exp) % mod
            if r == 0:
                out.pop()
            else:
                out[-1] = (side, r)
        else:
            r = exp % mod
            if r:
                out.append((side, r))

    def mul(self, u, v):
        out = list(u)
        for side, r in v:
            self._push(out, side, r)
        return tuple(out)

    def inv(self, u):
        return tuple((side, self.mods[side] - r) for side, r in reversed(u))

    def vertices_within(self, radius):
        """All tree vertices within the given distance of the A-base, by BFS.

        The neighbors of the coset (side, w) are (other, w * t) for t running
        over the residues of the side factor, re-canonicalized as cosets of
        the other side."""
        base = (0, ())
        seen = {base}
        out = [base]
        frontier = [base]
        for _ in range(radius):
            nxt = []
            for side, word in frontier:
                other = 1 - side
                for t in range(self.mods[side]):
                    w2 = self.mul(word, ((side, t),)) if t else word
                    if w2 and w2[-1][0] == other:
                        w2 = w2[:-1]
                    cand = (other, w2)
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
            out.extend(nxt)
            frontier = nxt
        return out

    def distance(self, u, v):
        u_side, u_word = u
        v_side, v_word = v
        w = self.mul(self.inv(u_word), v_word)
        if w and w[-1][0] == v_side:
            w = w[:-1]
        if not w:
            return 0 if u_side == v_side else 1
        return len(w) + (0 if w[0][0] == u_side else 1)

    def displacement_min(self, g, radius):
        if radius not in self._ball_cache:
            self._ball_cache[radius] = self.vertices_within(radius)
        best = None
        for side, word in self._ball_cache[radius]:
            d = self.distance((side, word), (side, self.mul(g, word)))
            if best is None or d < best:
                best = d
        return best


class CentralEdgeLineModel:
    """The amalgam <a, b | a^2 = b^2> acts on a line through reflections:
    a is the reflection at 0, b the reflection at 1 (a^2 acts trivially)."""

    @staticmethod
    def affine_of(w: Word):
        # compose f(p) = sign*p + offset left to right: f <- f o reflection
        sign, offset = 1, 0
        for name, exp in w.letters:
            if exp % 2 == 0:
                continue  # a^2 = b^2 is central and acts trivially
            center = 0 if name == "a" else 1
            sign, offset = -sign, 2 * sign * center + offset
        return sign, offset

    @classmethod
    def displacement_min(cls, w: Word, radius):
        sign, offset = cls.affine_of(w)
        return min(abs(sign * p + offset - p) for p in range(-radius, radius + 1))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_entropy_equation():
    root = free_group_entropy_root(1, 1)
    assert abs(root - math.log(3)) <= 1e-10
    counts = ball_series("group", 1, 1, 12).counts
    for n in range(0, 13):
        assert counts[n] == 2 * 3 ** n - 1
    est = entropy_from_counts(ball_series("group", 1, 1, 15))
    assert abs(est.lower - math.log(3)) <= 5e-2
    assert abs(est.upper - math.log(3)) <= 5e-2
    report(1, f"root(1,1) = log 3 ± {abs(root - math.log(3)):.1e}; "
              f"|B(n)| = 2*3^n - 1 for n <= 12; slope bracket "
              f"[{est.lower:.4f}, {est.upper:.4f}] within 5e-2 of log 3")


def test_criterion_2_semigroup_bound_soundness():
    grid = [(l1, l2) for l1 in (Fraction(1, 2), Fraction(3, 4), Fraction(1),
                                Fraction(3, 2), Fraction(2))
            for l2 in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))]
    assert len(grid) == 20
    for l1, l2 in grid:
        bcg = bcg_lower_bound(l1, l2)
        root = semigroup_entropy_root(l1, l2)
        # the two sides are analytically equal; each solver carries ~1e-12
        # of tolerance, so the comparison gets the criterion's 1e-9 slack
        assert bcg <= root + 1e-9
        if l1 == l2:
            assert abs(bcg - root) <= 1e-9
            assert abs(bcg - math.log(2) / l1) <= 1e-9
            assert abs(root - math.log(2) / l1) <= 1e-9
    report(2, "bcg_lower_bound <= semigroup root on the 20-point grid; "
              "equality (and value log(2)/l) at equal weights within 1e-9")


def test_criterion_3_product_translation_length(z2z3, z3z4, f2_amalgam):
    rng = random.Random(103)
    total = 0
    for spec, quota in ((z2z3, 70), (z3z4, 70), (f2_amalgam, 70)):
        done = 0
        while done < quota:
            g1 = random_elliptic(spec, rng)
            g2 = random_elliptic(spec, rng)
            try:
                rep = product_translation_length(spec, g1, g2)
            except WitnessInputError:
                continue  # fixed sets intersect: hypothesis not met
            assert rep.tau_product == 2 * rep.distance_of_fixed_sets
            done += 1
        total += done
    assert total >= 200
    report(3, f"tau(g1 g2) = 2 d(Fix(g1), Fix(g2)) for {total} randomized "
              "elliptic pairs across Z2*Z3, Z3*Z4 and the F2 amalgam")


def test_criterion_4_witness_cases_and_powers(z2z3, f2, f2_amalgam):
    # case (i): p = ceil((k+1)/2)
    for k, p in ((0, 1), (4, 3), (7, 4)):
        w = witness_elliptic_pair(z2z3, k, W("a"), W("b"))
        assert w.power_used == p and w.certified and w.certificate_depth == 6
    # case (ii): p = k + 1
    for k in (0, 2, 4):
        w = witness_elliptic_hyperbolic(z2z3, k, W("a"), W("a b"))
        assert w.power_used == k + 1 and w.certified
    # case (iii), small overlap: q = 3k + 1
    for k in (0, 2):
        w = witness_hyperbolic_pair(f2, k, W("x y"), W("y^2 x y^-1"))
        assert w.case == "hyperbolic_small_overlap"
        assert w.power_used == 3 * k + 1 and w.certified
    # case (iii), large overlap: p = 3 (free-product and amalgam models)
    w = witness_hyperbolic_pair(f2, 0, W("x y"), W("y x"))
    assert w.case == "hyperbolic_large_overlap"
    assert w.power_used == 3 and w.certified
    w = witness_hyperbolic_pair(f2_amalgam, 0, W("b d"), W("d b"), depth=5)
    assert w.power_used == 3 and w.certified
    # semigroup clause
    w = semigroup_witness(f2, W("x y"), W("y^2 x y^-1"))
    assert w.claim == "free_semigroup_rank2" and w.certified
    # negative control: the commuting pair (x, x^2) is rejected everywhere
    with pytest.raises(WitnessInputError):
        witness_elliptic_pair(f2, 0, W("x"), W("x^2"))  # common fixed vertex
    with pytest.raises(WitnessInputError):
        witness_hyperbolic_pair(f2, 0, W("x"), W("x^2"))  # not hyperbolic
    ok, _ = certify_rank2_free(f2, W("x"), W("x^2"), 6)
    assert not ok
    report(4, "witness constructions certified at depth 6 with minimal powers "
              "ceil((k+1)/2), k+1, 3k+1, 3; (x, x^2) rejected")


def test_criterion_5_witness_length_bound():
    for k in range(0, 21):
        assert witness_length_bound_holds(k, Fraction(1))
        assert witness_length_bound_holds(k, Fraction(355, 113))
        p = (k + 2) // 2
        assert 8 * p + 2 <= 4 * k + 10  # the symbolic inequality itself
    report(5, "2p*4D + 2D <= (4k+10) D holds symbolically for k = 0..20, "
              "p = ceil((k+1)/2)")


def test_criterion_6_bound_formulas():
    with mpmath.workdps(50):
        s0_oracle = float(mpmath.log(1 + 4 / mpmath.expm1(mpmath.mpf(26))))
        fp_oracle = float(mpmath.log(1 + 4 / mpmath.expm1(mpmath.mpf(2))))
    assert abs(s0_jsj(1.0, 1.0) - s0_oracle) <= 1e-9 * s0_oracle
    assert abs(s0_jsj(1.0, 1.0) - 2.0436e-11) <= 1e-14
    assert delta0(1.0, 1.0) * 40.0 == s0_jsj(1.0, 1.0)
    for n, cn in ((3, 1.0), (3, 2.5), (4, 1.0)):
        assert volume_lower_bound(1.0, 1.0, 4, n, cn) == cn * s0_jsj(1.0, 1.0) ** n
    fp = free_product_bound(1.0, 1.0)
    assert abs(fp - fp_oracle) <= 1e-9 * fp_oracle
    report(6, f"s0(1,1) = {s0_jsj(1.0, 1.0):.6e} (50-digit oracle, 1e-9 rel); "
              f"delta0 = s0/40 exact; volume = C_n s0^n exact; "
              f"free-product bound = {fp:.8f} (oracle, 1e-9 rel)")


def test_criterion_7_proof_comparison():
    xs = [0.01 * 1.072267 ** i for i in range(100)] + [10.0, SMALL_X_THRESHOLD]
    assert min(xs) == 0.01 and max(xs) <= 10.0 + 1e-12
    for k in range(1, 9):
        for x in xs:
            # the branch comparison in implication form, valid on the whole grid
            assert threshold_implication_holds(x, k)
            # and unconditionally above the threshold
            if x >= SMALL_X_THRESHOLD:
                assert math.exp(-6 * x) >= s0_core((4 * k + 10) * x)
    for i in range(1, 2001):
        x = i * SMALL_X_THRESHOLD / 2000.0
        assert small_x_auxiliary_holds(x)
    report(7, "branch comparison: premise forces x <= 21/125 on the [0.01,10] "
              "grid (k = 1..8), holds outright for x >= 21/125; "
              "2x < e^{-6x} on a dense grid of (0, 21/125]")


def test_criterion_8_acylindricity(z2z3, klein, f2_amalgam):
    for k in range(0, 11):
        chk = check_acylindricity(klein, k, word_length=5, radius=8)
        assert chk.falsified
        assert klein.is_trivial(chk.witness * W("a^2").inverse())
        assert chk.witness_diameter > k
    chk = check_acylindricity(z2z3, 0, word_length=5, radius=8)
    assert chk.verdict == "consistent" and chk.certified
    chk = check_acylindricity(f2_amalgam, 2, word_length=5, radius=8)
    assert chk.verdict == "consistent"
    report(8, "central-edge amalgam falsified for every k <= 10 with witness "
              "a^2; Z2*Z3 certified at k = 0; malnormal F2 amalgam consistent "
              "at k = 2 (L=5, R=8)")


def test_criterion_9_dichotomy():
    anosov = SL2Matrix(2, 1, 1, 1)
    tb = ManifoldDescription((PieceDescription("torus_bundle", monodromy=anosov),))
    v = classify_manifold(tb)
    assert v.verdict == "geometric" and "Sol" in v.reason
    assert sl2_trace(twisted_double_conjugate(anosov)) == 6
    rp = ManifoldDescription((PieceDescription("rp3"), PieceDescription("rp3")),
                             torsionless=False)
    assert classify_manifold(rp).verdict == "geometric"
    jsj = JsjGraph(("hyperbolic", "hyperbolic"), ((0, 1),))
    two = ManifoldDescription((PieceDescription("irreducible_with_jsj", jsj=jsj),))
    verdict = classify_manifold(two)
    assert verdict.verdict == "acylindrical" and verdict.k == 4
    bound = systole_bound_for(two, 1.0, 1.0)
    assert bound.effective_systole_lb == s0_jsj(1.0, 1.0)
    s2 = ManifoldDescription((PieceDescription("s2xs1"), PieceDescription("s2xs1")))
    rep = systole_bound_for(s2, 1.0, 1.0)
    assert rep.effective_systole_lb > 0 and rep.volume_lb is None
    report(9, "torus bundle [[2,1],[1,1]] -> geometric (Sol), trace(JAJA^-1) = 6; "
              "RP3 # RP3 -> geometric; two-piece JSJ -> acylindrical(k=4) with "
              "the criterion-6 systole value; #2(S2 x S1) suppresses the volume")


def test_criterion_10_tree_mechanics(z2z3, z3z4, klein):
    rng = random.Random(110)
    base = base_vertex()
    # (a) translation identity d(v, h^n v) = n tau + 2 d(v, Axis)
    triples = 0
    for spec in (z2z3, z3z4, klein):
        done = 0
        while done < 100:
            h = random_word(rng, spec.gen_names, 4)
            cls = classify(spec, h, base)
            if not cls.is_hyperbolic:
                continue
            v = act(spec, random_word(rng, spec.gen_names, 3), base)
            window = axis_window(spec, h, v,
                                 radius=2 * tree_distance(base, v) + cls.tau + 6)
            ell = min(tree_distance(v, q) for q in window.members)
            n = rng.randint(1, 8)
            assert tree_distance(v, act(spec, h ** n, v)) == n * cls.tau + 2 * ell
            done += 1
        triples += done

    # (b) classify vs independent brute-force displacement minimization on
    # radius-8 windows, 300 elements per spec
    models = [
        (z2z3, CyclicFreeProductModel(2, 3, "a", "b")),
        (z3z4, CyclicFreeProductModel(3, 4, "a", "b")),
    ]
    checked = 0
    for spec, model in models:
        for _ in range(300):
            g = random_word(rng, spec.gen_names, 5)
            tau = classify(spec, g, base).tau
            assert model.displacement_min(model.from_word(g), 8) == tau
            checked += 1
    for _ in range(300):
        g = random_word(rng, klein.gen_names, 5)
        tau = classify(klein, g, base).tau
        assert CentralEdgeLineModel.displacement_min(g, 8) == tau
        checked += 1
    report(10, f"translation identity exact on {triples} random (h, v, n) "
               f"triples; classify matches independent radius-8 brute force "
               f"on {checked} elements (300 per spec)")
