"""Explicit free-subgroup and free-semigroup witnesses on splitting trees.

Witness constructions take the minimal powers at their thresholds:
p = ceil((k+1)/2) for an elliptic pair (conjugating by h = g1*g2),
p = k+1 for elliptic/hyperbolic, q = 3k+1 for hyperbolic pairs with small
axis overlap, p = 3 for large overlap.  Every witness is certified by a
bounded-depth normal-form check: no nontrivial alternating word in the
witnesses of letter budget <= depth evaluates to the identity (semigroup
claims: all positive words up to the depth stay pairwise distinct).  Each
word extends its parent's normal form by the normal form of one witness
power (``SplittingSpec.extend``), so a word costs its junction's
cancellation, not the power; the powers' forms are built once per
certificate, each extended from the last.  A relation of cost m is a
collision of two words of costs ceil(m/2) and floor(m/2), so a rank-2
certificate walks the ball of half its depth, about ×√3 per level for
infinite orders, and a failing one names the relation of its first
collision (the argument is in ``certify_rank2_free``).  Each generator
is normalized once, and the constructors pass its order: conjugates have
equal orders, so g^(h^-p) has the order of g, and hyperbolic witnesses
have infinite order (Serre, Trees, §I.6).  Depths past
``MAX_CERTIFICATE_DEPTH`` and certificates of more than
``MAX_CERTIFICATE_NODES`` words are input errors.  In general it refutes
non-freeness up to that depth; it is a guard, not a proof; the freeness
statements themselves come from acylindricity, the certificate only
guards the computation.  On a free spec (``_free_spec``: a free product
of free factors, or an amalgam of free factors over one edge generator
whose image on some side is a basis letter) it decides: there <w1, w2> is
free on w1, w2 unless [w1, w2] = 1 (Nielsen-Schreier and Hopficity), so
a rank-2 certificate walks to depth 4 at most and a semigroup one to
depth 2, and either gives the verdict of the requested depth.

Each case hypothesis is checked in one place: the element type by
``_require``, disjoint fixed sets by ``_fixed_gap``, distinct axes
by ``_distinct_axes`` (whose three-point sampling ``_axes_coincide`` also
answers ``same_axis``), and every rank-2 witness is certified and wrapped
by ``_certified``, sharing each input's form, class and mover.  Axis
spreads are derived from the inputs, not passed in.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .splitting import NormalForm, SplittingSpec
from .tree import (ElementClass, TreeVertex, _axis_ray, _classify, _element_order, _mover,
                   _t_powers, act, check_nonnegative, geodesic, mover, on_axis)
from .words import Word


# deepest certificate: on Z/2 * Z/2 the ball grows linearly, so the node
# budget alone would admit depths near 50,000, and the walk stores
# Θ(depth²) syllables (depth 4,000: 1.1 s and 66 MB on a 2-vCPU host)
MAX_CERTIFICATE_DEPTH = 500
# most words a certificate may normalize: the ball the rank-2 walk visits,
# or the positive words the semigroup check stores
MAX_CERTIFICATE_NODES = 50_000


class WitnessInputError(ValueError):
    """Inputs do not satisfy the case hypotheses (misclassified, intersecting
    fixed sets, coinciding axes, ...)."""


class CertificationFailure(RuntimeError):
    """A certificate check failed; never ignored silently."""


class FreenessWitness(NamedTuple):
    case: str
    generators: Tuple[Word, Word]
    power_used: int
    claim: str  # free_product_rank2 | free_subgroup_rank2 | free_semigroup_rank2
    certificate_depth: int
    certified: bool
    branch: Optional[str] = None
    failure: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "generators": [str(w) for w in self.generators]}


class OverlapReport(NamedTuple):
    diameter: float  # capped at the walk radius; -inf when the axes are disjoint
    branch: str  # "small" | "large", against 3k
    crossing: Optional[TreeVertex]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _check_depth(depth: int) -> None:
    """Reject a negative certificate depth, or one past
    ``MAX_CERTIFICATE_DEPTH``, as an input error: the node budget does not
    bound the depth where the ball grows linearly."""
    check_nonnegative("certificate depth", depth)
    if depth > MAX_CERTIFICATE_DEPTH:
        raise ValueError(f"certificate depth must be <= {MAX_CERTIFICATE_DEPTH}, got {depth}")


def _free_spec(spec: SplittingSpec) -> bool:
    """Whether the spec's group is free by its shape: a free product of free
    factors, or an amalgam of free factors over one edge generator whose
    image on some side is a letter x^±1, since a Tietze move deletes x:
    F(X) *_{x=w} F(Y) = F(X - x) * F(Y).  Other free splittings (a primitive
    edge word that is no letter) are not detected."""
    if spec.factor_a.kind != "free" or spec.factor_b.kind != "free":
        return False
    if spec.kind == "free_product":
        return True
    images = [sub.image_words[0].letters for sub in (spec.sub_a, spec.sub_b)]
    return len(spec.edge_gens) == 1 and any(len(im) == 1 and abs(im[0][1]) == 1
                                            for im in images)


def _syllable_cost(exp: int, order: Optional[int]) -> int:
    if order is None:
        return abs(exp)
    return min(exp % order, order - exp % order)


def _exponent_range(order: Optional[int], budget: int) -> List[int]:
    """The exponents of letter cost <= budget: 1, -1, 2, -2, ... for infinite
    order, else the residues 1 .. order-1 within budget of 0, ascending."""
    if order is not None:
        near = range(1, min(budget, order - 1) + 1)
        return sorted({*near, *(order - m for m in near)})
    return [e for mag in range(1, budget + 1) for e in (mag, -mag)]


def _power_forms(spec: SplittingSpec, w: Word, nf: NormalForm, order: Optional[int],
                 depth: int) -> Dict[int, NormalForm]:
    """nf(w^e) for every exponent in ``_exponent_range(order, depth)``, from
    nf = nf(w) and nf(w^-1): nf(w^(s(m+1))) = extend(nf(w^(sm)), nf(w^s)),
    so the table costs O(depth) junctions.  A finite order keys w^-m by its
    residue order - m, and runs the second chain only as far as the first
    one has not reached."""
    up = depth if order is None else min(depth, order - 1)
    down = depth if order is None else min(depth, order - 1 - up)
    forms: Dict[int, NormalForm] = {}
    for s, count in ((1, up), (-1, down)):
        if not count:
            continue
        step = nf if s == 1 else spec.normal_form(w ** s)
        chain = itertools.accumulate(itertools.repeat(step, count - 1), spec.extend,
                                     initial=step)
        for m, nf in zip(range(1, count + 1), chain):
            forms[s * m if order is None else s * m % order] = nf
    return forms


def _check_nodes(depth: int, count: int) -> None:
    """Reject a certificate of more than ``MAX_CERTIFICATE_NODES`` nodes as
    an input error."""
    if count > MAX_CERTIFICATE_NODES:
        raise ValueError(f"certificate depth {depth} needs {count} nodes; "
                         f"at most {MAX_CERTIFICATE_NODES} are allowed")


def _ball_size(orders: Tuple[Optional[int], ...], radius: int) -> int:
    """|B(radius)| - 1 in the free product of the two cyclic groups, that is,
    the number of nontrivial alternating words of cost <= radius:
    2(3^radius - 1) for two infinite orders."""
    costs = [[_syllable_cost(e, order) for e in _exponent_range(order, radius)]
             for order in orders]
    # ends[i][c]: the words of cost c whose last power is on side i
    ends = [[0] * (radius + 1) for _ in (0, 1)]
    for c in range(1, radius + 1):
        for i in (0, 1):
            ends[i][c] = sum(ends[1 - i][c - k] + (k == c) for k in costs[i] if k <= c)
    return sum(ends[0]) + sum(ends[1])


def _ball_collision(spec: SplittingSpec, words: Tuple[Word, Word], nfs: Tuple[NormalForm, ...],
                    orders: Tuple[Optional[int], ...], depth: int) -> Optional[tuple]:
    """The first two distinct words u, v of costs <= ceil(depth/2) and
    <= floor(depth/2) with the same normal form, or None.  The walk goes by
    cost layers; each word is its parent's form extended by its last power,
    and v is the first word that reached the form.  A word is nested as
    (parent, side, exponent), the root being ()."""
    low, high = depth // 2, (depth + 1) // 2
    forms = [_power_forms(spec, *gen, high) for gen in zip(words, nfs, orders)]
    identity = NormalForm((), ())
    first = {identity: ()}  # each stored form's first word
    # ends[i][c]: (word, normal form) of the words of cost c ending on side i
    ends = [[[((), identity)]], [[((), identity)]]]
    for c in range(1, high + 1):
        for i in (0, 1):
            ends[i].append([])
            for exp in _exponent_range(orders[i], c):
                form = forms[i][exp]
                for parent, nf in ends[1 - i][c - _syllable_cost(exp, orders[i])]:
                    # the root is the identity, so its children are the powers
                    nf2 = spec.extend(nf, form) if parent else form
                    word = (parent, i, exp)
                    if c > low:  # an odd depth's last layer is looked up, never stored
                        v = first.get(nf2, word)
                    else:
                        v = first.setdefault(nf2, word)
                        ends[i][c].append((word, nf2))
                    if v is not word:
                        return word, v
    return None


def _spell(word: tuple, sign: int) -> Iterator[Tuple[int, int]]:
    """The (side, sign * exponent) powers of a walked word, last first."""
    while word:
        word, i, exp = word
        yield i, sign * exp


def certify_rank2_free(spec: SplittingSpec, w1: Word, w2: Word,
                       depth: int = 6) -> Tuple[bool, Optional[str]]:
    """Check that no nontrivial alternating word in w1, w2 of letter budget
    <= depth evaluates to the identity.

    Syllable exponents run over nontrivial powers (mod the element order when
    finite), so this is the right nontriviality check both for the
    free-product claim <w1> * <w2> and, for infinite-order witnesses, for
    rank-2 free subgroups.  Returns (ok, the named relation or None).

    The verdict comes from a ball walk.  The alternating words are the
    elements of the free product P of the cyclic groups <w1>, <w2>, and a
    word's cost is its length in P.  A nontrivial element g of length
    m <= depth splits along a geodesic as g = u v^-1 with |u| = ceil(m/2)
    and |v| = floor(m/2); the cut may fall inside a power, where a residue
    of cost c splits into residues of costs j and c - j (for an even order,
    the residue of cost order/2 has two geodesic halves, either will do).
    So g is trivial in the group exactly when u and v, distinct in P, have
    the same normal form.  There is no relation of cost <= depth exactly
    when the words of cost <= floor(depth/2) have pairwise distinct forms
    and no word of cost ceil(depth/2) has the form of one of them (for an
    odd depth, two words of cost ceil(depth/2) may share a form: their
    relation costs depth + 1).  This visits |B(ceil(depth/2))| words, about
    ×√3 per level for two infinite orders.  Counts past
    ``MAX_CERTIFICATE_NODES`` are input errors, raised before the power
    table is built.

    A failing walk stops at its first collision, a word u of cost c whose
    form an earlier word v has, and names the relation u v^-1, which costs
    <= depth.  No layer below c collided, so every relation costs
    >= 2c - 1, and the named one costs <= 2c: it is within one of the
    shortest.  It is written ``W1^1 W2^1 W1^-1 W2^-1 = 1``, with the powers
    at the junction merged and finite-order exponents as residues.  The
    walk trusts that ``extend`` returns a normal form, in which equal forms
    are equal elements; the tests compare it with a walk that normalizes
    every word from scratch.

    On a free spec (``_free_spec``) depth 4 decides.  <w1, w2> is free
    (Nielsen-Schreier) of rank <= 2; unless it is cyclic, hence [w1, w2] = 1,
    a relation of cost 4, it has rank 2 and, free groups being Hopfian, w1
    and w2 are a basis, so no alternating word is trivial.  The walk of
    depth min(depth, 4) is a prefix of the walk of the requested depth:
    both store the same layers 1 and 2, in the same order.  So it meets the
    same first collision or, walking past [w1, w2] unmatched, none at all:
    the verdict and the named relation are those of the requested depth,
    which alone the node budget judges.
    """
    return _certify_rank2(spec, (w1, w2), None, depth)


def _certify_rank2(spec: SplittingSpec, words: Tuple[Word, Word], orders: Optional[tuple],
                   depth: int) -> Tuple[bool, Optional[str]]:
    """``certify_rank2_free``, reading each order off its form unless it is known."""
    _check_depth(depth)
    forms = tuple(map(spec.normal_form, words))
    if any(nf.is_trivial for nf in forms):
        return False, "a witness generator is trivial"
    orders = orders or tuple(_element_order(spec, nf, _classify(spec, nf)) for nf in forms)
    _check_nodes(depth, _ball_size(orders, (depth + 1) // 2))
    collision = _ball_collision(spec, words, forms, orders,
                                min(depth, 4) if _free_spec(spec) else depth)
    if collision is None:
        return True, None
    u, v = collision
    relation: List[Tuple[int, int]] = []
    for i, exp in [*reversed([*_spell(u, 1)]), *_spell(v, -1)]:
        if relation and relation[-1][0] == i:  # u and v end on the same side
            exp += relation.pop()[1]
        relation.append((i, exp))
    return False, " ".join(f"W{i + 1}^{exp if orders[i] is None else exp % orders[i]}"
                           for i, exp in relation) + " = 1"


def certify_free_semigroup(spec: SplittingSpec, w1: Word, w2: Word,
                           depth: int = 6) -> Tuple[bool, Optional[str]]:
    """All positive words of length <= depth in (w1, w2) are pairwise distinct;
    the 2^(depth+1) - 2 nonempty words count against ``MAX_CERTIFICATE_NODES``.

    On a free spec (``_free_spec``) length 2 decides: if w1 w2 = w2 w1, the
    words W12 and W21 collide; if not, w1 and w2 are a basis of the free
    group they generate (Nielsen-Schreier and Hopficity), so no two positive
    words collide.  The walk of min(depth, 2) levels is a prefix of the
    walk of the requested depth, level by level in the same order, so it
    names the same first collision, or finds none exactly when that walk
    does; the node budget still judges the requested depth."""
    _check_depth(depth)
    _check_nodes(depth, 2 ** (depth + 1) - 2)
    empty = spec.normal_form(Word())
    seen = {empty: ""}
    frontier: List[Tuple[str, NormalForm]] = [("", empty)]
    gens = (("1", spec.normal_form(w1)), ("2", spec.normal_form(w2)))
    for _ in range(min(depth, 2) if _free_spec(spec) else depth):
        nxt = []
        for label, nf in frontier:
            for tag, form in gens:
                lab2, nf2 = label + tag, spec.extend(nf, form)
                first = seen.setdefault(nf2, lab2)
                if first != lab2:
                    return False, f"W{lab2} collides with W{first}"
                nxt.append((lab2, nf2))
        frontier = nxt
    return True, None


# ---------------------------------------------------------------------------
# case hypotheses, one check each
# ---------------------------------------------------------------------------


def _require(spec: SplittingSpec, w: Word, name: str, hyperbolic: bool) -> tuple:
    """w's form and class, rejected unless w is hyperbolic (or elliptic) as required."""
    cls = _classify(spec, nf := spec.normal_form(w))
    if cls.is_hyperbolic != hyperbolic:
        if hyperbolic:
            raise WitnessInputError(f"{name} = {w} is elliptic; a hyperbolic element is required")
        raise WitnessInputError(f"{name} = {w} is hyperbolic; an elliptic element is required")
    return nf, cls


def _fixed_gap(spec: SplittingSpec, r1: tuple, r2: tuple) -> int:
    """d(Fix(g1), Fix(g2)) for elliptic g1, g2 given by their (form, class)
    pairs r1, r2; below 1 exactly when the fixed sets meet.

    Fix(g_i) is a subtree holding classify's witness p_i (Serre, Trees,
    §I.6), so [p1, p2] meets Fix(g1) in an initial segment of a vertices and
    Fix(g2) in a final one of b.  Sets sharing a vertex s share the median
    of p1, p2 and s, which lies on [p1, p2]; disjoint ones are bridged on
    [p1, p2], between the segments.  So the distance is d(p1, p2) + 2 - a - b,
    for 2 (d(p1, p2) + 1) tests at most."""
    def fixed_run(nf, vs):  # the leading vertices of vs that g = nf fixes
        move = _mover(spec, nf)
        return sum(1 for _ in itertools.takewhile(lambda v: move(v) == v, vs))

    (nf1, c1), (nf2, c2) = r1, r2
    path = geodesic(c1.witness_vertex, c2.witness_vertex)
    return len(path) + 1 - fixed_run(nf1, path) - fixed_run(nf2, reversed(path))


def _fixed_set_distance(spec: SplittingSpec, g1: Word, g2: Word) -> tuple:
    """d(Fix(g1), Fix(g2)) for elliptic g1, g2, and the inputs' (form, class)
    pairs; rejects intersecting fixed sets."""
    required = [_require(spec, g1, "g1", False), _require(spec, g2, "g2", False)]
    d = _fixed_gap(spec, *required)
    if d < 1:
        raise WitnessInputError(
            "the fixed sets of g1 and g2 intersect; Fix(g1) ∩ Fix(g2) = ∅ is required")
    return d, required


def _axes_coincide(spec: SplittingSpec, h1: Word, c1: ElementClass, move2: Callable,
                   c2: ElementClass, spread: int) -> bool:
    """Whether three Axis(h1) points spread 2*spread*tau(h1) apart all lie on
    Axis(h2), h2 moving by move2.  If so, the axes share a segment at least
    that long (axes are convex), which we take as equality.  Distinct axes
    overlap in a bounded segment, so a large spread makes this decisive."""
    p1 = c1.witness_vertex
    return all(on_axis(move2, c2.tau, act(spec, h1 ** j, p1) if j else p1)
               for j in (0, -spread, spread))


def same_axis(spec: SplittingSpec, h1: Word, h2: Word) -> bool:
    """Windowed test for Axis(h1) = Axis(h2), sampled with spread 8."""
    (_, c1), (nf2, c2) = _require(spec, h1, "h1", True), _require(spec, h2, "h2", True)
    return _axes_coincide(spec, h1, c1, _mover(spec, nf2), c2, 8)


def _distinct_axes(spec: SplittingSpec, h1: Word, h2: Word, spread: int) -> tuple:
    """The class and the mover of hyperbolic h1 and of h2; rejects axes that
    coincide when sampled with the given spread."""
    (nf1, c1), (nf2, c2) = _require(spec, h1, "h1", True), _require(spec, h2, "h2", True)
    move2 = _mover(spec, nf2)
    if _axes_coincide(spec, h1, c1, move2, c2, spread):
        raise WitnessInputError(
            f"h1 = {h1} and h2 = {h2} share an axis; distinct axes are required")
    return (c1, _mover(spec, nf1)), (c2, move2)


def _axis_intersection(spec: SplittingSpec, h1: Word, c1: ElementClass, move1: Callable,
                       c2: ElementClass, move2: Callable, radius: int) -> Tuple[float, TreeVertex]:
    """Diameter of Axis(h1) ∩ Axis(h2) within radius of q*, the projection
    of Axis(h1) onto Axis(h2), and q*; -inf when the axes are disjoint.  If
    the axes meet, q* lies in the intersection, so a radius R certifies any
    diameter verdict below R.

    Axes are convex, so Axis(h1) ∩ Axis(h2) is a segment of the line
    Axis(h1) through q*.  The overlap is walked from q* along Axis(h1), one
    period [a, h1 a] at a time, in each direction, up to the first vertex
    off Axis(h2) or R steps; the diameter is the sum of the two extents.
    The walk costs the overlap, not a window of radius R."""
    p1, p2 = c1.witness_vertex, c2.witness_vertex
    # p2 itself is on Axis(h2)
    q_star = next(v for v in geodesic(p1, p2) if on_axis(move2, c2.tau, v))
    if not on_axis(move1, c1.tau, q_star):
        return -math.inf, q_star

    rays = (itertools.islice(_axis_ray(move, q_star), radius)
            for move in (move1, mover(spec, h1.inverse())))
    extents = (sum(1 for _ in itertools.takewhile(lambda v: on_axis(move2, c2.tau, v), ray))
               for ray in rays)
    return sum(extents), q_star


def overlap_report(spec: SplittingSpec, k: int, h1: Word, h2: Word) -> OverlapReport:
    """Diameter of Axis(h1) ∩ Axis(h2) and the 3k branch selection."""
    check_nonnegative("k", k)
    (c1, move1), (c2, move2) = _distinct_axes(spec, h1, h2, max(3 * k + 2, 8))
    radius = 3 * k + c1.tau + c2.tau + 6
    diam, crossing = _axis_intersection(spec, h1, c1, move1, c2, move2, radius)
    branch = "small" if diam <= 3 * k else "large"
    # the walk radius exceeds 3k, so the branch verdict is exhaustive
    return OverlapReport(diam, branch, crossing)


def _certified(spec: SplittingSpec, case: str, pair: Tuple[Word, Word], order: Optional[int],
               power: int, depth: int, branch: Optional[str] = None) -> FreenessWitness:
    """Certify the pair, whose common order the case knows, and wrap it;
    elliptic cases claim a free product, hyperbolic ones a free subgroup."""
    claim = "free_product_rank2" if case.startswith("elliptic") else "free_subgroup_rank2"
    ok, fail = _certify_rank2(spec, pair, (order, order), depth)
    return FreenessWitness(case, pair, power, claim, depth, ok, branch, fail)


# ---------------------------------------------------------------------------
# witness constructions, case by case
# ---------------------------------------------------------------------------


def witness_elliptic_pair(spec: SplittingSpec, k: int, g1: Word, g2: Word,
                          depth: int = 6) -> FreenessWitness:
    """Elliptic pair with disjoint fixed sets: witnesses (g1, h^p g1 h^-p)
    with h = g1 g2 and p = ceil((k+1)/2)."""
    check_nonnegative("k", k)
    _, [(nf, cls), _] = _fixed_set_distance(spec, g1, g2)
    p, order = (k + 2) // 2, _element_order(spec, nf, cls)
    return _certified(spec, "elliptic_elliptic", (g1, g1.conjugated_by((g1 * g2) ** -p)),
                      order, p, depth)


def witness_elliptic_hyperbolic(spec: SplittingSpec, k: int, g: Word, h: Word,
                                depth: int = 6) -> FreenessWitness:
    """Elliptic g, hyperbolic h: witnesses (g, h^p g h^-p) with p = k+1."""
    check_nonnegative("k", k)
    nf, cls = _require(spec, g, "g", False)
    _require(spec, h, "h", True)
    p, order = k + 1, _element_order(spec, nf, cls)
    return _certified(spec, "elliptic_hyperbolic", (g, g.conjugated_by(h ** -p)), order, p, depth)


def witness_hyperbolic_pair(spec: SplittingSpec, k: int, h1: Word, h2: Word,
                            depth: int = 6) -> FreenessWitness:
    """Hyperbolic pair with distinct axes.

    Small overlap (diam <= 3k): witnesses (h1^q, h2^q) with q = 3k+1.
    Large overlap: p = 3 and one of (h2, h1^p h2 h1^-p), (h1, h2^p h1 h2^-p),
    trying the h1-conjugates-h2 order first.
    """
    if overlap_report(spec, k, h1, h2).branch == "small":
        q = 3 * k + 1
        return _certified(spec, "hyperbolic_small_overlap", (h1 ** q, h2 ** q), None, q,
                          depth, "small")
    p = 3
    for conjugator, seed, label in ((h1, h2, "h1 conjugates h2"),
                                    (h2, h1, "h2 conjugates h1")):
        witness = _certified(spec, "hyperbolic_large_overlap",
                             (seed, seed.conjugated_by(conjugator ** -p)), None, p, depth,
                             f"large ({label})")
        if witness.certified:
            return witness
    raise CertificationFailure(
        f"neither large-overlap conjugation order certified at depth {depth} "
        f"for h1 = {h1}, h2 = {h2}")


def semigroup_witness(spec: SplittingSpec, h1: Word, h2: Word,
                      depth: int = 6) -> FreenessWitness:
    """Free-semigroup witness: either (h1, h2) or (h1^-1, h2), whichever set
    of positive words stays distinct to the certificate depth."""
    _distinct_axes(spec, h1, h2, 8)
    failures = []
    for pair, label in (((h1, h2), "direct"), ((h1.inverse(), h2), "inverted")):
        ok, fail = certify_free_semigroup(spec, pair[0], pair[1], depth)
        if ok:
            return FreenessWitness("semigroup", pair, 1, "free_semigroup_rank2",
                                   depth, True, branch=label)
        failures.append(f"{label}: {fail}")
    raise CertificationFailure(
        "both orientation pairs failed the positive-word distinctness check: "
        + "; ".join(failures))


# ---------------------------------------------------------------------------
# translation-length and overlap verifications
# ---------------------------------------------------------------------------


class ProductTranslationReport(NamedTuple):
    tau_product: int
    distance_of_fixed_sets: int


def product_translation_length(spec: SplittingSpec, g1: Word,
                               g2: Word) -> ProductTranslationReport:
    """For elliptic g1, g2 with disjoint fixed sets, returns tau(g1 g2) and
    d(Fix(g1), Fix(g2)); the caller asserts tau = 2 d."""
    d, [(nf1, _), (nf2, _)] = _fixed_set_distance(spec, g1, g2)
    return ProductTranslationReport(_classify(spec, spec.extend(nf1, nf2)).tau, d)


def verify_disjoint_tsets(spec: SplittingSpec, g1: Word, g2: Word) -> bool:
    """Exact check of T(g1) ∩ T(g2) = ∅ (the rank-2 free product
    hypothesis) for powers up to 6: T(g) is the union of Fix(g^d) over
    ``_t_powers``' d, so the T-sets are disjoint exactly when every pair
    Fix(g1^d1), Fix(g2^d2) is, each read off one geodesic (``_fixed_gap``)."""
    powers = []
    for g, name in ((g1, "g1"), (g2, "g2")):
        nf, cls = _require(spec, g, name, False)
        forms = [nf if d == 1 else spec.normal_form(g ** d)
                 for d in _t_powers(_element_order(spec, nf, cls) or 0, 6)]
        powers.append([(f, _classify(spec, f)) for f in forms])
    return all(_fixed_gap(spec, r1, r2) >= 1 for r1, r2 in itertools.product(*powers))


def witness_power_pair(spec: SplittingSpec, h1: Word, h2: Word, n: int,
                       depth: int = 6) -> FreenessWitness:
    """If diam(Axis(h1) ∩ Axis(h2)) < n min(tau1, tau2), the powers
    (h1^n, h2^n) generate a rank-2 free subgroup; certified witness."""
    if n < 1:
        raise ValueError("n must be >= 1")
    (c1, move1), (c2, move2) = _distinct_axes(spec, h1, h2, max(n + 2, 8))
    bound = n * min(c1.tau, c2.tau)
    diam, _ = _axis_intersection(spec, h1, c1, move1, c2, move2, bound + c1.tau + c2.tau + 6)
    if not diam < bound:
        raise WitnessInputError(
            f"axis overlap diameter {diam} is not < n*min(tau) = {bound}")
    return _certified(spec, "hyperbolic_small_overlap", (h1 ** n, h2 ** n), None, n, depth)


# ---------------------------------------------------------------------------
# the proof's witness-length bookkeeping
# ---------------------------------------------------------------------------


def witness_length_bound_holds(k: int, diam_bound=1) -> bool:
    """Symbolic check that the elliptic-branch witness satisfies
    |g2| <= (4k+10) D when |h| <= 4D, |g1| <= 2D and p = ceil((k+1)/2):
    2p * 4D + 2D <= (4k+10) D."""
    p = (k + 2) // 2
    return 2 * p * 4 * diam_bound + 2 * diam_bound <= (4 * k + 10) * diam_bound
