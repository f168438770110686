"""The coset tree of a splitting: vertices, distances, classification,
fixed sets, axes, and windowed acylindricity checks.

Vertices are left cosets gA and gB.  A vertex is stored by its side and the
syllable list of the canonical coset representative (normal form with the
tail and any trailing same-side syllable stripped), so vertex equality is
plain structural equality.  Edges join gA and hB exactly when the cosets
intersect; the action is by left multiplication and preserves sides, hence
has no edge inversions.

Canonical coset representatives are closed under prefixes, so the tree is
the trie of normal forms (Serre, Trees, §I.4): the path from A:1 to (X, s)
runs through B:1 when s starts on side B (or s is empty and X = B), then
through the vertices named by the prefixes of s.  Distances, geodesics and
neighbours are read off syllable tuples; only the action and factor
membership compute normal forms.

The tree is infinite (and not even locally finite when a factor has infinite
edge index), so every set-valued operation here is windowed: results carry
the window and an exhaustiveness flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .splitting import SIDE_A, SplittingSpec, Syllable, other_side
from .words import Word, shortlex

# most vertices ``ball`` collects before it reports an incomplete ball
MAX_BALL_VERTICES = 200_000


@dataclass(frozen=True)
class TreeVertex:
    side: str
    syllables: Tuple[Syllable, ...]

    def rep_word(self) -> Word:
        return Word.of(letter for s in self.syllables for letter in s.word.letters)

    def __str__(self) -> str:
        body = "".join(str(s) for s in self.syllables) or "1"
        return f"{self.side}:{body}"


@dataclass(frozen=True)
class ElementClass:
    verdict: str  # "elliptic" | "hyperbolic"
    tau: int
    witness_vertex: TreeVertex  # a fixed vertex (elliptic) / an axis vertex (hyperbolic)

    @property
    def is_hyperbolic(self) -> bool:
        return self.verdict == "hyperbolic"


@dataclass(frozen=True)
class VertexRegion:
    center: TreeVertex
    radius: int
    members: Tuple[TreeVertex, ...]
    exhaustive_within_radius: bool


class EllipticElementError(ValueError):
    """A hyperbolic element was required."""


def base_vertex(spec: SplittingSpec, side: str = SIDE_A) -> TreeVertex:
    return TreeVertex(side, ())


def vertex_of(spec: SplittingSpec, side: str, w: Word) -> TreeVertex:
    """Canonical vertex for the coset w*<side factor>."""
    syls = spec.normal_form(w).syllables
    if syls and syls[-1].side == side:
        syls = syls[:-1]
    return TreeVertex(side, syls)


def act(spec: SplittingSpec, g: Word, v: TreeVertex) -> TreeVertex:
    return vertex_of(spec, v.side, g * v.rep_word())


def _first_side(v: TreeVertex) -> str:
    """B when the path from A:1 to v runs through B:1, else A."""
    return v.syllables[0].side if v.syllables else v.side


def _prefix_vertex(v: TreeVertex, j: int) -> TreeVertex:
    """The vertex named by v's first j syllables on the path from A:1 to v."""
    side = other_side(v.syllables[j - 1].side) if j else _first_side(v)
    return TreeVertex(side, v.syllables[:j])


def _meet(u: TreeVertex, v: TreeVertex) -> int:
    """Length of the common syllable prefix of u and v."""
    j = 0
    while j < min(len(u.syllables), len(v.syllables)) and u.syllables[j] == v.syllables[j]:
        j += 1
    return j


def tree_distance(spec: SplittingSpec, u: TreeVertex, v: TreeVertex) -> int:
    """Edge-count distance: |s_u| + |s_v| - 2*meet + [one path from A:1 runs via B:1]."""
    return (len(u.syllables) + len(v.syllables) - 2 * _meet(u, v)
            + (_first_side(u) != _first_side(v)))


def geodesic(spec: SplittingSpec, u: TreeVertex, v: TreeVertex) -> List[TreeVertex]:
    """The geodesic chain from u to v (length = distance + 1): up u's prefixes to
    the meet, down v's; the climbs share it unless one path runs via B:1."""
    m = _meet(u, v)
    up = [_prefix_vertex(u, j) for j in range(len(u.syllables), m - 1, -1)]
    down = [_prefix_vertex(v, j) for j in range(m, len(v.syllables) + 1)]
    return up + (down if _first_side(u) != _first_side(v) else down[1:])


def classify(spec: SplittingSpec, g: Word, base: Optional[TreeVertex] = None) -> ElementClass:
    """Elliptic/hyperbolic verdict via the two-displacement criterion.

    g is hyperbolic iff d(v, g^2 v) > d(v, g v), and then
    tau = d(v, g^2 v) - d(v, g v); the verdict does not depend on the base
    vertex.  The witness is a fixed vertex (midpoint of [v, gv]) for elliptic
    g, and an axis vertex for hyperbolic g.
    """
    if base is None:
        base = base_vertex(spec)
    gv = act(spec, g, base)
    ggv = act(spec, g, gv)
    d1 = tree_distance(spec, base, gv)
    d2 = tree_distance(spec, base, ggv)
    if d2 > d1:
        tau = d2 - d1
        return ElementClass("hyperbolic", tau, geodesic(spec, base, gv)[(d1 - tau) // 2])
    return ElementClass("elliptic", 0, geodesic(spec, base, gv)[d1 // 2])


# ---------------------------------------------------------------------------
# windowed ball enumeration
# ---------------------------------------------------------------------------


def neighbors(spec: SplittingSpec, v: TreeVertex,
              cap: Optional[int] = None) -> Tuple[List[TreeVertex], bool]:
    """Adjacent vertices (cosets s*t*OtherSide over the edge transversal)."""
    reps, complete = spec.subgroup(v.side).transversal(cap)
    return [_neighbor(v, t) for t in reps], complete


def _neighbor(v: TreeVertex, t: Word) -> TreeVertex:
    """The neighbour s*t*Y of v = (X, s), for a canonical coset rep t of C in X:
    (Y, s[:-1]) when t = 1, else (Y, s + (t,))."""
    if t.is_empty:
        return TreeVertex(other_side(v.side), v.syllables[:-1])
    return TreeVertex(other_side(v.side), v.syllables + (Syllable(v.side, t),))


def ball(spec: SplittingSpec, center: TreeVertex, radius: int,
         neighbor_cap: Optional[int] = None) -> Tuple[Dict[TreeVertex, int], bool]:
    """BFS ball as {vertex: distance}; second value reports completeness.

    The walk stops, reporting an incomplete ball, once it holds more than
    ``MAX_BALL_VERTICES`` vertices."""
    dist = {center: 0}
    frontier = [center]
    complete = True
    for d in range(1, radius + 1):
        nxt = []
        for v in frontier:
            nbs, nb_complete = neighbors(spec, v, neighbor_cap)
            complete = complete and nb_complete
            for nb in nbs:
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
                    if len(dist) > MAX_BALL_VERTICES:
                        return dist, False
        frontier = nxt
    return dist, complete


def _sorted_members(spec: SplittingSpec, base: TreeVertex,
                    vertices: Iterable[TreeVertex]) -> Tuple[TreeVertex, ...]:
    return tuple(sorted(vertices,
                        key=lambda v: (tree_distance(spec, base, v), v.side, str(v))))


# ---------------------------------------------------------------------------
# fixed sets, T-sets, axes
# ---------------------------------------------------------------------------


def _factor_element(spec: SplittingSpec, side: str, w: Word) -> Optional[Word]:
    """Canonical factor element equal to w, or None if w is not in the factor."""
    nf = spec.normal_form(w)
    factor = spec.factor(side)
    tail = nf.tail_image_a if side == SIDE_A else spec.sub_b.embed(nf.tail)
    if not nf.syllables:
        return factor.canonical(tail)
    if len(nf.syllables) == 1 and nf.syllables[0].side == side:
        return factor.multiply(nf.syllables[0].word, tail)
    return None


def element_order(spec: SplittingSpec, g: Word) -> Optional[int]:
    """Order of g in the whole group; None when it is infinite.

    A finite-order isometry of a tree fixes a vertex (Serre, Trees, §I.6),
    so hyperbolic g has infinite order.  Elliptic g fixes classify's witness
    vertex hX, so x = h^-1 g h lies in the factor X and g, a conjugate of x,
    has the order of x in X.
    """
    cls = classify(spec, g)
    if cls.is_hyperbolic:
        return None
    v = cls.witness_vertex
    x = _factor_element(spec, v.side, v.rep_word().inverse() * g * v.rep_word())
    assert x is not None, "fixed vertex must conjugate g into its factor"
    return spec.factor(v.side).element_order(x)


def fixed_set(spec: SplittingSpec, g: Word, base: Optional[TreeVertex] = None,
              radius: int = 8, neighbor_cap: Optional[int] = 16) -> VertexRegion:
    """Fix(g) intersected with ball(base, radius).

    Exhaustive except when g is the identity on a non-locally-finite tree or
    a conjugator solver reports an infinite solution family (flagged).
    Fixed-point sets of nontrivial elliptic elements are connected subtrees,
    so they are explored by BFS over fixed neighbors from classify's witness
    vertex: the midpoint of [base, g base], which is the projection of the
    base onto Fix(g).
    """
    if base is None:
        base = base_vertex(spec)
    if spec.is_trivial(g):
        dist, complete = ball(spec, base, radius, neighbor_cap)
        return VertexRegion(base, radius, _sorted_members(spec, base, dist), complete)
    cls = classify(spec, g, base)
    if cls.is_hyperbolic:
        return VertexRegion(base, radius, (), True)
    start = cls.witness_vertex
    if tree_distance(spec, base, start) > radius:
        return VertexRegion(base, radius, (), True)

    exhaustive = True
    seen: Set[TreeVertex] = {start}
    members: List[TreeVertex] = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            x = _factor_element(spec, v.side, v.rep_word().inverse() * g * v.rep_word())
            assert x is not None, "fixed vertex must conjugate g into its factor"
            sols, complete = spec.subgroup(v.side).conjugator_cosets(x, neighbor_cap)
            exhaustive = exhaustive and complete
            for t in sols:
                nb = _neighbor(v, t)
                if nb in seen:
                    continue
                seen.add(nb)
                if tree_distance(spec, base, nb) <= radius:
                    members.append(nb)
                    nxt.append(nb)
        frontier = nxt
    return VertexRegion(base, radius, _sorted_members(spec, base, members), exhaustive)


def t_set(spec: SplittingSpec, g: Word, base: Optional[TreeVertex] = None,
          radius: int = 8, max_power: int = 6,
          neighbor_cap: Optional[int] = 16) -> VertexRegion:
    """Union of Fix(g^n) over 1 <= n <= max_power with g^n nontrivial.

    Fix(g^-n) = Fix(g^n), so positive powers suffice, and g^n is trivial
    exactly when the order of g divides n.  The region is flagged
    exhaustive only when every window was exhaustive and g has finite order
    covered by max_power.
    """
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    if base is None:
        base = base_vertex(spec)
    order = element_order(spec, g)
    members: Set[TreeVertex] = set()
    exhaustive = True
    acc = Word()
    for n in range(1, max_power + 1):
        acc = acc * g
        if order is not None and n % order == 0:
            continue
        region = fixed_set(spec, acc, base, radius, neighbor_cap)
        members.update(region.members)
        exhaustive = exhaustive and region.exhaustive_within_radius
    powers_covered = order is not None and max_power >= order - 1
    return VertexRegion(base, radius, _sorted_members(spec, base, members),
                        exhaustive and powers_covered)


def axis_window(spec: SplittingSpec, h: Word, base: Optional[TreeVertex] = None,
                radius: int = 8) -> VertexRegion:
    """Axis(h) intersected with ball(base, radius); errors on elliptic h.

    The axis is the set of vertices moved exactly tau(h); it is tiled by
    h-translates of one fundamental segment, so the window is exact.
    """
    if base is None:
        base = base_vertex(spec)
    cls = classify(spec, h, base)
    if not cls.is_hyperbolic:
        raise EllipticElementError(f"element {h} is elliptic; it has no axis")
    tau = cls.tau
    p = cls.witness_vertex
    segment = geodesic(spec, p, act(spec, h, p))[:-1]
    d0 = tree_distance(spec, base, p)
    members: Set[TreeVertex] = set()
    for direction in (h, h.inverse()):
        shift = Word()
        k = 0
        while k * tau - tau - d0 <= radius:
            for q in segment:
                qq = act(spec, shift, q)
                if tree_distance(spec, base, qq) <= radius:
                    members.add(qq)
            shift = shift * direction
            k += 1
    return VertexRegion(base, radius, _sorted_members(spec, base, members), True)


def on_axis(spec: SplittingSpec, h: Word, tau: int, v: TreeVertex) -> bool:
    """Exact membership test: v is on Axis(h) iff it is moved exactly tau."""
    return tree_distance(spec, v, act(spec, h, v)) == tau


# ---------------------------------------------------------------------------
# diameters and acylindricity
# ---------------------------------------------------------------------------


def region_diameter(spec: SplittingSpec, region: VertexRegion):
    """Diameter of the member set; -inf for an empty region.

    Double sweep: in a tree, a member v farthest from any member u ends a
    longest path between members (connected or not), so the diameter is the
    largest distance from v.
    """
    vs = region.members
    if not vs:
        return -math.inf
    far = max(vs, key=lambda v: tree_distance(spec, vs[0], v))
    return max(tree_distance(spec, far, v) for v in vs)


def region_distance(spec: SplittingSpec, r1: VertexRegion, r2: VertexRegion):
    """Min distance between two windowed sets; +inf if either is empty."""
    if not r1.members or not r2.members:
        return math.inf
    return min(tree_distance(spec, u, v) for u in r1.members for v in r2.members)


def fix_diameter_lb(spec: SplittingSpec, g: Word, base: Optional[TreeVertex] = None,
                    radius: int = 8, neighbor_cap: Optional[int] = 16):
    """Certified lower bound for diam Fix(g): the windowed diameter.

    Returns -inf ("no fixed points") when the window is empty, in particular
    for hyperbolic g.
    """
    return region_diameter(spec, fixed_set(spec, g, base, radius, neighbor_cap))


@dataclass(frozen=True)
class AcylindricityCheck:
    verdict: str  # "falsified" | "consistent"
    k: int
    word_length: int
    radius: int
    witness: Optional[Word]
    witness_diameter: Optional[int]
    certified: bool  # structural certificate (trivial edge stabilizers)
    reason: str

    @property
    def falsified(self) -> bool:
        return self.verdict == "falsified"


def check_acylindricity(spec: SplittingSpec, k: int, word_length: int = 6,
                        radius: int = 8,
                        neighbor_cap: Optional[int] = 16) -> AcylindricityCheck:
    """One-sided windowed check of k-acylindricity on the edge group.

    By Bass-Serre theory an element g breaks k-acylindricity only if
    diam Fix(g) > k >= 0, so g fixes an edge.  Edge stabilizers are the
    conjugates s C s^-1 of the edge group C (the stabilizer of the base
    edge), and Fix(s c s^-1) = s Fix(c) has the diameter of Fix(c).  So it
    suffices to test the elements c of C: each fixes the base edge, and the
    window of the given radius about the base vertex sees every diameter up
    to about that radius.  The check enumerates the freely reduced words of
    at most ``word_length`` letters over the abstract edge generators, maps
    them into factor A, and falsifies with a witness (the image in A) if
    some windowed fixed set has diameter > k.

    "consistent" is not a proof, except for trivial edge subgroups, where
    every nontrivial elliptic element fixes a single vertex (factors of a
    free product are malnormal) and the verdict is certified for every k >= 0.
    """
    if k < 0 or word_length < 0 or radius < 0:
        raise ValueError("k, word_length and radius must be nonnegative")
    trivial_edge = all(im.is_empty for im in spec.sub_a.image_words)
    if trivial_edge:
        return AcylindricityCheck(
            "consistent", k, word_length, radius, None, None, True,
            "trivial edge stabilizers: every nontrivial elliptic element "
            "fixes exactly one vertex, so the action is 0-acylindrical")
    seen = set()
    for cw in shortlex(range(len(spec.edge_gens)), word_length):
        c = spec.sub_a.embed(cw)
        if c.is_empty or c.letters in seen:
            continue
        seen.add(c.letters)
        diam = fix_diameter_lb(spec, c, radius=radius, neighbor_cap=neighbor_cap)
        if diam > k:
            return AcylindricityCheck(
                "falsified", k, word_length, radius, c, diam, True,
                f"elliptic witness {c} has windowed fixed-set diameter {diam} > {k}")
    return AcylindricityCheck(
        "consistent", k, word_length, radius, None, None, False,
        f"no edge-group element of word length <= {word_length} violates "
        f"the bound within radius {radius} (not a proof)")
