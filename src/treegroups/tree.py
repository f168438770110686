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
neighbours are read off syllable tuples, so distances, geodesics and region
diameters take vertices only.  The action normalizes g once (``mover``):
s is itself a normal form with trivial tail, so g moves each vertex by
extending nf(g) by s, and a vertex costs the junction, not |g| + |s|.
If g fixes v, g rep(v) = rep(v) x_v for x_v in X, which is read off the
same junction (``_factor_element``), so g is normalized once per call.

The tree is infinite (and not even locally finite when a factor has infinite
edge index), so balls, fixed sets and T-sets come from one depth-bounded
BFS, ``_walk``, of at most ``MAX_WINDOW_VERTICES`` vertices whose names
hold at most ``MAX_WINDOW_SYLLABLES`` syllables in all (a window of radius
R on a line holds about R^2), and every window carries an exhaustiveness
flag.  Classify's elliptic witness is the base's projection onto Fix(g)
(``Subtree``), so each fixed v has d(base, v) = d(base, start) + d(start, v),
and the walk from it carries x_v = rep(v)^-1 g rep(v) in v's factor X.
``_walk`` lists each vertex's fixed children by one rule: they are the
cosets tC with t^-1 x_v t in C, and if (., cw) = split_X(t^-1 x_v t) a
child's element is embed_Y(cw), or s embed_Y(cw) s^-1 for t = 1 and v's
last syllable s.  Only s depends on more than the state (X, x_v), so one
walk works out the cosets once per state and each embed_Y(cw) once per
state and t.  A ball is the walk of Fix(1) from its centre: every coset
conjugates 1 into C, so the children are the capped transversal, and the
state stays 1, so a ball computes no normal form.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .oracles import NEIGHBOR_CAP
from .splitting import SIDE_A, NormalForm, SplittingSpec, Syllable, other_side
from .words import Word

# most vertices, and most syllables summed over their names, a window
# collects before it reports an incomplete window
MAX_WINDOW_VERTICES = 200_000
MAX_WINDOW_SYLLABLES = 1_000_000


class TreeVertex(NamedTuple):
    side: str
    syllables: Tuple[Syllable, ...]

    def rep_word(self) -> Word:
        return Word.of(letter for s in self.syllables for letter in s.word.letters)

    def __str__(self) -> str:
        body = "".join(str(s) for s in self.syllables) or "1"
        return f"{self.side}:{body}"


class ElementClass(NamedTuple):
    verdict: str  # "elliptic" | "hyperbolic"
    tau: int
    witness_vertex: TreeVertex  # a fixed vertex (elliptic) / an axis vertex (hyperbolic)

    @property
    def is_hyperbolic(self) -> bool:
        return self.verdict == "hyperbolic"


class VertexRegion(NamedTuple):
    center: TreeVertex
    radius: int
    members: Tuple[TreeVertex, ...]
    exhaustive_within_radius: bool


class EllipticElementError(ValueError):
    """A hyperbolic element was required."""


def base_vertex(side: str = SIDE_A) -> TreeVertex:
    return TreeVertex(side, ())


def _coset_vertex(side: str, syls: Tuple[Syllable, ...]) -> TreeVertex:
    """The vertex of the coset w*<side factor> for w's normal-form syllables:
    a trailing same-side syllable lies in the factor, so it is dropped."""
    if syls and syls[-1].side == side:
        syls = syls[:-1]
    return TreeVertex(side, syls)


def vertex_of(spec: SplittingSpec, side: str, w: Word) -> TreeVertex:
    """Canonical vertex for the coset w*<side factor>."""
    return _coset_vertex(side, spec.normal_form(w).syllables)


def _mover(spec: SplittingSpec, nf: NormalForm) -> Callable[[TreeVertex], TreeVertex]:
    """The action of g = nf on vertices: nf(g rep(v)) is nf extended by v's
    syllables with trivial tail, which costs the junction (``extend``)."""
    return lambda v: _coset_vertex(
        v.side, spec.extend(nf, NormalForm(v.syllables, ())).syllables)


def mover(spec: SplittingSpec, g: Word) -> Callable[[TreeVertex], TreeVertex]:
    """The action of g as a map on vertices; nf(g) is computed once."""
    return _mover(spec, spec.normal_form(g))


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


def tree_distance(u: TreeVertex, v: TreeVertex) -> int:
    """Edge-count distance: |s_u| + |s_v| - 2*meet + [one path from A:1 runs via B:1]."""
    return (len(u.syllables) + len(v.syllables) - 2 * _meet(u, v)
            + (_first_side(u) != _first_side(v)))


def geodesic(u: TreeVertex, v: TreeVertex) -> List[TreeVertex]:
    """The geodesic chain from u to v (length = distance + 1): up u's prefixes to
    the meet, down v's; the climbs share it unless one path runs via B:1."""
    m = _meet(u, v)
    up = [_prefix_vertex(u, j) for j in range(len(u.syllables), m - 1, -1)]
    down = [_prefix_vertex(v, j) for j in range(m, len(v.syllables) + 1)]
    return up + (down if _first_side(u) != _first_side(v) else down[1:])


def geodesic_vertex(u: TreeVertex, v: TreeVertex, i: int) -> TreeVertex:
    """``geodesic(u, v)[i]``: one prefix of u on the climb to the meet, else of v."""
    m, n = _meet(u, v), len(u.syllables)
    if i <= n - m:
        return _prefix_vertex(u, n - i)
    return _prefix_vertex(v, 2 * m + i - n - (_first_side(u) != _first_side(v)))


class Subtree(NamedTuple):
    """S = Fix(g) for elliptic g, else Axis(g), for g = nf of class cls (about
    some base) moving vertices by ``move``.  S is a convex subtree, and
    d(v, g v) = 2 d(v, S) + tau for every vertex v, with [v, g v] running
    through v's projection onto S (Serre, Trees, §I.6; Culler-Morgan, Proc.
    LMS 55 (1987), §1).  So once tau is known, one move of v projects it onto
    S and decides whether v lies in S."""
    nf: NormalForm
    cls: ElementClass
    move: Callable[[TreeVertex], TreeVertex]

    def project(self, v: TreeVertex) -> TreeVertex:
        gv = self.move(v)
        return geodesic_vertex(v, gv, (tree_distance(v, gv) - self.cls.tau) // 2)

    def contains(self, v: TreeVertex) -> bool:
        return tree_distance(v, self.move(v)) == self.cls.tau


def _subtree(spec: SplittingSpec, nf: NormalForm, base: Optional[TreeVertex] = None) -> Subtree:
    """g = nf's ``Subtree``: two moves of the base v give
    tau = max(d(v, g^2 v) - d(v, g v), 0), and the witness is v's projection."""
    base = base or base_vertex()
    move = _mover(spec, nf)
    gv = move(base)
    d1 = tree_distance(base, gv)
    tau = max(tree_distance(base, move(gv)) - d1, 0)
    return Subtree(nf, ElementClass("hyperbolic" if tau else "elliptic", tau,
                                    geodesic_vertex(base, gv, (d1 - tau) // 2)), move)


def classify(spec: SplittingSpec, g: Word, base: Optional[TreeVertex] = None) -> ElementClass:
    """Elliptic/hyperbolic verdict via the two-displacement criterion.

    g is hyperbolic iff d(v, g^2 v) > d(v, g v), and then
    tau = d(v, g^2 v) - d(v, g v); the verdict does not depend on the base
    vertex.  The witness, v's projection onto Fix(g) or Axis(g)
    (``Subtree``), is a fixed vertex or an axis vertex.
    """
    return _subtree(spec, spec.normal_form(g), base).cls


def _power(spec: SplittingSpec, nf: NormalForm, n: int) -> NormalForm:
    """nf(g^n) for n >= 1 from nf = nf(g), by squaring: g^n is (g^2)^(n//2),
    times g for odd n, so about 2 log2(n) extends build it."""
    if n == 1:
        return nf
    half = _power(spec, spec.extend(nf, nf), n // 2)
    return spec.extend(half, nf) if n % 2 else half


# ---------------------------------------------------------------------------
# the windowed walk
# ---------------------------------------------------------------------------


def _neighbor(v: TreeVertex, t: Word) -> TreeVertex:
    """The neighbour s*t*Y of v = (X, s), for a canonical coset rep t of C in X:
    (Y, s[:-1]) when t = 1, else (Y, s + (t,))."""
    if t.is_empty:
        return TreeVertex(other_side(v.side), v.syllables[:-1])
    return TreeVertex(other_side(v.side), v.syllables + (Syllable(v.side, t),))


def _walk(spec: SplittingSpec, start: TreeVertex, levels: int, x: Word,
          cap: Optional[int]) -> Tuple[Dict[TreeVertex, int], bool]:
    """Depth-bounded BFS of Fix(g) from start: ({vertex: depth}, complete).

    Each vertex carries x_v (x at start) and lists its unwalked fixed
    children, at most ``cap`` cosets, by the module docstring's rule; the
    last level is not expanded.  A memo that lives for this walk only holds
    the cosets per state (side, x_v) and embed_Y(cw) per state and t, the
    latter filled when such a child is first unseen.  Past ``MAX_WINDOW_VERTICES`` vertices or ``MAX_WINDOW_SYLLABLES``
    syllables the walk stops and reports an incomplete window."""
    depth = {start: 0}
    frontier = [(start, x)]
    complete = True
    held = len(start.syllables)
    cosets: Dict[Tuple[str, Word], Tuple[List[Word], bool]] = {}
    kid_elements: Dict[Tuple[str, Word, Word], Word] = {}
    for d in range(1, levels + 1):
        nxt = []
        for v, x in frontier:
            sub, side = spec.subgroup(v.side), other_side(v.side)
            state = (v.side, x)
            if state not in cosets:
                cosets[state] = sub.conjugator_cosets(x, cap)
            ts, kids_complete = cosets[state]
            complete = complete and kids_complete
            for t in ts:
                kid = _neighbor(v, t)
                if kid in depth:
                    continue
                y = x
                if not x.is_empty:
                    key = (*state, t)
                    if key not in kid_elements:
                        kid_elements[key] = spec.subgroup(side).embed(
                            sub._split(x.conjugated_by(t))[1])
                    y = kid_elements[key]
                    if t.is_empty and v.syllables:  # the step drops v's last syllable
                        s = v.syllables[-1].word
                        y = spec.factor(side)._reduce(s * y * s.inverse())
                depth[kid] = d
                held += len(kid.syllables)
                nxt.append((kid, y))
                if len(depth) > MAX_WINDOW_VERTICES or held > MAX_WINDOW_SYLLABLES:
                    return depth, False
        frontier = nxt
    return depth, complete


def check_count(name: str, value: int, least: int = 0) -> None:
    """Reject a k, word length, window radius, certificate depth or power
    that is not an int >= least as an input error; a float, even a whole
    one, NaN or an infinity, and a bool are no counts."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def ball(spec: SplittingSpec, center: TreeVertex, radius: int,
         neighbor_cap: Optional[int] = None) -> Tuple[Dict[TreeVertex, int], bool]:
    """BFS ball as {vertex: distance}, the walk of Fix(1); second value
    reports completeness."""
    check_count("window radius", radius)
    return _walk(spec, center, radius, Word(), neighbor_cap)


def _region(base: TreeVertex, radius: int, dist: Dict[TreeVertex, int],
            complete: bool) -> VertexRegion:
    """The window {vertex: distance from base}, sorted by distance, side and name."""
    members = sorted(dist, key=lambda v: (dist[v], v.side, str(v)))
    return VertexRegion(base, radius, tuple(members), complete)


# ---------------------------------------------------------------------------
# fixed sets, T-sets, axes
# ---------------------------------------------------------------------------


def _factor_element(spec: SplittingSpec, v: TreeVertex, nf: NormalForm) -> Word:
    """x_v = rep(v)^-1 g rep(v) as a canonical element of v's factor X, for
    g = nf fixing v: nf(g rep(v)) = nf(rep(v) x_v) is rep(v)'s syllables and
    at most one syllable of X, so x_v is that syllable times the tail (an
    embed, canonical already)."""
    n, gs = len(v.syllables), spec.extend(nf, NormalForm(v.syllables, ()))
    x = gs.syllables[n:]
    assert gs.syllables[:n] == v.syllables and [s.side for s in x] in ([], [v.side]), \
        "fixed vertex must conjugate g into its factor"
    tail = spec.subgroup(v.side).embed(gs.tail)
    return spec.factor(v.side)._reduce(x[0].word * tail) if x else tail


def element_order(spec: SplittingSpec, g: Word) -> Optional[int]:
    """Order of g in the whole group; None when it is infinite.

    A finite-order isometry of a tree fixes a vertex (Serre, Trees, §I.6),
    so hyperbolic g has infinite order.  Elliptic g fixes classify's witness
    vertex hX, so x = h^-1 g h lies in the factor X and g, a conjugate of x,
    has the order of x in X.
    """
    return _element_order(spec, _subtree(spec, spec.normal_form(g)))


def _element_order(spec: SplittingSpec, s: Subtree) -> Optional[int]:
    """``element_order`` of g, whose ``Subtree`` (about any base) is s."""
    if s.cls.is_hyperbolic:
        return None
    v = s.cls.witness_vertex
    return spec.factor(v.side).element_order(_factor_element(spec, v, s.nf))


def _fixed_window(spec: SplittingSpec, s: Subtree, base: TreeVertex, radius: int,
                  neighbor_cap: Optional[int]) -> Tuple[Dict[TreeVertex, int], bool]:
    """Fix(g) within radius of base as {vertex: distance from base}, and the
    flag, for g of ``Subtree`` s about base, by the module docstring's walk."""
    check_count("window radius", radius)
    start = s.cls.witness_vertex
    d0 = tree_distance(base, start)
    if s.cls.is_hyperbolic or d0 > radius:
        return {}, True
    depth, complete = _walk(spec, start, radius - d0, _factor_element(spec, start, s.nf),
                            neighbor_cap)
    return {v: d0 + d for v, d in depth.items()}, complete


def fixed_set(spec: SplittingSpec, g: Word, base: Optional[TreeVertex] = None,
              radius: int = 8, neighbor_cap: Optional[int] = NEIGHBOR_CAP) -> VertexRegion:
    """Fix(g) intersected with ball(base, radius).

    Flagged incomplete when a conjugator solver truncates a neighbour list
    inside the window (the identity on a non-locally-finite tree, say) or
    the walk reaches ``MAX_WINDOW_VERTICES``.
    """
    base = base or base_vertex()
    return _region(base, radius, *_fixed_window(spec, _subtree(spec, spec.normal_form(g), base),
                                                base, radius, neighbor_cap))


def _t_powers(order: int, max_power: int) -> List[int]:
    """The powers d whose fixed sets make up T(g), g of order o (0 when
    infinite): Fix(g^-n) = Fix(g^n), g^n = 1 when o divides n, else
    Fix(g^n) = Fix(g^d) for d = gcd(n, o); Fix(g^d) lies in Fix(g^(kd)), so
    only the maximal d under divisibility are returned, ascending."""
    top = min(max_power, order - 1) if order else max_power  # gcd(n, o) has period o in n
    ds = {math.gcd(n, order) for n in range(1, top + 1)}
    return [d for d in sorted(ds) if not any(k * d in ds for k in range(2, top // d + 1))]


def t_set(spec: SplittingSpec, g: Word, base: Optional[TreeVertex] = None,
          radius: int = 8, max_power: int = 6) -> VertexRegion:
    """Union of Fix(g^n) over 1 <= n <= max_power with g^n nontrivial,
    walked for ``_t_powers``' maximal powers only.  The region is flagged
    exhaustive only when every walk was and max_power covers the finite
    order of g.
    """
    check_count("max_power", max_power, 1)
    base = base or base_vertex()
    o = _element_order(spec, s := _subtree(spec, spec.normal_form(g), base)) or 0
    dist: Dict[TreeVertex, int] = {}
    exhaustive = o != 0 and max_power >= o - 1
    for d in _t_powers(o, max_power):
        s_d = s if d == 1 else _subtree(spec, spec.normal_form(g ** d), base)
        window, complete = _fixed_window(spec, s_d, base, radius, NEIGHBOR_CAP)
        dist.update(window)
        exhaustive = exhaustive and complete
    return _region(base, radius, dist, exhaustive)


def _axis_ray(move: Callable[[TreeVertex], TreeVertex], start: TreeVertex):
    """The vertices after start along Axis(h) in h's direction, for start on
    the axis and ``move = mover(spec, h)``: one period [a, h a] at a time."""
    a = start
    while True:
        b = move(a)
        yield from geodesic(a, b)[1:]
        a = b


def axis_window(spec: SplittingSpec, h: Word, base: Optional[TreeVertex] = None,
                radius: int = 8) -> VertexRegion:
    """Axis(h) intersected with ball(base, radius); errors on elliptic h.

    Classify's witness p is the base's projection onto the axis
    (``Subtree``), so d(base, q) = d(base, p) + d(p, q) for axis vertices q,
    and the window is p and radius - d(base, p) vertices on each side of it,
    walked with the movers of h and h^-1 (empty when that is negative).
    Past ``MAX_WINDOW_SYLLABLES`` syllables the walk stops and reports an
    incomplete window.
    """
    check_count("window radius", radius)
    base = base or base_vertex()
    s = _subtree(spec, spec.normal_form(h), base)
    if not s.cls.is_hyperbolic:
        raise EllipticElementError(f"element {h} is elliptic; it has no axis")
    p, d0 = s.cls.witness_vertex, tree_distance(base, s.cls.witness_vertex)
    if d0 > radius:
        return _region(base, radius, {}, True)
    dist, held = {p: d0}, len(p.syllables)
    for move in (s.move, mover(spec, h.inverse())):
        for d, q in enumerate(itertools.islice(_axis_ray(move, p), radius - d0), d0 + 1):
            dist[q] = d
            held += len(q.syllables)
            if held > MAX_WINDOW_SYLLABLES:
                return _region(base, radius, dist, False)
    return _region(base, radius, dist, True)


# ---------------------------------------------------------------------------
# diameters and acylindricity
# ---------------------------------------------------------------------------


def region_diameter(vs: Sequence[TreeVertex]):
    """Diameter of a vertex set; -inf for an empty one.

    Double sweep: in a tree, a vertex v of the set farthest from any member
    u ends a longest path between members (connected or not), so the
    diameter is the largest distance from v.
    """
    if not vs:
        return -math.inf
    far = max(vs, key=lambda v: tree_distance(vs[0], v))
    return max(tree_distance(far, v) for v in vs)


def fix_diameter_lb(spec: SplittingSpec, g: Word, radius: int = 8):
    """Certified lower bound for diam Fix(g): the diameter of its window
    about the base vertex.

    Returns -inf ("no fixed points") when the window is empty, in particular
    for hyperbolic g.  The double sweep does not depend on member order, so
    the window is not sorted.
    """
    dist, _ = _fixed_window(spec, _subtree(spec, spec.normal_form(g)), base_vertex(), radius,
                            NEIGHBOR_CAP)
    return region_diameter(tuple(dist))


class AcylindricityCheck(NamedTuple):
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
                        radius: int = 8) -> AcylindricityCheck:
    """One-sided windowed check of k-acylindricity on the edge group.

    By Bass-Serre theory an element g breaks k-acylindricity only if
    diam Fix(g) > k >= 0, so g fixes an edge.  Edge stabilizers are the
    conjugates s C s^-1 of the edge group C (the stabilizer of the base
    edge), and Fix(s c s^-1) = s Fix(c) has the diameter of Fix(c).  So it
    suffices to test the elements c of C: each fixes the base edge, and the
    window of the given radius about the base vertex sees every diameter up
    to about that radius.  The check walks edge elements, maps them into
    factor A, and falsifies with a witness (the image in A) if some windowed
    fixed set has diameter > k.  Witness, diameter and verdict are those of
    walking, in shortlex order, every edge element written by a freely
    reduced word of at most ``word_length`` letters over the abstract edge
    generators; only elements whose fixed sets can differ are walked.

    Lemma: if each factor is abelian, or free with C = <u> cyclic (the only
    edge group a free factor admits), then Fix(c) = Fix(c') for all c, c'
    in C - {1}.  The walk from A:1 (``_walk``) carries states x in C and
    lists at x the cosets tC with t^-1 x t in C.  In an abelian factor every
    coset does, for every x in C, and the state does not change.  In a free
    factor t^-1 u^m t lies in <u> exactly when t centralizes u, whatever
    m != 0 is, so a child's state is the m-th power of the state for u.
    Either way the walks of all c != 1 list the same cosets in the same
    order.  So without a table factor the first nontrivial element decides:
    a word is trivial when each of its letters is, so that is the first
    edge generator with a nontrivial image, and it is the only one walked.

    With a table factor C is finite, and each element is walked once: the
    table's edge subgroup lists each element at its shortlex-least word, in
    shortlex order, which is the order the every-word walk first meets
    them.  Fix(c^-1) = Fix(c), so once c is tested and is no witness, c^-1
    (keyed by its canonical form in A) is skipped.  So any ``word_length``
    costs one walk, or on tables at most one per inverse pair of C - {1}.

    "consistent" is not a proof, except for trivial edge subgroups, where
    every nontrivial elliptic element fixes a single vertex (factors of a
    free product are malnormal) and the verdict is certified for every k >= 0.
    """
    check_count("k", k)
    check_count("word length", word_length)
    check_count("window radius", radius)
    trivial_edge = all(im.is_empty for im in spec.sub_a.image_words)
    if trivial_edge:
        return AcylindricityCheck(
            "consistent", k, word_length, radius, None, None, True,
            "trivial edge stabilizers: every nontrivial elliptic element "
            "fixes exactly one vertex, so the action is 0-acylindrical")
    tables = [sub.words for sub in (spec.sub_a, spec.sub_b) if sub.oracle.kind == "table"]
    gens = [((i, 1),) for i, im in enumerate(spec.sub_a.image_words) if not im.is_empty]
    words = tables[0] if tables else gens[:1]
    skipped = set()
    for cw in itertools.takewhile(lambda cw: len(cw) <= word_length, words):
        c = spec.sub_a.embed(cw)
        if c.is_empty or c.letters in skipped:
            continue
        skipped.add(spec.factor_a._reduce(c.inverse()).letters)
        diam = fix_diameter_lb(spec, c, radius)
        if diam > k:
            return AcylindricityCheck(
                "falsified", k, word_length, radius, c, diam, True,
                f"elliptic witness {c} has windowed fixed-set diameter {diam} > {k}")
    return AcylindricityCheck(
        "consistent", k, word_length, radius, None, None, False,
        f"no edge-group element of word length <= {word_length} violates "
        f"the bound within radius {radius} (not a proof)")
