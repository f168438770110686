import itertools
import json
import math
import random
import re
import tracemalloc
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegroups import oracles, splitting, tree, words
from treegroups.oracles import make_cyclic, make_free, make_free_abelian, make_table
from treegroups.splitting import SplittingSpec, Syllable, load_spec, other_side
from treegroups.tree import (EllipticElementError, TreeVertex,
                             axis_window, ball, base_vertex,
                             check_acylindricity, classify, element_order,
                             fix_diameter_lb, fixed_set, geodesic,
                             geodesic_vertex, mover, region_diameter,
                             t_set, tree_distance, vertex_of)
from treegroups.words import Word, shortlex

from conftest import (_permutation_table, act, count_calls, cyclic_table, growth_exponent,
                      min_displacement_bruteforce, random_elliptic, random_word,
                      reference_axis_window, reference_walk)

W = Word.parse


def neighbors(spec, v, cap=None):
    """Reference adjacency for the plain BFS oracles below, read off the
    edge transversal: v = (X, s) is joined to s*t*Y, which is (Y, s[:-1])
    for t = 1 and (Y, s + (t,)) otherwise."""
    reps, complete = spec.subgroup(v.side).transversal(cap)
    side = other_side(v.side)
    return [TreeVertex(side, v.syllables[:-1] if t.is_empty
                       else v.syllables + (Syllable(v.side, t),)) for t in reps], complete


def bfs_distance(spec, u, v, neighbor_cap=None, limit=24):
    """Independent distance oracle: plain BFS over the coset graph."""
    if u == v:
        return 0
    dist = {u: 0}
    frontier = [u]
    for d in range(1, limit + 1):
        nxt = []
        for w in frontier:
            for nb in neighbors(spec, w, neighbor_cap)[0]:
                if nb == v:
                    return d
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
        frontier = nxt
    raise AssertionError("BFS limit exceeded")


def in_factor(spec, side, w):
    nf = spec.normal_form(w)
    return len(nf.syllables) == 0 or (
        len(nf.syllables) == 1 and nf.syllables[0].side == side)


# -- action -------------------------------------------------------------------

def test_act_examples(z2z3):
    A, B = base_vertex("A"), base_vertex("B")
    assert act(z2z3, Word(), A) == A
    assert act(z2z3, W("a"), A) == A  # a stabilizes its own coset
    moved = act(z2z3, W("a"), B)
    assert moved.side == "B" and [str(s.word) for s in moved.syllables] == ["a"]


def test_action_is_homomorphic(z2z3, klein, f2_amalgam):
    rng = random.Random(13)
    for spec in (z2z3, klein, f2_amalgam):
        base = base_vertex()
        for _ in range(60):
            g = random_word(rng, spec.gen_names, 4)
            h = random_word(rng, spec.gen_names, 4)
            v = act(spec, random_word(rng, spec.gen_names, 4), base)
            assert act(spec, g * h, v) == act(spec, g, act(spec, h, v))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mover_matches_renormalizing_the_product(z2z3, z3z4, z70z3, z2z2, triv_z5, f2,
                                                 klein, f2_amalgam, z2_amalgam,
                                                 z4z6_table, data):
    # the action extends nf(g) by rep(v); the reference normalizes g rep(v)
    # whole.  The amalgams give nf(g) a nontrivial tail at the junction.
    spec = data.draw(st.sampled_from([z2z3, z3z4, z70z3, z2z2, triv_z5, f2, klein,
                                      f2_amalgam, z2_amalgam, z4z6_table]))
    letters = st.tuples(st.sampled_from(spec.gen_names + spec.edge_gens),
                        st.integers(-3, 3).filter(bool))

    def word():
        return Word.of(data.draw(st.lists(letters, max_size=8)))

    g = word()
    vs = [vertex_of(spec, data.draw(st.sampled_from("AB")), word()) for _ in range(3)]
    move = mover(spec, g)
    for v in vs:
        want = vertex_of(spec, v.side, g * v.rep_word())
        assert move(v) == act(spec, g, v) == want


def test_no_edge_inversions_sides_preserved(z2z3, klein, f2_amalgam):
    rng = random.Random(14)
    for spec in (z2z3, klein, f2_amalgam):
        base = base_vertex()
        for _ in range(100):
            g = random_word(rng, spec.gen_names, 5)
            v = act(spec, random_word(rng, spec.gen_names, 4), base)
            assert act(spec, g, v).side == v.side


def test_vertex_equality_is_coset_equality(z2z3, klein, f2_amalgam):
    rng = random.Random(15)
    for spec in (z2z3, klein, f2_amalgam):
        for side in ("A", "B"):
            for _ in range(120):
                g = random_word(rng, spec.gen_names, 4)
                h = random_word(rng, spec.gen_names, 4)
                same_vertex = vertex_of(spec, side, g) == vertex_of(spec, side, h)
                assert same_vertex == in_factor(spec, side, g.inverse() * h)


# -- distances ----------------------------------------------------------------

def test_distance_examples(z2z3):
    A, B = base_vertex("A"), base_vertex("B")
    assert tree_distance(A, A) == 0
    assert tree_distance(A, B) == 1
    # value frozen from the BFS oracle (path A - aB - abA)
    abA = vertex_of(z2z3, "A", W("a b"))
    assert bfs_distance(z2z3, A, abA) == 2
    assert tree_distance(A, abA) == 2


def test_distance_agrees_with_bfs(z2z3, z3z4, klein):
    rng = random.Random(16)
    for spec in (z2z3, z3z4, klein):
        base = base_vertex()
        # the ball dict carries plain BFS layer distances: compare them all
        dist, complete = ball(spec, base, 6)
        assert complete
        for v in dist:
            assert tree_distance(base, v) == dist[v]
        # pairwise spot checks on nearby pairs (full BFS blows up farther out)
        close = sorted(ball(spec, base, 3)[0], key=str)
        for _ in range(12):
            u, v = rng.choice(close), rng.choice(close)
            assert tree_distance(u, v) == bfs_distance(spec, u, v)


def test_ball_is_connected_and_acyclic(z2z3, z3z4, klein):
    # every non-center vertex of the window has exactly one neighbor closer
    # to the center: the explored coset graph is a tree
    for spec in (z2z3, z3z4, klein):
        base = base_vertex()
        radius = 8 if spec is not z3z4 else 6
        dist, complete = ball(spec, base, radius)
        assert complete
        for v, d in dist.items():
            if v == base:
                continue
            closer = [nb for nb in neighbors(spec, v)[0]
                      if nb in dist and dist[nb] == d - 1]
            same = [nb for nb in neighbors(spec, v)[0]
                    if nb in dist and dist[nb] == d]
            assert len(closer) == 1
            assert not same


def test_geodesic_matches_distance(z2z3, klein, f2_amalgam):
    rng = random.Random(17)
    for spec in (z2z3, klein, f2_amalgam):
        base = base_vertex()
        for _ in range(60):
            u = act(spec, random_word(rng, spec.gen_names, 4), base)
            v = act(spec, random_word(rng, spec.gen_names, 4),
                    base_vertex(rng.choice(["A", "B"])))
            chain = geodesic(u, v)
            assert chain[0] == u and chain[-1] == v
            assert len(chain) - 1 == tree_distance(u, v)
            for a, b in zip(chain, chain[1:]):
                assert tree_distance(a, b) == 1


def test_geodesic_vertex_is_the_geodesic_entry(z2z3, klein, f2_amalgam):
    rng = random.Random(29)
    sides_differ = 0
    for spec in (z2z3, klein, f2_amalgam):
        for _ in range(60):
            u, v = (act(spec, random_word(rng, spec.gen_names, 6),
                        base_vertex(rng.choice("AB"))) for _ in range(2))
            sides_differ += tree._first_side(u) != tree._first_side(v)
            chain = geodesic(u, v)
            assert [geodesic_vertex(u, v, i) for i in range(len(chain))] == chain
    assert sides_differ >= 20


# -- the trie of normal forms -------------------------------------------------
# The formulas below compute the metric from normal forms of rep(u)^-1 rep(v)
# and rep(v) t; the library reads the same answers off syllable prefixes.

def nf_distance(spec, u, v):
    t = vertex_of(spec, v.side, u.rep_word().inverse() * v.rep_word())
    m = len(t.syllables)
    if m == 0:
        return 0 if u.side == v.side else 1
    return m + (0 if t.syllables[0].side == u.side else 1)


def nf_geodesic(spec, u, v):
    """rep(u) times the geodesic from u's base vertex to rep(u)^-1 v."""
    rep_u = u.rep_word()
    t = vertex_of(spec, v.side, rep_u.inverse() * v.rep_word())
    frames = [TreeVertex(u.side, ())]
    syls = t.syllables
    if syls:
        if syls[0].side != u.side:
            frames.append(TreeVertex(other_side(u.side), ()))
        for j in range(1, len(syls) + 1):
            frames.append(TreeVertex(other_side(syls[j - 1].side), syls[:j]))
    elif t.side != u.side:
        frames.append(TreeVertex(t.side, ()))
    return [act(spec, rep_u, f) for f in frames]


def nf_neighbors(spec, v, cap):
    reps, complete = spec.subgroup(v.side).transversal(cap)
    rep_v = v.rep_word()
    return [vertex_of(spec, other_side(v.side), rep_v * t) for t in reps], complete


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_trie_metric_matches_normal_forms(z2z3, klein, f2_amalgam, z2_amalgam, data):
    spec = data.draw(st.sampled_from([z2z3, klein, f2_amalgam, z2_amalgam]))
    letters = st.tuples(st.sampled_from(spec.gen_names), st.integers(-3, 3).filter(bool))

    def vertex():
        w = Word.of(data.draw(st.lists(letters, max_size=8)))
        return act(spec, w, base_vertex(data.draw(st.sampled_from("AB"))))

    u, v = vertex(), vertex()
    assert tree_distance(u, v) == nf_distance(spec, u, v)
    assert geodesic(u, v) == nf_geodesic(spec, u, v)
    assert neighbors(spec, u, 6) == nf_neighbors(spec, u, 6)
    unit_ball, complete = ball(spec, u, 1, neighbor_cap=6)
    assert (list(unit_ball)[1:], complete) == nf_neighbors(spec, u, 6)


def test_trie_metric_makes_no_normal_form(z2z3, klein, f2_amalgam, z2_amalgam,
                                          monkeypatch):
    rng = random.Random(23)
    cases = [(spec, [act(spec, random_word(rng, spec.gen_names, 6), base_vertex(side))
                     for side in "AB" for _ in range(5)])
             for spec in (z2z3, klein, f2_amalgam, z2_amalgam)]

    def no_normal_form(self, w):
        raise AssertionError("normal form computed")

    monkeypatch.setattr(SplittingSpec, "normal_form", no_normal_form)
    for spec, vs in cases:
        assert ball(spec, base_vertex(), 3, neighbor_cap=4)[0]
        for u in vs:
            assert neighbors(spec, u, 4)[0]
            for v in vs:
                assert len(geodesic(u, v)) == tree_distance(u, v) + 1


# -- classification -----------------------------------------------------------

def test_classify_examples(z2z3, f2):
    assert classify(z2z3, Word()).verdict == "elliptic"
    cls = classify(z2z3, W("a b"))
    assert cls.verdict == "hyperbolic" and cls.tau == 2
    # factor generators stabilize their coset: elliptic (tau = 0), even in
    # the free-group model F2 = Z * Z
    assert classify(f2, W("x")).verdict == "elliptic"
    cls_xy = classify(f2, W("x y"))
    assert cls_xy.verdict == "hyperbolic" and cls_xy.tau == 2


def test_classify_large_exponent_in_free_factor():
    # F2 *_{ab=c} F2: a^1000000 is its own representative modulo <a b>, and
    # c = a b is left as the tail; the free factor never spells a^e out
    spec = SplittingSpec("amalgam", make_free(2, ["a", "b"], "A"),
                         make_free(2, ["c", "d"], "B"), ["t"],
                         [W("a b")], [W("c")])
    g = W("a^1000000 c")
    tracemalloc.start()
    try:
        nf = spec.normal_form(g)
        cls = classify(spec, g)
        region = fixed_set(spec, W("a^1000000"), radius=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [str(s.word) for s in nf.syllables] == ["a^1000000"]
    assert str(spec.sub_a.embed(nf.tail)) == "a b"
    assert nf.tail == ((0, 1),)
    assert cls.verdict == "elliptic" and cls.tau == 0
    assert [str(v) for v in region.members] == ["A:1"] and region.exhaustive_within_radius
    assert peak < 1_000_000


def test_fixed_set_reports_capped_free_cyclic_conjugators():
    # F2 *_{x^40=u} F2: x^40 fixes A:1 and the 40 neighbours t<x^40>B, t = x^m
    spec = SplittingSpec("amalgam", make_free(2, ["x", "y"], "A"),
                         make_free(2, ["u", "v"], "B"), ["t"],
                         [W("x^40")], [W("u")])
    capped = fixed_set(spec, W("x^40"), radius=1, neighbor_cap=16)
    assert len(capped.members) == 17 and not capped.exhaustive_within_radius
    full = fixed_set(spec, W("x^40"), radius=1, neighbor_cap=40)
    assert len(full.members) == 41 and full.exhaustive_within_radius


def test_classify_normalizes_the_element_once(f2_amalgam, monkeypatch):
    # one normal form pushes g's 120 runs; moving A:1 (no syllables) pushes
    # nothing, and moving g A:1, whose syllables start on the side g's form
    # does not end on, pushes nothing either
    g = W("b d") ** 60
    forms = count_calls(monkeypatch, SplittingSpec, "normal_form")
    pushes = count_calls(monkeypatch, SplittingSpec, "_push")
    assert classify(f2_amalgam, g).tau == 120
    assert (len(forms), len(pushes)) == (1, 120)


def test_classify_reads_one_vertex_off_the_geodesic(f2_amalgam, monkeypatch):
    # the witness is one prefix of base or of g base, not the whole geodesic
    calls = count_calls(monkeypatch, tree, "_prefix_vertex")
    for g in (W("b d") ** 500, W("b d a") ** 300, W("b d") ** 400 * W("a") * W("b d") ** -400):
        calls.clear()
        classify(f2_amalgam, g)
        assert len(calls) == 1


def test_classify_pushes_grow_linearly(z2z3, monkeypatch):
    # (a b)^n has 2n syllables: one normal form pushes each, and the two
    # moves of A:1 push nothing, so the pushes grow like n
    pushes = count_calls(monkeypatch, SplittingSpec, "_push")
    slopes = growth_exponent(lambda n: classify(z2z3, W("a b") ** n), [100, 200, 400], pushes)
    assert max(slopes) <= 1.1


def test_classify_base_independent(z2z3, z3z4, klein):
    rng = random.Random(18)
    for spec in (z2z3, z3z4, klein):
        base = base_vertex()
        for _ in range(25):
            g = random_word(rng, spec.gen_names, 5)
            ref = classify(spec, g, base)
            for _ in range(10):
                v = act(spec, random_word(rng, spec.gen_names, 4),
                        base_vertex(rng.choice(["A", "B"])))
                cls = classify(spec, g, v)
                assert (cls.verdict, cls.tau) == (ref.verdict, ref.tau)


def test_classify_agrees_with_bruteforce(z2z3, klein):
    rng = random.Random(19)
    for spec in (z2z3, klein):
        base = base_vertex()
        for _ in range(60):
            g = random_word(rng, spec.gen_names, 5)
            cls = classify(spec, g, base)
            best, complete = min_displacement_bruteforce(
                spec, g, base, 6, extra_vertices=[cls.witness_vertex])
            assert complete
            assert best == cls.tau


def test_elliptic_witness_is_projection_onto_fixed_set(z2z3, z3z4, klein,
                                                       f2_amalgam):
    # the fixed vertex nearest v is the midpoint of [v, gv]
    rng = random.Random(23)
    for spec in (z2z3, z3z4, klein, f2_amalgam):
        for _ in range(25):
            g = random_elliptic(spec, rng)
            v = act(spec, random_word(rng, spec.gen_names, 4),
                    base_vertex(rng.choice(["A", "B"])))
            cls = classify(spec, g, v)
            p = cls.witness_vertex
            assert not cls.is_hyperbolic and act(spec, g, p) == p
            assert 2 * tree_distance(v, p) == tree_distance(v, act(spec, g, v))


def power_walk_order(spec, g, limit=80):
    """Reference: the least n <= limit with g^n trivial, else None."""
    acc = Word()
    for n in range(1, limit + 1):
        acc = acc * g
        if spec.is_trivial(acc):
            return n
    return None


def test_element_order_matches_power_walk(z2z3, z3z4, klein, f2_amalgam, z70z3):
    rng = random.Random(24)
    seen = set()
    for spec in (z2z3, z3z4, klein, f2_amalgam, z70z3):
        for i in range(24):
            g = (random_elliptic(spec, rng, 2) if i % 2
                 else random_word(rng, spec.gen_names, 4))
            order = element_order(spec, g)
            assert order == power_walk_order(spec, g), str(g)
            seen.add(order)
    assert {None, 1, 2, 3, 70} <= seen


def scratch_factor_element(spec, v, g):
    """Reference for ``tree._factor_element``: x_v = rep(v)^-1 g rep(v),
    normalized from scratch, for g fixing v."""
    nf = spec.normal_form(v.rep_word().inverse() * g * v.rep_word())
    tail = spec.subgroup(v.side).embed(nf.tail)
    if not nf.syllables:
        return tail
    assert len(nf.syllables) == 1 and nf.syllables[0].side == v.side
    return spec.factor(v.side)._reduce(nf.syllables[0].word * tail)


FACTOR_SPECS = ["z2z3", "z3z4", "z70z3", "z2z2", "triv_z5", "f2", "klein", "f2_amalgam",
                "z2_amalgam", "z4z6_table"]


def test_factor_element_reads_the_junction(request):
    # every fixture and every splitting in tests/data (table and lattice
    # factors included), on seeded elliptic u x u^-1, edge-group elements
    # and 1, at every vertex of a fixed-set window
    specs = [request.getfixturevalue(name) for name in FACTOR_SPECS]
    specs += [load_spec(str(p)) for p in sorted((Path(__file__).parent / "data").glob("*.json"))
              if "factors" in json.loads(p.read_text())]
    rng = random.Random(34)
    checked = 0
    sides = set()
    for spec in specs:
        edge = [spec.sub_a.embed(cw) for cw in shortlex(range(len(spec.edge_gens)), 2)]
        for g in [random_elliptic(spec, rng, 4) for _ in range(24)] + edge + [Word()]:
            nf = spec.normal_form(g)
            for v in fixed_set(spec, g, radius=3, neighbor_cap=4).members:
                assert tree._factor_element(spec, v, nf) == scratch_factor_element(spec, v, g)
                sides.add((v.side, bool(v.syllables), g.is_empty or g in edge))
                checked += 1
    assert checked > 2000
    # vertices on both sides, B:1 (empty s on side B) under edge elements
    assert {("A", True, False), ("B", True, False), ("B", False, True)} <= sides


def test_element_order_normalizes_the_element_once(z2z3, klein, f2_amalgam, monkeypatch):
    forms = count_calls(monkeypatch, SplittingSpec, "normal_form")
    for spec, g, order in [(z2z3, "b a b^-1", 2), (z2z3, "a b^-1 a", 3), (klein, "a b a^-1", None),
                           (f2_amalgam, "b d b^-1", None), (z2z3, "a b", None)]:
        forms.clear()
        assert element_order(spec, W(g)) == order
        assert len(forms) == 1


def test_translation_identity(z2z3, z3z4, klein, f2):
    rng = random.Random(20)
    for spec in (z2z3, z3z4, klein, f2):
        base = base_vertex()
        found = 0
        while found < 20:
            h = random_word(rng, spec.gen_names, 4)
            cls = classify(spec, h, base)
            if not cls.is_hyperbolic:
                continue
            found += 1
            v = act(spec, random_word(rng, spec.gen_names, 3), base)
            axis = axis_window(spec, h, v, radius=2 * cls.tau + 14)
            ell = min(tree_distance(v, q) for q in axis.members)
            n = rng.randint(1, 8)
            assert tree_distance(v, act(spec, h ** n, v)) == n * cls.tau + 2 * ell


# -- fixed sets and T-sets ------------------------------------------------------

def test_fixed_set_examples(z2z3):
    A = base_vertex("A")
    everything = fixed_set(z2z3, Word(), A, 3)
    window, complete = ball(z2z3, A, 3)
    assert complete and set(everything.members) == set(window)
    assert everything.exhaustive_within_radius
    fix_a = fixed_set(z2z3, W("a"), A, 5)
    assert fix_a.members == (A,) and fix_a.exhaustive_within_radius
    assert fixed_set(z2z3, W("a b"), A, 5).members == ()


def test_fixed_set_identity_flags_truncation(f2_amalgam):
    # Fix(identity) is the whole tree; on a tree with infinite vertex degrees
    # the window cannot be exhausted and the region must say so
    region = fixed_set(f2_amalgam, Word(), radius=2, neighbor_cap=6)
    assert not region.exhaustive_within_radius
    assert len(region.members) > 1


def test_huge_cyclic_order_reads_only_the_capped_cosets():
    # Z/10^12 * Z/2: the trivial edge group has index 10^12 in Z/10^12; a
    # capped list reads one coset past the cap, not all 10^12 of them
    spec = SplittingSpec("free_product", make_cyclic(10 ** 12, "a", "A"),
                         make_cyclic(2, "b", "B"))
    reps, complete = spec.sub_a.transversal(16)
    assert len(reps) == 16 and not complete
    region = fixed_set(spec, Word(), radius=1)
    assert len(region.members) == 17 and not region.exhaustive_within_radius


def test_fixed_set_table_exact_despite_capped_transversal():
    # Z/20 (as a table) * Z/3: the edge group is trivial, so q9 fixes only
    # the base vertex, although the 20 cosets exceed the neighbour cap of 16
    z20 = make_table([f"q{i}" for i in range(20)],
                     [[(i + j) % 20 for j in range(20)] for i in range(20)], "A")
    spec = SplittingSpec("free_product", z20, make_cyclic(3, "b", "B"))
    region = fixed_set(spec, W("q9"), radius=1)
    assert [str(v) for v in region.members] == ["A:1"]
    assert region.exhaustive_within_radius


def test_fixed_set_members_are_fixed(z2z3, klein, f2_amalgam):
    rng = random.Random(21)
    for spec in (z2z3, klein, f2_amalgam):
        for _ in range(40):
            g = random_word(rng, spec.gen_names, 4)
            if spec.is_trivial(g) or classify(spec, g).is_hyperbolic:
                continue
            region = fixed_set(spec, g, radius=6)
            for v in region.members:
                assert act(spec, g, v) == v


def test_fixed_set_window_is_connected(z2z3, klein, f2_amalgam):
    rng = random.Random(22)
    for spec in (z2z3, klein, f2_amalgam):
        for _ in range(30):
            g = random_word(rng, spec.gen_names, 4)
            if spec.is_trivial(g) or classify(spec, g).is_hyperbolic:
                continue
            members = set(fixed_set(spec, g, radius=6).members)
            if len(members) <= 1:
                continue
            start = next(iter(members))
            seen = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for u in members:
                    if u not in seen and tree_distance(v, u) == 1:
                        seen.add(u)
                        frontier.append(u)
            assert seen == members


def test_central_element_fixes_whole_window(klein):
    A = base_vertex("A")
    region = fixed_set(klein, W("a^2"), A, 6)
    window, complete = ball(klein, A, 6)
    assert complete
    assert set(region.members) == set(window)
    assert len(region.members) == 13  # the tree is a line: 2R + 1 vertices
    assert region_diameter(region.members) == 12


def test_t_set_examples(z2z3, klein):
    B = base_vertex("B")
    tb = t_set(z2z3, W("b"), B, radius=5, max_power=3)
    assert set(tb.members) == {B}
    assert tb.exhaustive_within_radius  # order 3, powers 1..2 covered
    # order-2 element with N=3: powers 2 (trivial) contribute nothing
    ta = t_set(z2z3, W("a"), B, radius=5, max_power=3)
    assert set(ta.members) == set(fixed_set(z2z3, W("a"), B, 5).members)
    assert ta.exhaustive_within_radius
    # central edge element fixes the entire window through every power
    A = base_vertex("A")
    t2 = t_set(klein, W("a^2"), A, radius=6, max_power=2)
    window, _ = ball(klein, A, 6)
    assert set(t2.members) == set(window)
    assert not t2.exhaustive_within_radius  # infinite order: powers not covered


def test_t_set_exhaustive_for_order_above_64(z70z3):
    A = base_vertex("A")
    region = t_set(z70z3, W("a"), A, radius=3, max_power=69)
    assert region.members == (A,)
    assert region.exhaustive_within_radius  # order 70: powers 1..69 covered



# -- windows against references that do not walk -------------------------------

def reference_ball(spec, center, radius):
    """{vertex: distance} by plain BFS over complete neighbour lists."""
    dist = {center: 0}
    frontier = [center]
    for d in range(1, radius + 1):
        frontier = [nb for v in frontier for nb in neighbors(spec, v)[0] if nb not in dist]
        dist.update((nb, d) for nb in frontier)
    return dist


def canonical_order(dist):
    return tuple(sorted(dist, key=lambda v: (dist[v], v.side, str(v))))


def random_base(spec, rng):
    return act(spec, random_word(rng, spec.gen_names, 4),
               base_vertex(rng.choice(["A", "B"])))


def test_fixed_set_matches_reference(z2z3, z3z4, klein, z4z6_table):
    rng = random.Random(31)
    for spec in (z2z3, z3z4, klein, z4z6_table):
        for i in range(30):
            g = [Word(), random_elliptic(spec, rng), random_word(rng, spec.gen_names, 4)][i % 3]
            base, radius = random_base(spec, rng), rng.randint(0, 4)
            window = reference_ball(spec, base, radius)
            fixed = {v: d for v, d in window.items() if act(spec, g, v) == v}
            region = fixed_set(spec, g, base, radius, neighbor_cap=None)
            assert region.members == canonical_order(fixed), str(g)
            assert region.exhaustive_within_radius


def test_axis_window_matches_reference(z2z3, z3z4, klein, z4z6_table):
    rng = random.Random(32)
    for spec in (z2z3, z3z4, klein, z4z6_table):
        found = 0
        while found < 10:
            h = random_word(rng, spec.gen_names, 5)
            cls = classify(spec, h)
            if not cls.is_hyperbolic:
                continue
            found += 1
            base, radius = random_base(spec, rng), rng.randint(0, 5)
            window = reference_ball(spec, base, radius)
            move = mover(spec, h)
            on = {v: d for v, d in window.items() if tree_distance(v, move(v)) == cls.tau}
            region = axis_window(spec, h, base, radius)
            assert region.members == canonical_order(on), str(h)
            assert region.exhaustive_within_radius


def test_axis_window_matches_the_geodesic_reference(request):
    # the walk from the base's projection against the translates h^±K p and
    # their geodesic: 24 hyperbolic h in each fixture that has them, radii
    # 0-12, bases up to 5 letters from A:1 or B:1, some farther from the
    # axis than the radius
    rng = random.Random(36)
    radii, empty = set(), 0
    for name in ("z2z3", "z3z4", "z70z3", "z2z2", "f2", "klein", "f2_amalgam", "z2_amalgam",
                 "z4z6_table"):
        spec, cases = request.getfixturevalue(name), 0
        while cases < 24:
            h = random_word(rng, spec.gen_names, 5)
            if not classify(spec, h).is_hyperbolic:
                continue
            cases += 1
            base = act(spec, random_word(rng, spec.gen_names, 5, max_exp=1),
                       base_vertex(rng.choice(["A", "B"])))
            radius = rng.randint(0, 12)
            region = axis_window(spec, h, base, radius)
            assert region == reference_axis_window(spec, h, base, radius), (name, str(h))
            radii.add(radius)
            empty += not region.members
    assert radii == set(range(13)) and empty >= 5


def test_axis_window_normalizes_h_and_its_inverse_only(f2_amalgam, monkeypatch):
    # the walk moves by nf(b d) and nf(d^-1 b^-1); the translates h^±K p
    # would normalize two words of 302 letters
    h = W("b d")
    calls = count_calls(monkeypatch, SplittingSpec, "normal_form")
    region = axis_window(f2_amalgam, h, radius=300)
    assert len(region.members) == 601
    assert len(calls) <= 2
    assert all(w.letter_length() <= h.letter_length() for _, w in calls)


def test_axis_window_pushes_grow_at_most_quadratically(klein, monkeypatch):
    # nf((a b)^-1) ends in the central edge element a^-2, which a move pushes
    # through every syllable of the vertex, so a window of radius R pushes
    # about R^2 / 4 times: quadratic today, and this ceiling keeps it from
    # getting worse
    pushes = count_calls(monkeypatch, SplittingSpec, "_push")
    slopes = growth_exponent(lambda r: axis_window(klein, W("a b"), radius=r), [40, 80, 160],
                             pushes)
    assert max(slopes) <= 2.1


def test_t_set_is_the_union_over_every_power(z2z3, z3z4, klein, z4z6_table, z70z3):
    rng = random.Random(33)
    cases = [(z70z3, W("a"), 69), (z70z3, W("a^4"), 69), (z70z3, W("b a^10 b^-1"), 40),
             (z70z3, W("a b"), 9), (z2z3, W("a b"), 6)]
    for spec in (z2z3, z3z4, klein, z4z6_table):
        cases += [(spec, random_elliptic(spec, rng), rng.randint(1, 8)) for _ in range(8)]
    for spec, g, max_power in cases:
        base, radius = random_base(spec, rng), rng.randint(0, 3)
        order = power_walk_order(spec, g)
        regions = [fixed_set(spec, g ** n, base, radius) for n in range(1, max_power + 1)
                   if not spec.is_trivial(g ** n)]
        union = reduce(set.union, (set(r.members) for r in regions), set())
        region = t_set(spec, g, base, radius, max_power)
        assert set(region.members) == union, str(g)
        assert region.members == canonical_order(
            {v: tree_distance(base, v) for v in union})
        assert region.exhaustive_within_radius == (
            all(r.exhaustive_within_radius for r in regions)
            and order is not None and max_power >= order - 1)


def test_windows_stop_at_the_vertex_limit(z2_amalgam, monkeypatch):
    # Z^2 *_{x=u} Z^2: x fixes the whole tree, which has infinite degrees
    monkeypatch.setattr(tree, "MAX_WINDOW_VERTICES", 300)
    for region in (fixed_set(z2_amalgam, W("x"), radius=8),
                   t_set(z2_amalgam, W("x"), radius=8)):
        assert not region.exhaustive_within_radius
        assert 300 < len(region.members) <= 301
    assert len(ball(z2_amalgam, base_vertex(), 8, neighbor_cap=16)[0]) == 301


WINDOW_FIXTURES = ("z2z3", "z3z4", "z70z3", "z2z2", "triv_z5", "f2", "klein", "f2_amalgam",
                   "z2_amalgam", "z4z6_table", "a4_s3z2_table")


def test_walk_matches_the_walk_without_memo(request, monkeypatch):
    # members, order and flags of every window, against a walk that works
    # each child out anew; the low vertex limit makes wide windows stop too
    monkeypatch.setattr(tree, "MAX_WINDOW_VERTICES", 2000)
    rng = random.Random(37)
    for name in WINDOW_FIXTURES:
        spec = request.getfixturevalue(name)
        for i in range(24):
            g = [Word(), random_elliptic(spec, rng), random_word(rng, spec.gen_names, 4)][i % 3]
            base, radius = random_base(spec, rng), rng.randint(0, 6)
            cap, max_power = rng.choice((None, 4, 6, 16)), rng.randint(1, 6)
            windows = (lambda: fixed_set(spec, g, base, radius, cap),
                       lambda: t_set(spec, g, base, radius, max_power),
                       lambda: [*ball(spec, base, radius, cap)[0].items()])
            got = [window() for window in windows]
            with monkeypatch.context() as m:
                m.setattr(tree, "_walk", reference_walk)
                assert got == [window() for window in windows], (name, str(g))


def test_walk_lists_the_cosets_once_per_state(klein, monkeypatch):
    # every vertex of Fix(a^2), the whole line, has the state (A, a^2) or (B, b^2)
    calls = count_calls(monkeypatch, type(klein.sub_a), "conjugator_cosets")
    assert len(fixed_set(klein, W("a^2"), radius=8).members) == 17
    assert len(calls) == 2 and {calls[0][0], calls[1][0]} == {klein.sub_a, klein.sub_b}


def test_windows_stop_at_the_syllable_limit(klein, monkeypatch):
    # a window of radius R on the line holds about R^2 syllables
    monkeypatch.setattr(tree, "MAX_WINDOW_SYLLABLES", 400)
    regions = (fixed_set(klein, W("a^2"), radius=100),
               t_set(klein, W("a^2"), radius=100, max_power=2),
               axis_window(klein, W("a b"), radius=100))
    for region in regions:
        held = sum(len(v.syllables) for v in region.members)
        assert not region.exhaustive_within_radius and 400 < held <= 400 + 101
    dist, complete = ball(klein, base_vertex(), 100)
    assert not complete and 400 < sum(len(v.syllables) for v in dist) <= 400 + 101
    assert fixed_set(klein, W("a^2"), radius=18).exhaustive_within_radius


def test_fixed_window_flags_only_truncation_inside_the_window(z2_amalgam):
    # neighbour lists are truncated at every vertex, but a window of radius
    # d(base, Fix(x)) holds one fixed vertex and expands none
    A, B = base_vertex("A"), base_vertex("B")
    region = fixed_set(z2_amalgam, W("x"), A, 0)
    assert region.members == (A,) and region.exhaustive_within_radius
    region = fixed_set(z2_amalgam, W("x"), A, 1)
    assert B in region.members and not region.exhaustive_within_radius

def test_axis_examples(z2z3):
    A, B = base_vertex("A"), base_vertex("B")
    region = axis_window(z2z3, W("a b"), A, 4)
    assert A in region.members and B in region.members
    for v in region.members:
        assert tree_distance(v, act(z2z3, W("a b"), v)) == 2
    # one step off the axis: moved by tau + 2
    off = vertex_of(z2z3, "A", W("b"))
    assert off not in region.members
    assert tree_distance(off, act(z2z3, W("a b"), off)) == 4
    # axis of h equals axis of h^-1
    inv_region = axis_window(z2z3, W("b^-1 a"), A, 4)
    assert set(region.members) == set(inv_region.members)


def test_axis_rejects_elliptic(z2z3):
    with pytest.raises(EllipticElementError):
        axis_window(z2z3, W("a"), radius=4)


def test_fix_diameter_lb(z2z3, klein):
    assert fix_diameter_lb(z2z3, W("a"), radius=5) == 0
    assert fix_diameter_lb(klein, W("a^2"), radius=6) == 12
    assert fix_diameter_lb(z2z3, W("a b"), radius=5) == -math.inf


def test_region_diameter_is_pairwise_max(z2z3, klein, f2_amalgam):
    # random member sets of small balls, most of them disconnected
    windows = [(spec, sorted(ball(spec, base_vertex(), 3, neighbor_cap=3)[0], key=str))
               for spec in (z2z3, klein, f2_amalgam)]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def check(data):
        spec, vertices = data.draw(st.sampled_from(windows))
        members = data.draw(st.lists(st.sampled_from(vertices), unique=True, max_size=12))
        pairwise = max((tree_distance(u, v) for u in members for v in members),
                       default=-math.inf)
        assert region_diameter(members) == pairwise

    check()


def test_check_acylindricity(z2z3, klein, f2_amalgam):
    chk = check_acylindricity(z2z3, 0, 6, 6)
    assert chk.verdict == "consistent" and chk.certified
    chk = check_acylindricity(klein, 5, 4, 8)
    assert chk.falsified
    assert klein.is_trivial(chk.witness * W("a^2").inverse())
    assert chk.witness_diameter > 5
    chk = check_acylindricity(f2_amalgam, 2, 5, 6)
    assert chk.verdict == "consistent" and not chk.certified


def test_check_acylindricity_finds_long_edge_elements():
    # F2 *_{(ab)^3 = (cd)^2} F2: (ab)^3 fixes the B-vertices (ab)^j B, so its
    # fixed set is wide, yet no word of <= 3 factor letters is a conjugate of
    # an edge element; one edge-group letter reaches it
    spec = SplittingSpec("amalgam", make_free(2, ["a", "b"], "A"),
                         make_free(2, ["c", "d"], "B"), ["t"],
                         [W("a b a b a b")], [W("c d c d")])
    chk = check_acylindricity(spec, 2, word_length=3, radius=3)
    assert chk.falsified
    assert chk.witness == W("a b") ** 3
    assert chk.witness_diameter > 2


def test_check_acylindricity_validates_inputs(z2z3):
    for args, message in [((-1,), "k must be >= 0, got -1"),
                          ((0, -2), "word length must be >= 0, got -2"),
                          ((0, 6, -3), "window radius must be >= 0, got -3")]:
        with pytest.raises(ValueError, match=message):
            check_acylindricity(z2z3, *args)


def test_counts_must_be_integers(klein):
    # klein is falsified at every k >= 0, yet k = nan compared false against
    # every diameter; floats, infinities and bools are no counts either
    base = base_vertex()
    for call, message in [
            (lambda: check_acylindricity(klein, math.nan), "k must be an integer, got nan"),
            (lambda: check_acylindricity(klein, 2.0), "k must be an integer, got 2.0"),
            (lambda: check_acylindricity(klein, True), "k must be an integer, got True"),
            (lambda: check_acylindricity(klein, 2, math.inf), "word length must be an integer"),
            (lambda: check_acylindricity(klein, 2, 6, 8.0), "window radius must be an integer"),
            (lambda: ball(klein, base, True), "window radius must be an integer, got True"),
            (lambda: fixed_set(klein, W("a^2"), radius=2.5), "window radius must be an integer"),
            (lambda: axis_window(klein, W("a b"), radius=2.5), "window radius must be an integer"),
            (lambda: t_set(klein, W("a"), max_power=2.5), "max_power must be an integer"),
            (lambda: t_set(klein, W("a"), max_power=0), "max_power must be >= 1, got 0")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
    assert check_acylindricity(klein, 2).falsified


def reference_acylindricity(spec, k, word_length, radius):
    """The first edge element, by shortlex order of its edge word, whose
    sorted fixed-set window has diameter > k, and that diameter; every
    element is walked, inverses included.  (None, None) when there is none."""
    seen = set()
    for cw in shortlex(range(len(spec.edge_gens)), word_length):
        c = spec.sub_a.embed(cw)
        if c.is_empty or c.letters in seen:
            continue
        seen.add(c.letters)
        diam = region_diameter(fixed_set(spec, c, radius=radius).members)
        if diam > k:
            return c, diam
    return None, None


def z6z9():
    # Z/6 *_{a^2 = b^3} Z/9: the edge group is Z/3, and a^-2 reduces to a^4
    return SplittingSpec("amalgam", make_cyclic(6, "a", "A"), make_cyclic(9, "b", "B"),
                         ["t"], [W("a^2")], [W("b^3")])


def long_edge():
    # F2 *_{(ab)^3 = (cd)^2} F2, as in the long-edge-elements test
    return SplittingSpec("amalgam", make_free(2, ["a", "b"], "A"),
                         make_free(2, ["c", "d"], "B"), ["t"],
                         [W("a b a b a b")], [W("c d c d")])


def capped():
    # F2 *_{x^20=u} F2: x^20 fixes 20 edges at A:1, and the windows keep 16
    return SplittingSpec("amalgam", make_free(2, ["x", "y"], "A"),
                         make_free(2, ["u", "v"], "B"), ["t"], [W("x^20")], [W("u")])


def z2_rank2_edge():
    # Z^2 *_{<x^2, y> = <u, v^3>} Z^2: a rank-2 edge group of indices 2 and 3,
    # central on both sides, so each nontrivial edge element fixes the tree
    return SplittingSpec("amalgam", make_free_abelian(2, ["x", "y"], "A"),
                         make_free_abelian(2, ["u", "v"], "B"), ["s", "t"],
                         [W("x^2"), W("y")], [W("u"), W("v^3")])


def v_z3_s3z2_table():
    # (V x Z/3) *_V (S3 x Z/2) as tables, V the Klein four-group: V is central
    # on the A side; on the B side the image of u is a transposition of S3
    # and that of w is central, so Fix(u) is a star and Fix(w) the whole tree
    names_a, table_a, index_a = _permutation_table(
        [(1, 0, 3, 2, 4, 5, 6), (2, 3, 0, 1, 4, 5, 6), (0, 1, 2, 3, 5, 6, 4)], "p")
    names_b, table_b, index_b = _permutation_table(
        [(1, 0, 2, 3, 4), (1, 2, 0, 3, 4), (0, 1, 2, 4, 3)], "q")
    return SplittingSpec(
        "amalgam", make_table(names_a, table_a, group_id="A"),
        make_table(names_b, table_b, group_id="B"), ["u", "w"],
        [W(names_a[index_a[(1, 0, 3, 2, 4, 5, 6)]]), W(names_a[index_a[(2, 3, 0, 1, 4, 5, 6)]])],
        [W(names_b[index_b[(1, 0, 2, 3, 4)]]), W(names_b[index_b[(0, 1, 2, 4, 3)]])])


def z8z12_table():
    # Z/8 *_{Z/4} Z/12 as tables: the edge group has the inverse pair r2, r6
    return SplittingSpec("amalgam", make_table(*cyclic_table(8, "r"), group_id="A"),
                         make_table(*cyclic_table(12, "s"), group_id="B"),
                         ["t"], [W("r2")], [W("s3")])


def z6z9_trivial_first():
    # Z/6 *_{p = 1 = 1, q = a^2 = b^3} Z/9: the first edge generator is
    # trivial on both sides, so the walk starts at the second
    return SplittingSpec("amalgam", make_cyclic(6, "a", "A"), make_cyclic(9, "b", "B"),
                         ["p", "q"], [Word(), W("a^2")], [Word(), W("b^3")])


def z_free_mix():
    # Z *_{a^3 = c d c^-1 d^-1} F2: an abelian factor and a free one
    return SplittingSpec("amalgam", make_free_abelian(1, ["a"], "A"),
                         make_free(2, ["c", "d"], "B"), ["t"], [W("a^3")], [W("c d c^-1 d^-1")])


@pytest.mark.parametrize("spec", ["z2z3", "z3z4", "z70z3", "z2z2", "triv_z5", "f2",
                                  "klein", "f2_amalgam", "z2_amalgam", "z4z6_table",
                                  "a4_s3z2_table", z6z9, long_edge, capped, z2_rank2_edge,
                                  z_free_mix, v_z3_s3z2_table, z6z9_trivial_first],
                         ids=lambda s: getattr(s, "__name__", s))
def test_check_acylindricity_matches_walking_every_word(request, spec):
    # walking the first nontrivial element (no table factor), or each element
    # of a finite edge group once and not also its inverse, changes no
    # witness, diameter or verdict
    # Z^2 *_{x=u} Z^2: x fixes the whole tree, so its windows grow as 16^radius
    radii = (1, 2) if spec == "z2_amalgam" else (2, 4, 6)
    spec = spec() if callable(spec) else request.getfixturevalue(spec)
    for k, word_length, radius in itertools.product((0, 1, 2, 5), (0, 1, 3, 4, 6), radii):
        chk = check_acylindricity(spec, k, word_length, radius)
        want = reference_acylindricity(spec, k, word_length, radius)
        assert (chk.witness, chk.witness_diameter) == want
        assert chk.falsified == (want[0] is not None)


@pytest.mark.parametrize("spec, k, walks", [
    ("f2_amalgam", 2, 1),  # t alone, where t^1 .. t^4 were walked at length 4
    (z6z9, 20, 1),  # a^-2 is a^4 in Z/6, yet no table factor: one walk
    ("a4_s3z2_table", 20, 3),  # the Klein four-group is all involutions
    ("a4_s3z2_table", 1, 1),
    ("z4z6_table", 20, 1),  # Z/2
    (v_z3_s3z2_table, 20, 3),
    (v_z3_s3z2_table, 2, 2),  # u's star is no witness, w's whole tree is
    (z8z12_table, 20, 2),  # r2 (not also r6) and r4
    (z2_rank2_edge, 20, 1),
    ("z2_amalgam", 0, 1),
    (z6z9_trivial_first, 20, 1),
], ids=["f2_amalgam", "z6z9", "a4_s3z2_table", "a4_s3z2_table-falsified", "z4z6_table",
        "v_z3_s3z2_table", "v_z3_s3z2_table-falsified", "z8z12_table", "z2_rank2_edge",
        "z2_amalgam", "z6z9_trivial_first"])
def test_check_acylindricity_walks_an_element_or_its_inverse(request, monkeypatch,
                                                               spec, k, walks):
    # one walk without a table factor, else one per inverse pair of the
    # finite edge group up to the witness; neither grows with the word length
    spec = spec() if callable(spec) else request.getfixturevalue(spec)
    calls = count_calls(monkeypatch, tree, "_fixed_window")
    answers = []
    for word_length in (4, 1_000_000):
        calls.clear()
        chk = check_acylindricity(spec, k, word_length, 2)
        answers.append((chk.verdict, chk.witness, chk.witness_diameter))
        assert len(calls) == walks
    assert answers[0] == answers[1]


def test_check_acylindricity_walks_the_first_nontrivial_generator():
    # q, not p, as the every-word reference finds: a^2 is central on both
    # sides, so it fixes the whole tree
    chk = check_acylindricity(z6z9_trivial_first(), 0, 1, 2)
    assert chk.falsified and chk.witness == W("a^2")


def test_spec_loading_and_acylindricity_enumerate_no_words(request, monkeypatch):
    # edge identification and the acylindricity check read the edge group
    # (element orders, kernels, pair walks, a table's element list), never
    # edge words from ``shortlex``
    calls = [count_calls(monkeypatch, module, "shortlex")
             for module in (words, oracles, splitting, tree) if hasattr(module, "shortlex")]
    specs = [request.getfixturevalue(name) for name in FACTOR_SPECS + ["a4_s3z2_table"]]
    specs += [make() for make in (z6z9, long_edge, capped, z2_rank2_edge, v_z3_s3z2_table,
                                  z8z12_table, z_free_mix, z6z9_trivial_first)]
    specs += [load_spec(str(p)) for p in sorted((Path(__file__).parent / "data").glob("*.json"))
              if "factors" in json.loads(p.read_text())]
    for spec in specs:
        check_acylindricity(spec, 2, 6, 2)
    assert not any(calls)


def test_windows_reject_negative_radius(z2z3):
    base = base_vertex()
    for window in (lambda: ball(z2z3, base, -1), lambda: fixed_set(z2z3, W("a"), radius=-1),
                   lambda: t_set(z2z3, W("a"), radius=-1),
                   lambda: axis_window(z2z3, W("a b"), radius=-1)):
        with pytest.raises(ValueError, match="window radius must be >= 0"):
            window()
    assert ball(z2z3, base, 0) == ({base: 0}, True)
