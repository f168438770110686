import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegroups import freeness, tree
from treegroups.freeness import (WitnessInputError,
                                 certify_free_semigroup, certify_rank2_free,
                                 overlap_report, same_axis, semigroup_witness,
                                 verify_disjoint_tsets, product_translation_length,
                                 witness_power_pair,
                                 witness_elliptic_hyperbolic,
                                 witness_elliptic_pair,
                                 witness_hyperbolic_pair,
                                 witness_length_bound_holds)
from treegroups.splitting import SplittingSpec
from treegroups.oracles import NEIGHBOR_CAP, make_free
from treegroups.tree import (base_vertex, classify, element_order, fixed_set, geodesic, mover,
                             on_axis, region_diameter, t_set, tree_distance)
from treegroups.words import Word

from conftest import count_calls, random_elliptic, random_word, reference_axis_window

W = Word.parse
XY = W("x y")


# -- certificates --------------------------------------------------------------

def test_certify_free_basis(f2):
    ok, fail = certify_rank2_free(f2, W("x"), W("y"), 6)
    assert ok and fail is None
    ok, _ = certify_free_semigroup(f2, W("x"), W("y"), 6)
    assert ok


def test_certify_rejects_commuting_pair(f2):
    # (x, x^2): the relation W1^2 = W2 has letter budget 3
    ok, fail = certify_rank2_free(f2, W("x"), W("x^2"), 3)
    assert not ok and fail is not None
    ok, fail = certify_free_semigroup(f2, W("x"), W("x^2"), 2)
    assert not ok  # positive words W1 W1 and W2 collide already at depth 2


def test_certify_respects_finite_orders(z2z3):
    ok, _ = certify_rank2_free(z2z3, W("a"), W("b"), 6)
    assert ok
    ok, fail = certify_rank2_free(z2z3, W("a"), W("b a b^-1"), 6)
    assert ok  # conjugate generators of the free product Z2 * Z2 inside
    ok, fail = certify_rank2_free(z2z3, W("a"), W("a"), 4)
    assert not ok  # W1 W2^-1 is trivial


def test_certify_trivial_generator_rejected(z2z3):
    ok, fail = certify_rank2_free(z2z3, W("a a"), W("b"), 4)
    assert not ok and "trivial" in fail


def test_certificate_failure_strings(z2z3, klein):
    # a^2 = b^2 in the Klein bottle group; a has order 2 in Z/2 * Z/3, so
    # W1^-1 is written by its residue
    assert certify_rank2_free(klein, W("a"), W("b"), 4) == (False, "W2^1 W1^-2 W2^1 = 1")
    assert certify_free_semigroup(klein, W("a"), W("b"), 4) == (
        False, "W22 collides with W11")
    assert certify_rank2_free(z2z3, W("a"), W("a"), 4) == (False, "W2^1 W1^1 = 1")


def reference_certificate(spec, w1, w2, depth):
    """The ball walk of ``certify_rank2_free`` with each word normalized from
    scratch: the reference the extending walk must agree with, named
    relation included."""
    if spec.is_trivial(w1) or spec.is_trivial(w2):
        return False, "a witness generator is trivial"
    words = (w1, w2)
    orders = tuple(element_order(spec, w) for w in words)
    low, high = depth // 2, (depth + 1) // 2

    def cost(exp, order):
        return abs(exp) if order is None else min(exp % order, order - exp % order)

    def exponents(order, budget):
        if order is not None:
            return [e for e in range(1, order) if cost(e, order) <= budget]
        return [e for mag in range(1, budget + 1) for e in (mag, -mag)]

    def evaluate(powers):
        return spec.normal_form(Word.of(letter for i, e in powers
                                        for letter in (words[i] ** e).letters))

    first = {evaluate(()): ()}
    layers = [[()]]  # layers[c]: the words of cost c, as (side, exponent) powers
    for c in range(1, high + 1):
        layers.append([])
        for i in (0, 1):
            for exp in exponents(orders[i], high):
                cost_i = cost(exp, orders[i])
                for parent in layers[c - cost_i] if cost_i <= c else ():
                    if parent and parent[-1][0] == i:
                        continue
                    u = parent + ((i, exp),)
                    nf = evaluate(u)
                    if nf in first:
                        relation = list(u)
                        for j, e in reversed(first[nf]):
                            if relation[-1][0] == j:
                                e = relation.pop()[1] - e
                                relation.append((j, e))
                            else:
                                relation.append((j, -e))
                        return False, " ".join(
                            f"W{j + 1}^{e if orders[j] is None else e % orders[j]}"
                            for j, e in relation) + " = 1"
                    if c <= low:
                        first[nf] = u
                        layers[c].append(u)
    return True, None


def check_named_relation(spec, w1, w2, depth, verdict):
    """A named relation is trivial in the group and costs <= depth."""
    ok, fail = verdict
    if ok or fail == "a witness generator is trivial":
        return
    words = (w1, w2)
    orders = tuple(element_order(spec, w) for w in words)
    powers = [(int(p[1]) - 1, int(p[3:])) for p in fail.removesuffix(" = 1").split()]
    assert spec.is_trivial(Word.of(letter for i, e in powers
                                   for letter in (words[i] ** e).letters))
    assert sum(freeness._syllable_cost(e, orders[i]) for i, e in powers) <= depth


@pytest.mark.parametrize("spec,w1,w2,depth", [
    ("f2", "x", "x^2", 3), ("f2", "x", "x^2", 6), ("f2", "x y", "y^2 x y^-1", 6),
    ("z2z3", "a", "b a b^-1", 6), ("z2z3", "a b", "b a", 5), ("klein", "a", "b", 6),
    ("klein", "a^2", "b", 4), ("klein", "a b^-1", "b^-4", 6),
    ("f2_amalgam", "d b", "b d b d b d^2 b d^-1 b^-1 d^-1 b^-1 d^-1 b^-1", 5),
    # relations that cancel long stacks: a skip that cuts too early misses them
    ("f2", "y^-2 x^2", "y^-2 x^2 y^-2 x^2 y^-2 x^2", 6),
    ("f2", "x y^-1 x^-2 y^2", "y^-2 x^2 y x^-1 y^-2 x^2 y x^-1", 3),
    # balls of radius 4 on both parities, passing and failing
    ("f2", "x y", "y^2 x y^-1", 7), ("z3z4", "a b", "b a^-1", 8),
])
def test_pruned_certificate_matches_full_search(request, spec, w1, w2, depth):
    spec = request.getfixturevalue(spec)
    verdict = certify_rank2_free(spec, W(w1), W(w2), depth)
    assert verdict == reference_certificate(spec, W(w1), W(w2), depth)
    check_named_relation(spec, W(w1), W(w2), depth, verdict)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pruned_certificate_matches_full_search_on_random_pairs(f2, z2z3, z3z4, z70z3,
                                                                klein, f2_amalgam, data):
    # an even order (4, 70) has a residue of cost order/2 with two geodesic halves
    spec = data.draw(st.sampled_from([f2, z2z3, z3z4, z70z3, klein, f2_amalgam]))
    names = spec.gen_names + spec.edge_gens
    letters = st.tuples(st.sampled_from(names), st.integers(-2, 2).filter(bool))
    w1 = spec.resolve_word(Word.of(data.draw(st.lists(letters, min_size=1, max_size=4))))
    z = spec.resolve_word(Word.of(data.draw(st.lists(letters, max_size=3))))
    # related pairs (powers, conjugates, products) are where relations hide
    w2 = data.draw(st.sampled_from([z, w1 ** data.draw(st.integers(-3, 3)),
                                    w1.conjugated_by(z), w1 * z, z * w1.inverse()]))
    depth = data.draw(st.integers(0, 6))
    verdict = certify_rank2_free(spec, w1, w2, depth)
    assert verdict == reference_certificate(spec, w1, w2, depth)
    check_named_relation(spec, w1, w2, depth, verdict)


def test_certificate_names_the_first_word_of_a_form(f2):
    # W1^1 = x stores the form x before W2^1 = x reaches it, so the
    # collision is named against W1^1, not W1^-1 or W2^1
    assert certify_rank2_free(f2, W("x"), W("x"), 2) == (False, "W2^1 W1^-1 = 1")


@pytest.mark.parametrize("w2,depth,verdict", [
    # the relation W1^2 W2^-1 costs 3: a walk of radius 1 must not see it,
    # and at depth 3 the cost-2 word W2^-1 W1^1 is looked up against W1^-1
    ("x^2", 2, (True, None)), ("x^2", 3, (False, "W2^-1 W1^2 = 1")),
    # W1^3 W2^-1 costs 4: at depth 3 two cost-2 words share a form, which
    # is a relation of cost 4, not 3
    ("x^3", 3, (True, None)), ("x^3", 4, (False, "W1^3 W2^-1 = 1")),
])
def test_certificate_splits_relations_by_parity(f2, w2, depth, verdict):
    assert certify_rank2_free(f2, W("x"), W(w2), depth) == verdict
    assert reference_certificate(f2, W("x"), W(w2), depth) == verdict
    words = (W("x"), W(w2))
    collision = freeness._ball_collision(f2, words, tuple(map(f2.normal_form, words)),
                                         (None, None), depth)
    assert (collision is None) == verdict[0]


def test_passing_certificate_walks_the_half_ball(f2, monkeypatch):
    # F2 is free, so depth 7 walks as depth 4: 4 extends classify the two
    # generators, 4 build their squares and inverse squares, and 8 reach the
    # words of cost 2 that are no power (the whole ball of cost <= 4 takes 160)
    calls = count_calls(monkeypatch, SplittingSpec, "extend")
    assert certify_rank2_free(f2, XY, W("y^2 x y^-1"), 7) == (True, None)
    assert len(calls) == 16


def test_passing_semigroup_certificate_walks_two_levels(f2, monkeypatch):
    # F2 is free, so depth 7 walks the 6 positive words of length <= 2
    # (all 254 of length <= 7 take 254)
    calls = count_calls(monkeypatch, SplittingSpec, "extend")
    assert certify_free_semigroup(f2, XY, W("y^2 x y^-1"), 7) == (True, None)
    assert len(calls) == 6


def test_failing_certificate_stops_at_its_first_collision(klein, monkeypatch):
    # the commutator of a b and b a costs 4, so the walk stops in its second
    # layer however deep the certificate
    calls = count_calls(monkeypatch, SplittingSpec, "extend")
    assert certify_rank2_free(klein, W("a b"), W("b a"), 18) == (
        False, "W1^1 W2^1 W1^-1 W2^-1 = 1")
    assert len(calls) <= 100


def test_certificate_depth_is_bounded(z2z3, monkeypatch):
    # on Z/2 * Z/2 the ball grows linearly, so the node budget alone would
    # admit depths near 50,000; past the bound they are input errors, raised
    # before any normal form or power table is built
    def no_normal_form(self, w):
        raise AssertionError("normal form computed")

    monkeypatch.setattr(SplittingSpec, "normal_form", no_normal_form)
    bound = freeness.MAX_CERTIFICATE_DEPTH
    for certify in (certify_rank2_free, certify_free_semigroup):
        with pytest.raises(ValueError, match=f"certificate depth must be <= {bound}, "
                                             f"got {bound + 1}"):
            certify(z2z3, W("a"), W("b"), bound + 1)


def test_certificate_nodes_are_bounded(f2, z2z3, monkeypatch):
    # the rank-2 walk visits the |B(r)| - 1 words of cost <= r = ceil(depth/2):
    # 2(3^r - 1) on F2, and on Z/2 * Z/3, 2^floor(c/2) + 2^ceil(c/2) of each
    # cost c; the semigroup check stores 2^(depth+1) - 2 words
    def no_power_forms(*args):
        raise AssertionError("power forms built")

    monkeypatch.setattr(freeness, "_power_forms", no_power_forms)
    monkeypatch.setattr(freeness, "MAX_CERTIFICATE_NODES", 50)
    for certify, spec, w1, w2, depth, count in [
            (certify_rank2_free, f2, "x", "y", 7, 160),
            (certify_rank2_free, z2z3, "a", "b", 13, 73),
            (certify_free_semigroup, f2, "x", "y", 5, 62)]:
        with pytest.raises(ValueError, match=f"certificate depth {depth} needs {count} "
                                             f"nodes; at most 50 are allowed"):
            certify(spec, W(w1), W(w2), depth)
    assert freeness._ball_size((None, None), 3) == 52
    assert freeness._ball_size((2, 3), 6) == 49


@pytest.mark.parametrize("spec,w", [
    ("z2z3", "a"), ("z2z3", "b"), ("z2z3", "a b"), ("z3z4", "b"), ("z3z4", "a b a^-1"),
    ("z70z3", "a"), ("z70z3", "a^10"), ("klein", "a^2"), ("klein", "a b"),
    ("f2", "y^2 x y^-1"), ("f2_amalgam", "a"), ("f2_amalgam", "b d"),
])
def test_power_forms_are_the_normal_forms_of_the_powers(request, spec, w):
    # finite orders (Z/70: one chain stops short of the other), and powers
    # of an edge element, which have no syllables
    spec, w = request.getfixturevalue(spec), W(w)
    order = element_order(spec, w)
    for depth in range(9):
        forms = freeness._power_forms(spec, w, spec.normal_form(w), order, depth)
        exps = freeness._exponent_range(order, depth)
        if order is not None:
            cost = lambda e: min(e % order, order - e % order)
            assert exps == [e for e in range(1, order) if cost(e) <= depth]
        assert sorted(forms) == sorted(exps)
        for e in exps:
            assert forms[e] == spec.normal_form(w ** e)


# -- free specs: depth 4 decides -------------------------------------------------

def f2_by_f2(into_a, into_b):
    """F(a, b) *_{into_a = into_b} F(c, d)."""
    return SplittingSpec("amalgam", make_free(2, ["a", "b"], "A"),
                         make_free(2, ["c", "d"], "B"), ["t"], [W(into_a)], [W(into_b)])


@pytest.fixture(scope="module")
def free_specs(f2, f2_amalgam):
    # F2 *_{ab=c} F2 and F2 *_{a^2=c} F2 are F(a, b, d), by a Tietze move on c
    return [f2, f2_amalgam, f2_by_f2("a b", "c"), f2_by_f2("a^2", "c")]


def test_free_spec_shapes(free_specs, klein, z2z3, z2_amalgam, z4z6_table, a4_s3z2_table):
    assert all(map(freeness._free_spec, free_specs))
    assert freeness._free_spec(f2_by_f2("a b", "c^-1"))
    # klein's edge images a^2, b^2 are no letters, nor are (ab)^3 and (cd)^2;
    # tables and lattices are not free factors
    for spec in (klein, z2z3, f2_by_f2("a b a b a b", "c d c d"), z4z6_table,
                 a4_s3z2_table, z2_amalgam):
        assert not freeness._free_spec(spec)


def reference_semigroup(spec, w1, w2, depth):
    """The level walk of ``certify_free_semigroup`` with each positive word
    normalized from scratch."""
    seen = {spec.normal_form(Word()): ""}
    level = [""]
    for _ in range(depth):
        level = [label + tag for label in level for tag in "12"]
        for label in level:
            nf = spec.normal_form(Word.of(letter for tag in label
                                          for letter in (w1, w2)[int(tag) - 1].letters))
            if seen.setdefault(nf, label) != label:
                return False, f"W{label} collides with W{seen[nf]}"
    return True, None


def draw_free_pair(data, spec):
    """Two words over the factors, half the time powers r^i, r^j of one word,
    which commute."""
    letters = st.tuples(st.sampled_from(spec.gen_names), st.integers(-2, 2).filter(bool))
    words = st.lists(letters, min_size=1, max_size=3).map(Word.of)
    r = data.draw(words)
    powers = st.integers(-3, 3).map(lambda e: r ** e)
    return data.draw(st.one_of(st.tuples(powers, powers), st.tuples(words, words)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_free_spec_certificates_match_the_full_walk(free_specs, data):
    # the walks stop at depth 4 and 2, yet give the verdicts and named
    # relations of walking the requested depth
    spec = data.draw(st.sampled_from(free_specs))
    w1, w2 = draw_free_pair(data, spec)
    depth = data.draw(st.integers(0, 10))
    assert certify_rank2_free(spec, w1, w2, depth) == reference_certificate(spec, w1, w2, depth)
    assert certify_free_semigroup(spec, w1, w2, depth) == reference_semigroup(spec, w1, w2,
                                                                              depth)


def _fold_pair(edges):
    """Two vertices that edges of one label and direction reach from one
    vertex, or None when the graph is folded."""
    ends = {}
    for tail, g, head in edges:
        for key, end in (((tail, g, 1), head), ((head, g, -1), tail)):
            if ends.setdefault(key, end) != end:
                return ends[key], end
    return None


def folded_rank(words):
    """The rank of the subgroup that the words generate in the free group on
    their letters, by Stallings folding (Stallings, Invent. Math. 71, 1983;
    Kapovich-Myasnikov, J. Algebra 248, 2002): the wedge of the words'
    loops at vertex 0, one edge per letter, is folded until no two edges of
    one label and direction leave a vertex, and the folded graph has rank
    E - V + 1.  No normal form is involved."""
    edges, count = set(), 1  # (tail, generator, head)
    for w in words:
        units = [(g, e // abs(e)) for g, e in w.letters for _ in range(abs(e))]
        tail = 0
        for n, (g, sign) in enumerate(units, 1):
            head = 0 if n == len(units) else count
            count += head != 0
            edges.add((tail, g, head) if sign > 0 else (head, g, tail))
            tail = head
    while (pair := _fold_pair(edges)) is not None:
        keep, drop = min(pair), max(pair)
        edges = {(keep if t == drop else t, g, keep if h == drop else h) for t, g, h in edges}
    return len(edges) - len({0, *(v for t, _, h in edges for v in (t, h))}) + 1


def free_basis_word(spec, w):
    """w over a free basis of a free spec: an amalgam's edge image that is a
    letter x^s, matched with y on the other side, is eliminated by x = y^s."""
    if spec.kind == "free_product":
        return w
    for sub, other in ((spec.sub_a, spec.sub_b), (spec.sub_b, spec.sub_a)):
        (x, s), *rest = sub.image_words[0].letters
        if not rest and abs(s) == 1:
            y = other.image_words[0] ** s
            return Word.of(letter for g, e in w.letters
                           for letter in ((y ** e).letters if g == x else ((g, e),)))


@pytest.mark.parametrize("spec,w1,w2,rank", [
    ("f2", "x", "y", 2), ("f2", "x^5", "x^7", 1), ("f2", "x y", "y x", 2),
    ("f2", "x y x^-1", "x y^2 x^-1", 1), ("f2", "x x^-1", "y", 1),
    ("f2_amalgam", "a b", "c b", 1), ("f2_amalgam", "b d", "d b", 2),
])
def test_folded_rank(request, spec, w1, w2, rank):
    spec = request.getfixturevalue(spec)
    assert folded_rank([free_basis_word(spec, W(w)) for w in (w1, w2)]) == rank


def test_commuting_pair_fails_on_its_commutator(f2):
    # x^5 and x^7 meet no relation of cost < 4: the walk names the commutator
    assert certify_rank2_free(f2, W("x^5"), W("x^7"), 8) == (
        False, "W1^1 W2^1 W1^-1 W2^-1 = 1")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_free_spec_certificates_decide_the_folded_rank(free_specs, data):
    # from depth 4 a rank-2 certificate, and from depth 2 a semigroup one,
    # passes exactly when the pair is a basis of a rank-2 subgroup
    spec = data.draw(st.sampled_from(free_specs))
    w1, w2 = draw_free_pair(data, spec)
    basis = folded_rank([free_basis_word(spec, w) for w in (w1, w2)]) == 2
    assert certify_rank2_free(spec, w1, w2, data.draw(st.integers(4, 10)))[0] == basis
    assert certify_free_semigroup(spec, w1, w2, data.draw(st.integers(2, 10)))[0] == basis


# -- elliptic pair witnesses ----------------------------------------------------

def test_elliptic_pair_witness(z2z3):
    w = witness_elliptic_pair(z2z3, 0, W("a"), W("b"))
    assert w.case == "elliptic_elliptic"
    assert w.claim == "free_product_rank2"
    assert w.power_used == 1 and w.certified
    h = W("a") * W("b")
    assert z2z3.is_trivial(w.generators[1] * (h * W("a") * h.inverse()).inverse())


@pytest.mark.parametrize("k,p", [(0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (9, 5)])
def test_elliptic_pair_minimal_power(z2z3, k, p):
    w = witness_elliptic_pair(z2z3, k, W("a"), W("b"))
    assert w.power_used == p == (k + 2) // 2
    assert w.certified


def test_elliptic_pair_rejects_shared_fixed_set(z2z3):
    with pytest.raises(WitnessInputError):
        witness_elliptic_pair(z2z3, 0, W("a"), W("a"))
    with pytest.raises(WitnessInputError):
        witness_elliptic_pair(z2z3, 0, W("a"), W("a b"))  # hyperbolic input


# -- elliptic + hyperbolic witnesses --------------------------------------------

def test_elliptic_hyperbolic_witness(z2z3):
    w = witness_elliptic_hyperbolic(z2z3, 0, W("a"), W("a b"))
    assert w.power_used == 1 and w.certified
    assert w.claim == "free_product_rank2"
    w4 = witness_elliptic_hyperbolic(z2z3, 4, W("a"), W("a b"))
    assert w4.power_used == 5 and w4.certified


def test_elliptic_hyperbolic_rejects_misclassified(z2z3):
    with pytest.raises(WitnessInputError):
        witness_elliptic_hyperbolic(z2z3, 0, W("a b"), W("a b"))
    with pytest.raises(WitnessInputError):
        witness_elliptic_hyperbolic(z2z3, 0, W("a"), W("b"))


# -- hyperbolic pair witnesses --------------------------------------------------

def test_overlap_single_vertex(f2):
    # axes of xy and y^2 x y^-1 cross exactly at the base B-vertex
    rep = overlap_report(f2, 0, XY, W("y^2 x y^-1"))
    assert rep.diameter == 0 and rep.branch == "small"
    assert rep.crossing is not None and rep.crossing.side == "B"


def test_overlap_pushes_junctions_not_vertices(f2, monkeypatch):
    # each axis test moves a vertex by one mover per element, and the
    # overlap is walked, not windowed: 34 pushes, where renormalizing
    # g rep(v) for every vertex of the window took 237
    pushes = count_calls(monkeypatch, SplittingSpec, "_push")
    assert overlap_report(f2, 0, XY, W("y^2 x y^-1")).diameter == 0
    assert len(pushes) <= 40


def test_overlap_shared_segment(f2):
    rep = overlap_report(f2, 0, XY, W("y x"))
    assert rep.diameter == 1 and rep.branch == "large"


def test_overlap_disjoint_axes(f2):
    w = W("x y^2 x")
    rep = overlap_report(f2, 0, XY, w * XY * w.inverse())
    assert rep.diameter == -math.inf and rep.branch == "small"


def test_overlap_same_axis_rejected(f2):
    with pytest.raises(WitnessInputError):
        overlap_report(f2, 0, XY, W("x y x y"))


def test_hyperbolic_pair_small_branch(f2):
    w = witness_hyperbolic_pair(f2, 0, XY, W("y^2 x y^-1"))
    assert w.case == "hyperbolic_small_overlap"
    assert w.power_used == 1 and w.certified
    assert w.claim == "free_subgroup_rank2"


def test_hyperbolic_pair_small_branch_power(f2):
    # declared k = 2 forces q = 3k + 1 = 7 even on a diameter-0 overlap
    w = witness_hyperbolic_pair(f2, 2, XY, W("y^2 x y^-1"))
    assert w.power_used == 7
    assert w.generators[0] == XY ** 7
    assert w.certified


def test_hyperbolic_pair_large_branch(f2):
    w = witness_hyperbolic_pair(f2, 0, XY, W("y x"))
    assert w.case == "hyperbolic_large_overlap"
    assert w.power_used == 3 and w.certified
    assert w.branch.startswith("large")


def test_hyperbolic_pair_large_branch_amalgam(f2_amalgam):
    # F2 *_<a>=<c> F2 is free of rank 3; b d and d b are hyperbolic with
    # overlapping distinct axes
    h1, h2 = W("b d"), W("d b")
    rep = overlap_report(f2_amalgam, 0, h1, h2)
    assert rep.branch == "large"
    w = witness_hyperbolic_pair(f2_amalgam, 0, h1, h2, depth=5)
    assert w.power_used == 3 and w.certified


def test_branch_totality_random_pairs(f2):
    rng = random.Random(23)
    checked = 0
    while checked < 12:
        h1 = random_word(rng, f2.gen_names, 3)
        h2 = random_word(rng, f2.gen_names, 3)
        if not (classify(f2, h1).is_hyperbolic and classify(f2, h2).is_hyperbolic):
            continue
        try:
            rep = overlap_report(f2, 0, h1, h2)
        except WitnessInputError:
            continue  # same axis
        assert rep.branch in ("small", "large")
        w = witness_hyperbolic_pair(f2, 0, h1, h2, depth=5)
        assert w.certified
        checked += 1


def windowed_overlap(spec, h1, c1, h2, c2, radius):
    """Reference for ``freeness._axis_intersection``: the window of Axis(h1)
    of the given radius about the crossing q*, read off a geodesic by
    ``reference_axis_window`` and kept where it lies on Axis(h2), then its
    ``region_diameter``."""
    move2 = mover(spec, h2)
    q_star = next(v for v in geodesic(c1.witness_vertex, c2.witness_vertex)
                  if on_axis(move2, c2.tau, v))
    if not on_axis(mover(spec, h1), c1.tau, q_star):
        return -math.inf, q_star
    window = reference_axis_window(spec, h1, q_star, radius)
    return region_diameter([v for v in window.members if on_axis(move2, c2.tau, v)]), q_star


def reference_overlap_report(spec, k, h1, h2):
    (c1, _), (c2, _) = freeness._distinct_axes(spec, h1, h2, max(3 * k + 2, 8))
    diam, crossing = windowed_overlap(spec, h1, c1, h2, c2, 3 * k + c1.tau + c2.tau + 6)
    return diam, "small" if diam <= 3 * k else "large", crossing


def reference_power_pair(spec, h1, h2, n, depth):
    (c1, _), (c2, _) = freeness._distinct_axes(spec, h1, h2, max(n + 2, 8))
    bound = n * min(c1.tau, c2.tau)
    diam, _ = windowed_overlap(spec, h1, c1, h2, c2, bound + c1.tau + c2.tau + 6)
    if not diam < bound:
        raise WitnessInputError(
            f"axis overlap diameter {diam} is not < n*min(tau) = {bound}")
    return freeness._certified(spec, "hyperbolic_small_overlap", (h1 ** n, h2 ** n),
                               None, n, depth)


def outcome(call):
    """A call's value, or the type and message of what it raised."""
    try:
        return call()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("spec", ["f2", "z2z3", "z3z4", "f2_amalgam"])
def test_overlap_walk_matches_the_window(request, spec):
    # the walk along Axis(h1) from the crossing against the windowed
    # intersection; one h2 in three shares a stretch of Axis(h1) and one is
    # conjugated away from it, so the draws cover disjoint, single-vertex
    # and large overlaps
    spec = request.getfixturevalue(spec)
    rng = random.Random(33)
    diameters = set()
    pairs = 0
    while pairs < 15:
        h1, h2 = (random_word(rng, spec.gen_names, 4) for _ in range(2))
        if pairs % 3 == 0:
            h2 = h1 ** rng.randint(1, 3) * random_word(rng, spec.gen_names, 2)
        elif pairs % 3 == 1:  # six letters alternating between the factors
            c = Word.of((rng.choice(spec.factor(side).gen_names), 1) for side in "ABABAB")
            h2 = c * h2 * c.inverse()
        if not (classify(spec, h1).is_hyperbolic and classify(spec, h2).is_hyperbolic):
            continue
        pairs += 1
        for k in range(5):
            got = outcome(lambda: tuple(overlap_report(spec, k, h1, h2)))
            assert got == outcome(lambda: reference_overlap_report(spec, k, h1, h2))
            if isinstance(got[0], (int, float)):
                diameters.add(got[0])
        for n in (1, 2, 3):
            assert (outcome(lambda: witness_power_pair(spec, h1, h2, n, depth=2))
                    == outcome(lambda: reference_power_pair(spec, h1, h2, n, 2)))
    assert -math.inf in diameters and max(diameters) >= 4


def test_overlap_is_walked_not_windowed(f2_amalgam, monkeypatch):
    # at k = 300 the window would have radius 910; the walk stops one step
    # past the crossing in each direction
    def no_window(*args, **kwargs):
        raise AssertionError("axis_window called")

    monkeypatch.setattr(tree, "axis_window", no_window)
    monkeypatch.setattr(freeness, "axis_window", no_window, raising=False)
    tests = count_calls(monkeypatch, freeness, "on_axis")
    rep = overlap_report(f2_amalgam, 300, W("b d"), W("d b"))
    assert rep.diameter == 1 and rep.branch == "small"
    assert len(tests) <= 12


@pytest.mark.parametrize("call, bound", [
    # 2 today: the two inputs; tau(g1 g2) reads extend(nf(g1), nf(g2))
    (lambda s: product_translation_length(s["z2z3"], W("a"), W("b")), 3),
    # 4 today: g1 and g2, then the conjugate witness; order-2 generators
    # have no w^-1 chain, and the orders come from g1's class
    (lambda s: witness_elliptic_pair(s["z2z3"], 5, W("b a b^-1"), W("a b a^-1"), 7), 8),
    # 8 today: h1, h2, h1^-902 (the first axis sample off Axis(h2)), h1^-1
    # for the overlap walk, and h1^901, h2^901 with their inverses
    (lambda s: witness_hyperbolic_pair(s["f2_amalgam"], 300, W("b d"), W("d b"), 2), 11),
], ids=["product_translation_length", "witness_elliptic_pair", "witness_hyperbolic_pair"])
def test_witnesses_normalize_each_element_once(z2z3, f2_amalgam, monkeypatch, call, bound):
    forms = count_calls(monkeypatch, SplittingSpec, "normal_form")
    call({"z2z3": z2z3, "f2_amalgam": f2_amalgam})
    assert len(forms) <= bound


def test_constructors_pass_the_generators_orders(z2z3, f2, f2_amalgam, monkeypatch):
    # the acceptance witnesses (criterion 4) and the free-witness goldens:
    # an elliptic pair has the order of its first generator (conjugates
    # have equal orders), and hyperbolic witnesses have infinite order
    calls = count_calls(monkeypatch, freeness, "_certified")
    for k in (0, 4, 7):
        witness_elliptic_pair(z2z3, k, W("a"), W("b"))
    for k in (0, 2, 4):
        witness_elliptic_hyperbolic(z2z3, k, W("a"), W("a b"))
    for k in (0, 2):
        witness_hyperbolic_pair(f2, k, XY, W("y^2 x y^-1"))
    witness_hyperbolic_pair(f2, 0, XY, W("y x"))
    for k in (0, 2):
        witness_hyperbolic_pair(f2_amalgam, k, W("b d"), W("d b"), depth=5)
    witness_elliptic_pair(z2z3, 2, W("b a b^-1"), W("a b a^-1"))
    witness_power_pair(f2, XY, W("y^2 x y^-1"), 2)
    assert len(calls) == 13
    for spec, _, pair, order, *_ in calls:
        assert (order, order) == tuple(element_order(spec, w) for w in pair)


# -- semigroup clause -----------------------------------------------------------

def test_semigroup_witness(f2):
    w = semigroup_witness(f2, XY, W("y^2 x y^-1"))
    assert w.claim == "free_semigroup_rank2"
    assert w.certified and w.branch == "direct"
    assert w.power_used == 1


def test_semigroup_witness_orientation(f2):
    # an inverse pair: one of the two orientations certifies
    w = semigroup_witness(f2, XY, (W("x y^2 x") * XY * W("x y^2 x").inverse()).inverse())
    assert w.certified and w.branch in ("direct", "inverted")


def test_semigroup_witness_rejects(f2, z2z3):
    with pytest.raises(WitnessInputError):
        semigroup_witness(f2, XY, XY ** 2)  # same axis
    with pytest.raises(WitnessInputError):
        semigroup_witness(z2z3, W("a"), W("a b"))  # elliptic input


# -- translation-length and T-set checks ----------------------------------------------------------

def test_product_translation_base_pair(z2z3):
    rep = product_translation_length(z2z3, W("a"), W("b"))
    assert rep.tau_product == 2 and rep.distance_of_fixed_sets == 1
    assert rep.tau_product == 2 * rep.distance_of_fixed_sets


def test_product_translation_conjugated(z2z3):
    # b a b^-1 is elliptic with fixed vertex at distance 2 from Fix(a)
    rep = product_translation_length(z2z3, W("a"), W("b a b^-1"))
    assert rep.distance_of_fixed_sets == 2 and rep.tau_product == 4


def test_product_translation_random_pairs(z2z3, z3z4, f2_amalgam):
    rng = random.Random(24)
    for spec in (z2z3, z3z4, f2_amalgam):
        done = 0
        while done < 15:
            g1 = random_elliptic(spec, rng)
            g2 = random_elliptic(spec, rng)
            try:
                rep = product_translation_length(spec, g1, g2)
            except WitnessInputError:
                continue
            assert rep.tau_product == 2 * rep.distance_of_fixed_sets
            done += 1


def test_product_translation_rejects_intersecting(z2z3):
    with pytest.raises(WitnessInputError):
        product_translation_length(z2z3, W("a"), W("a"))


def test_disjoint_tsets(z2z3, klein):
    assert verify_disjoint_tsets(z2z3, W("a"), W("b"))
    assert not verify_disjoint_tsets(z2z3, W("a"), W("a"))
    far = W("a b") ** 5 * W("a") * W("a b") ** -5  # fixes one vertex 10 steps out
    assert not t_set(z2z3, far).members and verify_disjoint_tsets(z2z3, W("a"), far)
    # T(far) meets itself outside every window of radius 8
    assert not verify_disjoint_tsets(z2z3, far, far)
    # central edge: every T-set swallows the window
    assert not verify_disjoint_tsets(klein, W("a"), W("b"))


def windowed_disjoint_tsets(spec, g1, g2):
    """Reference for ``verify_disjoint_tsets``: whether T(g1) and T(g2),
    each the union of the fixed-set windows of radius 8 of its nontrivial
    powers g^n, n <= 6, share no vertex; and whether that answer is decisive.
    It is when a vertex is shared, or when every window is complete and
    Fix(g1), Fix(g2) meet the window: each Fix(g^n) holds Fix(g), so then
    any two of the subtrees meet the ball, and two that meet each other
    meet inside it (Helly's property for subtrees)."""
    members, decisive = [], True
    for g in (g1, g2):
        regions = [fixed_set(spec, g ** n) for n in range(1, 7) if not spec.is_trivial(g ** n)]
        members.append(set().union(*(r.members for r in regions)))
        decisive = decisive and bool(regions) and bool(regions[0].members) and all(
            r.exhaustive_within_radius for r in regions)
    disjoint = members[0].isdisjoint(members[1])
    return disjoint, decisive or not disjoint


@pytest.mark.parametrize("spec", ["z2z3", "z3z4", "z70z3", "z2z2", "triv_z5", "f2", "klein",
                                  "f2_amalgam", "z2_amalgam", "z4z6_table"])
def test_disjoint_tsets_match_the_windows(request, monkeypatch, spec):
    # the exact check against the windowed T-sets wherever those decide;
    # one pair in four is conjugated into a shared factor
    rng = random.Random(spec)
    spec = request.getfixturevalue(spec)
    monkeypatch.setattr(tree, "MAX_WINDOW_VERTICES", 300)
    compared = 0
    for i in range(24):
        g1, g2 = random_elliptic(spec, rng, 2), random_elliptic(spec, rng, 2)
        if i % 4 == 0:
            g2 = g1 ** rng.randint(1, 3)
        disjoint, decisive = windowed_disjoint_tsets(spec, g1, g2)
        if decisive:
            compared += 1
            assert verify_disjoint_tsets(spec, g1, g2) == disjoint, (str(g1), str(g2))
    assert compared >= 16


def test_disjoint_tsets_walk_no_window(z2_amalgam, monkeypatch):
    # x is central in Z^2 *_{x=u} Z^2, so its T-set is the whole tree, whose
    # windows of radius 8 would hold up to MAX_WINDOW_VERTICES each
    def no_walk(*args):
        raise AssertionError("window walked")

    monkeypatch.setattr(tree, "_walk", no_walk)
    assert not verify_disjoint_tsets(z2_amalgam, W("x"), W("y"))
    assert verify_disjoint_tsets(z2_amalgam, W("y"), W("v"))


def windowed_fixed_set_distance(spec, g1, g2):
    """Reference for ``freeness._fixed_set_distance``: Fix(g1) and Fix(g2)
    within 4 max(|g1|, |g2|) + 4 of the base, walked by ``_fixed_window``,
    and the least distance over every pair of members; None when a window
    is incomplete."""
    base, radius = base_vertex(), 4 * max(g1.letter_length(), g2.letter_length()) + 4
    windows = []
    for g in (g1, g2):
        nf = spec.normal_form(g)
        window, complete = tree._fixed_window(spec, nf, tree._classify(spec, nf, base), base,
                                              radius, NEIGHBOR_CAP)
        if not complete:
            return None
        windows.append(window)
    return min(tree_distance(u, v) for u in windows[0] for v in windows[1])


@pytest.mark.parametrize("spec", ["z2z3", "z3z4", "z70z3", "z2z2", "triv_z5", "f2", "klein",
                                  "f2_amalgam", "z2_amalgam", "z4z6_table"])
def test_fixed_set_distance_matches_the_windows(request, monkeypatch, spec):
    # the geodesic read against the windowed pairwise minimum, on pairs
    # whose windows are complete with at most 2,000 members each
    rng = random.Random(spec)
    spec = request.getfixturevalue(spec)
    monkeypatch.setattr(tree, "MAX_WINDOW_VERTICES", 2000)
    compared = 0
    for _ in range(20):
        g1, g2 = random_elliptic(spec, rng), random_elliptic(spec, rng)
        d = windowed_fixed_set_distance(spec, g1, g2)
        if d is None:
            continue
        compared += 1
        got = outcome(lambda: tuple(product_translation_length(spec, g1, g2)))
        if d < 1:
            assert got[0] is WitnessInputError and re.match(FIXED_SETS_MEET, got[1])
        else:
            assert got == (2 * d, d)
    assert compared >= 5


def test_fixed_set_checks_walk_no_window(f2, z4z6_table, z2_amalgam, monkeypatch):
    # the identity of F2, the central r2 and s3, and x of Z^2 *_{x=u} Z^2 fix
    # the whole tree, whose windows would hold up to MAX_WINDOW_VERTICES each
    def no_walk(*args):
        raise AssertionError("window walked")

    monkeypatch.setattr(tree, "_walk", no_walk)
    for call in (lambda: witness_elliptic_pair(f2, 0, Word(), Word()),
                 lambda: witness_elliptic_pair(z4z6_table, 0, W("r2"), W("s3")),
                 lambda: product_translation_length(z2_amalgam, W("x"), W("y"))):
        with pytest.raises(WitnessInputError, match=FIXED_SETS_MEET):
            call()


def test_fixed_set_distance_tests_one_geodesic(z2z3, monkeypatch):
    # each input is tested on at most the d(p1, p2) + 1 vertices of [p1, p2]
    tested = []

    def counted_mover(spec, nf):
        move = tree._mover(spec, nf)
        return lambda v: tested.append(v) or move(v)

    monkeypatch.setattr(freeness, "_mover", counted_mover)
    g1, g2 = W("a"), W("b a b^-1")
    assert tuple(product_translation_length(z2z3, g1, g2)) == (4, 2)
    p1, p2 = (classify(z2z3, g).witness_vertex for g in (g1, g2))
    assert 0 < len(tested) <= 2 * (tree_distance(p1, p2) + 1)


def test_witness_power_pair(f2):
    w = witness_power_pair(f2, XY, W("y^2 x y^-1"), 1)
    assert w.certified and w.power_used == 1
    # overlap of Axis(xy) and Axis(x^-1 y) has diameter 3 >= 1 * 2: hypothesis fails
    with pytest.raises(WitnessInputError):
        witness_power_pair(f2, XY, W("x^-1 y"), 1)
    w2 = witness_power_pair(f2, XY, W("x^-1 y"), 2)
    assert w2.certified and w2.generators == (XY ** 2, W("x^-1 y") ** 2)
    with pytest.raises(WitnessInputError):
        witness_power_pair(f2, XY, XY ** 2, 3)  # same axis


NEGATIVE_K = "k must be >= 0, got -1"
SAME_AXIS = "share an axis; distinct axes are required"
FIXED_SETS_MEET = r"the fixed sets of g1 and g2 intersect; Fix\(g1\) ∩ Fix\(g2\) = ∅"


@pytest.mark.parametrize("fn,spec,args,error,message", [
    (witness_elliptic_pair, "z2z3", (-1, W("a"), W("b")), ValueError, NEGATIVE_K),
    (witness_elliptic_hyperbolic, "z2z3", (-1, W("a"), W("a b")), ValueError, NEGATIVE_K),
    (witness_hyperbolic_pair, "f2", (-1, XY, W("y x")), ValueError, NEGATIVE_K),
    (overlap_report, "f2", (-1, XY, W("y x")), ValueError, NEGATIVE_K),
    (overlap_report, "f2", (0, XY, XY ** 2), WitnessInputError, SAME_AXIS),
    (witness_hyperbolic_pair, "f2", (0, XY, XY ** 2), WitnessInputError, SAME_AXIS),
    (semigroup_witness, "f2", (XY, XY ** 2), WitnessInputError, SAME_AXIS),
    (witness_power_pair, "f2", (XY, XY ** 2, 3), WitnessInputError, SAME_AXIS),
    (witness_elliptic_pair, "z2z3", (0, W("a"), W("a")), WitnessInputError, FIXED_SETS_MEET),
    (product_translation_length, "z2z3", (W("a"), W("a")), WitnessInputError,
     FIXED_SETS_MEET),
    (witness_elliptic_pair, "z2z3", (0, W("a"), W("a b")), WitnessInputError,
     "g2 = a b is hyperbolic; an elliptic element is required"),
    (witness_elliptic_hyperbolic, "z2z3", (0, W("a"), W("b")), WitnessInputError,
     "h = b is elliptic; a hyperbolic element is required"),
], ids=lambda v: getattr(v, "__name__", None))
def test_each_hypothesis_has_one_rejection_message(request, fn, spec, args, error, message):
    with pytest.raises(error, match=message):
        fn(request.getfixturevalue(spec), *args)


def test_same_axis_detection(f2):
    assert same_axis(f2, XY, XY ** 3)
    assert same_axis(f2, XY, W("y^-1 x^-1"))  # the inverse shares the axis
    assert not same_axis(f2, XY, W("y x"))


# -- bookkeeping ------------------------------------------------------------------

def test_witness_length_bound():
    from fractions import Fraction
    for k in range(0, 21):
        assert witness_length_bound_holds(k)
        assert witness_length_bound_holds(k, Fraction(7, 3))


def test_witness_json_roundtrip(z2z3):
    import json
    w = witness_elliptic_pair(z2z3, 1, W("a"), W("b"))
    doc = json.loads(json.dumps(w.to_json_dict()))
    assert doc["case"] == "elliptic_elliptic"
    assert doc["power_used"] == 1
    assert doc["certified"] is True
