import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegroups.oracles import (OracleError, _cancelled, cyclic_decompose, make_cyclic,
                                make_free, make_free_abelian, make_table)
from treegroups.words import Word, WordError

import unit_words
from conftest import random_word

W = Word.parse

# Klein four-group as a multiplication table (identity first)
V4 = (["e", "i", "j", "k"],
      [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
# Z/12 as a multiplication table
Z12 = (["e"] + [f"a{i}" for i in range(1, 12)],
       [[(i + j) % 12 for j in range(12)] for i in range(12)])


def all_oracles():
    """Every oracle kind, each with generator lists of its designated
    subgroups: residue (Z/n and Z), table, lattice (finite and infinite
    index), free cyclic, and the trivial subgroup."""
    return [
        (make_cyclic(2, "a"), [[], ["a"]]),
        (make_cyclic(3, "b"), [[], ["b"]]),
        (make_cyclic(1, "t"), [[], ["t"]]),
        (make_cyclic(12, "r"), [[], ["r^8", "r^6"], ["r^3"]]),
        (make_free_abelian(2, ["x", "y"]),
         [[], ["x^2", "y^2"], ["x^2", "y^3"], ["x"], ["x y^2"]]),
        (make_free(2, ["x", "y"]),
         [[], ["x"], ["x y x^-1"], ["x y x y"], ["y^-1 x^3 y"]]),
        (make_free(1, ["z"]), [[], ["z^3"]]),
        (make_table(*V4), [[], ["i"], ["i", "j"]]),
        (make_table(*Z12), [[], ["a6"], ["a4"], ["a8", "a6"]]),
    ]


# -- constructor examples ----------------------------------------------------

def test_cyclic_orders():
    o2 = make_cyclic(2, "a")
    assert o2.is_identity(W("a a"))
    o3 = make_cyclic(3, "b")
    assert o3.is_identity(W("b b b"))
    assert not o3.is_identity(W("b b"))
    o1 = make_cyclic(1, "t")
    assert o1.is_identity(W("t^17"))


def test_cyclic_rejects_zero():
    with pytest.raises(OracleError):
        make_cyclic(0, "a")


def test_free_abelian_relations():
    o1 = make_free_abelian(1, ["t"])
    assert o1.is_identity(W("t^3 t^-3"))
    o2 = make_free_abelian(2, ["x", "y"])
    assert o2.is_identity(W("x y x^-1 y^-1"))
    assert o2.canonical(W("y x")) == W("x y")
    assert not o2.is_identity(W("x y"))


def test_duplicate_generators_rejected():
    with pytest.raises(OracleError):
        make_free_abelian(2, ["x", "x"])
    with pytest.raises(OracleError):
        make_free(2, ["x", "x"])


def test_generator_name_validation():
    make_free(1, ["a_1"])
    for bad in ("1a", ""):
        with pytest.raises(OracleError):
            make_free(1, [bad])


def test_free_reduction_and_membership():
    f = make_free(2, ["x", "y"])
    assert f.is_identity(W("x x^-1"))
    assert not f.is_identity(W("x y x^-1"))
    sub = f.designated_subgroup([W("x")])
    assert sub.contains(W("x^5"))
    assert not sub.contains(W("x y"))


def test_oracle_multiply_examples():
    assert make_cyclic(3, "b").multiply(W("b^2"), W("b^2")) == W("b")
    ab = make_free_abelian(2, ["x", "y"])
    assert ab.multiply(W("x y"), W("x^-1")) == W("y")
    f = make_free(2, ["x", "y"])
    assert f.multiply(W("x y"), W("y^-1 x")) == W("x^2")


def test_exponents_do_not_overflow():
    f = make_free(1, ["z"])
    big = W("z") ** (10 ** 30)
    assert f.canonical(big * W("z^-1")).letters == (("z", 10 ** 30 - 1),)


# -- invariants ---------------------------------------------------------------

def test_associativity_random_triples():
    rng = random.Random(7)
    for o, _ in all_oracles():
        for _ in range(120):
            u, v, w = (random_word(rng, o.gen_names, 6) for _ in range(3))
            assert o.multiply(o.multiply(u, v), w) == o.multiply(u, o.multiply(v, w))


def test_inverse_identity_1000_random_words():
    rng = random.Random(11)
    for o, _ in all_oracles():
        for _ in range(1000):
            u = random_word(rng, o.gen_names, 5)
            assert o.is_identity(o.multiply(u, o.invert(u)))


def test_table_enumeration_and_closure():
    o = make_table(*V4)
    elems = list(o.enumerate_elements())
    assert len(elems) == o.order() == 4
    keys = {o.canonical(e).letters for e in elems}
    for u in elems:
        for v in elems:
            assert o.canonical(o.multiply(u, v)).letters in keys


def test_table_validation_rejects_broken_tables():
    with pytest.raises(OracleError):  # no identity at index 0
        make_table(["e", "g"], [[1, 0], [0, 1]])
    with pytest.raises(OracleError):  # out-of-range entry
        make_table(["e", "g"], [[0, 1], [1, 2]])
    with pytest.raises(OracleError):  # not associative (and g lacks an inverse)
        make_table(["e", "g", "h"], [[0, 1, 2], [1, 1, 0], [2, 0, 0]])


def test_element_orders():
    assert make_cyclic(12, "r").element_order(W("r^4")) == 3
    assert make_cyclic(12, "r").element_order(W("r^5")) == 12
    assert make_table(*V4).element_order(W("i")) == 2
    assert make_free(2, ["x", "y"]).element_order(W("x y")) is None
    assert make_free_abelian(2, ["x", "y"]).element_order(W("x")) is None
    assert make_free(1, ["z"]).element_order(Word()) == 1


def test_foreign_generator_rejected():
    o = make_cyclic(2, "a")
    with pytest.raises(WordError):
        o.canonical(W("b"))


def test_foreign_generator_rejected_at_every_entry_point():
    # internal code trusts the words it builds; these are where words enter
    oracles = [(make_cyclic(6, "a", "A"), "a^2"), (make_free(1, ["z"], "A"), "z^2"),
               (make_free(2, ["x", "y"], "A"), "x y"), (make_table(*V4, group_id="A"), "i"),
               (make_free_abelian(2, ["x", "y"], "A"), "x")]
    q = W("q")
    for o, image in oracles:
        message = f"generator 'q' is foreign to {o.kind} group 'A'"
        sub = o.designated_subgroup([W(image)])
        calls = [lambda: o.canonical(q), lambda: o.is_identity(q),
                 lambda: o.multiply(q, Word()), lambda: o.multiply(Word(), q),
                 lambda: o.invert(q), lambda: o.element_order(q),
                 lambda: o.designated_subgroup([q]), lambda: sub.split(q),
                 lambda: sub.contains(q), lambda: sub.coset_rep(q),
                 lambda: sub.conjugator_cosets(q), lambda: sub.conjugator_cosets(q, 0)]
        for call in calls:
            with pytest.raises(WordError) as exc:
                call()
            assert str(exc.value) == message


# -- designated subgroups -----------------------------------------------------

def test_transversal_property_deep_words():
    # every word of length <= 5 sits in coset_rep(w) * <x>
    f = make_free(2, ["x", "y"])
    sub = f.designated_subgroup([W("x")])
    rng = random.Random(3)
    for _ in range(300):
        w = random_word(rng, f.gen_names, 5, max_exp=1)
        r = sub.coset_rep(w)
        assert sub.contains(r.inverse() * w)
        # same coset, same representative
        assert sub.coset_rep(w * W("x^3")) == r
        assert sub.coset_rep(w * W("x^-2")) == r


def test_transversal_reps_distinct_cosets():
    o = make_cyclic(6, "a")
    sub = o.designated_subgroup([W("a^2")])
    assert sub.index() == 2
    reps, complete = sub.transversal()
    assert complete and len(reps) == 2
    for i, r in enumerate(reps):
        assert sub.coset_rep(r) == r
        for s in reps[i + 1:]:
            assert not sub.contains(o.multiply(o.invert(r), s))
    # reps cover every element
    for e in o.enumerate_elements():
        assert sub.coset_rep(e) in reps


def test_residue_subgroup_split():
    o = make_cyclic(12, "r")
    sub = o.designated_subgroup([W("r^8"), W("r^6")])  # gcd(12, 8, 6) = 2
    assert sub.index() == 2
    assert sub.contains(W("r^10"))
    assert not sub.contains(W("r^3"))
    rep, cw = sub.split(W("r^10"))
    assert rep.is_empty and o.canonical(sub.embed(cw)) == o.canonical(W("r^10"))


def test_lattice_subgroup():
    ab = make_free_abelian(2, ["x", "y"])
    lat = ab.designated_subgroup([W("x^2"), W("y^3")])
    assert lat.index() == 6
    assert lat.contains(W("x^2 y^-3"))
    assert not lat.contains(W("x y"))
    rep, cw = lat.split(W("x^4 y^3"))
    assert rep.is_empty and ab.canonical(lat.embed(cw)) == ab.canonical(W("x^4 y^3"))
    reps, complete = lat.transversal()
    assert complete and len(reps) == 6
    # coordinate subgroup <x> has infinite index but decidable membership
    coord = ab.designated_subgroup([W("x")])
    assert coord.index() is None
    assert coord.contains(W("x^5"))
    assert not coord.contains(W("x y"))


def test_lattice_transversal_cap_at_index():
    # a cap equal to the index still returns a complete transversal
    lat = make_free_abelian(2, ["x", "y"]).designated_subgroup([W("x^2"), W("y^2")])
    reps, complete = lat.transversal(4)
    assert len(reps) == 4 and complete
    reps, complete = lat.transversal(3)
    assert len(reps) == 3 and not complete
    reps, complete = lat.transversal()
    assert len(reps) == 4 and complete


def test_lattice_transversal_is_built_once_per_cap(monkeypatch):
    z2 = make_free_abelian(2, ["x", "y"])
    for gens in (["x^2", "y^2"], ["x"]):  # finite and infinite index
        lat = z2.designated_subgroup([W(g) for g in gens])
        builds = []
        cosets = lat.cosets
        monkeypatch.setattr(lat, "cosets", lambda: builds.append(1) or cosets())
        for cap in (None, 3, None, 3):
            reps, _ = lat.transversal(cap)
            reps.clear()  # must not reach the next call
            fresh = z2.designated_subgroup([W(g) for g in gens]).transversal(cap)
            assert lat.transversal(cap) == fresh
        assert len(builds) == 2  # one build per cap


def test_table_transversal_is_read_off_the_splits():
    for elements, table, gens in [(*V4, []), (*V4, ["i"]), (*V4, ["i", "j"]),
                                  (*Z12, ["a6"])]:
        o = make_table(elements, table)
        sub = o.designated_subgroup([W(g) for g in gens])
        group = {0} | {elements.index(g) for g in gens}
        for _ in elements:  # close under products
            group |= {table[a][b] for a in group for b in group}
        # one rep per coset, the least index x*h, listed by first element index
        scan = list(dict.fromkeys(min(table[x][h] for h in group) for x in range(len(elements))))
        for cap in (None, 2):
            expected = [o._from_index(i) for i in scan][:cap]
            reps, complete = sub.transversal(cap)
            assert reps == expected and complete == (len(expected) == len(scan))
            reps.clear()  # must not reach the next call
            assert sub.transversal(cap) == (expected, complete)


def test_coset_rep_is_identity_exactly_on_the_subgroup():
    # the split contract: y = rep * embed(cw), rep canonical, empty exactly on H
    rng = random.Random(13)
    for o, subgroups in all_oracles():
        for gens in subgroups:
            sub = o.designated_subgroup([W(g) for g in gens])
            for _ in range(100):
                y = random_word(rng, o.gen_names, 6)
                rep, cw = sub.split(y)
                assert o.multiply(rep, sub.embed(cw)) == o.canonical(y)
                assert sub.split(rep) == (rep, ())
                assert sub.coset_rep(y).is_empty == sub.contains(y)
                cw = [(rng.randrange(len(gens)), rng.randint(-3, 3)) for _ in gens]
                member = sub.embed(tuple(cw))
                assert sub.contains(member) and sub.coset_rep(member).is_empty
                rep, cw = sub.split(member)
                assert rep.is_empty and sub.embed(cw) == o.canonical(member)
                assert sub.coset_rep(o.multiply(y, member)) == sub.coset_rep(y)


def test_transversal_and_conjugator_reps_are_canonical():
    # the coset tree appends these reps as syllables, so each must be its
    # own coset_rep
    rng = random.Random(19)
    for o, subgroups in all_oracles():
        for gens in subgroups:
            sub = o.designated_subgroup([W(g) for g in gens])
            for cap in (None, 5):
                reps, _ = sub.transversal(cap)
                assert all(sub.coset_rep(t) == t for t in reps)
            xs = [Word(), *sub.image_words]
            for _ in range(30):
                y = random_word(rng, o.gen_names, 4)
                cw = tuple((rng.randrange(len(gens)), rng.randint(-3, 3)) for _ in gens)
                xs += [y, o.multiply(o.multiply(y, sub.embed(cw)), o.invert(y))]
            for x in xs:
                for cap in (None, 5):
                    sols, _ = sub.conjugator_cosets(x, cap)
                    assert all(sub.coset_rep(t) == t for t in sols)



def test_identity_conjugators_are_the_transversal():
    # every coset conjugates 1 into the subgroup, the trivial subgroup included
    for o, subgroups in all_oracles():
        for gens in subgroups:
            sub = o.designated_subgroup([W(g) for g in gens])
            for cap in (None, 0, 5, sub.index()):
                assert sub.conjugator_cosets(Word(), cap) == sub.transversal(cap)
                assert cap is None or len(sub.transversal(cap)[0]) <= cap

def bruteforce_reduce(sub, x):
    """(k, x w^k) of least shortlex key over the window |k| <= (|x| + |w|)/|core| + 2."""
    span = (x.letter_length() + sub.w.letter_length()) // sub.core.letter_length() + 2
    return min(((k, x * sub.w ** k) for k in range(-span, span + 1)),
               key=lambda kr: unit_words.shortlex_key(sub.oracle.gen_names, kr[1]))


free_words = st.lists(st.tuples(st.sampled_from("xy"), st.integers(-4, 4).filter(bool)),
                      max_size=8).map(Word.of)


@settings(max_examples=400, deadline=None)
@given(w=st.sampled_from(["x", "y^-1", "x y", "x^2", "x y x y", "x y x^-1",
                          "y^-1 x^3 y", "x y^-1 x y^-1 x y^-1", "x^2 y x^-2 y"]),
       x=free_words, k=st.integers(-5, 5))
def test_free_cyclic_reduction_matches_bruteforce(w, x, k):
    sub = make_free(2, ["x", "y"]).designated_subgroup([W(w)])
    for y in (x, x * sub.w ** k, sub.w ** k):
        k_ref, rep = bruteforce_reduce(sub, y)
        assert sub.split(y) == (rep, ((0, -k_ref),) if k_ref else ())
        assert sub.coset_rep(y) == rep
        assert sub.contains(y) == rep.is_empty
        if rep.is_empty:
            assert sub.embed(sub.split(y)[1]) == y


def test_free_cyclic_subgroup_general_word():
    f = make_free(2, ["x", "y"])
    sub = f.designated_subgroup([W("x y x^-1")])
    assert sub.contains(W("x y^3 x^-1"))
    assert not sub.contains(W("y^3"))
    assert sub.split(W("x y^-2 x^-1")) == (Word(), ((0, -2),))
    with pytest.raises(OracleError):
        f.designated_subgroup([W("x"), W("y")])


def test_free_cyclic_conjugator_cosets():
    f = make_free(2, ["x", "y"])
    sub = f.designated_subgroup([W("x")])
    # conjugators pushing x^2 into <x>: exactly the coset of the identity
    reps, complete = sub.conjugator_cosets(W("x^2"))
    assert complete and reps == [Word()]
    # nothing conjugates y into <x>
    reps, complete = sub.conjugator_cosets(W("y"))
    assert complete and reps == []
    # t^-1 (y x y^-1) t lands in <x> exactly for t in y^-1 <x>
    reps, complete = sub.conjugator_cosets(W("y x^3 y^-1"))
    assert complete and len(reps) == 1
    t = reps[0]
    assert sub.contains(W("y x^3 y^-1").conjugated_by(t))


def test_free_cyclic_conjugator_cosets_honour_cap():
    # x^40 is conjugated into <x^40> by the 40 cosets x^m <x^40>
    sub = make_free(2, ["x", "y"]).designated_subgroup([W("x^40")])
    full, complete = sub.conjugator_cosets(W("x^40"))
    assert complete and sorted(str(t) for t in full) == sorted(
        str(sub.coset_rep(W("x") ** m)) for m in range(40))
    for cap in (0, 2, 16, 39):
        assert sub.conjugator_cosets(W("x^40"), cap) == (full[:cap], False)
    for cap in (40, 41):
        assert sub.conjugator_cosets(W("x^40"), cap) == (full, True)


def test_free_cyclic_conjugators_of_proper_power_root():
    f = make_free(2, ["x", "y"])
    # <(xy)^2>: conjugator cosets come in root-of-w classes
    sub = f.designated_subgroup([W("x y x y")])
    reps, complete = sub.conjugator_cosets(W("x y x y"))
    assert complete and len(reps) == 2  # e and (xy) lie in distinct <(xy)^2>-cosets
    for t in reps:
        assert sub.contains(W("x y x y").conjugated_by(t))


@settings(max_examples=150, deadline=None)
@given(w=st.sampled_from(["x", "y^-1", "x y", "x^2", "x y x y", "x y x^-1",
                          "y^-1 x^3 y"]),
       x=free_words, k=st.integers(-3, 3).filter(bool), conjugate=st.booleans())
def test_free_cyclic_conjugator_cosets_match_transversal_scan(w, x, k, conjugate):
    sub = make_free(2, ["x", "y"]).designated_subgroup([W(w)])
    if conjugate:  # x w^k x^-1 has conjugators into <w>
        x = x * sub.w ** k * x.inverse()
    if sub.oracle.canonical(x).is_empty:
        return
    reps, complete = sub.conjugator_cosets(x)
    assert complete
    for t in reps:
        assert sub.contains(x.conjugated_by(t))
    scan, _ = sub.transversal(200)
    for t in scan[:200]:
        if sub.contains(sub.oracle.canonical(x.conjugated_by(t))):
            assert t in reps


def test_cyclic_word_utilities():
    prefix, core = cyclic_decompose(W("x y x^-1"))
    assert prefix == W("x")
    assert core == W("y")
    assert cyclic_decompose(W("x^3 y x^-2")) == (W("x^2"), W("x y"))
    assert cyclic_decompose(W("x^-2 y^5 x^2")) == (W("x^-2"), W("y^5"))


# letter-level free-word code against the unit-letter references in unit_words,
# on exponents up to +-50; edge words include proper powers and conjugated cores
def big_free_words(max_letters):
    return st.lists(st.tuples(st.sampled_from("xy"), st.integers(-50, 50).filter(bool)),
                    max_size=max_letters).map(Word.of)


edge_words = st.one_of(
    st.sampled_from(["x", "y^-1", "x y", "x^2", "x y x y", "x y x^-1", "y^-1 x^3 y",
                     "x y^-1 x y^-1 x y^-1", "x^2 y x^-2 y", "x^3", "y x^2 y x^2 y x^2",
                     "x^2 y^-1 x^-3 y x^-2"]).map(W),
    st.builds(lambda core, s, p: p * core ** s * p.inverse(),
              big_free_words(3).filter(lambda w: not w.is_empty), st.integers(1, 3),
              big_free_words(4)))


def _cmp(a, b):
    return (a > b) - (a < b)


@settings(max_examples=300, deadline=None)
@given(u=big_free_words(6), v=big_free_words(6))
def test_free_shortlex_key_matches_unit_order(u, v):
    o = make_free(2, ["x", "y"])
    ref = [unit_words.shortlex_key(o.gen_names, w) for w in (u, v)]
    assert _cmp(o._shortlex_key(u), o._shortlex_key(v)) == _cmp(*ref)
    # equal-length words that first differ inside a run
    for a, b in ((u * W("x^2 y"), u * W("x^3")), (u * W("y^-2 x"), u * W("y^-3"))):
        assert _cmp(o._shortlex_key(a), o._shortlex_key(b)) == _cmp(
            unit_words.shortlex_key(o.gen_names, a), unit_words.shortlex_key(o.gen_names, b))


@settings(max_examples=300, deadline=None)
@given(w=edge_words)
def test_cyclic_decompose_matches_units(w):
    prefix, core = cyclic_decompose(w)
    ref = unit_words.cyclic_decompose(unit_words.word_units(w))
    assert (unit_words.word_units(prefix), unit_words.word_units(core)) == ref
    assert prefix * core * prefix.inverse() == w


@settings(max_examples=300, deadline=None)
@given(w=edge_words, x=big_free_words(4), k=st.integers(0, 4), cut=st.integers(0, 3),
       z=big_free_words(2))
def test_cancelled_matches_units(w, x, k, cut, z):
    # y ends in part of a c^-1, then c^-k, so the walk crosses the period
    # boundaries, where c's last and first letters may merge
    c = cyclic_decompose(w)[1]
    head = Word(c.letters[:cut]).inverse() * c.inverse() ** k
    for y in (x * head, x * head * z, head):
        assert _cancelled(y, c) == unit_words.cancelled(y, unit_words.word_units(c))


@settings(max_examples=300, deadline=None)
@given(w=edge_words, x=big_free_words(6), k=st.integers(-60, 60))
def test_free_cyclic_split_matches_units(w, x, k):
    sub = make_free(2, ["x", "y"]).designated_subgroup([w])
    for y in (x, x * w ** k, w ** k, x * w ** k * x.inverse()):
        assert sub.split(y) == unit_words.split(sub, y)


@settings(max_examples=200, deadline=None)
@given(w=edge_words, x=big_free_words(6), k=st.integers(-6, 6).filter(bool))
def test_free_cyclic_conjugator_cosets_match_units(w, x, k):
    sub = make_free(2, ["x", "y"]).designated_subgroup([w])
    for y in (x, x * w ** k * x.inverse(), x * sub.core ** k * x.inverse()):
        if not y.is_empty:
            reps, complete = sub.conjugator_cosets(y)
            assert complete and reps == unit_words.conjugator_cosets(sub, y)
