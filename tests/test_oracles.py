import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegroups.oracles import (OracleError, _cancelled, cyclic_decompose, make_cyclic,
                                make_free, make_free_abelian, make_table)
from treegroups.words import Word, WordError, shortlex

import unit_words
from conftest import _permutation_table, cyclic_table, random_word

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
    assert o2.canonical(W("a a")).is_empty
    o3 = make_cyclic(3, "b")
    assert o3.canonical(W("b b b")).is_empty
    assert not o3.canonical(W("b b")).is_empty
    o1 = make_cyclic(1, "t")
    assert o1.canonical(W("t^17")).is_empty


def test_cyclic_rejects_zero():
    with pytest.raises(OracleError):
        make_cyclic(0, "a")


def test_free_abelian_relations():
    o1 = make_free_abelian(1, ["t"])
    assert o1.canonical(W("t^3 t^-3")).is_empty
    o2 = make_free_abelian(2, ["x", "y"])
    assert o2.canonical(W("x y x^-1 y^-1")).is_empty
    assert o2.canonical(W("y x")) == W("x y")
    assert not o2.canonical(W("x y")).is_empty


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
    assert f.canonical(W("x x^-1")).is_empty
    assert not f.canonical(W("x y x^-1")).is_empty
    sub = f.designated_subgroup([W("x")])
    assert sub.split(W("x^5"))[0].is_empty
    assert not sub.split(W("x y"))[0].is_empty


def test_oracle_multiply_examples():
    assert make_cyclic(3, "b").canonical(W("b^2") * W("b^2")) == W("b")
    ab = make_free_abelian(2, ["x", "y"])
    assert ab.canonical(W("x y") * W("x^-1")) == W("y")
    f = make_free(2, ["x", "y"])
    assert f.canonical(W("x y") * W("y^-1 x")) == W("x^2")


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
            assert o.canonical(o.canonical(u * v) * w) == o.canonical(u * o.canonical(v * w))


def test_inverse_identity_1000_random_words():
    rng = random.Random(11)
    for o, _ in all_oracles():
        for _ in range(1000):
            u = random_word(rng, o.gen_names, 5)
            assert o.canonical(u * o.canonical(u.inverse())).is_empty


def test_table_enumeration_and_closure():
    o = make_table(*V4)
    elems = [o.canonical(Word.gen(g)) for g in o.gen_names]
    assert len(set(elems)) == o.order() == 4
    for u in elems:
        for v in elems:
            assert o.canonical(u * v) in elems


def test_table_validation_rejects_broken_tables():
    with pytest.raises(OracleError):  # no identity at index 0
        make_table(["e", "g"], [[1, 0], [0, 1]])
    with pytest.raises(OracleError):  # out-of-range entry
        make_table(["e", "g"], [[0, 1], [1, 2]])
    with pytest.raises(OracleError):  # not associative (and g lacks an inverse)
        make_table(["e", "g", "h"], [[0, 1, 2], [1, 1, 0], [2, 0, 0]])


def test_table_entries_must_be_int_element_indices():
    # 1.0 and True are equal to 1, so a range test alone lets them through
    for table in ([[0, 1.0], [1.0, 0]], [[0, True], [True, 0]], [[0, "1"], ["1", 0]],
                  [[0, 1], [1, None]]):
        with pytest.raises(OracleError, match="is not an element index 0..1"):
            make_table(["e", "g"], table)


def _changed(table, i, j, v):
    changed = [row[:] for row in table]
    changed[i][j] = v
    return changed


def test_table_with_one_entry_changed_is_rejected_at_every_order():
    # a group table is a Latin square, so no one-entry change is a group
    s3 = _permutation_table([(1, 0, 2), (1, 2, 0)], "s")[:2]
    for elements, table in (Z12, s3):
        m = len(elements)
        for i, j, v in itertools.product(range(m), range(m), range(m)):
            if v != table[i][j]:
                with pytest.raises(OracleError):
                    make_table(elements, _changed(table, i, j, v))
    # Z/100: row 20, column 1 set to 10 (e1's powers then cycle 10 -> ... ->
    # 20 -> 10 and never reach e0), and 120 seeded changes
    elements, table = cyclic_table(100, "e")
    rng = random.Random(26)
    changes = [(20, 1, 10)]
    while len(changes) <= 120:
        i, j, v = rng.randrange(100), rng.randrange(100), rng.randrange(100)
        if v != table[i][j]:
            changes.append((i, j, v))
    for i, j, v in changes:
        with pytest.raises(OracleError):
            make_table(elements, _changed(table, i, j, v))


def test_group_tables_load():
    # the fixtures' tables, D32 and cyclic tables on both sides of order 64;
    # rows may be tuples
    tables = [_permutation_table(gens, "p") for gens in (
        [(1, 2, 0, 3), (1, 0, 3, 2)],  # A4
        [(1, 0, 2, 3, 4), (1, 2, 0, 3, 4), (0, 1, 2, 4, 3)],  # S3 x Z/2
        [(1, 0, 3, 2, 4, 5, 6), (2, 3, 0, 1, 4, 5, 6), (0, 1, 2, 3, 5, 6, 4)],  # V x Z/3
        [tuple((i + 1) % 32 for i in range(32)), tuple(-i % 32 for i in range(32))])]  # D32
    tables += [V4, Z12] + [cyclic_table(n, "r") for n in (1, 4, 6, 8, 20, 64, 65, 500)]
    for elements, table, *_ in tables:
        o = make_table(elements, [tuple(row) for row in table])
        assert o.order() == len(elements)
    assert len(tables[3][0]) == 64  # D32, the symmetries of a 32-gon


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
        calls = [lambda: o.canonical(q), lambda: o.element_order(q),
                 lambda: o.designated_subgroup([q]), lambda: sub.split(q),
                 lambda: sub.conjugator_cosets(q), lambda: sub.conjugator_cosets(q, 0)]
        for call in calls:
            with pytest.raises(WordError) as exc:
                call()
            assert str(exc.value) == message


# -- designated subgroups -----------------------------------------------------

def test_transversal_property_deep_words():
    # every word w of length <= 5 sits in rep * <x>, rep = split(w)[0]
    f = make_free(2, ["x", "y"])
    sub = f.designated_subgroup([W("x")])
    rng = random.Random(3)
    for _ in range(300):
        w = random_word(rng, f.gen_names, 5, max_exp=1)
        r = sub.split(w)[0]
        assert sub.split(r.inverse() * w)[0].is_empty
        # same coset, same representative
        assert sub.split(w * W("x^3"))[0] == r
        assert sub.split(w * W("x^-2"))[0] == r


def test_transversal_reps_distinct_cosets():
    o = make_cyclic(6, "a")
    sub = o.designated_subgroup([W("a^2")])
    assert sub.index() == 2
    reps, complete = sub.transversal()
    assert complete and len(reps) == 2
    for i, r in enumerate(reps):
        assert sub.split(r)[0] == r
        for s in reps[i + 1:]:
            assert not sub.split(o.canonical(r.inverse() * s))[0].is_empty
    # reps cover every element
    for e in range(6):
        assert sub.split(W("a") ** e)[0] in reps


def test_residue_subgroup_split():
    o = make_cyclic(12, "r")
    sub = o.designated_subgroup([W("r^8"), W("r^6")])  # gcd(12, 8, 6) = 2
    assert sub.index() == 2
    assert sub.split(W("r^10"))[0].is_empty
    assert not sub.split(W("r^3"))[0].is_empty
    rep, cw = sub.split(W("r^10"))
    assert rep.is_empty and o.canonical(sub.embed(cw)) == o.canonical(W("r^10"))


def test_lattice_subgroup():
    ab = make_free_abelian(2, ["x", "y"])
    lat = ab.designated_subgroup([W("x^2"), W("y^3")])
    assert lat.index() == 6
    assert lat.split(W("x^2 y^-3"))[0].is_empty
    assert not lat.split(W("x y"))[0].is_empty
    rep, cw = lat.split(W("x^4 y^3"))
    assert rep.is_empty and ab.canonical(lat.embed(cw)) == ab.canonical(W("x^4 y^3"))
    reps, complete = lat.transversal()
    assert complete and len(reps) == 6
    # coordinate subgroup <x> has infinite index but decidable membership
    coord = ab.designated_subgroup([W("x")])
    assert coord.index() is None
    assert coord.split(W("x^5"))[0].is_empty
    assert not coord.split(W("x y"))[0].is_empty


@pytest.mark.parametrize("gens, index", [
    ([(4, 6), (6, 9)], None),  # both multiples of (2, 3)
    ([(2, 0), (1, 1)], 2),
    ([(0, -2), (3, 0)], 6),  # the pivot -2 is negated
    ([(6, 4), (4, 6), (2, 2)], 4),
])
def test_lattice_split_and_index_match_bruteforce(gens, index):
    # the row reduction meets each pivot column by a Euclidean exchange
    ab = make_free_abelian(2, ["x", "y"])
    lat = ab.designated_subgroup([W(f"x^{a} y^{b}") for a, b in gens])
    assert lat.index() == index
    members = {tuple(sum(c * g[i] for c, g in zip(cs, gens)) for i in range(2))
               for cs in itertools.product(range(-12, 13), repeat=len(gens))}
    box = list(itertools.product(range(-6, 7), repeat=2))
    reps = {}
    for p in box:
        x = W(f"x^{p[0]} y^{p[1]}")
        rep, cw = lat.split(x)
        assert ab.canonical(rep * lat.embed(cw)) == ab.canonical(x)
        assert rep.is_empty == (p in members)
        reps[p] = rep
    for p, q in itertools.combinations(box, 2):
        assert (reps[p] == reps[q]) == ((p[0] - q[0], p[1] - q[1]) in members)
    if index is not None:
        assert len(set(reps.values())) == index


def test_lattice_transversal_cap_at_index():
    # a cap equal to the index still returns a complete transversal
    lat = make_free_abelian(2, ["x", "y"]).designated_subgroup([W("x^2"), W("y^2")])
    reps, complete = lat.transversal(4)
    assert len(reps) == 4 and complete
    reps, complete = lat.transversal(3)
    assert len(reps) == 3 and not complete
    reps, complete = lat.transversal()
    assert len(reps) == 4 and complete


def test_lattice_transversal_repeats_are_equal_and_independent():
    z2 = make_free_abelian(2, ["x", "y"])
    for gens in (["x^2", "y^2"], ["x"]):  # finite and infinite index
        lat = z2.designated_subgroup([W(g) for g in gens])
        for cap in (None, 3, None, 3):
            reps, _ = lat.transversal(cap)
            reps.clear()  # must not reach the next call
            fresh = z2.designated_subgroup([W(g) for g in gens]).transversal(cap)
            assert lat.transversal(cap) == fresh


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


def _first_seen(sub, max_len):
    """The first word of each element of ``sub`` among the freely reduced
    edge words of at most ``max_len`` letters, in plain shortlex order."""
    seen, first = set(), []
    for cw in shortlex(range(len(sub.image_words)), max_len):
        if (c := sub.embed(cw)) not in seen:
            seen.add(c)
            first.append(cw)
    return first


def test_table_subgroup_lists_each_element_at_its_first_shortlex_word(
        request, a4_s3z2_table, z4z6_table):
    # cyclic tables of orders 1-40 with 1-3 random edge images, and both
    # sides of the permutation-table fixtures; the listed words are the
    # first-seen filter of plain shortlex, as far as the levels are walked
    rng = random.Random(44)
    subs = []
    for m in range(1, 41):
        o = make_table(*cyclic_table(m, "r"))
        for k in (1, 2, 3):
            subs.append(o.designated_subgroup([o._from_index(rng.randrange(m)) for _ in range(k)]))
    subs += [spec.subgroup(side) for spec in (a4_s3z2_table, z4z6_table) for side in "AB"]
    for sub in subs:
        max_len = 6 if len(sub.image_words) < 3 else 4
        assert [cw for cw in sub.words if len(cw) <= max_len] == _first_seen(sub, max_len)
        assert len({sub.embed(cw) for cw in sub.words}) == len(sub.words)


def test_coset_rep_is_identity_exactly_on_the_subgroup():
    # the split contract: y = rep * embed(cw), rep canonical, empty exactly on H
    rng = random.Random(13)
    for o, subgroups in all_oracles():
        for gens in subgroups:
            sub = o.designated_subgroup([W(g) for g in gens])
            for _ in range(100):
                y = random_word(rng, o.gen_names, 6)
                rep, cw = sub.split(y)
                assert o.canonical(rep * sub.embed(cw)) == o.canonical(y)
                assert sub.split(rep) == (rep, ())
                cw = [(rng.randrange(len(gens)), rng.randint(-3, 3)) for _ in gens]
                member = sub.embed(tuple(cw))
                rep, cw = sub.split(member)
                assert rep.is_empty and sub.embed(cw) == o.canonical(member)
                assert sub.split(o.canonical(y * member))[0] == sub.split(y)[0]


def test_transversal_and_conjugator_reps_are_canonical():
    # the coset tree appends these reps as syllables, so each must be its
    # own coset representative
    rng = random.Random(19)
    for o, subgroups in all_oracles():
        for gens in subgroups:
            sub = o.designated_subgroup([W(g) for g in gens])
            for cap in (None, 5):
                reps, _ = sub.transversal(cap)
                assert all(sub.split(t)[0] == t for t in reps)
            xs = [Word(), *sub.image_words]
            for _ in range(30):
                y = random_word(rng, o.gen_names, 4)
                cw = tuple((rng.randrange(len(gens)), rng.randint(-3, 3)) for _ in gens)
                xs += [y, o.canonical(y * sub.embed(cw) * y.inverse())]
            for x in xs:
                for cap in (None, 5):
                    sols, _ = sub.conjugator_cosets(x, cap)
                    assert all(sub.split(t)[0] == t for t in sols)



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
        if rep.is_empty:
            assert sub.embed(sub.split(y)[1]) == y


def test_free_cyclic_subgroup_general_word():
    f = make_free(2, ["x", "y"])
    sub = f.designated_subgroup([W("x y x^-1")])
    assert sub.split(W("x y^3 x^-1"))[0].is_empty
    assert not sub.split(W("y^3"))[0].is_empty
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
    assert sub.split(W("y x^3 y^-1").conjugated_by(t))[0].is_empty


def test_free_cyclic_conjugator_cosets_honour_cap():
    # x^40 is conjugated into <x^40> by the 40 cosets x^m <x^40>
    sub = make_free(2, ["x", "y"]).designated_subgroup([W("x^40")])
    full, complete = sub.conjugator_cosets(W("x^40"))
    assert complete and sorted(str(t) for t in full) == sorted(
        str(sub.split(W("x") ** m)[0]) for m in range(40))
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
        assert sub.split(W("x y x y").conjugated_by(t))[0].is_empty


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
        assert sub.split(x.conjugated_by(t))[0].is_empty
    scan, _ = sub.transversal(200)
    for t in scan[:200]:
        if sub.split(sub.oracle.canonical(x.conjugated_by(t)))[0].is_empty:
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
