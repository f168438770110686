import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegroups.oracles import make_cyclic, make_free, make_free_abelian, make_table
from treegroups.splitting import (HnnNotSupportedError, SpecError, SplittingSpec, load_spec,
                                  spec_from_dict)
from treegroups.tree import TreeVertex
from treegroups.words import Word, WordError, shortlex

from conftest import classify_elementarity, count_calls, random_word

W = Word.parse


def nf_word(spec, nf):
    """The element of a normal form as a plain word (tail via factor A)."""
    return TreeVertex("A", nf.syllables).rep_word() * spec.sub_a.embed(nf.tail)


def test_normal_form_alternating_example(z2z3):
    nf = z2z3.normal_form(W("a b a b^-1"))
    assert [str(s.word) for s in nf.syllables] == ["a", "b", "a", "b^2"]
    assert [s.side for s in nf.syllables] == ["A", "B", "A", "B"]
    assert len(nf.syllables) == 4
    assert z2z3.sub_a.embed(nf.tail).is_empty


def test_normal_form_trivial(z2z3):
    assert z2z3.is_trivial(W("a a"))
    assert len(z2z3.normal_form(Word()).syllables) == 0
    assert len(z2z3.normal_form(W("a b a")).syllables) == 3


def test_edge_generator_substitution(f2_amalgam):
    # the edge element c is identified with a: same normal form
    nf_c = f2_amalgam.normal_form(W("c"))
    assert nf_c == f2_amalgam.normal_form(W("a"))
    assert len(nf_c.syllables) == 0
    assert f2_amalgam.sub_a.embed(nf_c.tail) == W("a")
    # the abstract edge generator name works in input words too
    assert f2_amalgam.normal_form(W("t")) == nf_c


def test_normal_form_idempotent(z2z3, klein, f2_amalgam):
    rng = random.Random(5)
    for spec in (z2z3, klein, f2_amalgam):
        for _ in range(100):
            w = random_word(rng, spec.gen_names, 6)
            nf = spec.normal_form(w)
            again = spec.normal_form(nf_word(spec, nf))
            assert nf == again


DATA_SPECS = [load_spec(str(p))
              for p in sorted((Path(__file__).parent / "data").glob("*.json"))
              if "factors" in json.loads(p.read_text())]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extend_is_normal_form_of_product(z2z3, z3z4, z70z3, z2z2, triv_z5, f2,
                                          klein, f2_amalgam, z2_amalgam,
                                          z4z6_table, data):
    assert len(DATA_SPECS) == 3
    spec = data.draw(st.sampled_from([z2z3, z3z4, z70z3, z2z2, triv_z5, f2, klein,
                                      f2_amalgam, z2_amalgam, z4z6_table,
                                      *DATA_SPECS]))
    names = spec.gen_names + spec.edge_gens
    letters = st.tuples(st.sampled_from(names), st.integers(-3, 3).filter(bool))
    u = Word.of(data.draw(st.lists(letters, max_size=8)))
    z = Word.of(data.draw(st.lists(letters, max_size=8)))
    # v = u^-1 z cancels u's syllables one by one before building z's
    v = data.draw(st.sampled_from([z, u.inverse() * z]))
    got = spec.extend(spec.normal_form(u), spec.normal_form(v))
    want = spec.normal_form(u * v)
    assert got == want
    assert spec.sub_a.embed(got.tail) == spec.sub_a.embed(want.tail)


# Z/8 (a table) *_{r2 = s^3} Z/12: the sides spell the edge group Z/4
# differently, t^3 splitting as t^-1 in A and as t^3 in B
Z8_Z12 = SplittingSpec(
    "amalgam",
    make_table([f"r{i}" for i in range(8)], [[(i + j) % 8 for j in range(8)] for i in range(8)],
               group_id="A"),
    make_cyclic(12, "s", "B"), ["t"], [W("r2")], [W("s^3")])


def respell(data, spec, w):
    """w with 1 to 3 trivial words inserted at drawn places: x X(x^-1) for a
    factor letter x, X(x^-1) the factor's own spelling of its inverse, or
    image_A(t) image_B(t)^-1 for an edge generator t, or its inverse."""
    letters = list(w.letters)
    for _ in range(data.draw(st.integers(1, 3))):
        g = data.draw(st.sampled_from(spec.gen_names))
        x = Word.gen(g, data.draw(st.integers(-3, 3).filter(bool)))
        trivial = [x * spec.factor(spec._side_of[g]).canonical(x.inverse())]
        trivial += [(a * b.inverse()) ** sign for a, b in zip(spec.sub_a.image_words,
                                                             spec.sub_b.image_words)
                    for sign in (1, -1)]
        at = data.draw(st.integers(0, len(letters)))
        letters[at:at] = data.draw(st.sampled_from(trivial)).letters
    return Word.of(letters)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_two_spellings_of_an_element_have_one_form(z2z3, z3z4, z70z3, z2z2, triv_z5, f2,
                                                   klein, f2_amalgam, z2_amalgam,
                                                   z4z6_table, data):
    # the form is a plain record, so one element must have one form, tail
    # and all: every tail is the A-side split of its image.  Only Z8_Z12's
    # sides spell an edge element differently, so it gets half the draws.
    spec = data.draw(st.one_of(st.sampled_from([z2z3, z3z4, z70z3, z2z2, triv_z5, f2, klein,
                                                f2_amalgam, z2_amalgam, z4z6_table]),
                               st.just(Z8_Z12)))
    letters = st.tuples(st.sampled_from(spec.gen_names), st.integers(-3, 3).filter(bool))
    u, v = (Word.of(data.draw(st.lists(letters, max_size=8))) for _ in range(2))
    u2, v2 = respell(data, spec, u), respell(data, spec, v)
    for w, w2 in ((u, u2), (v, v2)):
        one, other = spec.normal_form(w), spec.normal_form(w2)
        assert one == other and hash(one) == hash(other)
    assert spec.normal_form(u * v) == spec.extend(spec.normal_form(u), spec.normal_form(v))
    assert spec.normal_form(u * v) == spec.extend(spec.normal_form(u2), spec.normal_form(v2))


def extend_pushes(spec, monkeypatch, u, v):
    """The pushes ``extend(nf(u), nf(v))`` makes, after checking its result."""
    nf_u, nf_v = spec.normal_form(u), spec.normal_form(v)
    pushes = count_calls(monkeypatch, SplittingSpec, "_push")
    got = spec.extend(nf_u, nf_v)
    monkeypatch.undo()
    assert got == spec.normal_form(u * v)
    return pushes


def test_extend_pushes_only_the_junction(f2, monkeypatch):
    # u ends on x's side with tail 1 and v's 40 syllables start on y's side:
    # nothing can cancel, so all 40 are appended as they stand
    u, v = W("x^2 y x"), W(" ".join(["y^3 x^-2"] * 20))
    assert len(f2.normal_form(v).syllables) == 40
    assert len(extend_pushes(f2, monkeypatch, u, v)) == 0


def test_extend_pushes_a_junction_that_cancels(f2, monkeypatch):
    # y cancels against y^-1 and x^2 merges with x into x^3; then the tail is
    # 1 and the stack ends on x's side, so the other 38 syllables are appended
    u, v = W("x^2 y"), W("y^-1 x " + " ".join(["y^3 x^-2"] * 19))
    assert len(f2.normal_form(v).syllables) == 40
    assert len(extend_pushes(f2, monkeypatch, u, v)) == 2


def test_extend_by_edge_powers_keeps_a_split_tail(f2_amalgam):
    # t^k has no syllables, so extend joins the tails: they are split again
    # rather than concatenated, and do not grow with the number of steps
    u, t = W("b d"), W("t")
    nf, nf_t = f2_amalgam.normal_form(u), f2_amalgam.normal_form(t)
    for k in range(1, 6):
        nf = f2_amalgam.extend(nf, nf_t)
        want = f2_amalgam.normal_form(u * t ** k)
        assert nf == want and nf.tail == want.tail == ((0, k),)


def test_normal_form_soundness_500_random(z2z3, z3z4, klein, f2_amalgam):
    rng = random.Random(6)
    for spec in (z2z3, z3z4, klein, f2_amalgam):
        for _ in range(500):
            w = random_word(rng, spec.gen_names, 6)
            assert spec.is_trivial(w * nf_word(spec, spec.normal_form(w)).inverse())


def test_normal_form_uniqueness(z2z3, klein, f2_amalgam):
    rng = random.Random(8)
    for spec in (z2z3, klein, f2_amalgam):
        for _ in range(200):
            u = random_word(rng, spec.gen_names, 5)
            v = random_word(rng, spec.gen_names, 5)
            same = spec.is_trivial(u * v.inverse())
            assert same == (spec.normal_form(u) == spec.normal_form(v))


def test_syllable_length_subadditive(z2z3, z3z4, klein, f2_amalgam):
    rng = random.Random(9)
    for spec in (z2z3, z3z4, klein, f2_amalgam):
        for _ in range(150):
            u = random_word(rng, spec.gen_names, 5)
            v = random_word(rng, spec.gen_names, 5)
            su = len(spec.normal_form(u).syllables)
            sv = len(spec.normal_form(v).syllables)
            assert len(spec.normal_form(u * v).syllables) <= su + sv


def test_elementarity(z2z3, z2z2, triv_z5, klein, f2_amalgam):
    assert classify_elementarity(z2z3).verdict == "non_elementary"
    assert classify_elementarity(z2z2).verdict == "linear_action"
    assert classify_elementarity(triv_z5).verdict == "elliptic_action"
    assert classify_elementarity(klein).verdict == "linear_action"
    assert classify_elementarity(f2_amalgam).verdict == "non_elementary"


def test_rank1_free_factor_with_a_negative_edge_image():
    # <a, b | a^-2 = b^2>: <a^-2> in Z = F(a) flips the sign of its Bezout
    # coefficient with the residue
    spec = SplittingSpec("amalgam", make_free(1, ["a"], "A"), make_free(1, ["b"], "B"),
                         ["t"], [W("a^-2")], [W("b^2")])
    assert spec.subgroup("A").index() == 2
    assert spec.sub_a.split(W("a^4")) == (Word(), ((0, -2),))
    assert spec.sub_a.split(W("a^-5")) == (W("a"), ((0, 3),))
    assert spec.is_trivial(W("a^2 b^2")) and not spec.is_trivial(W("a^2 b^-2"))
    nf = spec.normal_form(W("a^-3 b^4"))
    assert [str(s.word) for s in nf.syllables] == ["a"] and nf.tail == ((0, 4),)  # a^-7


def test_elementarity_amalgam_with_index_one():
    # A = C: the tree is a star around the B-vertex
    spec = SplittingSpec("amalgam", make_cyclic(2, "a", "A"),
                         make_cyclic(4, "b", "B"), ["t"], [W("a")], [W("b^2")])
    assert classify_elementarity(spec).verdict == "elliptic_action"


def test_hnn_rejected():
    with pytest.raises(HnnNotSupportedError):
        spec_from_dict({"kind": "hnn", "factors": []})
    with pytest.raises(HnnNotSupportedError):
        SplittingSpec("hnn", make_cyclic(2, "a", "A"), make_cyclic(3, "b", "B"))


def test_spec_from_dict_roundtrip():
    doc = {"kind": "amalgam",
           "factors": [{"type": "free", "rank": 1, "gens": ["a"]},
                       {"type": "free", "rank": 1, "gens": ["b"]}],
           "edge": {"generators": ["t"], "into_A": ["a^2"], "into_B": ["b^2"]},
           "declared_k": 7}
    spec = spec_from_dict(doc)
    assert spec.kind == "amalgam"
    assert spec.declared_k == 7
    assert spec.subgroup("A").index() == 2 and spec.subgroup("B").index() == 2
    # a table declaration's "gens" key is not part of the format and is ignored
    table = {"type": "table", "elements": ["e", "g"], "table": [[0, 1], [1, 0]]}
    for decl in (table, dict(table, gens=["x"])):
        spec = spec_from_dict({"kind": "free_product", "factors": [
            decl, {"type": "cyclic", "order": 3, "gens": ["b"]}]})
        nf = spec.normal_form(W("g b g g"))
        assert [str(s.word) for s in nf.syllables] == ["g", "b"] and not nf.tail


def test_spec_from_dict_errors():
    with pytest.raises(SpecError):
        spec_from_dict({"kind": "free_product", "factors": [
            {"type": "cyclic", "order": 2, "gens": ["a"]}]})
    with pytest.raises(SpecError):
        spec_from_dict({"kind": "free_product", "factors": [
            {"type": "quantum", "gens": ["a"]},
            {"type": "cyclic", "order": 2, "gens": ["b"]}]})
    with pytest.raises(SpecError):  # generator name collision across factors
        spec_from_dict({"kind": "free_product", "factors": [
            {"type": "cyclic", "order": 2, "gens": ["a"]},
            {"type": "cyclic", "order": 3, "gens": ["a"]}]})
    with pytest.raises(SpecError):
        SplittingSpec("amalgam", make_cyclic(2, "a", "A"),
                      make_cyclic(3, "b", "B"), ["t"], [W("a")], [])


def test_edge_identification_sanity_check():
    # identifying Z/2 with Z/3 must fail: t^2 is trivial on one side only
    with pytest.raises(SpecError):
        SplittingSpec("amalgam", make_cyclic(2, "a", "A"),
                      make_cyclic(3, "b", "B"), ["t"], [W("a")], [W("b")])


def _amalgam(factor_a, factor_b, into_a, into_b):
    gens = ["p", "q", "s"][:len(into_a)]
    return SplittingSpec("amalgam", factor_a, factor_b, gens,
                         [W(w) for w in into_a], [W(w) for w in into_b])


V4 = (["e", "i", "j", "k"], [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


@pytest.mark.parametrize("factors, into_a, into_b", [
    # a has infinite order, c has order 5: c^5 was trivial on one side only
    ((make_free(2, ["a", "b"], "A"), make_cyclic(5, "c", "B")), ["a"], ["c"]),
    # p^7 q^-5 (12 letters) is trivial in B only
    ((make_free_abelian(2, ["x", "y"], "A"), make_free_abelian(2, ["u", "v"], "B")),
     ["x", "y"], ["u^5", "u^7"]),
    # q^2 is trivial in A only
    ((make_cyclic(12, "r", "A"), make_cyclic(6, "s", "B")), ["r^4", "r^6"], ["s^2", "s^2"]),
    # p^3 q^-2 is trivial in A only
    ((make_free(1, ["a"], "A"), make_free(1, ["b"], "B")), ["a^2", "a^3"], ["b^2", "b^4"]),
    # the table sides: (p q)^2 is trivial in A only, and Z is not finite
    ((make_table(*V4, group_id="A"), make_cyclic(4, "s", "B")), ["i", "j"], ["s^2", "s^2"]),
    ((make_table(*V4, group_id="A"), make_free(1, ["b"], "B")), ["i", "j"], ["b", "b^2"]),
    ((make_cyclic(3, "r", "A"), make_table(*V4, group_id="B")), ["r", "1"], ["i", "j"]),
], ids=["f2_z5", "z2_u5_u7", "z12_z6", "z_z", "v4_z4", "v4_z", "z3_v4"])
def test_edge_maps_with_different_kernels_are_input_errors(factors, into_a, into_b):
    with pytest.raises(SpecError, match="do not identify isomorphic subgroups"):
        _amalgam(*factors, into_a, into_b)


@pytest.mark.parametrize("factors, into_a, into_b", [
    ((make_cyclic(12, "r", "A"), make_cyclic(6, "s", "B")), ["r^4", "r^6"], ["s^2", "s^3"]),
    ((make_free(1, ["a"], "A"), make_free(1, ["b"], "B")), ["a^2", "a^3"], ["b^2", "b^3"]),
    ((make_cyclic(10 ** 9, "r", "A"), make_cyclic(10 ** 9, "s", "B")), ["r", "r^2"], ["s", "s^2"]),
    ((make_free_abelian(2, ["x", "y"], "A"), make_cyclic(1, "s", "B")), ["1", "1"], ["1", "s"]),
    ((make_free_abelian(2, ["x", "y"], "A"), make_free_abelian(3, ["u", "v", "w"], "B")),
     ["x y", "x^2 y^2", "y"], ["u^3 w", "u^6 w^2", "v"]),
    ((make_table(*V4, group_id="A"), make_cyclic(2, "s", "B")), ["i", "i"], ["s", "s^3"]),
    ((make_cyclic(6, "r", "A"), make_table(*V4, group_id="B")), ["r^3", "1", "r^3"], ["i", "e", "i"]),
], ids=["z12_z6", "z_z", "z1e9", "trivial", "z2_z3", "v4_z2", "z6_v4"])
def test_edge_maps_with_one_kernel_load(factors, into_a, into_b):
    # the bounded check that the exact one replaces agrees
    spec = _amalgam(*factors, into_a, into_b)
    for cw in shortlex(range(len(into_a)), 4):
        assert spec.sub_a.embed(cw).is_empty == spec.sub_b.embed(cw).is_empty


def test_foreign_generator_rejected(z2z3, f2):
    # a free product has no edge letter to substitute, so resolve_word returns
    # a word of its own letters as it is, and rejects any other
    for spec, word in ((z2z3, "q"), (z2z3, "a b q"), (f2, "x q^2 y")):
        with pytest.raises(WordError, match="generator 'q' is foreign to this splitting"):
            spec.normal_form(W(word))


def test_the_identity_splits_as_itself(request):
    # _form returns a form with an empty tail as it is, since every
    # designated subgroup splits the identity as (1, ()): free-cyclic,
    # residue, table and lattice subgroups, and the trivial ones of free products
    kinds = set()
    for spec in [request.getfixturevalue(name) for name in (
            "z2z3", "z3z4", "z70z3", "z2z2", "triv_z5", "f2", "klein", "f2_amalgam",
            "z2_amalgam", "z4z6_table", "a4_s3z2_table")] + DATA_SPECS:
        for sub in (spec.sub_a, spec.sub_b):
            assert sub._split(sub.embed(())) == (Word(), ())
            kinds.add(type(sub).__name__)
    assert kinds == {"_FreeCyclicSubgroup", "_ResidueSubgroup", "_TableSubgroup",
                     "_LatticeSubgroup"}


def test_foreign_generator_rejected_by_parse_word_and_normal_form(f2_amalgam):
    for call in (lambda: f2_amalgam.parse_word("a q"),
                 lambda: f2_amalgam.normal_form(W("a q"))):
        with pytest.raises(WordError) as exc:
            call()
        assert str(exc.value) == "generator 'q' is foreign to this splitting"


def test_declared_k_validation():
    with pytest.raises(SpecError):
        SplittingSpec("free_product", make_cyclic(2, "a", "A"),
                      make_cyclic(3, "b", "B"), declared_k=-1)
