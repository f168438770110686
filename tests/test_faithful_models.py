"""Cross-validation of the word problem against faithful external models.

Each sample splitting here is isomorphic to a group with an independently
computable word problem: Z/2 * Z/3 is PSL(2, Z), the central-edge amalgam
<a, b | a^2 = b^2> is the Klein bottle group (a planar crystallographic
group), and the F2 *_<a>=<c> F2 amalgam is free of rank 3.  Triviality
through the normal-form machinery must agree with the model verdicts on
random words.
"""

import random

from treegroups.oracles import make_cyclic, make_free, make_free_abelian, make_table
from treegroups.splitting import SplittingSpec, classify_elementarity
from treegroups.tree import base_vertex, classify, fixed_set
from treegroups.words import Word

from conftest import random_word

W = Word.parse


# -- Z/2 * Z/3 = PSL(2, Z) -------------------------------------------------------

S = ((0, -1), (1, 0))    # order 2 in PSL(2, Z)
U = ((0, -1), (1, -1))   # order 3 in PSL(2, Z)


def mat_mul(m, n):
    return ((m[0][0] * n[0][0] + m[0][1] * n[1][0],
             m[0][0] * n[0][1] + m[0][1] * n[1][1]),
            (m[1][0] * n[0][0] + m[1][1] * n[1][0],
             m[1][0] * n[0][1] + m[1][1] * n[1][1]))


def psl2_of(w: Word):
    out = ((1, 0), (0, 1))
    table = {"a": S, "b": U}
    for name, exp in w.letters:
        m = table[name]
        for _ in range(exp % (2 if name == "a" else 3)):
            out = mat_mul(out, m)
    return out


def psl2_trivial(w: Word) -> bool:
    m = psl2_of(w)
    return m in (((1, 0), (0, 1)), ((-1, 0), (0, -1)))


def test_z2z3_matches_psl2(z2z3):
    rng = random.Random(41)
    trivial_seen = 0
    for _ in range(600):
        w = random_word(rng, z2z3.gen_names, 7)
        lib = z2z3.is_trivial(w)
        assert lib == psl2_trivial(w), str(w)
        trivial_seen += lib
    # conjugated relators keep the comparison honest on the trivial side
    for _ in range(60):
        u = random_word(rng, z2z3.gen_names, 4)
        for relator in (W("a a"), W("b b b")):
            w = u * relator * u.inverse()
            assert z2z3.is_trivial(w) and psl2_trivial(w)


# -- <a, b | a^2 = b^2>: the Klein bottle group -----------------------------------

def klein_affine_of(w: Word):
    """Glide reflections a: (u,v) -> (u+1, -v) and b: (u,v) -> (u+1, 1-v);
    a map (d, s, c) acts as (u, v) -> (u + d, s*v + c).  The image group is
    the crystallographic Klein bottle group, and surjections between
    finitely generated residually finite groups of the same presentation
    are isomorphisms, so triviality transfers faithfully."""
    d, s, c = 0, 1, 0
    for name, exp in w.letters:
        ld, ls, lc = (1, -1, 0) if name == "a" else (1, -1, 1)
        if exp < 0:
            ld, lc = -ld, -ls * lc
        for _ in range(abs(exp)):
            # accumulate F <- F o letter: (d+ld, s*ls, s*lc + c)
            d, s, c = d + ld, s * ls, s * lc + c
    return d, s, c


def klein_trivial(w: Word) -> bool:
    return klein_affine_of(w) == (0, 1, 0)


def test_klein_relation_holds_in_model():
    assert klein_trivial(W("a^2 b^-2"))
    assert not klein_trivial(W("a b^-1"))
    assert not klein_trivial(W("a^2"))


def test_klein_matches_affine_model(klein):
    rng = random.Random(42)
    for _ in range(600):
        w = random_word(rng, klein.gen_names, 7)
        assert klein.is_trivial(w) == klein_trivial(w), str(w)
    for _ in range(60):
        u = random_word(rng, klein.gen_names, 4)
        w = u * W("a^2 b^-2") * u.inverse()
        assert klein.is_trivial(w) and klein_trivial(w)


# -- F2 *_<a>=<c> F2 is free on {a, b, d} -----------------------------------------

def test_f2_amalgam_matches_free_rank3(f2_amalgam):
    free3 = make_free(3, ["a", "b", "d"])
    rng = random.Random(43)
    for _ in range(600):
        w = random_word(rng, f2_amalgam.gen_names, 7)
        substituted = Word.of(
            (("a" if name == "c" else name), exp) for name, exp in w.letters)
        assert f2_amalgam.is_trivial(w) == free3.canonical(substituted).is_empty, str(w)


# -- amalgams over table and free-abelian factors ---------------------------------

def test_table_factor_amalgam():
    # Z/4 (as a table) amalgamated with Z/6 over Z/2: r^2 = s^3
    z4 = (["e", "r", "r2", "r3"],
          [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]])
    spec = SplittingSpec("amalgam", make_table(*z4, group_id="A"),
                         make_cyclic(6, "s", "B"), ["t"], [W("r2")], [W("s^3")])
    assert spec.is_trivial(W("r2 s^-3"))
    assert not spec.is_trivial(W("r s^-3"))
    assert spec.edge_index("A") == 2 and spec.edge_index("B") == 3
    assert classify_elementarity(spec).verdict == "non_elementary"
    assert classify(spec, W("r")).verdict == "elliptic"
    cls = classify(spec, W("r s"))
    assert cls.verdict == "hyperbolic" and cls.tau == 2
    # r2 = s^3 stabilizes both base vertices
    fix = fixed_set(spec, W("r2"), radius=4)
    assert base_vertex("A") in fix.members
    assert base_vertex("B") in fix.members


def test_rank2_edge_subgroup():
    # a Z^2 edge: both images generate full-rank sublattices
    spec = SplittingSpec("amalgam", make_free_abelian(2, ["x", "y"], "A"),
                         make_free_abelian(2, ["u", "v"], "B"),
                         ["t1", "t2"], [W("x^2"), W("y")], [W("u"), W("v^3")])
    assert spec.is_trivial(W("x^2 u^-1"))
    assert spec.is_trivial(W("y v^-3"))
    assert not spec.is_trivial(W("x u^-1"))
    assert spec.edge_index("A") == 2 and spec.edge_index("B") == 3
    # by hand: u = x^2, C_A = <x^2, y>, coset representatives of C_A in A
    # are {1, x} (x-exponent mod 2).  x u = x^3 = x . x^2 -> [x][x^2];
    # x^3 u^-1 = x^3 x^-2 = x, and x is not in C_A -> [x], empty tail.
    nf = spec.normal_form(W("x u"))
    assert spec.sub_a.embed(nf.tail) == W("x^2") and len(nf.syllables) == 1
    assert nf.syllables[0].side == "A" and nf.syllables[0].word == W("x")
    nf = spec.normal_form(W("x^3 u^-1"))
    assert spec.sub_a.embed(nf.tail) == Word() and len(nf.syllables) == 1
    assert nf.syllables[0].side == "A" and nf.syllables[0].word == W("x")


def test_free_abelian_factor_amalgam():
    # Z^2 *_Z Z^2 along x = u
    spec = SplittingSpec("amalgam", make_free_abelian(2, ["x", "y"], "A"),
                         make_free_abelian(2, ["u", "v"], "B"),
                         ["t"], [W("x")], [W("u")])
    assert spec.is_trivial(W("x u^-1"))
    assert not spec.is_trivial(W("y v^-1"))
    assert classify_elementarity(spec).verdict == "non_elementary"
    assert classify(spec, W("y")).verdict == "elliptic"
    assert classify(spec, W("y v")).tau == 2
    # x is central on an infinitely branching tree: the fixed window is
    # nonempty but necessarily truncated
    fix = fixed_set(spec, W("x"), radius=2, neighbor_cap=5)
    assert len(fix.members) > 2
    assert not fix.exhaustive_within_radius
