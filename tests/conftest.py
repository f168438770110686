import random

import pytest

from treegroups import tree
from treegroups.oracles import make_cyclic, make_free, make_free_abelian, make_table
from treegroups.splitting import SplittingSpec, other_side
from treegroups.tree import VertexRegion, act, ball, classify, geodesic, tree_distance
from treegroups.words import Word

W = Word.parse


@pytest.fixture(scope="session")
def z2z3():
    return SplittingSpec("free_product", make_cyclic(2, "a", "A"),
                         make_cyclic(3, "b", "B"))


@pytest.fixture(scope="session")
def z3z4():
    return SplittingSpec("free_product", make_cyclic(3, "a", "A"),
                         make_cyclic(4, "b", "B"))


@pytest.fixture(scope="session")
def z70z3():
    # Z/70 * Z/3: element orders up to 70
    return SplittingSpec("free_product", make_cyclic(70, "a", "A"),
                         make_cyclic(3, "b", "B"))


@pytest.fixture(scope="session")
def z2z2():
    return SplittingSpec("free_product", make_cyclic(2, "a", "A"),
                         make_cyclic(2, "b", "B"))


@pytest.fixture(scope="session")
def triv_z5():
    return SplittingSpec("free_product", make_cyclic(1, "t", "A"),
                         make_cyclic(5, "s", "B"))


@pytest.fixture(scope="session")
def f2():
    # F2 = <x> * <y>, the rank-2 free group as a free product of two Z's
    return SplittingSpec("free_product", make_free(1, ["x"], "A"),
                         make_free(1, ["y"], "B"))


@pytest.fixture(scope="session")
def klein():
    # <a, b | a^2 = b^2>: amalgam of two Z's over index-2 subgroups (a line)
    return SplittingSpec("amalgam", make_free(1, ["a"], "A"),
                         make_free(1, ["b"], "B"),
                         ["t"], [W("a^2")], [W("b^2")])


@pytest.fixture(scope="session")
def f2_amalgam():
    # F2 *_<a>=<c> F2, isomorphic to F3; the edge subgroup is malnormal
    return SplittingSpec("amalgam", make_free(2, ["a", "b"], "A"),
                         make_free(2, ["c", "d"], "B"),
                         ["t"], [W("a")], [W("c")])


@pytest.fixture(scope="session")
def z2_amalgam():
    # Z^2 *_{x=u} Z^2: the edge group has infinite index on both sides
    return SplittingSpec("amalgam", make_free_abelian(2, ["x", "y"], "A"),
                         make_free_abelian(2, ["u", "v"], "B"),
                         ["t"], [W("x")], [W("u")])



def cyclic_table(n, prefix):
    """Element names and multiplication table of Z/n."""
    return ([f"{prefix}{i}" for i in range(n)],
            [[(i + j) % n for j in range(n)] for i in range(n)])


@pytest.fixture(scope="session")
def z4z6_table():
    # Z/4 *_{Z/2} Z/6 with both factors given as multiplication tables
    return SplittingSpec("amalgam", make_table(*cyclic_table(4, "r"), group_id="A"),
                         make_table(*cyclic_table(6, "s"), group_id="B"),
                         ["t"], [W("r2")], [W("s3")])

def _permutation_table(gens, prefix):
    """Elements (identity first) and multiplication table of the group of
    tuples that ``gens`` generate, composed as (p q)(i) = p(q(i))."""
    elements = [tuple(range(len(gens[0])))]
    for p in elements:
        for g in gens:
            q = tuple(p[i] for i in g)
            if q not in elements:
                elements.append(q)
    index = {p: i for i, p in enumerate(elements)}
    table = [[index[tuple(p[i] for i in q)] for q in elements] for p in elements]
    return [f"{prefix}{i}" for i in range(len(elements))], table, index


@pytest.fixture(scope="session")
def a4_s3z2_table():
    # A4 *_V (S3 x Z/2) as tables: the Klein four-group V is normal in A4, whose
    # 3-cycles permute its involutions, while in S3 x Z/2 the image of one
    # involution is central and those of the others are not
    names_a, table_a, index_a = _permutation_table([(1, 2, 0, 3), (1, 0, 3, 2)], "p")
    # S3 x Z/2 as permutations of 5 points: S3 on 0-2, the swap of 3 and 4
    names_b, table_b, index_b = _permutation_table([(1, 0, 2, 3, 4), (1, 2, 0, 3, 4),
                                                    (0, 1, 2, 4, 3)], "q")
    return SplittingSpec(
        "amalgam", make_table(names_a, table_a, group_id="A"),
        make_table(names_b, table_b, group_id="B"), ["u", "w"],
        [W(names_a[index_a[(1, 0, 3, 2)]]), W(names_a[index_a[(2, 3, 0, 1)]])],
        [W(names_b[index_b[(1, 0, 2, 3, 4)]]), W(names_b[index_b[(0, 1, 2, 4, 3)]])])


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` (a module function or a class's method) so that
    each call appends its positional arguments to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def random_word(rng: random.Random, gen_names, max_len: int,
                max_exp: int = 2) -> Word:
    letters = []
    for _ in range(rng.randint(0, max_len)):
        exp = rng.choice([e for e in range(-max_exp, max_exp + 1) if e])
        letters.append((rng.choice(gen_names), exp))
    return Word.of(letters)


def random_elliptic(spec, rng: random.Random, max_conj_len: int = 3) -> Word:
    """A random nontrivial conjugate of a factor element (always elliptic)."""
    for _ in range(200):
        side = rng.choice(["A", "B"])
        factor = spec.factor(side)
        s = random_word(rng, factor.gen_names, 2)
        if factor.canonical(s).is_empty:
            continue
        conj = random_word(rng, spec.gen_names, max_conj_len)
        return conj * s * conj.inverse()
    raise RuntimeError("could not sample a nontrivial factor element")


def min_displacement_bruteforce(spec, g, center, radius,
                                neighbor_cap=None, extra_vertices=()):
    """Independent oracle: min of d(v, gv) over the BFS window (plus any
    explicitly supplied vertices)."""
    dist, complete = ball(spec, center, radius, neighbor_cap)
    candidates = list(dist) + list(extra_vertices)
    best = min(tree_distance(v, act(spec, g, v)) for v in candidates)
    return best, complete


def reference_axis_window(spec, h, base, radius) -> VertexRegion:
    """Independent oracle for ``axis_window``: every axis vertex within
    radius of the base lies within radius + d(base, p) of classify's witness
    p, so the geodesic from h^-K p to h^K p with K = (radius + d(base, p))
    // tau + 1 covers the window; its vertices within radius are kept, in
    the window's order."""
    cls = classify(spec, h, base)
    p = cls.witness_vertex
    k = (radius + tree_distance(base, p)) // cls.tau + 1
    path = geodesic(act(spec, h ** -k, p), act(spec, h ** k, p))
    dist = {q: d for q in path if (d := tree_distance(base, q)) <= radius}
    return VertexRegion(base, radius, tuple(sorted(dist, key=lambda v: (dist[v], v.side, str(v)))),
                        True)


def reference_walk(spec, start, levels, x, cap):
    """Reference for ``tree._walk`` without its memo: each vertex lists its
    conjugator cosets and works out each unseen child's element anew."""
    depth = {start: 0}
    frontier = [(start, x)]
    complete = True
    for d in range(1, levels + 1):
        nxt = []
        for v, x in frontier:
            sub, side = spec.subgroup(v.side), other_side(v.side)
            ts, kids_complete = sub.conjugator_cosets(x, cap)
            complete = complete and kids_complete
            for t in ts:
                kid = tree._neighbor(v, t)
                if kid in depth:
                    continue
                y = x
                if not x.is_empty:
                    y = spec.subgroup(side).embed(sub._split(x.conjugated_by(t))[1])
                    if t.is_empty and v.syllables:  # the step drops v's last syllable
                        s = v.syllables[-1].word
                        y = spec.factor(side)._reduce(s * y * s.inverse())
                depth[kid] = d
                nxt.append((kid, y))
                if len(depth) > tree.MAX_WINDOW_VERTICES:
                    return depth, False
        frontier = nxt
    return depth, complete
