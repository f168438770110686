"""Seeded inputs and expected answers for the three workloads.

Every op is a dict:
  ``argv`` (CLI ops) or ``call``/``spec``/``args`` (library ops),
  ``expect``  what the output must contain, derived in :mod:`answers` or
              from how the input was built, never from ``treegroups``,
  ``exit``    the expected CLI exit code,
  ``size``    (kind, value): the op's size parameter for the growth fits.

Inputs depend only on the seed.  The size grids are fixed, so every seed
runs the same mix of sizes (see :func:`generate` for what the seed varies).
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List

import answers

SPECS = {
    "z2z3": {"kind": "free_product",
             "factors": [{"type": "cyclic", "order": 2, "gens": ["a"]},
                         {"type": "cyclic", "order": 3, "gens": ["b"]}]},
    "z3z4": {"kind": "free_product",
             "factors": [{"type": "cyclic", "order": 3, "gens": ["a"]},
                         {"type": "cyclic", "order": 4, "gens": ["b"]}]},
    "f2": {"kind": "free_product",
           "factors": [{"type": "free", "rank": 1, "gens": ["x"]},
                       {"type": "free", "rank": 1, "gens": ["y"]}]},
    # F2 *_{a = c} F2: the edge group is malnormal in both factors
    "f2_amalgam": {"kind": "amalgam",
                   "factors": [{"type": "free", "rank": 2, "gens": ["a", "b"]},
                               {"type": "free", "rank": 2, "gens": ["c", "d"]}],
                   "edge": {"generators": ["t"], "into_A": ["a"], "into_B": ["c"]},
                   "declared_k": 2},
    # <a, b | a^2 = b^2>: a central edge group of index 2 on both sides
    "klein": {"kind": "amalgam",
              "factors": [{"type": "free", "rank": 1, "gens": ["a"]},
                          {"type": "free", "rank": 1, "gens": ["b"]}],
              "edge": {"generators": ["t"], "into_A": ["a^2"], "into_B": ["b^2"]}},
    # F2 *_{a b = c} F2: a^e c = a^{e+1} b lies in the A factor
    "ab_amalgam": {"kind": "amalgam",
                   "factors": [{"type": "free", "rank": 2, "gens": ["a", "b"]},
                               {"type": "free", "rank": 2, "gens": ["c", "d"]}],
                   "edge": {"generators": ["t"], "into_A": ["a b"], "into_B": ["c"]}},
}

ORDERS = {"z2z3": {"a": 2, "b": 3}, "z3z4": {"a": 3, "b": 4}}

# factor elements outside the edge group, by spec and side
SYLLABLES = {
    "z2z3": (["a"], ["b", "b^-1"]),
    "z3z4": (["a", "a^-1"], ["b", "b^2", "b^-1"]),
    "f2_amalgam": (["a b", "b a", "a^-1 b", "b a^-1", "a b^-1", "b^-1 a"],
                   ["c d", "d c", "c^-1 d", "d c^-1", "c d^-1", "d^-1 c"]),
}

# seconds one pass takes at the commit that defined the benchmark
NOMINAL_PASS_S = {"long-words": 15.0, "certify-scan": 10.0, "cli-light": 15.0}

# long-words, one op per entry: (command, spec, syllable length m).  The
# latencies form four small ops, a core of mid-size ops around the median,
# a core of heavy ops around the tail percentile and the slowest cases
# (m = 200 and 240), so that neither quantile sits in a gap between op costs.
# Every m is even: an alternating word of even length is cyclically reduced.
LONG_OPS = (
    ("tau", "z2z3", 20), ("tau", "f2_amalgam", 20),
    ("tau", "f2_amalgam", 100), ("tau", "z2z3", 116), ("tau", "f2_amalgam", 130),
    ("classify", "z2z3", 90), ("classify", "f2_amalgam", 104),
    ("axis", "z2z3", 36), ("axis", "f2_amalgam", 40),
    ("tau", "z2z3", 160), ("tau", "f2_amalgam", 170), ("classify", "f2_amalgam", 140),
    ("axis", "z2z3", 56),
    ("tau", "f2_amalgam", 200), ("classify", "z2z3", 240),
)
LONG_E = (200, 400, 1000, 1200, 2000)
WITNESS_DEPTHS = (5, 6, 7)
ENTROPY_RADII = (15, 30, 50, 80)


def invert(word: str) -> str:
    out = []
    for gen, exp in reversed(answers.parse_letters(word)):
        out.append(gen if exp == -1 else f"{gen}^{-exp}")
    return " ".join(out)


def alternating(rng: random.Random, spec: str, m: int, first: int = 0) -> str:
    """m syllables strictly alternating between the factors, starting on
    side ``first``: a reduced word of syllable length exactly m."""
    sides = SYLLABLES[spec]
    return " ".join(rng.choice(sides[(first + i) % 2]) for i in range(m))


def conjugate(u: str, g: str) -> str:
    return " ".join(p for p in (u, g, invert(u)) if p)


def _cli(argv, expect, size, exit_code=0) -> dict:
    return {"argv": argv, "expect": expect, "size": size, "exit": exit_code}


def _lib(call, spec, args, expect, size) -> dict:
    return {"call": call, "spec": spec, "args": args, "expect": expect, "size": size}


# ---------------------------------------------------------------------------
# long-words
# ---------------------------------------------------------------------------


def long_words(rng: random.Random, paths: Dict[str, str]) -> List[dict]:
    """Cyclically reduced alternating words (tau = m), conjugates of them
    for classify (tau = m), axis windows centred on the axis (2R+1
    vertices), and elliptic a^e c (tau = 0)."""
    ops = []
    for cmd, spec, m in LONG_OPS:
        g = paths[spec]
        w = alternating(rng, spec, m)
        if cmd == "tau":
            ops.append(_cli(["tau", "--json", "--group", g, "--element", w],
                            {"tau": m}, ("syllables", m)))
        elif cmd == "classify":
            u = alternating(rng, spec, max(2, m // 8), first=rng.randrange(2))
            ops.append(_cli(["classify", "--json", "--group", g, "--element", conjugate(u, w)],
                            {"tau": m, "verdict": "hyperbolic"}, ("syllables", m)))
        else:
            r = rng.randint(3, 6)
            ops.append(_cli(["axis", "--json", "--radius", str(r), "--group", g, "--element", w],
                            {"tau": m, "members": 2 * r + 1, "diameter": 2 * r},
                            ("syllables", m)))
    for i, e in enumerate(LONG_E):
        e += rng.randint(-20, 20)
        cmd = ("classify", "tau")[i % 2]
        ops.append(_cli([cmd, "--json", "--group", paths["ab_amalgam"], "--element", f"a^{e} c"],
                        {"tau": 0}, ("exponent", e)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# certify-scan
# ---------------------------------------------------------------------------


def _elliptic(rng: random.Random, spec: str, side: int, conj_len: int) -> str:
    """u x u^-1 with x a factor element outside the edge group on ``side``
    and u alternating, of conj_len syllables, ending on the other side."""
    x = rng.choice(SYLLABLES[spec][side])
    return conjugate(alternating(rng, spec, conj_len, first=(side + conj_len) % 2), x)


def _batch(ops: List[dict], size) -> dict:
    """Several library calls sent as one request, so that no op of the
    workload is a call of a few milliseconds, whose time would be mostly
    scheduling noise."""
    calls = [{"call": op["call"], "spec": op["spec"], "args": op["args"]} for op in ops]
    return {"call": "batch", "spec": None, "args": {"calls": calls},
            "expect": {"each": [op["expect"] for op in ops]}, "size": size}


def certify_scan(rng: random.Random, seeded: random.Random) -> List[dict]:
    """Witness constructions with the theorems' powers, acylindricity verdicts
    by edge type, fixed-set and T-set windows, and tau(g1 g2) = 2 d.

    The calls share the worker's caches, so the words of one call change
    the cost of the next; ``rng`` (a fixed template) picks the words, and
    only the acylindricity constants, which change no call's work, come
    from ``seeded``.  The calls of a few milliseconds ride in four batches.
    The median falls in the middle of a core of five requests of similar
    cost; the three slowest lie beyond the tail percentile, which falls on
    the copies of the fourth slowest, witness_hyperbolic_pair at depth 7."""
    ops = []
    triples = []
    for d, k_pair, k_mixed in zip(WITNESS_DEPTHS, (1, 3, 5), (0, 2, 4)):
        g1 = _elliptic(rng, "z2z3", 0, 1)
        g2 = _elliptic(rng, "z2z3", 1, 1)
        g = _elliptic(rng, "z2z3", 0, 1)
        h = alternating(rng, "z2z3", 4)
        triples += [
            _lib("witness_elliptic_pair", "z2z3",
                 {"k": k_pair, "g1": g1, "g2": g2, "depth": d},
                 {"power": (k_pair + 2) // 2, "certified": True}, None),
            _lib("witness_elliptic_hyperbolic", "z2z3",
                 {"k": k_mixed, "g1": g, "g2": h, "depth": d},
                 {"power": k_mixed + 1, "certified": True}, None),
            _lib("semigroup_witness", "f2", {"g1": "x y", "g2": "y^2 x y^-1", "depth": d},
                 {"power": 1, "certified": True, "claim": "free_semigroup_rank2"}, None),
        ]
    ops.append(_batch(triples, ("calls", len(triples))))
    # the small-overlap pair and its image under x -> x^-1, an automorphism
    # that keeps translation lengths and overlaps
    for k, d, g1, g2 in ((0, 6, "x y", "y^2 x y^-1"), (0, 6, "x^-1 y", "y^2 x^-1 y^-1"),
                         (0, 7, "x y", "y^2 x y^-1"), (1, 5, "x y", "y^2 x y^-1")):
        ops.append(_lib("witness_hyperbolic_pair", "f2",
                        {"k": k, "g1": g1, "g2": g2, "depth": d},
                        {"power": 3 * k + 1, "certified": True,
                         "case": "hyperbolic_small_overlap"}, ("depth", d)))
    for spec, g1, g2, d in (("f2", "x y", "y x", 6), ("f2_amalgam", "b d", "d b", 5),
                            ("f2_amalgam", "b d", "d b", 6)):
        ops.append(_lib("witness_hyperbolic_pair", spec,
                        {"k": 0, "g1": g1, "g2": g2, "depth": d},
                        {"power": 3, "certified": True,
                         "case": "hyperbolic_large_overlap"}, ("depth", d)))
    # acylindricity by edge type: malnormal, central, trivial
    for length in (4, 5):
        ops.append(_lib("check_acylindricity", "f2_amalgam",
                        {"k": 2, "length": length, "radius": 8},
                        {"verdict": "consistent", "certified": False}, ("length", length)))
    edge_types = [_lib("check_acylindricity", "klein", {"k": k, "length": 5, "radius": 8},
                       {"verdict": "falsified", "witness_diameter_gt": k}, None)
                  for k in seeded.sample(range(11), 3)]
    edge_types.append(_lib("check_acylindricity", "z2z3",
                           {"k": seeded.randint(0, 5), "length": 5, "radius": 8},
                           {"verdict": "consistent", "certified": True}, None))
    ops.append(_batch(edge_types, ("length", 5)))
    ops.append(_batch(_fixed_set_ops(rng), ("radius", 6)))
    pairs = []
    for spec in ("z2z3", "z3z4"):
        for j1, j2 in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2), (2, 1), (2, 2)):
            g1 = _elliptic(rng, spec, 0, j1)
            g2 = _elliptic(rng, spec, 1, j2)
            tau = answers.free_product_tau(answers.parse_letters(f"{g1} {g2}"), ORDERS[spec])
            pairs.append(_lib("product_translation_length", spec, {"g1": g1, "g2": g2},
                              {"tau": tau, "distance": tau // 2}, None))
    letters = sum(len(answers.parse_letters(w)) for op in pairs for w in op["args"].values())
    ops.append(_batch(pairs, ("letters", letters)))
    # no shuffle: with shared caches the order is part of the workload
    return ops


def _fixed_set_ops(rng: random.Random) -> List[dict]:
    """Fix and T windows whose size follows from the edge type: trivial edge
    groups fix one vertex, the malnormal edge group <a> fixes one edge, and
    the central a^2 fixes the whole line, i.e. 2R+1 vertices of a window
    of radius R.  The conjugator keeps the fixed set inside the window."""
    ops = []
    r = 5
    g = _elliptic(rng, "z2z3", rng.randrange(2), 1)
    ops.append(_lib("fixed_set", "z2z3", {"g": g, "radius": r}, {"members": 1}, ("radius", r)))
    ops.append(_lib("t_set", "z2z3", {"g": g, "radius": r, "max_power": 4},
                    {"members": 1}, ("radius", r)))
    side = rng.randrange(2)
    u = alternating(rng, "f2_amalgam", 1, first=side)
    g = conjugate(u, f"a^{rng.choice((-3, -2, -1, 1, 2, 3))}")
    ops.append(_lib("fixed_set", "f2_amalgam", {"g": g, "radius": r},
                    {"members": 2}, ("radius", r)))
    ops.append(_lib("t_set", "f2_amalgam", {"g": g, "radius": r, "max_power": 3},
                    {"members": 2}, ("radius", r)))
    r = 6
    u = " ".join(rng.choice(("a", "b", "a^-1", "b^-1")) for _ in range(2))
    ops.append(_lib("fixed_set", "klein",
                    {"g": conjugate(u, f"a^{2 * rng.choice((-2, -1, 1, 2))}"), "radius": r},
                    {"members": 2 * r + 1}, ("radius", r)))
    ops.append(_lib("t_set", "klein",
                    {"g": conjugate(u, f"a^{rng.choice((-3, -1, 1, 3))}"), "radius": r,
                     "max_power": 2},
                    {"members": 2 * r + 1}, ("radius", r)))
    return ops


# ---------------------------------------------------------------------------
# cli-light
# ---------------------------------------------------------------------------


def _sl2(rng: random.Random) -> List[List[int]]:
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 4)):
        t = rng.choice((-3, -2, -1, 1, 2, 3))
        e = [[1, t], [0, 1]] if rng.random() < 0.5 else [[1, 0], [t, 1]]
        m = [[m[0][0] * e[0][0] + m[0][1] * e[1][0], m[0][0] * e[0][1] + m[0][1] * e[1][1]],
             [m[1][0] * e[0][0] + m[1][1] * e[1][0], m[1][0] * e[0][1] + m[1][1] * e[1][1]]]
    return m


def _manifolds(rng: random.Random) -> List[dict]:
    simple = [{"kind": "s2xs1"}, {"kind": "rp3"}, {"kind": "geometric_atom"}]
    types = ("seifert", "hyperbolic")
    n = rng.randint(2, 4)
    jsj = {"kind": "irreducible_with_jsj",
           "jsj": {"vertices": [{"type": rng.choice(types)} for _ in range(n)],
                   "edges": [[i, i + 1] for i in range(n - 1)]}}
    pieces = [[jsj], [simple[0]], [simple[1]], [simple[2]],
              [{"kind": "torus_bundle", "monodromy": _sl2(rng)}],
              [{"kind": "twisted_double", "gluing": _sl2(rng)}],
              [{"kind": "rp3"}, {"kind": "rp3"}],
              [rng.choice(simple + [jsj]) for _ in range(rng.randint(2, 3))] + [simple[0]]]
    docs = [{"orientable": True, "torsionless": True, "boundary": "empty",
             "prime_pieces": p} for p in pieces]
    docs.append({"orientable": True, "torsionless": True, "boundary": "spherical_present",
                 "prime_pieces": [jsj]})
    return docs


def cli_light(rng: random.Random, paths: Dict[str, str], workdir: str) -> List[dict]:
    """Start-up-bound calls: bounds, entropy, dichotomy, short-word
    classify/tau/fix and --version."""
    ops = []
    for i in range(9):
        k = rng.randint(0, 8)
        x = rng.uniform(5.0, 28.0) if i % 2 else rng.uniform(32.0, 400.0)
        D = rng.uniform(0.3, 3.0)
        E = x / ((4 * k + 10) * D)
        ops.append(_cli(["bounds", "--json", "--entropy", repr(E), "--diam", repr(D),
                         "--k", str(k)],
                        {"s0": answers.s0_closed_form(E, D, k)}, ("k", k)))
    for kind in ("group", "semigroup"):
        for radius in ENTROPY_RADII:
            l1 = round(rng.uniform(0.8, 2.5), 2)
            l2 = round(rng.uniform(0.8, 2.5), 2)
            ops.append(_cli(["entropy", "--json", "--kind", kind, "--l1", repr(l1),
                             "--l2", repr(l2), "--radius", str(radius)],
                            {"entropy": (kind, l1, l2)}, ("radius", radius)))
    for i, doc in enumerate(_manifolds(rng)):
        path = os.path.join(workdir, f"manifold-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        verdict, k = answers.dichotomy_verdict(doc)
        ops.append(_cli(["dichotomy", "--json", path], {"verdict": verdict, "k": k},
                        ("pieces", len(doc["prime_pieces"])),
                        exit_code=2 if verdict == "not_applicable" else 0))
    for cmd in ("classify", "tau"):
        for _ in range(2):
            letters = [(g, rng.choice((1, -1))) for g in
                       rng.choices(("a", "b"), k=rng.randint(3, 10))]
            w = " ".join(g if e == 1 else f"{g}^-1" for g, e in letters)
            tau = answers.free_product_tau(letters, ORDERS["z2z3"])
            ops.append(_cli([cmd, "--json", "--group", paths["z2z3"], "--element", w],
                            {"tau": tau}, ("letters", len(letters))))
        m = rng.choice((2, 4, 6))
        w = alternating(rng, "f2_amalgam", m)
        ops.append(_cli([cmd, "--json", "--group", paths["f2_amalgam"], "--element", w],
                        {"tau": m}, ("letters", len(answers.parse_letters(w)))))
        w = _elliptic(rng, "f2_amalgam", rng.randrange(2), rng.randint(1, 3))
        ops.append(_cli([cmd, "--json", "--group", paths["f2_amalgam"], "--element", w],
                        {"tau": 0}, ("letters", len(answers.parse_letters(w)))))
    for spec, x, members in (("z2z3", None, 1), ("f2_amalgam", "a", 2),
                             ("klein", "a^2", None), ("klein", "a", 1)):
        j = rng.randint(0, 2)
        r = j + rng.randint(3, 6)
        if spec == "klein":
            u = " ".join(rng.choice(("a", "b", "a^-1", "b^-1")) for _ in range(j))
        else:
            u = alternating(rng, spec, j, first=rng.randrange(2))
        g = conjugate(u, x or rng.choice(SYLLABLES[spec][rng.randrange(2)]))
        ops.append(_cli(["fix", "--json", "--radius", str(r), "--group", paths[spec],
                         "--element", g],
                        {"members": members or 2 * r + 1}, ("letters", len(answers.parse_letters(g)))))
    for _ in range(2):
        ops.append(_cli(["--version"], {"version": True}, ("letters", 0)))
    rng.shuffle(ops)
    return ops


# generator sign flips that are automorphisms of each spec: a flip group
# inverts its generators together (the edge identification a = c survives
# inverting both sides)
FLIP_GROUPS = {
    "z2z3": (("b",),),
    "f2_amalgam": (("a", "c"), ("b",), ("d",)),
    "ab_amalgam": (),  # a b = c admits no sign flip
}


def relabel(word: str, flipped) -> str:
    """Apply the automorphism inverting the generators in ``flipped``."""
    out = []
    for gen, exp in answers.parse_letters(word):
        exp = -exp if gen in flipped else exp
        out.append(gen if exp == 1 else f"{gen}^{exp}")
    return " ".join(out)


def generate(workload: str, seed: int, paths: Dict[str, str], workdir: str) -> List[dict]:
    """The ops of one pass; a run repeats the pass.

    cli-light draws its inputs from the seed.  long-words is dominated by a
    few expensive ops whose cost depends on the exact words, so it builds
    its ops from a fixed template and the seed picks an automorphic image of
    each group.  In certify-scan the seed only picks constants that change
    no call's work (see :func:`certify_scan`)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-light":
        return cli_light(rng, paths, workdir)
    if workload == "certify-scan":
        return certify_scan(random.Random(f"{workload}:template"), rng)
    ops = long_words(random.Random(f"{workload}:template"), paths)
    flips = {spec: {g for group in groups if rng.random() < 0.5 for g in group}
             for spec, groups in FLIP_GROUPS.items()}
    for op in ops:
        spec = next(name for name, path in paths.items() if path in op["argv"])
        i = op["argv"].index("--element") + 1
        op["argv"][i] = relabel(op["argv"][i], flips[spec])
    return ops
