import random

import pytest

from treegroups.bounds import free_product_bound, s0_jsj
from treegroups.manifolds import (SL2_IDENTITY, DichotomyError, JsjGraph,
                                  ManifoldDescription, ManifoldError,
                                  PieceDescription, SL2Matrix,
                                  classify_manifold, is_anosov,
                                  manifold_from_dict, sl2_inverse, sl2_mul,
                                  sl2_trace, systole_bound_for,
                                  twisted_double_check,
                                  twisted_double_conjugate)

A_ANOSOV = SL2Matrix(2, 1, 1, 1)


def piece(kind, **kw):
    return PieceDescription(kind, **kw)


def manifold(*pieces, **kw):
    return ManifoldDescription(tuple(pieces), **kw)


JSJ_TWO_HYP = JsjGraph(("hyperbolic", "hyperbolic"), ((0, 1),))


# -- SL2 arithmetic -----------------------------------------------------------

def test_sl2_basic_ops():
    assert sl2_trace(A_ANOSOV) == 3
    assert sl2_inverse(A_ANOSOV).rows() == [[1, -1], [-1, 2]]
    assert sl2_mul(A_ANOSOV, sl2_inverse(A_ANOSOV)) == SL2_IDENTITY


def test_sl2_rejects_wrong_determinant():
    with pytest.raises(ManifoldError):
        SL2Matrix(1, 0, 0, 2)
    with pytest.raises(ManifoldError):
        SL2Matrix.from_rows([[1, 2, 3]])


def test_is_anosov():
    assert is_anosov(A_ANOSOV)
    assert not is_anosov(SL2Matrix(1, 1, 0, 1))   # parabolic
    assert not is_anosov(SL2Matrix(0, -1, 1, 0))  # elliptic, trace 0


def test_anosov_invariance_under_inverse_and_conjugation():
    rng = random.Random(31)
    gens = [SL2Matrix(1, 1, 0, 1), SL2Matrix(1, 0, 1, 1)]
    mats = [SL2_IDENTITY]
    for _ in range(60):
        m = SL2_IDENTITY
        for _ in range(rng.randint(1, 6)):
            g = rng.choice(gens)
            if rng.random() < 0.5:
                g = sl2_inverse(g)
            m = sl2_mul(m, g)
        mats.append(m)
    for m in mats:
        assert is_anosov(m) == is_anosov(sl2_inverse(m))
        conj = rng.choice(mats)
        assert is_anosov(m) == is_anosov(
            sl2_mul(sl2_mul(conj, m), sl2_inverse(conj)))


def test_twisted_double_conjugate_values():
    m = twisted_double_conjugate(A_ANOSOV)
    assert m.rows() == [[3, -4], [-2, 3]]
    assert sl2_trace(m) == 6
    assert twisted_double_check(A_ANOSOV)
    assert not twisted_double_check(SL2_IDENTITY)
    # frozen from the integer 2x2 oracle: JAJA^-1 = [[1, -2], [0, 1]], trace 2
    parabolic = SL2Matrix(1, 1, 0, 1)
    assert twisted_double_conjugate(parabolic).rows() == [[1, -2], [0, 1]]
    assert not twisted_double_check(parabolic)


# -- classification ------------------------------------------------------------

def test_two_hyperbolic_jsj_pieces():
    v = classify_manifold(manifold(piece("irreducible_with_jsj", jsj=JSJ_TWO_HYP)))
    assert v.verdict == "acylindrical" and v.k == 4
    assert "rank 2 free abelian" in v.non_elementary_reason


def test_rp3_connected_sum():
    v = classify_manifold(manifold(piece("rp3"), piece("rp3"), torsionless=False))
    assert v.verdict == "geometric"
    assert "non-prime" in v.reason
    v3 = classify_manifold(manifold(*[piece("rp3")] * 3, torsionless=False))
    assert v3.verdict == "acylindrical" and v3.k == 0


def test_torus_bundles():
    v = classify_manifold(manifold(piece("torus_bundle", monodromy=A_ANOSOV)))
    assert v.verdict == "geometric" and "Sol" in v.reason
    flat = classify_manifold(manifold(piece("torus_bundle", monodromy=SL2_IDENTITY)))
    assert flat.verdict == "geometric" and "Seifert" in flat.reason


def test_twisted_doubles():
    sol = classify_manifold(manifold(piece("twisted_double", gluing=A_ANOSOV)))
    assert sol.verdict == "geometric" and "Sol" in sol.reason
    graph = classify_manifold(manifold(piece("twisted_double", gluing=SL2_IDENTITY)))
    assert graph.verdict == "acylindrical" and graph.k == 4


def test_single_geometric_pieces():
    assert classify_manifold(manifold(piece("s2xs1"))).verdict == "geometric"
    assert classify_manifold(manifold(piece("rp3"), torsionless=False)).verdict == "geometric"
    assert classify_manifold(manifold(piece("geometric_atom"))).verdict == "geometric"


def test_spherical_boundary_not_applicable():
    v = classify_manifold(manifold(piece("s2xs1"), boundary="spherical_present"))
    assert v.verdict == "not_applicable"


def test_connected_sum_is_acylindrical_k0():
    v = classify_manifold(manifold(piece("geometric_atom"), piece("s2xs1")))
    assert v.verdict == "acylindrical" and v.k == 0


def test_conflict_note_for_declared_jsj_on_bundle():
    p = piece("torus_bundle", monodromy=A_ANOSOV, jsj=JSJ_TWO_HYP)
    v = classify_manifold(manifold(p))
    assert v.verdict == "geometric"
    assert v.conflict_notes and "ignored" in v.conflict_notes[0]


def test_description_validation():
    with pytest.raises(ManifoldError):
        ManifoldDescription(())
    with pytest.raises(ManifoldError):
        piece("torus_bundle")  # missing monodromy
    with pytest.raises(ManifoldError):
        piece("irreducible_with_jsj", jsj=JsjGraph(("seifert",), ()))  # no edges
    with pytest.raises(ManifoldError):
        JsjGraph(("weird",), ())
    with pytest.raises(ManifoldError):
        manifold(piece("s2xs1"), boundary="fractal")


def test_fuzzer_totality_determinism_and_k_values():
    rng = random.Random(32)
    mats = [SL2_IDENTITY, A_ANOSOV, SL2Matrix(1, 1, 0, 1), SL2Matrix(0, -1, 1, 0),
            SL2Matrix(3, 2, 4, 3)]
    kinds = ["irreducible_with_jsj", "s2xs1", "rp3", "torus_bundle",
             "twisted_double", "geometric_atom"]

    def random_piece():
        kind = rng.choice(kinds)
        kw = {}
        if kind == "torus_bundle":
            kw["monodromy"] = rng.choice(mats)
        elif kind == "twisted_double":
            kw["gluing"] = rng.choice(mats)
        elif kind == "irreducible_with_jsj":
            n = rng.randint(1, 3)
            types = tuple(rng.choice(("seifert", "hyperbolic")) for _ in range(n))
            edges = tuple((rng.randrange(n), rng.randrange(n))
                          for _ in range(rng.randint(1, 3)))
            kw["jsj"] = JsjGraph(types, edges)
        return PieceDescription(kind, **kw)

    for _ in range(10_000):
        desc = ManifoldDescription(
            tuple(random_piece() for _ in range(rng.randint(1, 4))),
            torsionless=rng.random() < 0.8,
            boundary=rng.choice(("empty", "toral", "spherical_present", "other")))
        v1 = classify_manifold(desc)
        v2 = classify_manifold(desc)
        assert v1 == v2
        assert v1.verdict in ("geometric", "acylindrical", "not_applicable")
        if v1.verdict == "acylindrical":
            assert v1.k in (0, 4)
        else:
            assert v1.k is None  # never both geometric and acylindrical


# -- bounds routing --------------------------------------------------------------

def test_bounds_for_jsj_manifold():
    rep = systole_bound_for(manifold(piece("irreducible_with_jsj", jsj=JSJ_TWO_HYP)),
                            1.0, 1.0)
    assert rep.k == 4
    assert rep.effective_systole_lb == s0_jsj(1.0, 1.0)
    assert rep.volume_lb == rep.s0_general ** 3


def test_bounds_for_connected_sum():
    rep = systole_bound_for(manifold(piece("geometric_atom"), piece("geometric_atom")),
                            1.0, 1.0)
    assert rep.k == 0
    assert rep.effective_systole_lb == free_product_bound(1.0, 1.0)


def test_bounds_suppressed_for_s2xs1_sums():
    rep = systole_bound_for(manifold(piece("s2xs1"), piece("s2xs1")), 1.0, 1.0)
    assert rep.volume_lb is None
    assert "S^2 x S^1" in rep.volume_note
    assert rep.effective_systole_lb > 0


def test_bounds_suppressed_for_boundary():
    rep = systole_bound_for(
        manifold(piece("irreducible_with_jsj", jsj=JSJ_TWO_HYP), boundary="toral"),
        1.0, 1.0)
    assert rep.volume_lb is None and "not closed" in rep.volume_note
    # C_n is checked even where the volume is suppressed
    with pytest.raises(ValueError, match="C_n must be positive and finite"):
        systole_bound_for(
            manifold(piece("irreducible_with_jsj", jsj=JSJ_TWO_HYP), boundary="toral"),
            1.0, 1.0, C_n=-5.0)


def test_bounds_errors():
    with pytest.raises(DichotomyError):  # geometric verdict
        systole_bound_for(manifold(piece("s2xs1")), 1.0, 1.0)
    with pytest.raises(DichotomyError):  # torsion declared
        systole_bound_for(manifold(piece("irreducible_with_jsj", jsj=JSJ_TWO_HYP),
                                   torsionless=False), 1.0, 1.0)
    with pytest.raises(DichotomyError):  # bad boundary
        systole_bound_for(manifold(piece("irreducible_with_jsj", jsj=JSJ_TWO_HYP),
                                   boundary="other"), 1.0, 1.0)


def test_manifold_from_dict():
    doc = {"orientable": True, "torsionless": True, "boundary": "empty",
           "prime_pieces": [
               {"kind": "irreducible_with_jsj",
                "jsj": {"vertices": [{"type": "hyperbolic"}, {"type": "seifert"}],
                        "edges": [[0, 1]]}},
               {"kind": "torus_bundle", "monodromy": [[2, 1], [1, 1]]}]}
    desc = manifold_from_dict(doc)
    assert len(desc.prime_pieces) == 2
    assert desc.prime_pieces[1].monodromy == A_ANOSOV
    assert classify_manifold(desc).verdict == "acylindrical"
    with pytest.raises(ManifoldError):
        manifold_from_dict({"prime_pieces": "nope"})
    # the case analysis is the orientable one
    with pytest.raises(ManifoldError, match="orientable"):
        manifold_from_dict({**doc, "orientable": False})
