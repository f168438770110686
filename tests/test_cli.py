import json
import os
import re
import subprocess
import sys

import pytest

from treegroups import freeness, tree
from treegroups.cli import EXIT_INPUT, EXIT_OK, EXIT_VERDICT, _emit, run
from treegroups.freeness import MAX_CERTIFICATE_DEPTH, CertificationFailure

from conftest import count_calls

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")
SRC = os.path.join(HERE, os.pardir, "src")


def data(name):
    return os.path.join(DATA, name)


def invoke(capsys, *argv):
    rc = run(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- golden files (worked examples, byte-for-byte in --json mode) ---------------

GOLDEN_CASES = [
    ("classify_z2z3_ab.json",
     ["classify", "--group", data("z2z3.json"), "--element", "a b", "--json"],
     EXIT_OK),
    ("bounds_unit_k4.json",
     ["bounds", "--entropy", "1", "--diam", "1", "--k", "4", "--json"],
     EXIT_OK),
    ("dichotomy_torus_bundle.json",
     ["dichotomy", data("torus_bundle.json"), "--json"],
     EXIT_OK),
    ("entropy_group_1_2.json",
     ["entropy", "--l1", "1", "--l2", "2", "--json"],
     EXIT_OK),
    ("entropy_semigroup_r30.json",
     ["entropy", "--kind", "semigroup", "--l1", "0.8", "--l2", "1.3",
      "--radius", "30", "--json"],
     EXIT_OK),
    ("fix_f2_amalgam_conj_a_r4.json",
     ["fix", "--group", data("f2_amalgam.json"), "--element", "d b a b^-1 d^-1",
      "--radius", "4", "--json"],
     EXIT_OK),
    ("fix_klein_a_pow2.json",
     ["fix", "--group", data("klein.json"), "--element", "a", "--max-power", "2",
      "--json"],
     EXIT_OK),
    ("axis_f2_amalgam_bd_r6.json",
     ["axis", "--group", data("f2_amalgam.json"), "--element", "b d",
      "--radius", "6", "--json"],
     EXIT_OK),
    ("free_witness_z2z3_a_b.json",
     ["free-witness", "--group", data("z2z3.json"), "--g1", "a", "--g2", "b", "--json"],
     EXIT_OK),
    ("free_witness_z2z3_a_ab.json",
     ["free-witness", "--group", data("z2z3.json"), "--g1", "a", "--g2", "a b", "--json"],
     EXIT_OK),
    ("free_witness_f2_amalgam_bd_db.json",
     ["free-witness", "--group", data("f2_amalgam.json"), "--g1", "b d", "--g2", "d b",
      "--json"],
     EXIT_OK),
    ("free_witness_f2_amalgam_bd_db_k0.json",
     ["free-witness", "--group", data("f2_amalgam.json"), "--g1", "b d", "--g2", "d b",
      "--k", "0", "--json"],
     EXIT_OK),
    ("free_witness_f2_amalgam_bd_db_semigroup.json",
     ["free-witness", "--group", data("f2_amalgam.json"), "--g1", "b d", "--g2", "d b",
      "--semigroup", "--json"],
     EXIT_OK),
    ("acyl_check_klein_k5_l4.json",
     ["acyl-check", "--group", data("klein.json"), "--k", "5", "--length", "4", "--json"],
     EXIT_VERDICT),
    ("acyl_check_z2z3_k0.json",
     ["acyl-check", "--group", data("z2z3.json"), "--k", "0", "--json"],
     EXIT_OK),
]


# the ids name each case by its golden file and position
@pytest.mark.parametrize("golden,argv,code",
                         GOLDEN_CASES,
                         ids=[f"{case[0]}-argv{i}" for i, case in enumerate(GOLDEN_CASES)])
def test_golden_outputs(capsys, golden, argv, code):
    rc, out, _ = invoke(capsys, *argv)
    assert rc == code
    with open(os.path.join(GOLDEN, golden), "r", encoding="utf-8") as fh:
        assert out == fh.read()
    json.loads(out)  # every report re-parses


def test_classify_human(capsys):
    rc, out, _ = invoke(capsys, "classify", "--group", data("z2z3.json"),
                        "--element", "a b")
    assert rc == EXIT_OK
    assert out.strip() == "hyperbolic (tau=2)"


def test_tau(capsys):
    rc, out, _ = invoke(capsys, "tau", "--group", data("z2z3.json"),
                        "--element", "a b", "--json")
    assert rc == EXIT_OK
    assert json.loads(out)["tau"] == 2


def test_fix_and_axis(capsys):
    rc, out, _ = invoke(capsys, "fix", "--group", data("z2z3.json"),
                        "--element", "a", "--radius", "5", "--json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["members"] == ["A:1"] and doc["diameter"] == 0
    rc, out, _ = invoke(capsys, "fix", "--group", data("klein.json"),
                        "--element", "a^2", "--radius", "6", "--max-power", "2",
                        "--json")
    assert rc == EXIT_OK
    assert json.loads(out)["diameter"] == 12
    rc, out, _ = invoke(capsys, "axis", "--group", data("z2z3.json"),
                        "--element", "a b", "--json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["tau"] == 2 and "A:1" in doc["members"]


@pytest.mark.parametrize("argv", [
    ["fix", "--group", data("klein.json"), "--element", "a^2", "--radius", "6"],
    ["fix", "--group", data("klein.json"), "--element", "a", "--max-power", "2"],
    ["axis", "--group", data("f2_amalgam.json"), "--element", "b d", "--radius", "6"],
], ids=["fix", "t-set", "axis"])
def test_human_window_output_names_no_vertex(capsys, monkeypatch, argv):
    # each member is named once, by the window's sort; only --json prints names
    names = count_calls(monkeypatch, tree.TreeVertex, "__str__")
    rc, out, _ = invoke(capsys, *argv)
    assert rc == EXIT_OK
    assert len(names) == int(re.search(r"(\d+) vertices", out)[1]) > 1


def test_human_window_output_says_when_a_window_was_cut(capsys, monkeypatch):
    # complete windows print as before; past the syllable limit the line says so
    fix = ["fix", "--group", data("klein.json"), "--element", "a^2"]
    axis = ["axis", "--group", data("klein.json"), "--element", "a b"]
    assert invoke(capsys, *fix, "--radius", "6")[1] == (
        "Fix(a^2) within radius 6: 13 vertices, diameter 12\n")
    assert invoke(capsys, *axis, "--radius", "6")[1] == "Axis(a b) within radius 6: 13 vertices, tau=2\n"
    monkeypatch.setattr(tree, "MAX_WINDOW_SYLLABLES", 400)
    for argv in (fix, axis):
        rc, out, _ = invoke(capsys, *argv, "--radius", "100")
        assert rc == EXIT_OK and out.endswith(" (window cut: not exhaustive)\n")
        assert invoke(capsys, *argv, "--radius", "100", "--json")[1].count(
            '"exhaustive_within_radius": false') == 1


def test_fix_stops_at_the_vertex_limit(capsys, monkeypatch, tmp_path):
    # x fixes the whole tree of Z^2 *_{x=u} Z^2, whose vertex degrees are infinite
    monkeypatch.setattr(tree, "MAX_WINDOW_VERTICES", 300)
    group = tmp_path / "z2_amalgam.json"
    group.write_text(json.dumps({
        "kind": "amalgam",
        "factors": [{"type": "free_abelian", "rank": 2, "gens": ["x", "y"]},
                    {"type": "free_abelian", "rank": 2, "gens": ["u", "v"]}],
        "edge": {"generators": ["t"], "into_A": ["x"], "into_B": ["u"]}}))
    rc, out, _ = invoke(capsys, "fix", "--group", str(group), "--element", "x", "--json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["radius"] == 8 and doc["exhaustive_within_radius"] is False
    assert len(doc["members"]) == 301


def test_fix_large_exponent_in_free_factor(capsys, tmp_path):
    # F2 *_{ab=c} F2: a^1000000 fixes only A:1, found without spelling it out
    group = tmp_path / "f2_ab_amalgam.json"
    group.write_text(json.dumps({
        "kind": "amalgam",
        "factors": [{"type": "free", "rank": 2, "gens": ["a", "b"]},
                    {"type": "free", "rank": 2, "gens": ["c", "d"]}],
        "edge": {"generators": ["t"], "into_A": ["a b"], "into_B": ["c"]}}))
    rc, out, _ = invoke(capsys, "fix", "--group", str(group), "--element", "a^1000000",
                        "--json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["members"] == ["A:1"] and doc["exhaustive_within_radius"] is True


def test_axis_elliptic_is_input_error(capsys):
    rc, _, err = invoke(capsys, "axis", "--group", data("z2z3.json"),
                        "--element", "a")
    assert rc == EXIT_INPUT and "elliptic" in err


def test_acyl_check_exit_codes(capsys):
    rc, out, _ = invoke(capsys, "acyl-check", "--group", data("z2z3.json"), "--k", "0")
    assert rc == EXIT_OK and "consistent" in out
    rc, out, _ = invoke(capsys, "acyl-check", "--group", data("klein.json"),
                        "--k", "5", "--length", "4", "--json")
    assert rc == EXIT_VERDICT
    doc = json.loads(out)
    assert doc["verdict"] == "falsified" and doc["witness"] == "a^2"


@pytest.mark.parametrize("group, k", [("klein.json", 5), ("f2_amalgam.json", 2)])
def test_acyl_check_at_length_1000000_walks_one_edge_element(capsys, monkeypatch, group, k):
    # no table factor: every nontrivial edge element has the fixed set of the
    # first, so any length walks one window and answers as length 5 does
    argv = ["acyl-check", "--group", data(group), "--k", str(k), "--json"]
    rc, out, _ = invoke(capsys, *argv, "--length", "5")
    want = json.loads(out)
    calls = count_calls(monkeypatch, tree, "_fixed_window")
    rc_long, out, _ = invoke(capsys, *argv, "--length", "1000000")
    got = json.loads(out)
    assert rc_long == rc and len(calls) == 1
    assert [got[key] for key in ("verdict", "witness", "witness_diameter", "certified")] == \
        [want[key] for key in ("verdict", "witness", "witness_diameter", "certified")]


def test_bounds_compares_the_cases_once(capsys, monkeypatch):
    # s0_general and the threshold implication for the comparison, s0_jsj and
    # the free-product bound for the report: 4 calls, where comparing twice made 6
    from treegroups import bounds
    calls = count_calls(monkeypatch, bounds, "s0_core")
    rc, out, _ = invoke(capsys, "bounds", "--entropy", "1", "--diam", "1", "--json")
    assert rc == EXIT_OK and len(calls) == 4
    assert json.loads(out)["comparison"]["dominant_branch"] == "hyperbolic_branch"


def test_free_witness(capsys):
    rc, out, _ = invoke(capsys, "free-witness", "--group", data("z2z3.json"),
                        "--g1", "a", "--g2", "b", "--json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["case"] == "elliptic_elliptic" and doc["certified"]
    rc, out, _ = invoke(capsys, "free-witness", "--group", data("f2_amalgam.json"),
                        "--g1", "b d", "--g2", "d b", "--json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["k"] == 2  # declared_k picked up from the spec file
    assert doc["certified"]


def test_free_witness_needs_k_on_an_amalgam_without_declared_k(capsys):
    rc, out, err = invoke(capsys, "free-witness", "--group", data("klein.json"),
                          "--g1", "a", "--g2", "b")
    assert rc == EXIT_INPUT and not out and "acylindricity constant is required" in err


def test_free_witness_takes_the_elliptic_element_from_either_side(capsys):
    # g1 hyperbolic and g2 elliptic is the swapped elliptic-hyperbolic case
    argv = ["free-witness", "--group", data("z2z3.json"), "--k", "1", "--json"]
    swapped = invoke(capsys, *argv, "--g1", "a b", "--g2", "a")
    assert swapped[0] == EXIT_OK
    assert swapped == invoke(capsys, *argv, "--g1", "a", "--g2", "a b")
    assert json.loads(swapped[1])["case"] == "elliptic_hyperbolic"


@pytest.mark.parametrize("witness,flags", [("witness_hyperbolic_pair", []),
                                           ("semigroup_witness", ["--semigroup"])])
def test_free_witness_certification_failure_is_input_error(capsys, monkeypatch,
                                                           witness, flags):
    def fail(*args):
        raise CertificationFailure("x")

    monkeypatch.setattr(freeness, witness, fail)
    rc, out, err = invoke(capsys, "free-witness", "--group", data("f2_amalgam.json"),
                          "--g1", "b d", "--g2", "d b", *flags)
    assert (rc, out, err) == (EXIT_INPUT, "", "error: x\n")


def test_entropy_command(capsys):
    rc, out, _ = invoke(capsys, "entropy", "--l1", "1", "--l2", "1", "--json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["counts"][:3] == [1, 5, 17]
    assert abs(doc["analytic_root"]["value"] - 1.0986122886681098) < 1e-10
    rc, out, _ = invoke(capsys, "entropy", "--l1", "1", "--l2", "1",
                        "--kind", "semigroup", "--radius", "10", "--json")
    assert rc == EXIT_OK
    assert json.loads(out)["counts"][:3] == [1, 3, 7]


def test_entropy_roots_of_far_apart_weights(capsys):
    rc, out, _ = invoke(capsys, "entropy", "--l1", "1", "--l2", "1000", "--json")
    assert rc == EXIT_OK
    assert abs(json.loads(out)["analytic_root"]["residual"]) <= 1e-12
    rc, out, _ = invoke(capsys, "entropy", "--kind", "semigroup", "--l1", "1e-12",
                        "--l2", "1e12", "--radius", "0", "--json")
    assert rc == EXIT_OK
    root = json.loads(out)["analytic_root"]["value"]
    assert abs(root - 5.132388597450658e-11) <= 1e-13 * 5.132388597450658e-11
    # weights 1e608 apart: E l_min underflows, an input error, not a wrong root
    rc, out, err = invoke(capsys, "entropy", "--kind", "semigroup", "--l1", "1.7e308",
                          "--l2", "1e-300", "--radius", "0")
    assert rc == EXIT_INPUT and not out and "too far apart" in err
    # a subnormal weight: the root's upper end log 2 / 1e-310 overflows
    rc, out, err = invoke(capsys, "entropy", "--kind", "semigroup", "--l1", "1e-300",
                          "--l2", "1e-310", "--radius", "0")
    assert rc == EXIT_INPUT and not out and "largest float" in err


def test_dichotomy_bound_attachment(capsys):
    rc, out, _ = invoke(capsys, "dichotomy", data("two_hyperbolic_jsj.json"),
                        "--entropy", "1", "--diam", "1", "--json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] == "acylindrical" and doc["k"] == 4
    assert doc["bound_report"]["effective_systole_lb"] == pytest.approx(
        2.043635611214889e-11)
    rc, out, _ = invoke(capsys, "dichotomy", data("s2s1_sum.json"),
                        "--entropy", "1", "--diam", "1", "--json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["bound_report"]["volume_lb"] is None


def test_dichotomy_not_applicable_human(capsys, tmp_path):
    manifold = tmp_path / "spherical.json"
    manifold.write_text(json.dumps({
        "orientable": True, "torsionless": True, "boundary": "spherical_present",
        "prime_pieces": [{"kind": "s2xs1"}]}))
    rc, out, _ = invoke(capsys, "dichotomy", str(manifold))
    assert rc == EXIT_VERDICT
    assert out.startswith("not applicable: spherical boundary components present")


def test_non_group_table_fails_at_load(tmp_path):
    # Z/100 with row 20, column 1 set to 10, free product with Z/2: e1's
    # powers would cycle without reaching the identity
    table = [[(i + j) % 100 for j in range(100)] for i in range(100)]
    table[20][1] = 10
    group = tmp_path / "bad_z100_z2.json"
    group.write_text(json.dumps({"kind": "free_product", "factors": [
        {"type": "table", "elements": [f"e{i}" for i in range(100)], "table": table},
        {"type": "cyclic", "order": 2, "gens": ["b"]}]}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-m", "treegroups.cli", "classify", "--group",
                          str(group), "--element", "e1 b"],
                         env=env, capture_output=True, text=True, timeout=2)
    assert out.returncode == EXIT_INPUT and not out.stdout
    assert "not associative" in out.stderr


def test_non_integer_table_entry_is_input_error(capsys, tmp_path):
    group = tmp_path / "float_table.json"
    group.write_text(json.dumps({"kind": "free_product", "factors": [
        {"type": "table", "elements": ["e", "g"], "table": [[0, 1.0], [1.0, 0]]},
        {"type": "cyclic", "order": 3, "gens": ["b"]}]}))
    rc, out, err = invoke(capsys, "classify", "--group", str(group), "--element", "g b")
    assert rc == EXIT_INPUT and not out
    assert err.startswith("error: ") and "table entry 1.0 is not an element index" in err


def test_edge_identification_of_huge_cyclic_groups_reads_no_element(tmp_path):
    # Z/10^9 *_{<r, r^2> = <s, s^2>} Z/10^9 loads without walking either group,
    # and F2 *_{a = c} Z/5 is an input error
    specs = {"huge": ({"type": "cyclic", "order": 10 ** 9, "gens": ["r"]},
                      {"type": "cyclic", "order": 10 ** 9, "gens": ["s"]},
                      ["r", "r^2"], ["s", "s^2"], "r s", EXIT_OK),
             "f2_z5": ({"type": "free", "rank": 2, "gens": ["a", "b"]},
                       {"type": "cyclic", "order": 5, "gens": ["c"]}, ["a"], ["c"], "a c", EXIT_INPUT)}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for name, (fa, fb, into_a, into_b, element, code) in specs.items():
        group = tmp_path / f"{name}.json"
        group.write_text(json.dumps({"kind": "amalgam", "factors": [fa, fb], "edge": {
            "generators": ["p", "q"][:len(into_a)], "into_A": into_a, "into_B": into_b}}))
        out = subprocess.run([sys.executable, "-m", "treegroups.cli", "classify", "--group",
                              str(group), "--element", element],
                             env=env, capture_output=True, text=True, timeout=2)
        assert out.returncode == code
        assert ("do not identify isomorphic subgroups" in out.stderr) == (code == EXIT_INPUT)


def test_input_errors(capsys):
    rc, _, err = invoke(capsys, "classify", "--group", "/does/not/exist.json",
                        "--element", "a")
    assert rc == EXIT_INPUT and err
    rc, _, err = invoke(capsys, "frobnicate")
    assert rc == EXIT_INPUT
    rc, _, err = invoke(capsys, "classify", "--group", data("z2z3.json"),
                        "--element", "q")
    assert rc == EXIT_INPUT and "foreign" in err
    rc, _, err = invoke(capsys, "dichotomy")
    assert rc == EXIT_INPUT
    rc, _, err = invoke(capsys, "bounds", "--entropy", "-1", "--diam", "1")
    assert rc == EXIT_INPUT
    # degenerate entropy inputs, and a ball of about 1.1 million cells that the
    # cell limit rejects before counting
    for argv, message in [(["--l1", "0", "--l2", "1"], "positive"),
                          (["--l1", "inf", "--l2", "1"], "finite"),
                          (["--l1", "1", "--l2", "1", "--radius", "inf"], "finite"),
                          (["--l1", "1", "--l2", "1", "--radius", "-5"], ">= 0"),
                          (["--l1", "0.01", "--l2", "0.01", "--radius", "15"], "cells")]:
        rc, out, err = invoke(capsys, "entropy", *argv)
        assert rc == EXIT_INPUT and not out
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
    # negative or too deep certificate depths, certificates of too many
    # nodes (|B(10)| - 1 = 118,096 words for two infinite orders at depth
    # 19) and negative window radii check nothing
    witness = ["free-witness", "--group", data("f2_amalgam.json"), "--g1", "b d", "--g2", "d b"]
    too_deep = str(MAX_CERTIFICATE_DEPTH + 1)
    for argv, message in [(witness + ["--depth", "-5"], "depth"),
                          (witness + ["--depth", "-5", "--semigroup"], "depth"),
                          (witness + ["--depth", too_deep], "depth"),
                          (witness + ["--depth", too_deep, "--semigroup"], "depth"),
                          (witness + ["--depth", "19"], "needs 118096 nodes"),
                          (["fix", "--group", data("f2_amalgam.json"), "--element", "a",
                            "--radius", "-2"], "radius"),
                          (["fix", "--group", data("klein.json"), "--element", "a",
                            "--max-power", "2", "--radius", "-2"], "radius"),
                          (["axis", "--group", data("f2_amalgam.json"), "--element", "b d",
                            "--radius", "-2"], "radius")]:
        rc, out, err = invoke(capsys, *argv)
        assert rc == EXIT_INPUT and not out
        assert err.startswith("error: ") and message in err


def f2_amalgam_with(tmp_path, edit):
    """A copy of f2_amalgam.json with ``edit`` applied to its document."""
    with open(data("f2_amalgam.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(declared_k="2"), "declared_k"),
    (lambda doc: doc.update(declared_k=2.5), "declared_k"),
    (lambda doc: doc.update(declared_k=True), "declared_k"),
    (lambda doc: doc["edge"].update(into_A=[5]), "a word must be a string"),
    (lambda doc: doc["edge"].update(generators=[3]), "invalid edge generator name"),
    # a string where the format wants an array is not read letter by letter
    (lambda doc: doc["factors"][0].update(gens="ab"), "'gens' must be a JSON array"),
    (lambda doc: doc["factors"].__setitem__(1, {"type": "cyclic", "order": 3, "gens": "c"}),
     "'gens' must be a JSON array"),
    (lambda doc: doc["factors"].__setitem__(
        0, {"type": "table", "elements": "eg", "table": [[0, 1], [1, 0]]}),
     "'elements' must be a JSON array"),
    (lambda doc: doc.update(edge={"generators": "t", "into_A": "a", "into_B": "c"}),
     "'generators' must be a JSON array"),
], ids=["k_string", "k_float", "k_bool", "image_number", "generator_number", "free_gens_string",
        "cyclic_gens_string", "table_elements_string", "edge_strings"])
def test_malformed_spec_is_input_error(capsys, tmp_path, edit, message):
    group = f2_amalgam_with(tmp_path, edit)
    for argv in (["classify", "--element", "b d"],
                 ["free-witness", "--g1", "b d", "--g2", "d b", "--json"]):
        rc, out, err = invoke(capsys, argv[0], "--group", group, *argv[1:])
        assert rc == EXIT_INPUT and not out
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--json", "--entropy", "inf", "--diam", "1"], "finite"),
    (["bounds", "--json", "--entropy", "1", "--diam", "1", "--cn", "inf"], "finite"),
    (["bounds", "--json", "--entropy", "1e-310", "--diam", "1"], "E=1e-310"),
    (["bounds", "--json", "--entropy", "1e-300", "--diam", "1"], "E=1e-300"),
    (["dichotomy", data("two_hyperbolic_jsj.json"), "--json", "--entropy", "inf",
      "--diam", "1"], "finite"),
    (["dichotomy", data("two_hyperbolic_jsj.json"), "--dim", "4"], "--dim"),
], ids=["entropy_inf", "cn_inf", "entropy_subnormal", "volume_overflow", "dichotomy_inf",
        "dichotomy_dim"])
def test_bounds_stay_finite(capsys, argv, message):
    rc, out, err = invoke(capsys, *argv)
    assert rc == EXIT_INPUT and not out
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_json_holds_no_infinity(capsys):
    # no report can print Infinity or NaN, which JSON does not have
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            _emit({"E": value}, "", True)
    assert not capsys.readouterr().out


def test_unknown_flag_is_input_error(capsys):
    rc, _, err = invoke(capsys, "classify", "--group", data("z2z3.json"),
                        "--element", "a", "--frob")
    assert rc == EXIT_INPUT
