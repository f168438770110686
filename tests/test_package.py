"""The package's public names, which layers a CLI call loads, and how its
records behave."""

import ast
import glob
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import treegroups
from treegroups.growth import BallCountSeries
from treegroups.manifolds import (JsjGraph, ManifoldDescription, ManifoldError,
                                  PieceDescription, SL2Matrix)
from treegroups.splitting import NormalForm, Syllable
from treegroups.tree import TreeVertex
from treegroups.words import Word

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
DATA = os.path.join(os.path.dirname(__file__), "data")

PUBLIC = {
    "words": ["Word", "WordError"],
    "oracles": ["make_cyclic", "make_free"],
    "splitting": ["SpecError", "SplittingSpec", "load_spec"],
    "tree": ["EllipticElementError", "check_acylindricity", "classify",
             "fixed_set", "t_set"],
    "freeness": ["CertificationFailure", "WitnessInputError",
                 "product_translation_length", "semigroup_witness",
                 "witness_elliptic_hyperbolic", "witness_elliptic_pair",
                 "witness_hyperbolic_pair"],
    "manifolds": ["DichotomyError", "ManifoldError"],
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_public_names_are_their_home_objects():
    assert len(NAMES) == 21 and sorted(treegroups.__all__) == sorted(NAMES)
    assert treegroups.__version__ == "0.1.0"
    for home, names in PUBLIC.items():
        module = importlib.import_module(f"treegroups.{home}")
        for name in names:
            assert getattr(treegroups, name) is getattr(module, name)
    assert set(NAMES) <= set(dir(treegroups))
    with pytest.raises(AttributeError):
        treegroups.normal_form
    namespace = {}
    exec("from treegroups import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


def test_benchmark_worker_calls_still_bind():
    # perfbench/worker.py calls these positionally or by keyword; removing or
    # reordering a parameter it passes must fail here, not only in the benchmark
    spec, g = object(), Word()
    calls = [(treegroups.check_acylindricity, (spec, 2, 4, 8), {}),
             (treegroups.witness_elliptic_pair, (spec, 2, g, g, 5), {}),
             (treegroups.witness_elliptic_hyperbolic, (spec, 2, g, g, 5), {}),
             (treegroups.witness_hyperbolic_pair, (spec, 2, g, g, 5), {}),
             (treegroups.semigroup_witness, (spec, g, g, 5), {}),
             (treegroups.fixed_set, (spec, g), {"radius": 4}),
             (treegroups.t_set, (spec, g), {"radius": 4, "max_power": 3}),
             (treegroups.product_translation_length, (spec, g, g), {})]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)


def test_benchmark_tracer_reads_still_resolve():
    # perfbench/tracer.py reads the trigger, passes s0_core its x alone and
    # keys the normal forms it sees by NormalForm.key()
    bounds = importlib.import_module("treegroups.bounds")
    assert isinstance(bounds.HIGH_PRECISION_TRIGGER, float)
    inspect.signature(bounds.s0_core).bind(26.0)
    assert callable(NormalForm.key)


# every top-level function in src/ that no code in src/ (cli.py included)
# calls or names, and why it stays
EXPORTED = "public API: a name in treegroups._HOMES"
DOCUMENTED = "public API: documented in README.md"
UNCALLED = {
    "__getattr__": "the package's lazy attribute hook (PEP 562); Python calls it",
    "__dir__": "the package's dir() hook (PEP 562); Python calls it",
    "product_translation_length": EXPORTED,
    "verify_disjoint_tsets": DOCUMENTED,
    "witness_power_pair": DOCUMENTED,
    "certify_rank2_free": "the free-product certificate; the benchmark's tracer counts it by name",
    "vertex_of": "the benchmark's tracer metric tree.vertex_of.calls names it",
    "free_group_entropy_root": "the paper's entropy equation, acceptance criterion 1",
    "witness_length_bound_holds": "the paper's witness-length bound, acceptance criterion 5",
    "volume_lower_bound": "the paper's volume bound, acceptance criterion 6",
    "overlap_report": "the 3k branch of witness_hyperbolic_pair, with the overlap it reads",
    "same_axis": "the axis sampling of the witnesses' distinct-axes check, as a verdict",
    "ball": "the tree's balls, the walk of Fix(1) that the window references compare with",
}


def _referenced_names(node, own):
    """The names and attributes that node's code refers to, but its own name."""
    for sub in ast.walk(node):
        name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
        if name is not None and name != own:
            yield name


def test_every_uncalled_function_is_allowed():
    # new code that nothing in src/ reaches fails here; so does an entry
    # whose function gained a caller or was deleted
    defined, referenced = set(), set()
    for path in glob.glob(os.path.join(SRC, "treegroups", "*.py")):
        with open(path, encoding="utf-8") as fh:
            for node in ast.parse(fh.read()).body:
                own = node.name if isinstance(node, ast.FunctionDef) else None
                defined.add(own)
                referenced.update(_referenced_names(node, own))
    assert defined - referenced - {None} == set(UNCALLED)
    with open(os.path.join(SRC, os.pardir, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    for name, why in UNCALLED.items():
        assert why != EXPORTED or name in treegroups.__all__, name
        assert why != DOCUMENTED or f"`{name}`" in readme, name


_PROBE = """
import contextlib, io, json, sys
from treegroups.cli import run

def loaded():
    return {m.split(".", 1)[1] for m in sys.modules if m.startswith("treegroups.")}

for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            run(json.loads(argv))
        except SystemExit:
            pass
    print(json.dumps([sorted(loaded()), "dataclasses" in sys.modules,
                      "mpmath" in sys.modules]))
"""


def test_subcommands_load_only_their_layers(tmp_path):
    z2_table = tmp_path / "z2_table_z3.json"
    z2_table.write_text(json.dumps({
        "kind": "free_product",
        "factors": [{"type": "table", "elements": ["e", "s"], "table": [[0, 1], [1, 0]]},
                    {"type": "cyclic", "order": 3, "gens": ["b"]}]}))
    calls = [["--version"],
             ["dichotomy", os.path.join(DATA, "two_hyperbolic_jsj.json")],  # verdict only
             ["bounds", "--entropy", "1", "--diam", "1"],  # x = 26: double path
             ["bounds", "--entropy", "2", "--diam", "1"],  # x = 52: 60-digit path
             ["classify", "--group", os.path.join(DATA, "z2z3.json"), "--element", "a b"],
             ["classify", "--group", os.path.join(DATA, "f2_amalgam.json"), "--element", "b d"],
             ["entropy", "--l1", "1", "--l2", "2"],
             ["dichotomy", os.path.join(DATA, "two_hyperbolic_jsj.json"),
              "--entropy", "1", "--diam", "1"],
             ["classify", "--group", str(z2_table), "--element", "s b"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", _PROBE] + [json.dumps(c) for c in calls],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    rows = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(rows) == len(calls)
    # records are NamedTuples: no call pays for importing dataclasses, and
    # the 60-digit bound is stdlib decimal: none loads mpmath either
    assert not any(has_dataclasses or has_mpmath for _, has_dataclasses, has_mpmath in rows)
    after = [set(layers) for layers, _, _ in rows]
    assert after[0] == {"cli"}  # --version
    assert after[1] - after[0] == {"manifolds"}  # a plain verdict needs no bounds
    assert after[2] - after[1] == {"bounds"}
    assert after[3] == after[2]
    classify = after[4] - after[3]
    assert "tree" in classify
    assert not classify & {"freeness", "growth", "bounds", "manifolds", "table_lattice"}
    assert after[5] == after[4]  # free factors: still no table or lattice kinds
    assert after[6] - after[5] == {"growth"}
    assert after[7] == after[6]  # manifolds and bounds are loaded already
    assert after[8] - after[7] == {"table_lattice"}


# -- records are NamedTuples ------------------------------------------------------

def test_sources_parse_as_python_3_10():
    # pyproject.toml requires Python >= 3.10, so no file may use later syntax
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    paths = sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True) +
                   glob.glob(os.path.join(root, "tests", "**", "*.py"), recursive=True))
    assert len(paths) > 20
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))


def test_record_hashes_are_the_hashes_of_their_field_tuples():
    # the frozen dataclasses hashed the same tuples, so set and dict
    # orders under a fixed PYTHONHASHSEED are unchanged
    letters = (("a", 2), ("b", -1))
    assert hash(Word(letters)) == hash((letters,))
    syls = (Syllable("A", Word(letters)),)
    assert hash(TreeVertex("B", syls)) == hash(("B", syls))
    assert hash(NormalForm(syls, ((0, 1),))) == hash((syls, ((0, 1),)))
    # a form compares and hashes as a plain record, field by field
    assert not {"__eq__", "__ne__", "__hash__", "__str__"} & set(vars(NormalForm))


def test_record_fields_are_read_only():
    w, m = Word.parse("a"), SL2Matrix(2, 1, 1, 1)
    with pytest.raises(AttributeError):
        w.letters = ()
    with pytest.raises(AttributeError):
        m.a = 1
    with pytest.raises(AttributeError):
        m.e = 0  # validated records keep __slots__ = ()


def test_record_reprs_are_unchanged():
    assert repr(Word.parse("a")) == "Word(letters=(('a', 1),))"
    assert repr(SL2Matrix(2, 1, 1, 1)) == "SL2Matrix(a=2, b=1, c=1, d=1)"


def test_validated_records_check_keyword_construction():
    assert SL2Matrix(a=2, b=1, c=1, d=1) == SL2Matrix(2, 1, 1, 1)
    with pytest.raises(ManifoldError, match="determinant 0"):
        SL2Matrix(a=1, b=1, c=1, d=1)
    with pytest.raises(ValueError, match="equal length"):
        BallCountSeries(radii=(0.0, 1.0), counts=(1,))
    with pytest.raises(ManifoldError, match="at least one vertex"):
        JsjGraph(vertex_types=(), edges=())
    with pytest.raises(ManifoldError, match="need a monodromy"):
        PieceDescription(kind="torus_bundle")
    with pytest.raises(ManifoldError, match="at least one prime piece"):
        ManifoldDescription(prime_pieces=())
    with pytest.raises(ManifoldError, match="unknown boundary"):
        ManifoldDescription(prime_pieces=(PieceDescription("rp3"),), boundary="x")
