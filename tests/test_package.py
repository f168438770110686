"""The package's public names, and which layers a CLI call loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import treegroups

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
    print(json.dumps(sorted(loaded())))
"""


def test_subcommands_load_only_their_layers():
    calls = [["--version"],
             ["bounds", "--entropy", "1", "--diam", "1"],
             ["classify", "--group", os.path.join(DATA, "z2z3.json"), "--element", "a b"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", _PROBE] + [json.dumps(c) for c in calls],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    after = [set(json.loads(line)) for line in out.stdout.splitlines()]
    assert after[0] == {"cli"}  # --version
    assert after[1] - after[0] == {"bounds"}
    classify = after[2] - after[1]
    assert "tree" in classify
    assert not classify & {"freeness", "growth", "bounds", "manifolds"}
