"""Group actions on splitting trees, free-subgroup witnesses, weighted
growth entropy, and the systole/volume/rigidity bound calculators.

The public names load their layer on first access (PEP 562), so importing
the package, or a CLI call, loads only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "Word": "words", "WordError": "words",
    "make_cyclic": "oracles", "make_free": "oracles",
    "SpecError": "splitting", "SplittingSpec": "splitting", "load_spec": "splitting",
    "EllipticElementError": "tree", "check_acylindricity": "tree",
    "classify": "tree", "fixed_set": "tree", "t_set": "tree",
    "CertificationFailure": "freeness", "WitnessInputError": "freeness",
    "product_translation_length": "freeness", "semigroup_witness": "freeness",
    "witness_elliptic_hyperbolic": "freeness", "witness_elliptic_pair": "freeness",
    "witness_hyperbolic_pair": "freeness",
    "DichotomyError": "manifolds", "ManifoldError": "manifolds",
}

__all__ = list(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
