"""Group actions on splitting trees, free-subgroup witnesses, weighted
growth entropy, and the systole/volume/rigidity bound calculators."""

__version__ = "0.1.0"

from .words import Word, WordError
from .oracles import make_cyclic, make_free
from .splitting import SpecError, SplittingSpec, load_spec
from .tree import (EllipticElementError, check_acylindricity, classify,
                   fixed_set, t_set)
from .freeness import (CertificationFailure, WitnessInputError,
                       product_translation_length, semigroup_witness,
                       witness_elliptic_hyperbolic, witness_elliptic_pair,
                       witness_hyperbolic_pair)
from .manifolds import DichotomyError, ManifoldError
