"""Exact computer algebra and desk-scale numerics for a compatible family
of quadratic Poisson brackets with an elliptic functional realization.

Subpackage map:

* :mod:`elliptic_poisson.poly`: exact coefficient ring and generator algebra
* :mod:`elliptic_poisson.brackets`: the three basis brackets, their
  combinations, Jacobi / compatibility / closure verifiers
* :mod:`elliptic_poisson.weierstrass`: lattice numerics, the two-point
  bracket, symmetric evaluation
* :mod:`elliptic_poisson.casimirs`: central-element constructions, their
  centrality, and the involution of the pencil family
* :mod:`elliptic_poisson.leaves`: the point-evaluation homomorphism,
  kernel and nondegeneracy checks
* :mod:`elliptic_poisson.report`: check reports, the shared pass rule and
  failure records (``Tally``), JSON and table rendering
* :mod:`elliptic_poisson.cli`: command-line verification driver
"""

from .poly import EPoly, IndexSet, ParamPoly, parse_epoly, parse_parampoly
from .brackets import (
    BracketSpec,
    SDiffSpec,
    bracket_basis,
    bracket_poly,
    generator_bracket,
    jacobiator,
    s_diff,
    verify_closure,
    verify_jacobi_window,
)
from .casimirs import (
    CasimirSet,
    FMatrix,
    IntegrityError,
    build_matrix,
    casimir_even,
    casimir_odd,
    casimirs,
    fmul,
    involution_family,
    rank1_identity_check,
    sym_det,
    verify_central,
)
from .weierstrass import (
    Lattice,
    NearSingularError,
    PoleProximityError,
    SamplePlan,
    e_func,
    func_bracket,
    identity5_residual,
    lattice_init,
    sym_eval,
    verify_functional,
    weier_eval,
)
from .leaves import (
    LeafConfig,
    LeafSample,
    diagonal_vanish_check,
    kernel_check,
    leaf_bracket_xp,
    nondegeneracy_check,
    prop3_check,
    xp_eval,
)
from .report import Report

__version__ = "0.1.0"
