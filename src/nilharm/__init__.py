"""Numerical harmonic analysis on two-step nilpotent Lie groups.

The groups are the N(g, V) models built from a compact algebra g acting
on a Euclidean space V, with bracket characterized by
<[u, v], X> = <pi(X) u, v>.  The package classifies the coadjoint
functionals by square integrability, computes Pfaffian and Plancherel
densities, evaluates spherical functions in closed form and by orbit
averaging, and checks the inversion and orthogonality identities at
desk scale.
"""

__version__ = "0.1.0"

from .algebra import (
    CaseSpec,
    LauretAlgebra,
    OrthAutomorphism,
    build_case,
    check_structure,
    sample_automorphisms,
    sample_k_actions,
)
from .forms import (
    Functional,
    SquareIntegrability,
    classify,
    pfaffian_abs,
    pfaffian_via_weights,
    skew_form,
    weight_table,
)
from .numerics import (
    BudgetError,
    QuadratureSpec,
    as_rng,
    laguerre,
    laguerre_all,
    node_budget,
    sphere_character,
)
from .torus import RootSystem, root_system, theta, to_chamber
from .fock import psi_numeric
from .spherical import (
    SphericalIndex,
    SphericalValue,
    canonical_polynomials,
    functional_equation_residual,
    phi_caseI_closed,
    phi_orbit,
    psi_closed,
    spherical_index,
)
from .plancherel import (
    PlancherelDensity,
    density,
    density_of,
    general_inversion_probe,
    group_convolution,
    heisenberg_inversion_check,
    projection_check,
)

__all__ = [
    "CaseSpec",
    "LauretAlgebra",
    "OrthAutomorphism",
    "build_case",
    "check_structure",
    "sample_automorphisms",
    "sample_k_actions",
    "Functional",
    "SquareIntegrability",
    "classify",
    "pfaffian_abs",
    "pfaffian_via_weights",
    "skew_form",
    "weight_table",
    "BudgetError",
    "QuadratureSpec",
    "as_rng",
    "laguerre",
    "laguerre_all",
    "node_budget",
    "sphere_character",
    "RootSystem",
    "root_system",
    "theta",
    "to_chamber",
    "psi_numeric",
    "SphericalIndex",
    "SphericalValue",
    "canonical_polynomials",
    "functional_equation_residual",
    "phi_caseI_closed",
    "phi_orbit",
    "psi_closed",
    "spherical_index",
    "PlancherelDensity",
    "density",
    "density_of",
    "general_inversion_probe",
    "group_convolution",
    "heisenberg_inversion_check",
    "projection_check",
    "__version__",
]
