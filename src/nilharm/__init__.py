"""Numerical harmonic analysis on two-step nilpotent Lie groups.

The groups are the N(g, V) models built from a compact algebra g acting
on a Euclidean space V, with bracket characterized by
<[u, v], X> = <pi(X) u, v>.  The package classifies the coadjoint
functionals by square integrability, computes Pfaffian and Plancherel
densities, evaluates spherical functions in closed form and by orbit
averaging, and checks the inversion and orthogonality identities at
desk scale.

`import nilharm` loads no submodule.  The public names below, and the
submodules themselves, load on first attribute access (PEP 562), so
`nilharm.build_case` pays only for algebra, cases, numerics, quat and
torus.  Each access returns the submodule's current attribute and
caches nothing here, so a name patched in its submodule shows through.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names the package exports from it
_EXPORTS = {
    "algebra": ("CaseSpec", "LauretAlgebra", "OrthAutomorphism", "build_case", "check_structure",
                "sample_k_actions"),
    "forms": ("Functional", "SquareIntegrability", "classify", "pfaffian_abs", "pfaffian_via_weights",
              "skew_form", "weight_table"),
    "numerics": ("BudgetError", "QuadratureSpec", "as_rng", "laguerre", "laguerre_all", "node_budget",
                 "sphere_character"),
    "torus": ("RootSystem", "root_system", "theta", "to_chamber"),
    "fock": ("psi_numeric",),
    "spherical": ("SphericalIndex", "SphericalValue", "canonical_polynomials",
                  "functional_equation_residual", "phi", "phi_caseI_closed", "phi_orbit", "psi_closed",
                  "spherical_index"),
    "plancherel": ("PlancherelDensity", "density", "density_of", "general_inversion_probe",
                   "group_convolution", "heisenberg_inversion_check", "projection_check"),
}
_SUBMODULES = {*_EXPORTS, "cases", "cli", "quat"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
