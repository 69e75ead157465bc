"""The library surface that benchmarks/ and the acceptance criteria read.

The benchmark calls these functions by position and by keyword, and its
tracer binds some arguments by parameter name and reads some attributes,
so a rename or a dropped parameter here breaks the benchmark.  This
test makes such a change fail in the tier-1 suite, not only in the
benchmark's smoke run.
"""

import dataclasses
import inspect

import pytest

from nilharm import algebra, cli, fock, forms, numerics, plancherel, spherical, torus

# (module, qualified name, leading parameter names in order)
SIGNATURES = [
    (algebra, "build_case", ["case", "params"]),
    (algebra, "check_structure", ["alg", "rng", "trials"]),
    (algebra, "sample_k_actions", ["alg", "rng", "count"]),
    (algebra, "sample_automorphisms", ["alg", "rng", "count"]),
    (algebra, "LauretAlgebra.group_mult", ["self", "p", "q"]),
    (forms, "classify", ["alg", "x"]),
    (forms, "pfaffian_via_weights", ["alg", "x"]),
    (forms, "pfaffian_abs", ["mat"]),
    (torus, "to_chamber", ["rs", "x"]),
    (numerics, "laguerre", ["k", "alpha", "x"]),
    (numerics, "laguerre_all", ["kmax", "alpha", "x"]),
    (numerics, "QuadratureSpec.cube", ["nodes", "half_width", "dim"]),
    (numerics, "QuadratureSpec.grid", ["self"]),
    (fock, "FockBasis", ["n", "max_degree"]),
    (fock, "pi_matrix", ["lam", "t", "v", "basis"]),
    # truncation_defect is the Fock truncation measure that ROADMAP
    # item 12's trace is to record
    (fock, "truncation_defect", ["lam", "t", "v", "basis"]),
    # called positionally by the benchmark's Fock tasks
    (fock, "psi_numeric", ["case", "lam", "j", "t", "v"]),
    (spherical, "SphericalIndex", ["case", "lam", "index", "params"]),
    (spherical, "spherical_index", ["alg", "x", "index"]),
    (spherical, "psi_closed", ["idx", "t", "v"]),
    (spherical, "phi_caseI_closed", ["lam", "j", "z", "v"]),
    # the tracer binds samples by name
    (spherical, "phi_orbit", ["idx", "z", "v", "samples", "seed"]),
    (spherical, "functional_equation_residual", ["phi", "alg", "x_point", "y_point", "k_actions"]),
    (spherical, "canonical_polynomials", ["case", "params", "max_total_degree", "lam"]),
    (plancherel, "density_of", ["alg", "x"]),
    (plancherel, "group_convolution", ["alg", "f", "g", "spec"]),
    (plancherel, "projection_check", ["lam", "i", "j", "nodes", "points", "seed"]),
    (plancherel, "heisenberg_inversion_check", ["widths", "probes", "J", "lam_max", "lam_nodes",
                                                 "vnodes"]),
    # the tracer binds width_specs and lam_nodes by name
    (plancherel, "general_inversion_probe", ["width_specs", "J", "lam_max", "lam_nodes", "samples",
                                              "seed"]),
    (cli, "main", ["argv"]),
]


def _resolve(module, qualname):
    obj = module
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module,qualname,params", SIGNATURES,
                         ids=[f"{m.__name__.split('.')[-1]}.{q}" for m, q, _ in SIGNATURES])
def test_benchmark_signatures(module, qualname, params):
    got = list(inspect.signature(_resolve(module, qualname)).parameters)
    assert got[: len(params)] == params


# (class, attribute names the benchmark's checks and tracer read)
ATTRIBUTES = [
    (plancherel.InversionReport, ["lam_nodes", "fitted_c", "max_rel_error"]),
    (plancherel.ProjectionReport, ["j", "cross_max", "cprime", "proportionality_residual"]),
    (plancherel.GeneralInversionReport, ["spread", "combined_sigma"]),
    (plancherel.PlancherelDensity, ["square_integrable"]),
    (spherical.FunctionalEquationReport, ["residual", "stderr", "samples"]),
    (forms.SquareIntegrability, ["square_integrable", "pfaffian"]),
    (algebra.StructureReport, ["bracket_rank", "dim_g"]),
]


@pytest.mark.parametrize("cls,names", ATTRIBUTES, ids=[c.__name__ for c, _ in ATTRIBUTES])
def test_benchmark_attributes(cls, names):
    fields = {f.name for f in dataclasses.fields(cls)}
    assert all(n in fields or isinstance(getattr(cls, n, None), property) for n in names)


def test_quadrature_spec_rule():
    # the tracer keys its grid counter on (spec.nodes, spec.rule)
    spec = numerics.QuadratureSpec.cube(4, 1.0, 2)
    assert (spec.nodes, spec.rule) == (4, "gauss-legendre")


def test_case_ops_weight_flag():
    # the catalog workload asks for the weight Pfaffian by this flag
    assert isinstance(algebra.build_case("V", n=3).ops.has_weights, bool)
