"""Command-line surface tying the library together.

Verbs: build, classify, pfaffian, density, spherical, invert, selftest;
density and spherical write CSV or JSON (--format), the others JSON.
Every artifact embeds the full run configuration (including the seed)
so identical invocations produce byte-identical output; floats are
emitted with 17 significant digits for exact round-trips.  Exit codes:
2 on bad arguments (nan or inf among them), 1 on a failed selftest.
The verbs that need fock, plancherel or spherical import them inside,
so build, classify and pfaffian start without loading those modules.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import __version__
from .algebra import LauretAlgebra, build_case, check_structure
from .cases import CASES
from .forms import Functional, classify, pfaffian_via_weights
from .numerics import BudgetError, as_rng, node_budget


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt(x):
    """17-significant-digit float token (round-trips exactly); JSON has
    no token for nan or inf, so they are a ValueError."""
    if not np.isfinite(x := float(x)):
        raise ValueError(f"the result has a non-finite value ({x}); the inputs are out of range")
    return format(x, ".17g")


def _plain(obj):
    """Convert numpy containers and scalars to plain Python."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def _json_text(obj, indent=0):
    """Serialize with .17g floats; deterministic layout."""
    obj = _plain(obj) if isinstance(obj, (np.ndarray, np.generic, complex)) else obj
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad, inner = "  " * indent, "  " * (indent + 1)
        items = [f"{inner}{json.dumps(str(k))}: {_json_text(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float, str, bool, type(None))) for v in obj):
            return "[" + ", ".join(_json_text(v, indent) for v in obj) + "]"
        pad, inner = "  " * indent, "  " * (indent + 1)
        items = [f"{inner}{_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    return json.dumps(obj)


def _csv_text(comments, header, rows):
    """Self-describing CSV: '#' comment lines, header, .17g floats."""
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, (float, np.floating)) else v for v in row])
    return buf.getvalue()


def _emit_table(args, header, rows):
    """A density or spherical table as JSON, or as CSV with the config."""
    cfg = _run_config(args)
    if args.format == "json":
        _emit(_json_text({"config": cfg, "columns": header, "rows": rows}), args.out)
    else:
        comments = [f"nilharm {__version__} {args.verb}", "config: " + json.dumps(_plain(cfg), separators=(",", ":"))]
        _emit(_csv_text(comments, header, rows), args.out)


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

# the names of cases.CASES in first-seen order, which keeps each family's
# own order in the params that _run_config writes
_PARAM_FLAGS = tuple(dict.fromkeys(name for family in CASES.values() for name in family.names))


def _run_config(args):
    """The full configuration embedded in every artifact."""
    cfg = {"verb": args.verb, "version": __version__}
    if getattr(args, "case", None) is not None:
        cfg["case"] = args.case
        cfg["params"] = {p: getattr(args, p) for p in _PARAM_FLAGS if getattr(args, p, None) is not None}
    for key in ("lam", "H", "Z", "j", "index", "z_norm", "v_norm", "points",
                "grid", "mc_samples", "seed", "format", "out"):
        if hasattr(args, key):
            val = getattr(args, key)
            cfg["lambda" if key == "lam" else key] = val
    cfg["budget"] = node_budget()
    return cfg


def _build_alg(args) -> LauretAlgebra:
    params = {p: getattr(args, p) for p in _PARAM_FLAGS if getattr(args, p, None) is not None}
    return build_case(args.case, **params)


def _finite(token):
    """float(token), with ValueError for nan and inf as for a non-number."""
    if not np.isfinite(val := float(token)):
        raise ValueError(f"expected a finite number, got {token!r}")
    return val


def _parse_groups(text):
    """';'-separated factor groups of ','-separated finite floats."""
    return tuple(
        np.array([_finite(tok) for tok in group.split(",") if tok.strip()])
        for group in text.split(";")
    )


def default_direction(alg: LauretAlgebra):
    """Unit-norm regular chamber direction on which no tabulated weight
    vanishes.  Each factor of g' takes descending integer-spaced angles,
    scaled by its position (1, 2, ...) so that two factors cannot cancel
    on a block they share (III).  The su(n) angles sum to zero; for odd
    n that leaves a zero middle angle, itself a weight of V, so they
    shift by -1/(2n) and the first angle takes up the trace.  Central
    coordinates sit at the irrational sqrt(1/2) so weights combining
    angles with the central frequency (cases VIII, IX, X) cannot vanish."""
    rs = alg.root_system()
    if alg.dim_gp and not rs.factors:
        raise NotImplementedError(f"case {alg.spec.case} {alg.spec.params} has no chamber "
                                  "for a default direction; pass --lambda random")
    if alg.dim_gp:
        flats = []
        for scale, f in enumerate(rs.factors, start=1):
            if f.kind == "su":
                a = (f.n + 1) / 2.0 - np.arange(1, f.n + 1)
                if f.n % 2:
                    a -= 0.5 / f.n
                    a[0] += 0.5
            else:
                a = np.arange(f.angle_len, 0, -1, dtype=float)
            flats.append(scale * a)
        xp = alg.ops.embed_angles(tuple(flats))
    else:
        xp = np.zeros(0)
    x = alg.join_center(xp, np.full(alg.dim_c, np.sqrt(0.5)))
    return x / np.linalg.norm(x)


def functional_from_args(alg: LauretAlgebra, args):
    """Resolve --H/--Z/--lambda into g-coordinates of a functional.

    --H/--Z give chamber data (scaled by a numeric --lambda when both
    are present); --lambda random draws a Haar-random unit functional
    from --seed; a bare numeric --lambda scales the case's default
    regular direction.
    """
    lam = getattr(args, "lam", None)
    scale = 1.0 if lam in (None, "random") else _finite(lam)
    if getattr(args, "H", None) is not None or getattr(args, "Z", None) is not None:
        if lam == "random":
            raise ValueError("--lambda random conflicts with explicit --H/--Z")
        H = _parse_groups(args.H) if args.H is not None else None
        Z = [_finite(t) for t in args.Z.split(",")] if args.Z else None
        return scale * alg.from_chamber(H, Z)
    if lam == "random":
        rng = as_rng(args.seed)
        d = rng.standard_normal(alg.dim_g)
        return d / np.linalg.norm(d)
    return scale * default_direction(alg)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_build(args):
    alg = _build_alg(args)
    report = check_structure(alg, rng=as_rng(args.seed), trials=20)
    out = {
        "config": _run_config(args),
        "case": alg.spec.case,
        "params": alg.spec.params,
        "dim_g": alg.dim_g,
        "dim_gp": alg.dim_gp,
        "dim_c": alg.dim_c,
        "dim_v": alg.dim_v,
        "v_blocks": [[name, dim] for name, dim in alg.ops.v_blocks],
        "structure_residuals": {
            "skewness": report.max_skewness,
            "closure": report.max_closure_residual,
            "jacobi": report.max_jacobi_residual,
            "invariance": report.max_invariance_residual,
            "bracket_identity": report.max_bracket_residual,
        },
        "pi": _plain(alg.pi),
        "bracket_tensor": _plain(alg.bracket_tensor),
    }
    _emit(_json_text(out), args.out)
    return 0


def _cmd_classify(args):
    """The classify and pfaffian verbs: one report, which pfaffian
    extends by the relative deviation of the two Pfaffians."""
    alg = _build_alg(args)
    x = functional_from_args(alg, args)
    verdict = classify(alg, x)
    weights = pfaffian_via_weights(alg, x) if alg.ops.has_weights else None
    out = {
        "config": _run_config(args),
        "functional": _plain(x),
        "verdict": verdict.verdict,
        "kernel_dim": verdict.kernel_dim,
        "pfaffian_numeric": verdict.pfaffian,
        "pfaffian_weights": weights,
    }
    if args.verb == "pfaffian":
        rel = None
        if weights is not None:
            scale = max(abs(verdict.pfaffian), abs(weights), 1e-300)
            rel = abs(verdict.pfaffian - weights) / scale
        out["rel_deviation"] = rel
    _emit(_json_text(out), args.out)
    return 0


def _check_points(args):
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")


def _cmd_density(args):
    from . import plancherel

    _check_points(args)
    alg = _build_alg(args)
    base = functional_from_args(alg, args)
    npts = args.points
    rows = []
    for kk in range(1, npts + 1):
        s = kk / npts
        fn = Functional(alg, s * base)
        dens = plancherel.density_of(alg, fn)
        angles, zc, _ = fn.chamber
        rows.append([s, *np.concatenate([*angles, zc]), dens.theta, dens.pfaffian, dens.value])
    header = (
        ["s"]
        + [f"h{i + 1}" for i in range(sum(f.angle_len for f in alg.root_system().factors))]
        + [f"z{i + 1}" for i in range(alg.dim_c)]
        + ["theta", "pfaffian", "density"]
    )
    _emit_table(args, header, rows)
    return 0


def _cmd_spherical(args):
    from . import fock, spherical as sph

    _check_points(args)
    args.z_norm, args.v_norm = _finite(args.z_norm), _finite(args.v_norm)
    alg = _build_alg(args)
    x = functional_from_args(alg, args)
    if args.index is not None:
        index = tuple(int(t) for t in args.index.split(","))
    elif args.j is not None:
        index = (args.j,)
    else:
        # without runs the index is empty, and SphericalIndex says why
        index = (0,) * len(fock.kx_blocks(alg.spec.case, alg.spec.params) or ())
    idx = sph.spherical_index(alg, x, index)
    vnorms = np.linspace(0.0, args.v_norm, args.points)
    zvec = np.zeros(alg.dim_g)
    zvec[0] = args.z_norm
    rows = []
    for vn in vnorms:
        vvec = np.zeros(alg.dim_v)
        vvec[0] = vn
        val = sph.phi(idx, zvec, vvec, samples=args.mc_samples, seed=args.seed)
        point = ";".join(_fmt(c) for c in np.concatenate([zvec, vvec]))
        rows.append(
            [alg.spec.case, idx.lam, ";".join(str(i) for i in index), point,
             float(np.real(val.value)), float(np.imag(val.value)), val.stderr]
        )
    _emit_table(args, ["case", "lambda", "index", "point", "re", "im", "stderr"], rows)
    return 0


def _cmd_invert(args):
    from . import plancherel

    t0 = time.monotonic()
    cfg = _run_config(args)
    # the flags the user set; the library holds the defaults
    opts = {key: val for key, val in (("J", args.j), ("lam_nodes", args.grid)) if val is not None}
    if args.case not in ("VII", "I"):
        raise ValueError("invert supports --case VII (Heisenberg) and --case I")
    if (args.n or 1) != 1:
        raise ValueError(f"the case {args.case} inversion check runs at n = 1")
    if args.case == "VII":
        rep = plancherel.heisenberg_inversion_check(**opts)
        out = {
            "config": cfg,
            "target": "heisenberg",
            "probe_points": _plain(rep.probes),
            "f_values": _plain(rep.f_values),
            "reconstructed": _plain(rep.reconstructed),
            "fitted_c": rep.fitted_c,
            "classical_c": rep.classical_c,
            "per_point_error": _plain(rep.rel_errors),
            "truncation": {
                "J": rep.J,
                "lam_nodes": rep.lam_nodes,
                "lam_max": rep.lam_max,
                "raw_per_point_error": _plain(rep.raw_rel_errors),
            },
            "passed": rep.passed(),
        }
    else:
        rep = plancherel.general_inversion_probe(**opts, samples=args.mc_samples, seed=args.seed)
        out = {
            "config": cfg,
            "target": "case-I-identity",
            "widths": _plain(rep.widths),
            "ratios": _plain(rep.ratios),
            "stderrs": _plain(rep.stderrs),
            "spread": rep.spread,
            "combined_sigma": rep.combined_sigma,
            "truncation": {"J": rep.J, "samples": rep.samples},
            "consistent": rep.consistent(),
        }
    print(f"# runtime: {time.monotonic() - t0:.2f} s", file=sys.stderr)
    _emit(_json_text(out), args.out)
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _selftest_checks(seed):
    """(name, runner) pairs; each runner returns (ok, detail)."""
    from . import fock, plancherel, spherical as sph

    def structure():
        worst = 0.0
        for case, params in [("I", {"n": 1}), ("III", {"k1": 1, "k2": 1}),
                             ("V", {"n": 3}), ("VII", {"n": 2}), ("IX", {"n": 3})]:
            rep = check_structure(build_case(case, **params), rng=as_rng(seed), trials=40)
            worst = max(worst, rep.max_skewness, rep.max_closure_residual,
                        rep.max_jacobi_residual, rep.max_bracket_residual)
        return worst < 1e-12, f"max residual {worst:.2e}"

    def classifier():
        rng = as_rng(seed)
        for case, params, expect in [
            ("II", {"n": 1}, False), ("VI", {"n": 3}, False),
            ("I", {"n": 1}, True), ("V", {"n": 3}, True),
            ("VII", {"n": 2}, True), ("IX", {"n": 3}, True),
        ]:
            alg = build_case(case, **params)
            for _ in range(5):
                x = rng.standard_normal(alg.dim_g)
                if classify(alg, x).square_integrable != expect:
                    return False, f"case {case} misclassified"
        return True, "exception list reproduced"

    def weight_pfaffian():
        rng = as_rng(seed)
        worst = 0.0
        for case, params in [("I", {"n": 2}), ("V", {"n": 3}), ("VII", {"n": 2}), ("IX", {"n": 3})]:
            alg = build_case(case, **params)
            for _ in range(10):
                x = rng.standard_normal(alg.dim_g)
                a = classify(alg, x).pfaffian
                b = pfaffian_via_weights(alg, x)
                worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
        return worst < 1e-9, f"max rel dev {worst:.2e}"

    def torus_roundtrip():
        # the Cartan element h that from_chamber rebuilds from the chart
        # of x is conjugate to x, so it charts to the same angles and
        # pi(h), pi(x) share one spectrum
        alg = build_case("V", n=3)
        worst = 0.0
        for x in as_rng(seed).standard_normal((10, alg.dim_g)):
            angles, zc, _ = Functional(alg, x).chamber
            h = alg.from_chamber(angles, zc)
            spectra = np.linalg.eigvalsh(1j * alg.pi_of(np.stack([x, h])))
            worst = max(worst, float(np.max(np.abs(Functional(alg, h).chamber[0][0] - angles[0]))),
                        float(np.max(np.abs(spectra[0] - spectra[1]))))
        return worst < 1e-10, f"max round-trip residual {worst:.2e}"

    def fock_oracle():
        worst = 0.0
        lam = 1.3
        for case in ("VII", "I"):
            alg = build_case(case, n=1)
            idx = sph.spherical_index(alg, lam * default_direction(alg), 1)
            for vn in (0.4, 1.1):
                v = np.zeros(alg.dim_v)
                v[0] = vn
                a = sph.psi_closed(idx, 0.2, v)
                b = fock.psi_numeric(case, lam, 1, 0.2, v)
                worst = max(worst, abs(a - b))
        return worst < 1e-6, f"max closed-vs-Fock dev {worst:.2e}"

    def projections():
        rep01 = plancherel.projection_check(1.5, 0, 1, nodes=80)
        rep11 = plancherel.projection_check(1.5, 1, 1, nodes=80)
        ok = rep01.cross_max < 1e-6 and rep11.proportionality_residual < 1e-5
        return ok, f"cross {rep01.cross_max:.2e}, residual {rep11.proportionality_residual:.2e}"

    def gram_schmidt():
        from .numerics import laguerre
        polys = sph.canonical_polynomials("VII", {"n": 2}, 3)
        s = np.array([0.7, 1.9])
        worst = 0.0
        for j, q in enumerate(polys):
            lead = laguerre(j, 1, np.zeros(1))[0]
            ref = laguerre(j, 1, s / 2.0) / lead
            # the coefficient table, summed as monomials
            got = sum(c * s**e for (e,), c in q.coeffs)
            worst = max(worst, float(np.max(np.abs(got - ref))))
        return worst < 1e-8, f"max Laguerre dev {worst:.2e}"

    def inversion():
        rep = plancherel.heisenberg_inversion_check(J=10, lam_nodes=48, vnodes=120)
        return rep.max_rel_error < 1e-4, f"max rel error {rep.max_rel_error:.2e}"

    return [
        ("structure", structure),
        ("classifier", classifier),
        ("weight-pfaffian", weight_pfaffian),
        ("torus-roundtrip", torus_roundtrip),
        ("fock-oracle", fock_oracle),
        ("projections", projections),
        ("gram-schmidt", gram_schmidt),
        ("inversion", inversion),
    ]


def _cmd_selftest(args):
    as_rng(args.seed)  # a bad seed is bad input, not a failed check
    checks = _selftest_checks(args.seed)
    failures = 0
    for name, runner in checks:
        try:
            ok, detail = runner()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"error: {exc}"
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{status}  {name:18s} {detail}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_case_flags(p):
    p.add_argument("--case", required=True, help="case label I..X")
    for flag in _PARAM_FLAGS:
        p.add_argument(f"--{flag}", type=int, default=None)


def _add_functional_flags(p):
    p.add_argument("--lambda", dest="lam", default=None,
                   help="'random' or a float scale for the functional")
    p.add_argument("--H", default=None,
                   help="chamber angles, ','-separated, factors split by ';'")
    p.add_argument("--Z", default=None, help="central coordinates, ','-separated")


def _add_output_flags(p, tabular):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    if tabular:
        p.add_argument("--format", choices=("json", "csv"), default="csv")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nilharm",
        description="Harmonic analysis on two-step nilpotent groups of Lauret type",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="dump the assembled algebra as JSON")
    _add_case_flags(p)
    _add_output_flags(p, False)
    p.set_defaults(func=_cmd_build)

    for verb, hlp in (
        ("classify", "square-integrability verdict for a functional"),
        ("pfaffian", "numeric vs weight-formula Pfaffian"),
    ):
        p = sub.add_parser(verb, help=hlp)
        _add_case_flags(p)
        _add_functional_flags(p)
        _add_output_flags(p, False)
        p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("density", help="Plancherel density along a chamber ray")
    _add_case_flags(p)
    _add_functional_flags(p)
    p.add_argument("--points", type=int, default=16, help="ray sample count")
    _add_output_flags(p, True)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("spherical", help="tabulate spherical function values")
    _add_case_flags(p)
    _add_functional_flags(p)
    p.add_argument("--j", type=int, default=None,
                   help="one-run component index (default: degree 0 on every run)")
    p.add_argument("--index", default=None, help="multi-index, ','-separated")
    p.add_argument("--z-norm", dest="z_norm", default=0.0)
    p.add_argument("--v-norm", dest="v_norm", default=2.0,
                   help="largest |v| on the sweep")
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=20000)
    _add_output_flags(p, True)
    p.set_defaults(func=_cmd_spherical)

    p = sub.add_parser("invert", help="run an inversion check (case VII or I)")
    _add_case_flags(p)
    p.add_argument("--j", type=int, default=None, help="series truncation J")
    p.add_argument("--grid", type=int, default=None, help="frequency node count")
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=4000)
    _add_output_flags(p, False)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("selftest", help="run the invariant scoreboard")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (ValueError, NotImplementedError, BudgetError, FloatingPointError) as exc:
        hint = " (an input is out of floating-point range)" if isinstance(exc, FloatingPointError) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
