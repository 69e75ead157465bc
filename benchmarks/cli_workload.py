"""cli_cold: fresh-process invocations of `python -m nilharm.cli`.

Every invocation is its own task, run one at a time, so import cost,
argument parsing and serialization are paid per request.  The checks
need no library import: exit code, parseable output, byte-identical
repeats, the selftest scoreboard, and closed forms re-derived here.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path

import numpy as np

from checks import MC_SIGMAS, Task, at_most, holds, rel
from tracer import TRACE_MARKER

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)\s*$")

SIZES = {
    "full": {"repeats": 3, "ix_samples": 2000, "ix_points": 5, "invert_j": 10, "invert_grid": 32,
             "probe_samples": 1000},
    "smoke": {"repeats": 2, "ix_samples": 200, "ix_points": 2, "invert_j": 6, "invert_grid": 16,
              "probe_samples": 200},
}


@dataclass(frozen=True)
class CliRun:
    """What a check may look at: exit code and standard output."""

    returncode: int
    stdout: bytes


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


class Runner:
    """Runs one invocation per call, untraced or under the layer tracer.

    A traced invocation is a fresh interpreter started with -X importtime
    that imports nilharm.cli, installs the tracer and calls
    nilharm.cli.main; its per-layer report arrives on stderr."""

    def __init__(self, src, traced=False):
        self.env = child_env(src)
        self.traced = traced
        self.reports = []

    def command(self, argv):
        if self.traced:
            return [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), *argv]
        return [sys.executable, "-m", "nilharm.cli", *argv]

    def __call__(self, argv):
        proc = subprocess.run(self.command(argv), env=self.env, capture_output=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if self.traced:
            self.reports.append(parse_child_report(proc.stderr.decode(errors="replace")))
        return CliRun(proc.returncode, proc.stdout)


def parse_child_report(stderr):
    """The traced child's JSON report plus the scipy share of its import
    (sum of -X importtime self times of scipy modules)."""
    report = None
    scipy_us = 0
    for line in stderr.splitlines():
        if line.startswith(TRACE_MARKER):
            report = json.loads(line[len(TRACE_MARKER):])
            continue
        m = _IMPORTTIME.match(line)
        if m and (m.group(2) == "scipy" or m.group(2).startswith("scipy.")):
            scipy_us += int(m.group(1))
    if report is None:
        raise RuntimeError("traced CLI child printed no trace report")
    report["import_scipy_s"] = scipy_us * 1e-6
    return report


# ---------------------------------------------------------------------------
# parsing and references
# ---------------------------------------------------------------------------

def _ok(run):
    return holds("exit code 0", run.returncode == 0)


def _json(run):
    return json.loads(run.stdout.decode())


def _csv_rows(run):
    lines = [ln for ln in run.stdout.decode().splitlines() if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header = next(reader)
    return [dict(zip(header, row)) for row in reader]


def _laguerre(j, alpha, y):
    return sum((-1) ** k * comb(j + alpha, j - k) * y**k / factorial(k) for k in range(j + 1))


def _caseI_closed(lam, j, znorm, vnorm):
    """phi for case I(n=1) at z = (znorm, 0, 0), v = (vnorm, 0, 0, 0):
    sin(lam |z|)/(lam |z|) L_j^1(lam |v|^2/2) e^{-lam |v|^2/4}."""
    a = lam * znorm
    angular = np.sin(a) / a if a else 1.0
    x = vnorm**2
    return angular * _laguerre(j, 1, lam * x / 2.0) * np.exp(-lam * x / 4.0)


# ---------------------------------------------------------------------------
# per-verb checks
# ---------------------------------------------------------------------------

def _check_classify(expect_si):
    def check(run, _):
        out = _json(run)
        checks = [_ok(run),
                  holds("verdict matches the exception list",
                        out["verdict"] == ("SquareIntegrable" if expect_si else "Degenerate"))]
        if out["pfaffian_weights"] is not None:
            checks.append(rel("numeric vs weight Pfaffian", out["pfaffian_numeric"],
                              out["pfaffian_weights"], 1e-9))
        else:
            checks.append(holds("kernel is nontrivial", out["kernel_dim"] > 0))
        return checks
    return check


def _check_pfaffian(run, _):
    out = _json(run)
    return [_ok(run), at_most("Pfaffian rel deviation", out["rel_deviation"], 1e-9)]


def _check_density(dim_v):
    def check(run, _):
        rows = _csv_rows(run)
        s = np.array([float(r["s"]) for r in rows])
        pf = np.array([float(r["pfaffian"]) for r in rows])
        theta = np.array([float(r["theta"]) for r in rows])
        dens = np.array([float(r["density"]) for r in rows])
        # |Pf| is homogeneous of degree dim_v / 2 along the ray
        homog = np.max(np.abs(pf / (pf[-1] * s ** (dim_v // 2)) - 1.0))
        return [_ok(run), holds("one row per point", len(rows) == 50),
                at_most("density = theta * Pfaffian", np.max(np.abs(dens / (theta * pf) - 1.0)), 1e-12),
                at_most("Pfaffian homogeneity", homog, 1e-9)]
    return check


def _check_build(dim_g, dim_v):
    def check(run, _):
        out = _json(run)
        worst = max(out["structure_residuals"].values())
        return [_ok(run), at_most("structure residuals", worst, 1e-10),
                holds("dimensions", (out["dim_g"], out["dim_v"]) == (dim_g, dim_v))]
    return check


def _check_spherical_i(lam, j, znorm):
    def check(run, _):
        rows = _csv_rows(run)
        worst = 0.0
        for r in rows:
            vnorm = float(r["point"].split(";")[3])
            ref = _caseI_closed(lam, j, znorm, vnorm)
            worst = max(worst, abs(complex(float(r["re"]), float(r["im"])) - ref) / max(1.0, abs(ref)))
        return [_ok(run), holds("one row per point", len(rows) == 8),
                at_most("closed form re-derived", worst, 1e-12)]
    return check


def _check_spherical_ix(points):
    def check(run, _):
        rows = _csv_rows(run)
        # |phi| <= phi(e) = 1 for a one-dimensional component
        excess = max(max(0.0, abs(complex(float(r["re"]), float(r["im"]))) - 1.0
                         - MC_SIGMAS * float(r["stderr"])) for r in rows)
        return [_ok(run), holds("one row per point", len(rows) == points),
                at_most("bounded by phi(e)", excess, 0.0)]
    return check


def _check_invert_vii(run, _):
    out = _json(run)
    return [_ok(run), at_most("max rel error", max(out["per_point_error"]), 1e-3)]


def _check_invert_i(run, _):
    out = _json(run)
    return [_ok(run), at_most("width ratios agree", out["spread"], MC_SIGMAS * out["combined_sigma"])]


def _check_selftest(run, _):
    last = run.stdout.decode().strip().splitlines()[-1]
    passed, total = (int(t) for t in last.split()[0].split("/"))
    return [_ok(run), holds("selftest all pass", passed == total and total > 0)]


def _repeat_of(first, check):
    def wrapped(run, outputs):
        return check(run, outputs) + [holds("byte-identical repeat", run == outputs[first])]
    return wrapped


def cli_tasks(rng, size, runner):
    def seed():
        return str(int(rng.integers(0, 10**6)))

    def num(lo, hi):
        return f"{rng.uniform(lo, hi):.6f}"

    lam_i, j_i, z_i = num(0.6, 1.8), int(rng.integers(0, 4)), num(0.2, 1.5)
    # a regular su(3) chamber point: distinct nonzero angles summing to 0
    h1, h2 = float(num(0.8, 1.6)), float(num(0.1, 0.6))
    angles = f"{h1:.6f},{h2:.6f},{-(h1 + h2):.6f}"
    index = ",".join(str(int(i)) for i in rng.permutation([1, 0, 0]))
    groups = [
        ("classify IX(n=3)", ["classify", "--case", "IX", "--n", "3", "--lambda", "random",
                              "--seed", seed()], size["repeats"], _check_classify(True)),
        ("pfaffian VII(n=3)", ["pfaffian", "--case", "VII", "--n", "3", "--lambda", num(0.5, 2.5)],
         size["repeats"], _check_pfaffian),
        ("density V(n=3)", ["density", "--case", "V", "--n", "3", "--H", angles,
                            "--points", "50"], size["repeats"], _check_density(6)),
        ("build IX(n=3)", ["build", "--case", "IX", "--n", "3", "--seed", seed()],
         size["repeats"], _check_build(9, 6)),
        ("spherical I(n=1)", ["spherical", "--case", "I", "--n", "1", "--j", str(j_i),
                              "--lambda", lam_i, "--z-norm", z_i, "--points", "8"],
         size["repeats"], _check_spherical_i(float(lam_i), j_i, float(z_i))),
        ("classify II(n=1)", ["classify", "--case", "II", "--n", "1", "--lambda", "random",
                              "--seed", seed()], 1, _check_classify(False)),
        ("spherical IX(n=3)", ["spherical", "--case", "IX", "--n", "3", "--index", index,
                               "--lambda", num(0.6, 1.6), "--z-norm", num(0.2, 1.0),
                               "--points", str(size["ix_points"]),
                               "--mc-samples", str(size["ix_samples"]), "--seed", seed()],
         1, _check_spherical_ix(size["ix_points"])),
        ("invert VII(n=1)", ["invert", "--case", "VII", "--n", "1", "--j", str(size["invert_j"]),
                             "--grid", str(size["invert_grid"])], 1, _check_invert_vii),
        ("invert I(n=1)", ["invert", "--case", "I", "--n", "1",
                           "--mc-samples", str(size["probe_samples"]), "--seed", seed()],
         1, _check_invert_i),
        ("selftest", ["selftest", "--seed", seed()], 1, _check_selftest),
    ]
    tasks = []
    for label, argv, repeats, check in groups:
        first = f"{label} #0"
        for r in range(repeats):
            tasks.append(Task(f"{label} #{r}", lambda argv=argv: runner(argv),
                              check if r == 0 else _repeat_of(first, check)))
    return tasks
