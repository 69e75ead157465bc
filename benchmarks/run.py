#!/usr/bin/env python3
"""nilharm benchmark: time to a verified answer, end to end and per layer.

Usage, from the repository root:

    python3 benchmarks/run.py --workload orbit_mc --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one table
    python3 benchmarks/run.py --smoke                 # the benchmark's own tests

Workloads (see README.md in this directory for why each exists):
orbit_mc, inversion_quadrature, catalog_fock, cli_cold.

A run draws the inputs of pass p from numpy's generator seeded with
(seed, p), runs the workload's tasks one after another, checks every
output against an independent reference outside the timed region, and
repeats passes until --seconds have been spent.  With --trace 0 it
reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it runs
one untraced and one traced pass of the same inputs and reports the
per-layer metrics.  Gated times are in reference seconds (see speed.py);
the measured ones are printed beside them.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.

BLAS and OpenMP are pinned to one thread before numpy is imported, and
each workload runs in one process (cli_cold: one child at a time).
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import cli_workload  # noqa: E402
import workloads  # noqa: E402
from checks import check_outcomes, fingerprint, holds, run_tasks  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = (*workloads.IN_PROCESS, "cli_cold")

# Later claims of a gain must also hold on this seed, which is not used
# while a change is written.
HELD_OUT_SEED = 7919

SETUP_REPEATS = {"full": 5, "smoke": 2}
IMPORT_PROBES = {"full": 3, "smoke": 1}

# A set-up child times its own import, then runs the speed kernel at once,
# on the same CPU at nearly the same moment, to convert that time to
# reference seconds.
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
{body}
elapsed = time.perf_counter() - t0
sys.path.insert(0, {here!r})
import speed
print(repr(elapsed), repr(elapsed * speed.REFERENCE_S / speed.kernel_median(5)))
"""
_BUILD_BODY = """import nilharm
for case, params in {cases!r}:
    nilharm.build_case(case, **params)"""


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup_seconds(name, mode):
    """Medians over fresh interpreters of the workload's set-up, import
    nilharm plus build_case of its algebras (bare import nilharm.cli for
    cli_cold): (reference seconds, measured seconds, count)."""
    if name == "cli_cold":
        body = "import nilharm.cli"
    else:
        body = _BUILD_BODY.format(cases=list(workloads.IN_PROCESS[name][0]))
    code = _SETUP_CODE.format(body=body, here=str(HERE))
    raw, ref = [], []
    for _ in range(SETUP_REPEATS[mode]):
        proc = subprocess.run([sys.executable, "-c", code], env=cli_workload.child_env(SRC),
                              capture_output=True, text=True, timeout=120, check=True)
        measured, reference = (float(t) for t in proc.stdout.split())
        raw.append(measured)
        ref.append(reference)
    return statistics.median(ref), statistics.median(raw), len(raw)


def import_library():
    import importlib

    return SimpleNamespace(**{m: importlib.import_module(f"nilharm.{m}") for m in
                              ("algebra", "forms", "numerics", "spherical", "plancherel", "fock")})


class Bench:
    """One workload at one size: builds a pass's tasks from its seed."""

    def __init__(self, name, mode):
        self.name = name
        if name == "cli_cold":
            self.size = cli_workload.SIZES[mode]
            self.plain = cli_workload.Runner(SRC)
        else:
            self.cases, self.make_tasks, sizes = workloads.IN_PROCESS[name]
            self.size = sizes[mode]
            self.nh = import_library()
            self.algs = {workloads.key(c, p): self.nh.algebra.build_case(c, **p) for c, p in self.cases}

    def tasks(self, seed, pass_index, runner=None):
        rng = np.random.default_rng([seed, pass_index])
        if self.name == "cli_cold":
            tasks = cli_workload.cli_tasks(rng, self.size, runner or self.plain)
        else:
            tasks = self.make_tasks(self.nh, self.algs, rng, self.size)
        # a seeded order spreads each kind of task over the pass, so that
        # its latencies sample the machine at many moments
        return [tasks[i] for i in rng.permutation(len(tasks))]

    def run_pass(self, seed, pass_index, runner=None, probe=None):
        outcomes = run_tasks(self.tasks(seed, pass_index, runner), probe)
        check_outcomes(outcomes)
        return outcomes


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _gmean_ms(seconds):
    return math.exp(statistics.fmean(math.log(s * 1e3) for s in seconds))


def measure_untraced(name, seed, seconds, mode):
    """End-to-end metrics: passes until `seconds` are spent.  Times are
    in reference seconds (speed.py); the measured ones are printed too."""
    setup_ref, setup_raw, setup_n = setup_seconds(name, mode)
    bench = Bench(name, mode)
    probe = SpeedProbe()
    outcomes, walls, walls_raw = [], [], []
    t_begin = time.perf_counter()
    while True:
        done = bench.run_pass(seed, len(walls), probe=probe)
        for o in done:
            o.output = None   # checked; keeping outputs would grow peak RSS per pass
        outcomes += done
        walls.append(sum(o.ref_seconds for o in done))
        walls_raw.append(sum(o.seconds for o in done))
        elapsed = time.perf_counter() - t_begin
        if elapsed + elapsed / len(walls) > seconds:
            break
    attempted = len(outcomes)
    passed = sum(o.ok for o in outcomes)
    metrics = {
        "setup_s": (setup_ref, setup_n),
        "wall_s": (statistics.median(walls), len(walls)),
        "task_gmean_ms": (_gmean_ms(o.ref_seconds for o in outcomes), attempted),
        "peak_rss_mb": (peak_rss_mb(name), 1),
        "pass_frac": (passed / attempted, attempted),
    }
    info = {
        "setup_measured_s": (setup_raw, setup_n),
        "wall_measured_s": (statistics.median(walls_raw), len(walls)),
        "task_gmean_measured_ms": (_gmean_ms(o.seconds for o in outcomes), attempted),
        "speed_kernel_ms": (statistics.median(probe.samples) * 1e3, len(probe.samples)),
    }
    if name == "cli_cold":
        info["cli_p50_measured_ms"] = (statistics.median(o.seconds * 1e3 for o in outcomes),
                                       attempted)
    return metrics, info, outcomes


def _mark_identical(outcomes, reference, label):
    for o, ref in zip(outcomes, reference):
        same = fingerprint(o.output) == fingerprint(ref.output)
        o.checks = tuple(o.checks) + (holds(label, same),)


def measure_traced(name, seed, mode):
    """Per-layer metrics: an untraced pass, then the same inputs traced."""
    bench = Bench(name, mode)
    warm = []
    if name != "cli_cold":
        # first calls pay lazy set-up that the traced pass would not
        warm = bench.run_pass(seed, 0)
    base = bench.run_pass(seed, 0)
    if warm:
        _mark_identical(base, warm, "repeat bit-identical")

    tracer = Tracer()
    traced_runner = cli_workload.Runner(SRC, traced=True)
    t0 = time.perf_counter()
    if name == "cli_cold":
        traced = bench.run_pass(seed, 0, traced_runner)
        reports = traced_runner.reports
    else:
        tracer.install()
        try:
            traced = bench.run_pass(seed, 0)
        finally:
            tracer.uninstall()
    total = time.perf_counter() - t0
    _mark_identical(traced, base, "traced output bit-identical")

    if name != "cli_cold":
        probe = cli_workload.Runner(SRC, traced=True)
        for _ in range(IMPORT_PROBES[mode]):
            probe(["--import-only"])
        reports = probe.reports
    for rep in reports:
        for layer, secs in rep["self_s"].items():
            tracer.self_s[layer] += secs
        tracer.counts.update(rep["counts"])
    layer = tracer.layer_metrics()
    layer["cli.import_s"] = statistics.median(r["import_s"] for r in reports)
    layer["cli.import_scipy_s"] = statistics.median(r["import_scipy_s"] for r in reports)
    layer["cli.bytes_out"] = sum(r["bytes_out"] for r in reports)
    layer["bench.self_s"] = total - sum(layer[f"{m}.self_s"] for m in LAYERS)
    layer["trace.overhead_s"] = sum(o.seconds for o in traced) - sum(o.seconds for o in base)
    metrics = {k: (v, len(reports) if k.startswith("cli.import") else 1) for k, v in layer.items()}
    return metrics, {}, warm + base + traced


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment():
    import scipy

    try:
        # git may not look above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "nilharm").glob("*.py")))
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS}, "cpu_count": os.cpu_count(),
        "git_sha": sha, "src_lines_nilharm": src_lines, "held_out_seed": HELD_OUT_SEED,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cache_control": "none; caches stay warm between passes",
    }


def result_line(name, trace, metrics, info, outcomes):
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    failed = [o for o in outcomes if not o.ok]
    unexpected = [o for o in failed if o.task.known_defect is None]
    print(f"# {name} trace={trace}: {len(outcomes)} tasks attempted, {len(failed)} failed "
          f"({len(unexpected)} outside the known defects)")
    times = Counter(o.task.name for o in failed)
    for o in {o.task.name: o for o in failed}.values():
        bad = [f"{c.label}: got {c.got:.6g} want {c.want:.6g} tol {c.tol:.3g}"
               for c in o.checks if not c.ok()]
        note = f" [known defect: {o.task.known_defect}]" if o.task.known_defect else ""
        print(f"#   FAIL x{times[o.task.name]} {o.task.name}: "
              f"{o.error or '; '.join(bad) or 'no checks'}{note}")
    for m in wanted:
        value, n = metrics[m["name"]]
        print(f"#   {m['name']:28s} {value:>16.6g} {m['unit']:6s} n={n}")
    for key, (value, n) in info.items():
        print(f"#   {key:28s} {value:>16.6g} {key.rsplit('_', 1)[1]:6s} n={n}  (not gated)")
    print("# env " + json.dumps(environment()))
    return {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": _number(metrics[m["name"]][0]), "unit": m["unit"]}
                    for m in wanted},
    }


def _number(value):
    return int(value) if isinstance(value, (int, np.integer)) else float(value)


def run_one(name, seed, seconds, trace, mode="full"):
    if trace:
        metrics, info, outcomes = measure_traced(name, seed, mode)
    else:
        metrics, info, outcomes = measure_untraced(name, seed, seconds, mode)
    return result_line(name, trace, metrics, info, outcomes), outcomes


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                              capture_output=True, text=True, timeout=900, check=True)
        sys.stdout.write("".join(ln + "\n" for ln in proc.stdout.splitlines()[:-1]))
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(f"# {'workload':22s} {'metric':28s} {'value':>16s} unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"# {name:22s} {metric:28s} {m['value']:>16.6g} {m['unit']}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own tests at small sizes")
    args = parser.parse_args(argv)
    if not (SRC / "nilharm" / "__init__.py").is_file():
        print(f"error: no nilharm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for this process and its children, so that the speed kernel
    # runs where the tasks run (the two vCPUs drift independently)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.smoke:
        import smoke

        return smoke.main(run_one, load_spec(), WORKLOADS)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
