"""The benchmark's own tests, run by `run.py --smoke` at small sizes.

For every workload, untraced and traced:
  * every end-to-end (untraced) or per-layer (traced) metric of
    BENCHMARK.json is emitted, with its unit;
  * no task fails outside the declared known defects;
  * every task that ran returned checks, and every check fails when its
    reference is moved past the tolerance, so no check is dead;
  * the traced pass reproduces the untraced pass bit for bit, and the
    tracer leaves the library untouched afterwards.
"""

import sys


def _wrapped_leftovers():
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "nilharm" or name.startswith("nilharm."):
            found += [f"{name}.{attr}" for attr, obj in vars(mod).items()
                      if hasattr(obj, "__wrapped_original__")]
            for cls in [o for o in vars(mod).values() if isinstance(o, type)]:
                found += [f"{name}.{cls.__name__}.{attr}" for attr, obj in vars(cls).items()
                          if hasattr(getattr(obj, "__func__", obj), "__wrapped_original__")]
    return found


def main(run_one, spec, workloads, seed=1):
    failures = []

    def expect(ok, what):
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name in workloads:
        for trace in (0, 1):
            tag = f"{name} trace={trace}"
            result, outcomes = run_one(name, seed, 0, trace, mode="smoke")
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == wanted, f"{tag}: every metric emitted with its unit")
            expect(result["correct"] and result["attempted"] > 0,
                   f"{tag}: no failure outside the known defects")
            ran = [o for o in outcomes if o.error is None]
            expect(all(o.checks for o in ran), f"{tag}: every task that ran has checks")
            expect(all(not c.perturbed().ok() for o in ran for c in o.checks),
                   f"{tag}: every check fails against a perturbed reference")
            if trace:
                identical = [c.ok() for o in ran for c in o.checks
                             if c.label == "traced output bit-identical"]
                expect(identical and all(identical), f"{tag}: traced outputs bit-identical")
    expect(not _wrapped_leftovers(), "tracer uninstalled cleanly")
    print(f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0
