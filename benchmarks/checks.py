"""Tasks, checks and output fingerprints shared by the workloads.

A task is one verified answer: `run()` makes the library calls (timed),
`check(output, outputs)` compares the output with an independent
reference (untimed) and returns a list of `Check`.  `outputs` maps the
names of the pass's tasks to their outputs, for checks that compare
repeats.  A task fails when it raises, when a check raises, when it
returns no check, or when any check is out of tolerance.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

# Monte Carlo checks allow this many combined standard errors, so that a
# change of draws alone cannot fail them.
MC_SIGMAS = 5.0


@dataclass(frozen=True)
class Check:
    """Passes when |got - want| <= tol (both finite)."""

    label: str
    got: complex
    want: complex
    tol: float

    def ok(self):
        dev = abs(complex(self.got) - complex(self.want))
        return math.isfinite(dev) and dev <= self.tol

    def perturbed(self):
        """The same check against a reference moved just past the
        tolerance; a live check must fail it."""
        shift = 2.0 * self.tol + 1e-9 * max(1.0, abs(complex(self.want)))
        return replace(self, want=complex(self.want) + shift)


def close(label, got, want, atol):
    return Check(label, complex(got), complex(want), float(atol))


def rel(label, got, want, rtol):
    return Check(label, complex(got), complex(want), float(rtol) * abs(complex(want)))


def within_sigma(label, got, want, stderr):
    return Check(label, complex(got), complex(want), MC_SIGMAS * float(stderr))


def at_most(label, deviation, bound):
    """A nonnegative deviation measure that must not exceed bound."""
    return Check(label, complex(deviation), 0j, float(bound))


def holds(label, condition):
    return Check(label, 1.0 if condition else 0.0, 1.0, 0.0)


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], list]
    # reason a failure of this task is expected at the current state of
    # the library; the task still runs and still counts as failed
    known_defect: Optional[str] = None


@dataclass
class Outcome:
    task: Task
    seconds: float
    output: Any = None
    error: Optional[str] = None
    checks: tuple = ()
    ref_seconds: Optional[float] = None   # see speed.py

    @property
    def ok(self):
        return self.error is None and bool(self.checks) and all(c.ok() for c in self.checks)


def run_tasks(tasks, probe=None):
    """Run every task, timing each.  With a speed.SpeedProbe, the probe's
    kernel runs after every task (outside the task's time) and each
    outcome also gets its time in reference seconds."""
    outcomes = []
    for task in tasks:
        t0 = time.perf_counter()
        try:
            out, err = task.run(), None
        except Exception as exc:  # a crashed task is a failed task
            out, err = None, f"{type(exc).__name__}: {exc}"
        outcome = Outcome(task, time.perf_counter() - t0, out, err)
        if probe is not None:
            probe.mark()
            outcome.ref_seconds = probe.scale(outcome.seconds)
        outcomes.append(outcome)
    return outcomes


def check_outcomes(outcomes):
    """Fill in the checks of every outcome that ran."""
    outputs = {o.task.name: o.output for o in outcomes if o.error is None}
    for o in outcomes:
        if o.error is not None:
            continue
        try:
            o.checks = tuple(o.task.check(o.output, outputs))
        except Exception as exc:  # a crashed check is a failed task
            o.error = f"check {type(exc).__name__}: {exc}"


def fingerprint(obj):
    """sha256 of a canonical byte encoding of a task output; equal
    fingerprints mean bit-identical numbers."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)};".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        h.update(b"c" + struct.pack("<dd", obj.real, obj.imag))
    elif isinstance(obj, (str, bytes)):
        data = obj.encode() if isinstance(obj, str) else obj
        h.update(f"s{len(data)};".encode() + data)
    elif obj is None:
        h.update(b"N")
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)};".encode())
        for k in sorted(obj, key=str):
            _feed(h, str(k))
            _feed(h, obj[k])
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)};".encode())
        for item in obj:
            _feed(h, item)
    elif is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            _feed(h, getattr(obj, f.name))
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")
