"""Per-layer tracing of the nilharm package from outside the package.

`Tracer.install()` replaces every public function and public method of
the package's modules with a timing wrapper, and rebinds the names that
other package modules imported (for example `cases.haar_special_unitary`
or the `laguerre` that `spherical` imports).  The layer of a call is the
module that defines the function; private helpers are not wrapped, so
their time is charged to the public caller.  Closures that public
functions return (the G' actions of `sample_gprime`, the convolution of
`twisted_convolution`, ...) are wrapped as well.

Self time of a span is its duration minus the time of its child spans,
so the self times of all layers add up to the time spent inside the
package.  `uninstall()` restores the untouched package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("numerics", "quat", "cases", "algebra", "torus", "forms", "fock",
          "spherical", "plancherel", "cli")

_HAAR_PREFIX = "haar_"

# prefix of the report line a traced CLI child writes to stderr
TRACE_MARKER = "@@nilharm-trace "

COUNTERS = (
    "numerics.haar_calls", "numerics.grid_calls", "numerics.grid_nodes", "numerics.grid_bytes",
    "numerics.laguerre_calls", "quat.calls", "cases.gprime_samples", "cases.action_calls",
    "algebra.k_actions", "algebra.group_mult_calls", "torus.to_chamber_calls",
    "forms.classify_calls", "forms.pfaffian_calls", "fock.pi_matrix_calls",
    "fock.pi_matrix_entries", "fock.psi_numeric_calls", "fock.twisted_evals",
    "spherical.orbit_samples", "spherical.closed_calls", "spherical.fe_k_actions",
    "plancherel.freq_nodes", "plancherel.density_calls",
)


def _bound(fn, args, kwargs):
    """Arguments of a call by parameter name, defaults filled in."""
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


class Tracer:
    """Span stack, per-layer self time and per-layer counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.grid_seen = set()
        self._stack = []      # [layer, qualname, child seconds] per open span
        self._patched = []    # (owner, attribute, original value)

    # -- spans -------------------------------------------------------------
    def wrap(self, fn, layer, qualname, after=None):
        """Timing wrapper charging fn's self time to layer.  after(args,
        kwargs, result) runs once the span is closed and may replace the
        result (used to count work and to wrap returned closures)."""
        stack = self._stack
        self_s = self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append([layer, qualname, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                _, _, child = stack.pop()
                self_s[layer] += dt - child
                if stack:
                    stack[-1][2] += dt
            if after is not None:
                result = after(args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    # -- counters ------------------------------------------------------------
    def _counter_hooks(self):
        """qualname -> after-hook; qualnames are module-level names or
        Class.method."""
        c = self.counts

        def count(key):
            return _counting(c, key)

        def haar(args, kwargs, result):
            # nested Haar calls (haar_sample -> haar_unitary) count once
            parent = self.parent_name()
            if not (parent and parent.startswith(_HAAR_PREFIX)):
                c["numerics.haar_calls"] += 1
            return result

        def grid(args, kwargs, result):
            spec = args[0]
            points, _ = result
            c["numerics.grid_calls"] += 1
            c["numerics.grid_nodes"] += points.shape[0]
            # points (P, dim) and weights (P,), float64
            c["numerics.grid_bytes"] += points.shape[0] * (points.shape[1] + 1) * 8
            key = (spec.nodes, spec.rule)
            if key in self.grid_seen:
                c["numerics.grid_repeats"] += 1
            self.grid_seen.add(key)
            return result

        def gprime(args, kwargs, result):
            c["cases.gprime_samples"] += int(args[2] if len(args) > 2 else kwargs["size"])
            for name in ("ad", "ad_inv", "act_v"):
                setattr(result, name, self.wrap(getattr(result, name), "cases", "GPrimeBatch." + name,
                                                count("cases.action_calls")))
            return result

        def k_actions(args, kwargs, result):
            c["algebra.k_actions"] += len(result)
            return result

        def pi_matrix(args, kwargs, result):
            c["fock.pi_matrix_calls"] += 1
            c["fock.pi_matrix_entries"] += result.size
            return result

        def twisted(args, kwargs, result):
            quad = _bound(self._original("fock", "twisted_convolution"), args, kwargs)["quad"]
            wnodes = quad.nodes ** quad.dim

            def evals(a, k, out):
                c["fock.twisted_evals"] += int(len(out) if hasattr(out, "__len__") else 1) * wnodes
                return out
            return self.wrap(result, "fock", "twisted_convolution.convolved", evals)

        def group_conv(args, kwargs, result):
            return self.wrap(result, "plancherel", "group_convolution.conv")

        def orbit(args, kwargs, result):
            bound = _bound(self._original("spherical", "phi_orbit"), args, kwargs)
            c["spherical.orbit_samples"] += int(bound["samples"])
            return result

        def fe(args, kwargs, result):
            c["spherical.fe_k_actions"] += result.samples
            return result

        def heis(args, kwargs, result):
            c["plancherel.freq_nodes"] += result.lam_nodes
            return result

        def gip(args, kwargs, result):
            bound = _bound(self._original("plancherel", "general_inversion_probe"), args, kwargs)
            c["plancherel.freq_nodes"] += int(bound["lam_nodes"]) * len(bound["width_specs"])
            return result

        hooks = {
            "numerics": {"QuadratureSpec.grid": grid, "laguerre": count("numerics.laguerre_calls"),
                         "laguerre_all": count("numerics.laguerre_calls")},
            "algebra": {"sample_k_actions": k_actions, "sample_automorphisms": k_actions,
                        "LauretAlgebra.group_mult": count("algebra.group_mult_calls")},
            "torus": {"to_chamber": count("torus.to_chamber_calls")},
            "forms": {"classify": count("forms.classify_calls"),
                      "pfaffian_abs": count("forms.pfaffian_calls"),
                      "pfaffian_via_weights": count("forms.pfaffian_calls")},
            "fock": {"pi_matrix": pi_matrix, "psi_numeric": count("fock.psi_numeric_calls"),
                     "twisted_convolution": twisted},
            "spherical": {"phi_orbit": orbit, "psi_closed": count("spherical.closed_calls"),
                          "phi_caseI_closed": count("spherical.closed_calls"),
                          "functional_equation_residual": fe},
            "plancherel": {"heisenberg_inversion_check": heis, "general_inversion_probe": gip,
                           "group_convolution": group_conv,
                           "density_of": count("plancherel.density_calls")},
        }
        return hooks, haar, gprime

    # -- installation ----------------------------------------------------------
    def _original(self, layer, name):
        return self._originals[(layer, name)]

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the package's public functions and methods."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        hooks, haar, gprime = self._counter_hooks()
        modules = {layer: importlib.import_module(f"nilharm.{layer}") for layer in LAYERS}
        self._originals = {}
        replacements = {}   # id(original function) -> wrapper
        for layer, mod in modules.items():
            layer_hooks = hooks.get(layer, {})
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    after = layer_hooks.get(name)
                    if layer == "numerics" and name.startswith(_HAAR_PREFIX):
                        after = haar
                    if layer == "quat":
                        after = _counting(self.counts, "quat.calls")
                    wrapper = self.wrap(obj, layer, name, after)
                    self._originals[(layer, name)] = obj
                    replacements[id(obj)] = wrapper
                    self._set(mod, name, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer, layer_hooks, gprime)
        # names that other package modules (and the package itself) imported
        for mod in [sys.modules["nilharm"], *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replacements:
                    self._set(mod, name, replacements[id(obj)])

    def _wrap_class(self, cls, layer, layer_hooks, gprime):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{cls.__name__}.{name}"
            after = gprime if name == "sample_gprime" else layer_hooks.get(qual)
            if isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(self.wrap(raw.__func__, layer, qual, after)))
            elif isinstance(raw, classmethod):
                self._set(cls, name, classmethod(self.wrap(raw.__func__, layer, qual, after)))
            elif inspect.isfunction(raw):
                self._set(cls, name, self.wrap(raw, layer, qual, after))

    def uninstall(self):
        """Restore every patched attribute, last patch first."""
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched = []

    # -- report ---------------------------------------------------------------
    def layer_metrics(self):
        """Per-layer self times and counters, as flat metric names."""
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out.update({k: self.counts.get(k, 0) for k in COUNTERS})
        calls = self.counts["numerics.grid_calls"]
        out["numerics.grid_repeat_frac"] = self.counts["numerics.grid_repeats"] / calls if calls else 0.0
        return out


def _counting(counter, key):
    def hook(args, kwargs, result):
        counter[key] += 1
        return result
    return hook
