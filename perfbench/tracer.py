"""Spans and per-layer counters recorded from outside the library.

`Tracer.installed()` rebinds the public functions of the six library
modules (every plain function in a module's ``__all__``, plus
``specfun._series_sum``, the one routine that sums series terms) to
wrappers that record a span per call.  (``cli`` has no ``__all__``: its
functions without a leading underscore.)  The rebinding also replaces the
names that ``from .x import y`` copied into other modules, such as
``bounds.hyp2f1`` or ``cli.evaluate_bound``, and is undone on exit.
Integrands passed to ``integrate_periodic`` get their own child span,
owned by the layer that called the quadrature.

A span is (op id, span id, parent span id, layer, name, start, end).
Spans stay in memory until `write_spans`.  A layer's self time is the
duration of its spans minus the time covered by their child spans; a
call counts for a layer only when it enters that layer from another
one, so ``hyp2f1`` calling ``hyp2f1_detailed`` is one specfun call.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

from alphaharmonic import bounds, cli, errors, kernel, quadrature, specfun, verify

LAYERS = {
    "specfun": specfun,
    "quadrature": quadrature,
    "kernel": kernel,
    "bounds": bounds,
    "verify": verify,
    "cli": cli,
}

BOUND_FUNCTIONS = {
    "m1_bound": "M1",
    "m2_bound": "M2",
    "colonna_bound": "COLONNA",
    "lc_schwarz_pick_bound": "LC_SP",
    "m_bound": "M",
    "m_prime_bound": "M_PRIME",
    "schwarz_bound": "SCHWARZ_2F1",
    "schwarz_pick_bound": "SP_2F1",
    "schwarz_pick_limit_bound": "SP_LIMIT",
    "l1_mean_kernel": "L1_MEAN",
}

SUITE_FUNCTIONS = {
    "check_schwarz": "schwarz",
    "check_schwarz_pick": "schwarz-pick",
    "check_identities": "identities",
    "check_proof_machinery": "machinery",
}

_FAILURES = (errors.ConvergenceError, errors.DomainError)

# (name, unit) of every per-layer metric, in report order.
METRICS = (
    [("specfun.calls", "count"), ("specfun.self_s", "s"), ("specfun.terms", "count"),
     ("specfun.terms_max", "count"), ("specfun.failed", "count"),
     ("quadrature.calls", "count"), ("quadrature.self_s", "s"),
     ("quadrature.nodes", "count"), ("quadrature.nodes_max", "count"),
     ("quadrature.unconverged", "count"),
     ("kernel.calls", "count"), ("kernel.self_s", "s"), ("kernel.integrand_s", "s"),
     ("kernel.integrand_points", "count"), ("kernel.failed", "count"),
     ("bounds.calls", "count"), ("bounds.self_s", "s"), ("bounds.failed", "count")]
    + [(f"bounds.{bid}.s", "s") for bid in bounds.BOUND_IDS]
    + [(f"verify.{suite}.s", "s") for suite in verify.SUITE_NAMES]
    + [("verify.trials", "count"), ("verify.inconclusive", "count"),
       ("verify.self_s", "s"),
       ("cli.calls", "count"), ("cli.self_s", "s"), ("cli.bytes_out", "count"),
       ("trace.overhead_frac", "ratio")]
)


class Tracer:
    """Records spans and counters while installed; one instance per run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, layer, child time]
        self._next_id = 0
        self._op = None

    @contextlib.contextmanager
    def op(self, op_id):
        """Tag the spans recorded inside the block with one op id."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    def _call(self, layer, name, fn, args, kwargs, hook, counts_call=True):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [self._next_id, layer, 0.0]
        self._next_id += 1
        stack.append(frame)
        result = exc = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[2] += dur
            c = self.counters
            c[f"{layer}.self_s"] += dur - frame[2]
            if counts_call and (parent is None or parent[1] != layer):
                c[f"{layer}.calls"] += 1
                if isinstance(exc, _FAILURES):
                    c[f"{layer}.failed"] += 1
            self.spans.append((self._op, frame[0], None if parent is None else parent[0],
                               layer, name, t0, t1))
            if hook is not None:
                hook(args, kwargs, result, exc, dur)

    def _wrap(self, layer, name, fn, hook=None):
        def wrapper(*args, **kwargs):
            return self._call(layer, name, fn, args, kwargs, hook)

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _hooks(self):
        """Counter hooks keyed by (module, function name)."""
        c = self.counters

        def series_terms(args, kwargs, result, exc, dur):
            if result is not None:
                n = result[1]
            elif isinstance(exc, errors.ConvergenceError) and exc.iterations is not None:
                n = exc.iterations
            else:
                return
            c["specfun.terms"] += n
            c["specfun.terms_max"] = max(c["specfun.terms_max"], n)

        def quadrature_nodes(args, kwargs, result, exc, dur):
            if result is None:
                return
            c["quadrature.nodes"] += result.nodes_used
            c["quadrature.nodes_max"] = max(c["quadrature.nodes_max"], result.nodes_used)
            c["quadrature.unconverged"] += not result.converged

        def inclusive(key):
            def hook(args, kwargs, result, exc, dur):
                c[key] += dur
            return hook

        def suite_totals(args, kwargs, result, exc, dur):
            for rep in result or ():
                c["verify.trials"] += rep.n_checked + rep.n_inconclusive
                c["verify.inconclusive"] += rep.n_inconclusive

        def cli_bytes(args, kwargs, result, exc, dur):
            argv = list(args[0] if args else kwargs.get("argv") or ())
            if "--out" in argv:
                path = argv[argv.index("--out") + 1]
                if path != "-" and os.path.exists(path):
                    c["cli.bytes_out"] += os.path.getsize(path)

        hooks = {
            ("specfun", "_series_sum"): series_terms,
            ("quadrature", "integrate_periodic"): quadrature_nodes,
            ("verify", "run_suite"): suite_totals,
            ("cli", "main"): cli_bytes,
        }
        for fname, bid in BOUND_FUNCTIONS.items():
            hooks[("bounds", fname)] = inclusive(f"bounds.{bid}.s")
        for fname, suite in SUITE_FUNCTIONS.items():
            hooks[("verify", fname)] = inclusive(f"verify.{suite}.s")
        return hooks

    def _traced_quadrature(self, fn, hook):
        """integrate_periodic wrapper that also wraps the integrand."""
        c = self.counters

        def wrapper(f, *args, **kwargs):
            owner = self._stack[-1][1] if self._stack else "bench"

            def point_count(iargs, ikwargs, result, exc, dur):
                c[f"{owner}.integrand_s"] += dur
                c[f"{owner}.integrand_points"] += len(iargs[0])

            def integrand(theta):
                return self._call(owner, "integrand", f, (theta,), {}, point_count,
                                  counts_call=False)

            return self._call("quadrature", "integrate_periodic", fn,
                              (integrand,) + args, kwargs, hook)

        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrappers(self):
        """Map id(original function) -> wrapper for every traced function."""
        hooks = self._hooks()
        out = {}
        for layer, module in LAYERS.items():
            public = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")]
            names = [n for n in public
                     if inspect.isfunction(getattr(module, n))
                     and getattr(module, n).__module__ == module.__name__]
            if module is specfun:
                names.append("_series_sum")
            for name in names:
                fn = getattr(module, name)
                hook = hooks.get((layer, name))
                if module is quadrature and name == "integrate_periodic":
                    out[id(fn)] = (fn, self._traced_quadrature(fn, hook))
                else:
                    out[id(fn)] = (fn, self._wrap(layer, name, fn, hook))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in every alphaharmonic module."""
        wrappers = self._wrappers()
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "alphaharmonic"
                                   or mod_name.startswith("alphaharmonic.")):
                continue
            for key, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, key, entry[1])
                    undo.append((mod, key, value))
        try:
            yield self
        finally:
            for mod, key, value in undo:
                setattr(mod, key, value)

    def metrics(self, overhead_frac: float) -> dict:
        """Every per-layer metric as {name: {"value", "unit"}}."""
        values = dict(self.counters)
        values["trace.overhead_frac"] = overhead_frac
        out = {}
        for name, unit in METRICS:
            v = values.get(name, 0.0)
            out[name] = {"value": int(v) if unit == "count" else float(v), "unit": unit}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,layer,name,start_s,end_s\n")
            for op, sid, parent, layer, name, t0, t1 in self.spans:
                fh.write(f"{'' if op is None else op},{sid},"
                         f"{'' if parent is None else parent},{layer},{name},"
                         f"{t0!r},{t1!r}\n")
