"""Span tracing of the anisoflow layers, installed from outside the package.

``install`` replaces every public function of the layer modules, and every
public method of the classes they define, with a wrapper that records one
span (name, start, end, parent) per call.  A module that did
``from .grid import element_gradients`` holds its own binding of the
function, so each binding is found by identity and replaced, in every
layer module and in the package namespace.  Spans stay in memory until
``save`` writes them out.  A few wrappers also collect counts where the
work happens: matrix-vector products inside the conjugate gradient solver,
bytes of field files, and the step and optimizer totals the program
reports in its diagnostics.
"""

import fnmatch
import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYER_MODULES = ("grid", "anisotropy", "potential", "linalg", "stepper",
                 "control", "studies", "cli")

# (metric, unit, span-name pattern, statistic).  Statistic "calls" and
# "self_s" aggregate the spans matching the pattern; "count" reads a
# counter collected by the wrappers.  The anisotropy and potential patterns
# sum over every class implementing the interface.
PER_LAYER = []


def _layer(metric_base, pattern, stats=("calls", "self_s")):
    for stat in stats:
        unit = "s" if stat == "self_s" else "count"
        PER_LAYER.append((f"{metric_base}.{stat}", unit, pattern, stat))


def _counter(metric, unit="count"):
    PER_LAYER.append((metric, unit, None, "count"))


_layer("linalg.conjugate_gradient", "linalg.conjugate_gradient")
_counter("linalg.conjugate_gradient.matvecs")
_counter("linalg.conjugate_gradient.flops_computed", "flop")
for _m in ("value", "grad", "hess"):
    _layer(f"anisotropy.{_m}", f"anisotropy.*.{_m}")
_layer("anisotropy.estimate_constants", "anisotropy.estimate_constants",
       ("self_s",))
_layer("grid.Grid.assemble_weighted_stiffness",
       "grid.Grid.assemble_weighted_stiffness")
_layer("grid.element_gradients", "grid.element_gradients")
_layer("grid.assemble_flux_divergence", "grid.assemble_flux_divergence")
_layer("grid.build_grid", "grid.build_grid", ("self_s",))
_layer("grid.dual_norm", "grid.dual_norm")
for _m in ("value", "prime", "second", "semiconvexity"):
    _layer(f"potential.{_m}", f"potential.*.{_m}")
for _f in ("solve_trajectory", "step_residual", "step_objective", "energy",
           "trajectory_bounds", "check_energy_stability"):
    _layer(f"stepper.{_f}", f"stepper.{_f}")
for _c in ("steps", "newton_iters", "fallback_steps", "linesearch_trials"):
    _counter(f"stepper.{_c}")
for _f in ("solve_state", "adjoint_solve", "cost", "optimize"):
    _layer(f"control.{_f}", f"control.{_f}")
_counter("control.optimizer_iters")
_counter("control.linesearch_evals")
for _f in ("control_convergence_study", "lipschitz_study",
           "perturbation_ratio"):
    _layer(f"studies.{_f}", f"studies.{_f}", ("self_s",))
_counter("cli.startup_s", "s")
_layer("cli.run", "cli.run", ("self_s",))
_layer("cli.load_config", "cli.load_config", ("self_s",))
for _f in ("write_field", "load_field"):
    _layer(f"grid.{_f}", f"grid.{_f}")
    _counter(f"grid.{_f}.bytes", "B")
# load_field validates; the parsing it calls is read_field
_layer("grid.read_field", "grid.read_field")
_counter("trace.overhead_s", "s")


class Tracer:
    """In-memory span recorder plus the counters its wrappers collect."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._name_ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = []
        self.counts = {
            "linalg.conjugate_gradient.matvecs": 0,
            "linalg.conjugate_gradient.flops_computed": 0,
            "grid.write_field.bytes": 0,
            "grid.load_field.bytes": 0,
            "stepper.steps": 0,
            "stepper.newton_iters": 0,
            "stepper.fallback_steps": 0,
            "stepper.steps_with_iters": 0,
            "control.optimizer_iters": 0,
            "control.linesearch_evals": 0,
            "control.adjoint_steps": 0,
        }
        # (n_steps, linesearch evals) of every optimize call
        self.optimize_runs = []

    def wrap(self, name, fn):
        """Return ``fn`` wrapped to record one span per call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_ids, parents = self._name_ids, self._parents
        starts, ends, stack = self._starts, self._ends, self._stack
        before, after = _HOOKS.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return traced

    def span_arrays(self):
        return (np.array(self._name_ids, dtype=np.int32),
                np.array(self._parents, dtype=np.int32),
                np.array(self._starts, dtype=np.float64),
                np.array(self._ends, dtype=np.float64))

    def span_totals(self):
        """Calls and self time per span name.

        Self time is a span's duration minus the durations of its direct
        children; calls nest, so the children of one span never overlap.
        """
        ids, parents, starts, ends = self.span_arrays()
        dur = ends - starts
        covered = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=dur - covered, minlength=k)
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def layer_metrics(self):
        """Every per-layer metric; layers that were not called read 0."""
        totals = self.span_totals()
        out = {}
        for metric, unit, pattern, stat in PER_LAYER:
            if stat == "count":
                value = self.counts.get(metric, 0)
            else:
                hits = [v for k, v in totals.items()
                        if fnmatch.fnmatchcase(k, pattern)]
                value = sum(v[0 if stat == "calls" else 1] for v in hits)
            out[metric] = {"value": value, "unit": unit}
        out["stepper.linesearch_trials"]["value"] = (
            totals.get("stepper.step_objective", (0, 0.0))[0]
            - self.counts["stepper.steps_with_iters"]
            - self.counts["stepper.newton_iters"])
        return out

    def calls(self, name):
        return self.span_totals().get(name, (0, 0.0))[0]

    def save(self, path):
        ids, parents, starts, ends = self.span_arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=ids,
                            parent=parents, start=starts, end=ends)


def _count_matvecs(tracer, args):
    operator = args[0]
    if callable(operator):
        return args
    mat = operator
    nnz, n = mat.nnz, mat.shape[0]
    counts = tracer.counts

    def apply(v):
        counts["linalg.conjugate_gradient.matvecs"] += 1
        # one sparse product, two dot products and three vector updates
        counts["linalg.conjugate_gradient.flops_computed"] += 2 * nnz + 10 * n
        return mat @ v

    return (apply,) + tuple(args[1:])


def _after_trajectory(tracer, args, kwargs, traj):
    steps = traj.diagnostics[1:]
    c = tracer.counts
    c["stepper.steps"] += len(steps)
    c["stepper.newton_iters"] += sum(d.iterations for d in steps)
    c["stepper.fallback_steps"] += sum(bool(d.fallback) for d in steps)
    c["stepper.steps_with_iters"] += sum(d.iterations > 0 for d in steps)


def _after_optimize(tracer, args, kwargs, out):
    report = out[2]
    problem = args[0] if args else kwargs["problem"]
    evals = int(sum(report.linesearch_evals))
    tracer.counts["control.optimizer_iters"] += report.iterations
    tracer.counts["control.linesearch_evals"] += evals
    tracer.optimize_runs.append((problem.partition.n_steps, evals))


def _after_adjoint(tracer, args, kwargs, adjoints):
    tracer.counts["control.adjoint_steps"] += adjoints.shape[0]


def _file_bytes(counter):
    def after(tracer, args, kwargs, out):
        path = args[0] if args else kwargs["path"]
        tracer.counts[counter] += os.path.getsize(path)
    return after


_HOOKS = {
    "linalg.conjugate_gradient": (_count_matvecs, None),
    "stepper.solve_trajectory": (None, _after_trajectory),
    "control.optimize": (None, _after_optimize),
    "control.adjoint_solve": (None, _after_adjoint),
    "grid.write_field": (None, _file_bytes("grid.write_field.bytes")),
    "grid.load_field": (None, _file_bytes("grid.load_field.bytes")),
}


def _namespaces(package):
    """The package and its layer modules that are already imported."""
    mods = (sys.modules.get(f"{package.__name__}.{name}")
            for name in LAYER_MODULES)
    return [package] + [m for m in mods if m is not None]


def _rebind(namespaces, original, replacement):
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, replacement)


def install(tracer, package):
    """Wrap the public functions and methods of every loaded layer module.

    Only modules already imported are wrapped, so tracing imports nothing
    the workload would not.
    """
    namespaces = _namespaces(package)
    for mod in namespaces[1:]:
        short = mod.__name__.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_")
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            if inspect.isfunction(obj):
                _rebind(namespaces, obj, tracer.wrap(f"{short}.{attr}", obj))
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth, tracer.wrap(
                            f"{short}.{obj.__name__}.{meth}", fn))


def install_step_counter(tracer, package):
    """Count solved steps without tracing: wrap only ``solve_trajectory``.

    Untraced runs need the number of forward steps, including the trial
    solves of the optimizer's line search, which no report returns.
    """
    original = package.stepper.solve_trajectory

    @functools.wraps(original)
    def counted(*args, **kwargs):
        traj = original(*args, **kwargs)
        _after_trajectory(tracer, args, kwargs, traj)
        return traj

    _rebind(_namespaces(package), original, counted)
