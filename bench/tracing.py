"""Outside-in tracing of the eigenweight modules for the per-layer metrics.

Callers bind library functions at import time (``from .spectral import
principal_eigenpair``), so wrapping only the defining module misses most
calls.  ``Tracer.install`` replaces every binding of each traced function
in every loaded ``eigenweight`` module, including aliases such as
``cli._assemble_stiffness``, and ``uninstall`` restores them.  No file of
the package is edited.

Each span is ``[name, start, end, parent, job, attr]``; spans stay in
memory until the run writes them out.  A span's self time is its
duration minus the durations of its direct children, which nest inside it.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

#: module -> public functions traced there
TRACED = {
    "cli": ("main", "parse_config"),
    "grid": ("build_grid", "assemble_stiffness"),
    "spectral": ("principal_eigenpair", "solution_operator"),
    "rearrange": ("comonotone_arrangement", "monotone_x1_rearrangement",
                  "decreasing_rearrangement"),
    "optimize": ("minimize_lambda1", "count_comonotone_violations",
                 "oscillating_arrangement"),
    "logistic": ("simulate_logistic",),
    "serialize": ("write_field_csv", "write_json", "write_profile_csv",
                  "write_trajectory_csv", "write_spectrum_csv",
                  "write_stiffness_coo"),
}

#: per-layer metric -> unit, in report order
LAYER_METRICS = {
    "cli.parse_s": "s", "cli.jobs": "count", "cli.exit_nonzero": "count",
    "grid.build_s": "s", "grid.assemble_calls": "count",
    "grid.assemble_s": "s",
    "spectral.solves": "count", "spectral.applies": "count",
    "spectral.applies_per_solve": "ratio", "spectral.apply_s": "s",
    "spectral.solve_self_s": "s", "spectral.dense_s": "s",
    "spectral.iterative_s": "s", "spectral.lambda1_rel_dev": "ratio",
    "rearrange.comonotone_calls": "count", "rearrange.comonotone_s": "s",
    "rearrange.monotone_x1_s": "s", "rearrange.decreasing_s": "s",
    "optimize.minimize_s": "s", "optimize.sweeps": "count",
    "optimize.violations_s": "s", "optimize.useful_solve_ratio": "ratio",
    "optimize.oscillating_s": "s",
    "logistic.simulate_s": "s", "logistic.macro_steps": "count",
    "logistic.step_us": "us", "logistic.clamp_events": "count",
    "serialize.write_s": "s", "serialize.bytes": "bytes",
    "proc.cpu_s": "s", "proc.blas_threads": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


def _solver(args, kwargs, result):
    return kwargs.get("solver", args[1] if len(args) > 1 else "dense")


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _trajectory(args, kwargs, result):
    return (result.times.size - 1, result.clamp_events)


def _exit_code(args, kwargs, result):
    return result


#: span name -> attribute recorded from (args, kwargs, result) after the call
ATTRS = {
    "cli.main": _exit_code,
    "spectral.principal_eigenpair": _solver,
    "logistic.simulate_logistic": _trajectory,
    **{f"serialize.{name}": _written_bytes for name in TRACED["serialize"]},
}


class Tracer:
    """Records nested spans of the traced library calls.

    Assign a fresh list to ``spans`` to start a new collection and set
    ``job`` to tag the spans of the job being run.
    """

    def __init__(self):
        self.spans: list = []
        self.job = None
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        attr = ATTRS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attr is not None:
                span[5] = attr(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "eigenweight" or key.startswith("eigenweight.")]
        for short, names in TRACED.items():
            home = sys.modules.get(f"eigenweight.{short}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def layer_metrics(spans: list) -> dict:
    """Per-layer sums over one pass of spans (metrics not derivable from
    spans alone are filled in by the caller)."""
    count = defaultdict(int)
    total = defaultdict(float)
    child = defaultdict(float)
    by_solver = defaultdict(float)
    for name, start, end, parent, _, attr in spans:
        count[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
        if name == "spectral.principal_eigenpair":
            by_solver[attr] += end - start
    solve_self = sum(end - start - child[i]
                     for i, (name, start, end, *_rest) in enumerate(spans)
                     if name == "spectral.principal_eigenpair")
    solves = count["spectral.principal_eigenpair"]
    applies = count["spectral.solution_operator"]
    # a call that raised recorded no attribute
    simulations = [s[5] for s in spans
                   if s[0] == "logistic.simulate_logistic" and s[5]]
    steps = sum(steps for steps, _ in simulations)
    simulate_s = total["logistic.simulate_logistic"]
    writes = [s for s in spans if s[0].startswith("serialize.")]
    return {
        "cli.parse_s": total["cli.parse_config"],
        "cli.jobs": count["cli.main"],
        "cli.exit_nonzero": sum(1 for s in spans
                                if s[0] == "cli.main" and s[5] != 0),
        "grid.build_s": total["grid.build_grid"],
        "grid.assemble_calls": count["grid.assemble_stiffness"],
        "grid.assemble_s": total["grid.assemble_stiffness"],
        "spectral.solves": solves,
        "spectral.applies": applies,
        "spectral.applies_per_solve": applies / solves if solves else 0.0,
        "spectral.apply_s": total["spectral.solution_operator"],
        "spectral.solve_self_s": solve_self,
        "spectral.dense_s": by_solver["dense"],
        "spectral.iterative_s": by_solver["iterative"],
        "rearrange.comonotone_calls":
            count["rearrange.comonotone_arrangement"],
        "rearrange.comonotone_s": total["rearrange.comonotone_arrangement"],
        "rearrange.monotone_x1_s":
            total["rearrange.monotone_x1_rearrangement"],
        "rearrange.decreasing_s": total["rearrange.decreasing_rearrangement"],
        "optimize.minimize_s": total["optimize.minimize_lambda1"],
        "optimize.sweeps": count["rearrange.comonotone_arrangement"],
        "optimize.violations_s": total["optimize.count_comonotone_violations"],
        "optimize.oscillating_s": total["optimize.oscillating_arrangement"],
        "logistic.simulate_s": simulate_s,
        "logistic.macro_steps": steps,
        "logistic.step_us": 1e6 * simulate_s / steps if steps else 0.0,
        "logistic.clamp_events": sum(clamps for _, clamps in simulations),
        "serialize.write_s": sum(s[2] - s[1] for s in writes),
        "serialize.bytes": sum(s[5] or 0 for s in writes),
    }


def self_time_by_job(spans: list) -> dict:
    """Summed self time of every span, per job."""
    child = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, parent, job, _) in enumerate(spans):
        out[job] += end - start - child[i]
    return dict(out)
