"""Outside-in span tracer for the llglab package.

The tracer wraps chosen public functions from outside the program: it
rebinds each one in every loaded ``llglab`` module that holds it (modules
import each other with ``from .x import y``, so each importer has its own
binding) and in the package namespace, then puts the originals back.  Spans
are kept in memory as ``[name, start, end, parent, run_id]`` lists; a
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Functions wrapped per layer.  The layers are the llglab modules; private
# helpers stay unwrapped, so their time counts as self time of the nearest
# wrapped caller (e.g. the Duhamel loop counts toward ``picard_iterate``).
TRACED = {
    "fields": ("laplacian", "gradient", "derivative", "divergence",
               "inverse_laplacian_divergence"),
    "morrey": ("morrey_norm", "xpt_norm"),
    "semigroup": ("apply_semigroup", "apply_grad_semigroup", "verify_decay"),
    "frames": ("gauge_fields_from_u", "build_frame", "derive_gauge",
               "coulomb_gauge_fix", "check_identities"),
    "cgl": ("picard_iterate", "nonlinearity_F", "exponent_window_check"),
    "llg": ("solve", "llg_rhs", "check_energy_inequality"),
    "initial_data": ("generate_initial_data", "rough_raw_field",
                     "mollify_and_project", "spectral_bump"),
    "experiments": ("cross_validate", "mild_initial_data", "decay_report"),
    "runner": ("run_config",),
}


def _ball_evals(report) -> int:
    return report.lattice.n_centers * len(report.lattice.radii)


# Work counters read from return values: span name -> (counter, extractor).
RESULT_COUNTERS = {
    "morrey.morrey_norm": ("morrey.ball_evals", _ball_evals),
    "llg.solve": ("llg.steps", lambda result: result.meta["steps"]),
    "cgl.picard_iterate": ("cgl.picard_iters", lambda result: result.iterations),
}


class Tracer:
    """Context manager that records spans around the ``TRACED`` functions."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list = []
        self._patched: list = []  # (namespace, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = RESULT_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "llglab" or key.startswith("llglab."))]
        for layer, names in TRACED.items():
            owner = sys.modules[f"llglab.{layer}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc_info):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def write_jsonl(self, path) -> None:
        """Write one JSON object per span: name, start, end, parent, run."""
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


def self_times(spans) -> list:
    """Per-span duration minus the summed durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def by_function(spans) -> dict:
    """name -> (calls, summed self time)."""
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    for (name, *_), st in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += st
    return {name: (calls[name], self_s[name]) for name in calls}


def layer_metrics(fn: dict, counts: dict, n_spans: int, traced_wall_s: float,
                  untraced_wall_s: float) -> dict:
    """Per-layer metrics, name -> (value, unit), from ``by_function`` output
    and the result counters of one traced process."""

    def calls(*names):
        return sum(fn.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(fn.get(n, (0, 0.0))[1] for n in names)

    def layer(prefix):
        return tuple(n for n in fn if n.startswith(prefix + "."))

    fields_fns = tuple(f"fields.{n}" for n in TRACED["fields"])
    ball_evals = counts.get("morrey.ball_evals", 0)
    norm_self = self_s("morrey.morrey_norm")
    rhs_calls = calls("llg.llg_rhs")
    rhs_self = self_s("llg.llg_rhs")
    return {
        "fields.calls": (calls(*fields_fns), "count"),
        "fields.self_s": (self_s(*fields_fns), "s"),
        "morrey.norm_calls": (calls("morrey.morrey_norm"), "count"),
        "morrey.ball_evals": (ball_evals, "count"),
        "morrey.norm_self_s": (norm_self, "s"),
        "morrey.ns_per_ball": (1e9 * norm_self / ball_evals if ball_evals else 0.0, "ns"),
        "morrey.xpt_calls": (calls("morrey.xpt_norm"), "count"),
        "semigroup.apply_calls": (calls("semigroup.apply_semigroup"), "count"),
        "semigroup.apply_self_s": (self_s("semigroup.apply_semigroup"), "s"),
        "frames.gauge_calls": (calls("frames.gauge_fields_from_u"), "count"),
        "frames.self_s": (self_s(*layer("frames")), "s"),
        "cgl.picard_iters": (counts.get("cgl.picard_iters", 0), "count"),
        "cgl.forcing_evals": (calls("cgl.nonlinearity_F"), "count"),
        "cgl.nonlinearity_self_s": (self_s("cgl.nonlinearity_F"), "s"),
        "cgl.picard_self_s": (self_s("cgl.picard_iterate"), "s"),
        "llg.steps": (counts.get("llg.steps", 0), "count"),
        "llg.rhs_calls": (rhs_calls, "count"),
        "llg.rhs_self_s": (rhs_self, "s"),
        "llg.us_per_rhs": (1e6 * rhs_self / rhs_calls if rhs_calls else 0.0, "us"),
        "llg.solve_self_s": (self_s("llg.solve"), "s"),
        "initial_data.self_s": (self_s(*layer("initial_data")), "s"),
        "experiments.self_s": (self_s(*layer("experiments")), "s"),
        "runner.self_s": (self_s(*layer("runner")), "s"),
        "trace.overhead_frac": (traced_wall_s / untraced_wall_s - 1.0 if untraced_wall_s
                                else 0.0, "ratio"),
        "trace.spans": (n_spans, "count"),
    }
