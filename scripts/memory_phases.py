#!/usr/bin/env python3
"""Traced memory peak of each phase of a benchmark workload's operation.

    python3 scripts/memory_phases.py [--workload W ...] [--seed S]

Sets each workload up as ``bench/workloads.py`` does (it is imported, not
changed, and no bytecode is written next to it), then runs its operation
once, cold, as a bench worker does, under ``tracemalloc``.  The operation
is split into phases by wrapping, for the run only, the functions that
mark them:

* ``first sweep`` and ``later sweeps``: ``cgl._sweep`` (the first call of
  each mild solve, then the rest);
* ``xpt norm``: ``morrey.xpt_norm`` (each tracked iteration's trajectory
  norm, and an untracked solve's when its ``xpt`` is first read; the
  cross_solver and picard_large operations read none, so they show no
  such phase);
* ``direct solve``: ``llg.solve``;
* ``compare``: ``experiments.compare_with_mild`` and the comparison it
  shares with ``cross_validate``, ``experiments._compare``;
* ``other``: everything else, e.g. the solve's set-up and the runner.

Each phase's peak is the largest traced size seen while it ran, less the
traced size when the operation started, in KiB.  A phase that calls another
counts only its own stretches.  numpy registers its array memory with
``tracemalloc``, so the peaks count every array; they do not count the
interpreter, the libraries or the allocator's slack, which the bench's
``peak_rss_mb`` does.  The operation's result is checked with the
workload's gates, and the script exits 1 if they fail.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORDER = ("first sweep", "later sweeps", "xpt norm", "direct solve", "compare", "other")


class Phases:
    """A stack of running phases and the traced peak seen in each."""

    def __init__(self):
        self.base = 0
        self.stack = ["other"]
        self.peaks: dict = {}
        self.calls: dict = {}

    def fold(self):
        """Credit the peak since the last reset to the running phase."""
        name = self.stack[-1]
        peak = tracemalloc.get_traced_memory()[1] - self.base
        self.peaks[name] = max(self.peaks.get(name, 0), peak)
        tracemalloc.reset_peak()

    def enter(self, name: str):
        self.fold()
        if name != self.stack[-1]:  # a phase inside itself is one call
            self.calls[name] = self.calls.get(name, 0) + 1
        self.stack.append(name)

    def exit(self):
        self.fold()
        self.stack.pop()


def wrapped(phases: Phases, name_of, fn):
    def wrapper(*args, **kwargs):
        phases.enter(name_of())
        try:
            return fn(*args, **kwargs)
        finally:
            phases.exit()
    return wrapper


def load():
    """(llglab, workloads), imported from this checkout's ``src/`` and
    ``bench/``, with no bytecode written next to either."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import llglab
    import workloads
    return llglab, workloads


def patch(llglab, phases: Phases) -> list:
    """Rebind the phase-marking functions in every llglab module that holds
    them; returns (module, name, original) triples to put back."""
    cgl = llglab.cgl
    sweeps = [0]  # sweeps made so far by the running mild solve
    sweep = wrapped(phases, lambda: "later sweeps" if sweeps[0] else "first sweep",
                    cgl._sweep)

    def counted_sweep(*args, **kwargs):
        try:
            return sweep(*args, **kwargs)
        finally:
            sweeps[0] += 1

    picard = cgl.picard_iterate

    def new_solve(*args, **kwargs):
        sweeps[0] = 0
        return picard(*args, **kwargs)

    targets = {
        cgl._sweep: counted_sweep,
        cgl.picard_iterate: new_solve,
        llglab.morrey.xpt_norm: wrapped(phases, lambda: "xpt norm", llglab.morrey.xpt_norm),
        llglab.llg.solve: wrapped(phases, lambda: "direct solve", llglab.llg.solve),
    }
    for attr in ("compare_with_mild", "_compare"):
        fn = getattr(llglab.experiments, attr, None)
        if fn is not None:
            targets[fn] = wrapped(phases, lambda: "compare", fn)
    undo = []
    modules = [m for k, m in sys.modules.items() if k == "llglab" or k.startswith("llglab.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in targets:
                undo.append((module, attr, value))
                setattr(module, attr, targets[value])
    return undo


def measure(llglab, workloads, name: str, seed: int) -> bool:
    wl = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp:
        state = wl.setup(seed, Path(tmp), ROOT / "configs" / "smoke.cfg")
        phases = Phases()
        undo = patch(llglab, phases)
        tracemalloc.start()
        try:
            phases.base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = wl.run(state)
            phases.fold()
        finally:
            tracemalloc.stop()
            for module, attr, value in undo:
                setattr(module, attr, value)
        gate = wl.check(state, result)
    print(f"{name} (seed {seed}): operation peak "
          f"{max(phases.peaks.values()) / 1024:,.0f} KiB above its start; "
          f"gates {gate.attempted - gate.failed}/{gate.attempted} passed")
    print(f"  {'phase':<13} {'peak':>13}  calls")
    for phase in ORDER:
        if phase in phases.peaks:
            calls = phases.calls.get(phase, "")
            print(f"  {phase:<13} {phases.peaks[phase] / 1024:>9,.0f} KiB  {calls}")
    return gate.failed == 0


def main(argv=None) -> int:
    llglab, workloads = load()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                    help="a workload to measure (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    ok = True
    for name in args.workload or list(workloads.WORKLOADS):
        ok &= measure(llglab, workloads, name, args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
