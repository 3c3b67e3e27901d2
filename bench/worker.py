"""One benchmark process: set up one workload, run it once, check it.

Started by ``run.py``, one process at a time.  It prints one JSON line with
the set-up time (from the parent's spawn timestamp, so interpreter start and
``import llglab`` count), the wall and CPU time of the timed region, both
times also at the reference host speed (``probe.py``), peak RSS, the gate
outcome and, when traced, the per-function span aggregates.  With
``--ops 0`` it only sets up, which gives one more set-up sample.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
import warnings
from pathlib import Path

import probe
import run
import tracer

ROOT = Path(__file__).resolve().parents[1]


def git_commit(root: Path):
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workloads) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(ROOT),
        "src_sha256": workloads.tree_digest(ROOT / "src" / "llglab", "*.py"),
    }


def measure(args, workdir: Path) -> dict:
    """Import and set up, then (unless ``--ops 0``) run once and gate the result."""
    out: dict = {}
    error = None
    setup_probe = probe.HostProbe().start()
    try:
        sys.path.insert(0, str(ROOT / "src"))
        import llglab
        import workloads

        if Path(llglab.__file__).resolve().parent != ROOT / "src" / "llglab":
            raise SystemExit(f"imported llglab from {llglab.__file__}, not from {ROOT}")
        warnings.simplefilter("ignore")
        wl = workloads.WORKLOADS[args.workload]
        trc = tracer.Tracer() if args.trace else None
        with trc or contextlib.nullcontext():
            if trc:
                trc.run_id = f"{args.workload}-{args.seed}-setup"
            state = wl.setup(args.seed, workdir, ROOT / "configs" / "smoke.cfg")
            out["raw_setup_s"] = time.monotonic() - args.spawned
            out["shift"] = state.get("shift")  # the seeded translation, in cells
            setup_probe.stop()
            out["setup_s"] = setup_probe.adjusted(out["raw_setup_s"])
            if not args.ops:
                return out
            if trc:
                trc.run_id = f"{args.workload}-{args.seed}-op"
            with probe.HostProbe() as op_probe:
                start = time.monotonic()
                cpu0 = time.process_time()
                try:
                    result = wl.run(state)
                except Exception:  # noqa: BLE001 - a raising operation is a failed one
                    error = traceback.format_exc(limit=3)
                out["raw_wall_s"] = time.monotonic() - start
                out["cpu_s"] = time.process_time() - cpu0
    finally:
        setup_probe.stop()
    out["wall_s"] = op_probe.adjusted(out["raw_wall_s"])
    out["host_speed"] = op_probe.speed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trc:
        out["functions"] = tracer.by_function(trc.spans)
        out["counts"] = dict(trc.counts)
        out["n_spans"] = len(trc.spans)
        if args.spans:
            trc.write_jsonl(args.spans)
    if error is None:
        try:
            gate = wl.check(state, result)
        except Exception:  # noqa: BLE001 - a gate that raises fails the operation
            error = traceback.format_exc(limit=3)
    if error is None:
        out.update(attempted=gate.attempted, failed=gate.failed,
                   counters=gate.counters, digest=gate.digest, detail=gate.detail)
    else:
        n = run.ATTEMPTED[args.workload]
        out.update(attempted=n, failed=n,
                   counters={}, digest="", detail=error)
    out["provenance"] = provenance(workloads)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--ops", type=int, choices=(0, 1), default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced spans here as JSON lines")
    args = ap.parse_args(argv)
    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    try:
        out = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
