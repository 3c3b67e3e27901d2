"""llglab benchmark: whole-workload times, set-up time, memory and layer traces.

    python3 bench/run.py --workload {smoke,cross_solver,picard_large} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
``src/``).  Each operation runs in a fresh worker process (``worker.py``),
one at a time, single-threaded (``jobs=1``, BLAS/OpenMP threads 1), the way
``llglab run`` runs for a user.  Workers are started while the next one is
expected to end within ``--seconds`` (at least one), then set-up-only
workers until there are ``SETUP_SAMPLES`` set-up times.  The end-to-end
metrics are medians over them:

* ``wall_s``: the timed region (the solve or pipeline, inputs already built);
* ``setup_s``: process spawn to the start of the timed region
  (interpreter start, ``import llglab``, config parse, grid, initial data);
* ``peak_rss_mb``: peak resident memory of the worker (``ru_maxrss``).

Both times are seconds at the reference host speed (``probe.py``): the
speed of a shared host drifts by tens of percent over minutes, so each raw
time is scaled by the speed measured on the same core while it ran.  The
record of every run holds the raw times and their median ``raw_wall_s``;
the traced run also reports it as ``run.raw_wall_s``.

With ``--trace 1`` one more worker runs set-up and operation traced
(``tracer.py``) and the per-layer metrics come from its spans;
``trace.overhead_frac`` is its ``wall_s`` over the untraced median, minus 1.

Every operation passes its correctness gates outside the timed region or
counts as failed; a worker that crashes or times out fails all the
operations it attempted, and the run still prints its result.  Gate
counters and result digests must agree across all operations of a run, or
the run is not correct.  The last stdout line is
the result JSON; the line before it is the full record (seed, provenance,
samples, counters, digests), also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
# Operations one worker attempts, by workload: smoke's 8 checks, one solve
# otherwise.  The keys are workloads.py's; it imports llglab, so run.py
# does not import it.
ATTEMPTED = {"smoke": 8, "cross_solver": 1, "picard_large": 1}
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every worker is killed by then; the run must end in 180 s
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def spawn(args, env, deadline: float, ops: int = 1, trace: int = 0,
          spans: Path | None = None) -> dict:
    """Run one worker to completion; a crash or timeout returns an error record."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--ops", str(ops), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out", "attempted": ATTEMPTED[args.workload]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "attempted": ATTEMPTED[args.workload]}
    return json.loads(lines[-1])


def _named(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _median(ops: list, key: str) -> float:
    """Median of ``key`` over the operations; 0 when every worker crashed,
    in a run that then is not correct."""
    values = [o[key] for o in ops]
    return statistics.median(values) if values else 0.0


def end_to_end(good: list, setups: list) -> dict:
    """The untraced run's metrics: medians over its operations and set-ups."""
    return _named({
        "wall_s": (_median(good, "wall_s"), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (_median(good, "peak_rss_mb"), "MiB"),
    })


def per_layer(traced: dict, good: list) -> dict:
    """The traced operation's layer metrics, with the untraced ops as reference."""
    if "error" in traced:
        traced = {"functions": {}, "counts": {}, "n_spans": 0, "wall_s": 0.0}
    layers = tracer.layer_metrics(traced["functions"], traced["counts"], traced["n_spans"],
                                  traced["wall_s"], _median(good, "wall_s"))
    layers["run.raw_wall_s"] = (_median(good, "raw_wall_s"), "s")
    layers["run.host_speed"] = (_median(good, "host_speed"), "ratio")
    return _named(layers)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(ATTEMPTED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "llglab" / "__init__.py").is_file():
        print(f"no llglab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "LLGLAB_SEED"}
    env.update(SINGLE_THREAD)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"

    # Start another operation only while it is expected to end within
    # --seconds, so a run never overshoots by a whole operation.
    ops: list = []
    start = time.monotonic()
    longest = 0.0
    while True:
        t = time.monotonic()
        ops.append(spawn(args, env, deadline))
        longest = max(longest, time.monotonic() - t)
        if "error" in ops[-1] or time.monotonic() - start + longest > args.seconds:
            break
    good = [o for o in ops if "error" not in o]
    setups = [o["setup_s"] for o in good]
    while good and len(setups) < SETUP_SAMPLES:
        sample = spawn(args, env, deadline, ops=0)
        if "error" in sample:
            ops.append(sample)
            break
        setups.append(sample["setup_s"])
    traced = None
    if args.trace and good:
        traced = spawn(args, env, deadline, trace=1, spans=out_dir / f"spans-{tag}.jsonl")
        ops.append(traced)

    # A crashed worker counts all its operations as attempted and failed.
    attempted = sum(o.get("attempted", 0) for o in ops)
    failed = sum(o["attempted"] if "error" in o else o.get("failed", 0) for o in ops)
    for o in ops:
        if "error" in o:
            print(o["error"], file=sys.stderr)
    outcomes = {json.dumps([o["counters"], o["digest"]], sort_keys=True)
                for o in ops if "error" not in o}
    deterministic = len(outcomes) == 1
    if args.trace:
        metrics = per_layer(traced or {"error": "no worker completed"}, good)
    else:
        metrics = end_to_end(good, setups)
    result = {"correct": failed == 0 and deterministic,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "deterministic": deterministic,
              "provenance": good[0]["provenance"] if good else None,
              "raw_wall_s": _median(good, "raw_wall_s"), "setup_samples": setups,
              "ops": [{k: v for k, v in o.items() if k not in ("provenance", "functions")}
                      for o in ops],
              "result": result}
    if traced is not None:
        record["functions"] = traced["functions"]
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
