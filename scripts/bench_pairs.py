#!/usr/bin/env python3
"""Alternating-pairs benchmark of a change against a parent commit.

    python3 scripts/bench_pairs.py --parent COMMIT --out BENCH_name.json \\
        [--workload W ...] [--seed S ...] [--claim WORKLOAD:METRIC] [--what TEXT]

The parent side is a ``git archive`` of COMMIT unpacked into a temporary
directory; the change side is a copy, next to it, of the files git would
commit from this working tree: the tracked files that are present, with
their changes, and the untracked files that are not ignored.  Both sides
thus start from a clean tree, with no build or bench output left in it,
and both are removed at the end.  Ten pairs run per workload and seed.
Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each tree, back to back; odd pairs run the parent
first, even pairs the change.  T is ``BENCHMARK.json``'s ``run_seconds`` (36), and the workloads
are its ``workloads`` unless given; they run in the order given, each on
every seed.

The output JSON holds one line per run (its result, the wall time and peak
RSS of each of its operations, the set-up samples, the counters and digests
of its operations, and any worker error it printed) and, per workload and
seed, each end-to-end metric's median and inclusive quartiles for both
sides, the pairs each side won (lower is better; ties count for neither),
and whether the change met the rule: all ten pairs are complete, the change
wins at least nine of them, and its median is better than the parent's by
more than the parent's interquartile range.  A failed run is reported as it
is, never re-run.  The file is rewritten after every run, so an interrupted
run keeps what it measured (and, short of ten pairs, never meets the rule).

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("wall_s", "setup_s", "peak_rss_mb")  # all lower-is-better
PAIRS = 10  # per workload and seed
WIN_SHARE = 0.9


def side_stats(values: list) -> dict:
    """Median and inclusive quartiles of one side's values."""
    if len(values) < 2:
        v = values[0] if values else math.nan
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list) -> dict:
    """Compare (parent, change) values of one lower-is-better metric, one
    tuple per pair: both sides' statistics, the pair wins, and the rule,
    which fewer than ``PAIRS`` pairs never meet."""
    parent = side_stats([p for p, _ in pairs])
    change = side_stats([c for _, c in pairs])
    change_wins = sum(c < p for p, c in pairs)
    parent_wins = sum(p < c for p, c in pairs)
    gap = parent["median"] - change["median"]
    iqr = parent["q3"] - parent["q1"]
    return {"parent": parent, "change": change,
            "change_wins": change_wins, "parent_wins": parent_wins,
            "median_ratio_change_over_parent": change["median"] / parent["median"],
            "median_gap": gap, "parent_iqr": iqr,
            "met_rule": (len(pairs) >= PAIRS and change_wins >= WIN_SHARE * len(pairs)
                         and gap > iqr)}


def unpack_commit(commit: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def snapshot_worktree(root: Path, dest: Path) -> None:
    """Copy into ``dest`` the files git would commit from the working tree at
    ``root``: tracked files that are present and untracked files that are
    not ignored, each as it is on disk."""
    listing = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                              "--exclude-standard"], cwd=root, capture_output=True,
                             check=True).stdout.decode()
    for name in filter(None, listing.split("\0")):
        source = root / name
        if not (source.is_symlink() or source.is_file()):
            continue  # a tracked file deleted from the working tree
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target, follow_symlinks=False)


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced bench run in ``tree``: its result and what it recorded."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    entry = {"exit": proc.returncode, "stderr": proc.stderr.strip()[-2000:] or None}
    if proc.returncode != 0 or len(lines) < 2:
        return {**entry, "result": None}
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    ops = [o for o in record["ops"] if "error" not in o]
    return {**entry, "result": result,
            "op_wall_s": [o["wall_s"] for o in ops],
            "op_peak_rss_mb": [o["peak_rss_mb"] for o in ops],
            "setup_samples": record["setup_samples"],
            "outcomes": sorted({json.dumps([o["counters"], o["digest"]], sort_keys=True)
                                for o in ops}),
            "errors": [o["error"] for o in record["ops"] if "error" in o]}


def summarize_runs(runs: list) -> dict:
    """Per workload and seed: every metric's comparison over complete pairs,
    whether every run was correct, and whether all agree on counters and
    digests."""
    out = {}
    for key in dict.fromkeys((r["workload"], r["seed"]) for r in runs):
        mine = [r for r in runs if (r["workload"], r["seed"]) == key]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        complete = [s for s in by_pair.values() if len(s) == 2
                    and all(x["result"] is not None for x in s.values())]
        row = {}
        for m in METRICS:
            row[m] = summarize([(s["parent"]["result"]["metrics"][m]["value"],
                                 s["change"]["result"]["metrics"][m]["value"])
                                for s in complete])
        row["complete_pairs"] = len(complete)
        row["all_correct"] = all(r["result"] is not None and r["result"]["correct"]
                                 for r in mine)
        outcomes = {o for r in mine for o in r.get("outcomes", [])}
        row["counters_and_digests_equal"] = len(outcomes) == 1
        row["failed_runs"] = [{k: r[k] for k in ("pair", "side", "exit", "stderr")}
                              for r in mine if r["result"] is None or not r["result"]["correct"]]
        out[f"{key[0]}/seed{key[1]}"] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload of BENCHMARK.json")
    ap.add_argument("--seed", action="append", type=int, help="repeatable; default 101, 102")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--what", default="", help="what the change does")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(bench["run_seconds"])
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = args.seed or [101, 102]

    parent_commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                   capture_output=True, text=True).stdout.strip()
    doc = {"what": args.what,
           "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
           "parent": {"git_commit": parent_commit},
           "change": {"git_commit": None,
                      "note": ("a copy of the working tree's tracked files that are "
                               "present and untracked files that are not ignored")},
           "host": {"platform": platform.platform(), "python": platform.python_version()},
           "protocol": (f"{PAIRS} pairs per workload and seed; each pair runs the parent "
                        "(git archive of its commit) and the change (a copy of the files git "
                        "would commit from the working tree, beside it in the same temporary "
                        "directory) once each, back to back, odd pairs parent first. "
                        "Quartiles are "
                        "statistics.quantiles(method='inclusive'); a pair is won by the lower "
                        "value, ties count for neither; the rule is at least 9 in 10 pairs won "
                        "and a median gap larger than the parent's interquartile range."),
           "claim": None, "summary": {}, "runs": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as workdir:
        trees = {"parent": Path(workdir) / "parent", "change": Path(workdir) / "change"}
        unpack_commit(parent_commit, trees["parent"])
        snapshot_worktree(ROOT, trees["change"])
        for workload in workloads:
            for seed in seeds:
                for pair in range(1, PAIRS + 1):
                    order = ("parent", "change") if pair % 2 else ("change", "parent")
                    for side in order:
                        run = bench_once(trees[side], workload, seed, seconds)
                        doc["runs"].append({"workload": workload, "seed": seed, "pair": pair,
                                            "side": side, **run})
                        doc["summary"] = summarize_runs(doc["runs"])
                        if args.claim:
                            w, m = args.claim.split(":")
                            doc["claim"] = {"workload": w, "metric": m, **{
                                key.split("/")[1]: row[m] for key, row in doc["summary"].items()
                                if key.split("/")[0] == w}}
                        args.out.write_text(json.dumps(doc, indent=1) + "\n")
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              f"{(run['result'] or {}).get('metrics', {}).get('wall_s')}",
                              file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
