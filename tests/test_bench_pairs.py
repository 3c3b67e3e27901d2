"""The summary of scripts/bench_pairs.py on synthetic pairs."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_clear_gain_meets_the_rule():
    parent = [4.0, 4.1, 3.9, 4.2, 4.0, 3.8, 4.1, 4.0, 3.9, 4.0]
    change = [p - 0.3 for p in parent]
    change[3] = 4.3  # the parent wins one pair
    got = bench_pairs.summarize(list(zip(parent, change)))
    assert got["parent"] == pytest.approx({"median": 4.0, "q1": 3.925, "q3": 4.075, "n": 10})
    assert (got["change_wins"], got["parent_wins"]) == (9, 1)
    assert got["median_gap"] == pytest.approx(0.3)
    assert got["parent_iqr"] == pytest.approx(0.15)
    assert got["met_rule"]


def test_ties_count_for_neither_and_eight_wins_fail():
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.0, 2.0]
    got = bench_pairs.summarize(list(zip(parent, change)))
    assert (got["change_wins"], got["parent_wins"]) == (8, 1)
    assert not got["met_rule"]


def test_gap_within_the_parent_spread_fails():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [p - 0.5 for p in parent]
    got = bench_pairs.summarize(list(zip(parent, change)))
    assert got["change_wins"] == 5
    assert got["parent_iqr"] == 2.0 and got["median_gap"] == 0.5
    assert not got["met_rule"]


def test_fewer_than_ten_pairs_never_meet_the_rule():
    got = bench_pairs.summarize([(4.0, 3.0), (4.1, 3.1), (3.9, 2.9)])
    assert got["change_wins"] == 3 and got["median_gap"] > got["parent_iqr"]
    assert not got["met_rule"]


def test_runs_pair_up_by_workload_seed_and_pair():
    def run(pair, side, wall, correct=True, digest="d"):
        metrics = {m: {"value": wall} for m in bench_pairs.METRICS}
        return {"workload": "w", "seed": 1, "pair": pair, "side": side, "exit": 0,
                "stderr": None, "result": {"correct": correct, "metrics": metrics},
                "outcomes": [digest]}

    runs = [run(1, "parent", 2.0), run(1, "change", 1.0),
            run(2, "change", 1.5), run(2, "parent", 1.0, correct=False),
            run(3, "parent", 2.0)]  # an incomplete pair is left out
    row = bench_pairs.summarize_runs(runs)["w/seed1"]
    assert row["complete_pairs"] == 2
    assert row["wall_s"]["change_wins"] == row["wall_s"]["parent_wins"] == 1
    assert not row["all_correct"] and row["counters_and_digests_equal"]
    assert [(r["pair"], r["side"]) for r in row["failed_runs"]] == [(2, "parent")]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_snapshot_holds_what_git_would_commit(tmp_path):
    root, dest = tmp_path / "tree", tmp_path / "snapshot"
    files = {".gitignore": ".bench_out/\n*.pyc\n", "src/kept.py": "x = 1\n",
             "src/edited.py": "y = 1\n", "gone.txt": "deleted later\n"}
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    subprocess.run(["git", "add", "-A"], cwd=root, check=True)
    (root / "src/edited.py").write_text("y = 2\n")  # modified, not staged
    (root / "gone.txt").unlink()
    (root / "src/new.py").write_text("z = 3\n")  # untracked, not ignored
    (root / ".bench_out").mkdir()
    (root / ".bench_out/run.json").write_text("{}\n")
    (root / "src/kept.pyc").write_bytes(b"ignored")

    bench_pairs.snapshot_worktree(root, dest)
    got = {p.relative_to(dest).as_posix(): p.read_text()
           for p in dest.rglob("*") if p.is_file()}
    assert got == {".gitignore": ".bench_out/\n*.pyc\n", "src/kept.py": "x = 1\n",
                   "src/edited.py": "y = 2\n", "src/new.py": "z = 3\n"}
