"""Self-tests of the benchmark: ``python3 -m pytest bench`` from the repo root."""

import json
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import llglab  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1, "r"],
        ["a", 1.0, 4.0, 0, "r"],
        ["a1", 2.0, 3.0, 1, "r"],
        ["b", 5.0, 9.0, 0, "r"],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    stats = tracer.by_function(spans + [["b", 11.0, 11.5, -1, "r"]])
    assert stats["b"] == (2, 4.5)
    # self times partition the covered time: root's 10 s plus the lone 0.5 s
    assert sum(s for _, s in stats.values()) == 10.5


def test_layer_metrics_ratios():
    fn = {"morrey.morrey_norm": (4, 2.0), "llg.llg_rhs": (10, 0.5),
          "fields.laplacian": (10, 0.25), "fields.gradient": (1, 0.25)}
    m = tracer.layer_metrics(fn, {"morrey.ball_evals": 1000}, 25, 3.0, 2.0)
    assert m["morrey.ns_per_ball"] == (2e6, "ns")
    assert m["llg.us_per_rhs"] == (5e4, "us")
    assert m["fields.calls"] == (11, "count")
    assert m["fields.self_s"] == (0.5, "s")
    assert m["trace.overhead_frac"] == (0.5, "ratio")


def _bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "llglab" or name.startswith("llglab.")
            for attr, value in vars(mod).items() if callable(value)}


def test_wrappers_restored_after_traced_run(tmp_path):
    before = _bindings()
    wl = workloads.WORKLOADS["picard_large"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with tracer.Tracer() as trc:
            original = before[("llglab.cgl", "gauge_fields_from_u")]
            assert llglab.cgl.gauge_fields_from_u is not original
            state = wl.setup(0, tmp_path, None, size="reduced")
            result = wl.run(state)
    assert _bindings() == before
    stats = tracer.by_function(trc.spans)
    # cgl imported these with ``from .x import y``; the rebinding caught them
    assert stats["frames.gauge_fields_from_u"][0] == stats["cgl.nonlinearity_F"][0] > 0
    assert trc.counts["cgl.picard_iters"] == result.iterations
    assert trc.counts["morrey.ball_evals"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_workload_passes_its_gates(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = wl.setup(5, tmp_path, ROOT / "configs" / "smoke.cfg", size="reduced")
        gate = wl.check(state, wl.run(state))
    assert gate.attempted >= 1
    assert gate.failed == 0, gate.detail
    assert len(gate.digest) == 64


def test_host_probe_adjusts_and_restores():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with probe.HostProbe() as hp:
        sum(i * i for i in range(5_000_000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(hp.samples) > 2 and hp.busy_s < sum(hp.samples)
    hp.samples[:] = [2 * probe.REF_KERNEL_S] * 3  # a host at half speed
    hp.busy_s = 1.0
    assert hp.speed == 0.5
    assert hp.adjusted(11.0) == 5.0


def test_probe_kernel_allocates_nothing():
    import tracemalloc

    probe._kernel()
    tracemalloc.start()
    try:
        probe._kernel()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096  # a few Python objects, no array


def _work():
    return sum(i * i % 7 for i in range(1_000_000))


def _gil_thread():
    """The work, while another Python thread of the program spins."""
    import threading

    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    thread = threading.Thread(target=spin)
    thread.start()
    try:
        _work()
    finally:
        stop.set()
        thread.join()


_BIG = np.ones(8 << 20)  # 64 MiB, far beyond the caches


def _heap_and_caches():
    """The work, then fresh large allocations and a sweep of the caches."""
    _work()
    for _ in range(10):
        np.add(np.ones(4 << 20), 1.0).sum()
        _BIG.sum()


@pytest.mark.parametrize("slowdown", [_gil_thread, _heap_and_caches])
def test_program_slowdown_survives_the_correction(slowdown):
    """A slowdown the program causes in its own process must not slow the
    probe's kernel too, or ``adjusted`` would divide it out."""

    def timed(fn):
        with probe.HostProbe() as hp:
            start = time.perf_counter()
            fn()
            raw = time.perf_counter() - start
        return raw, hp.adjusted(raw)

    raw_ratios, adjusted_ratios = [], []
    for _ in range(3):  # interleaved, so a drift of the host hits both
        (raw, adj), (raw_slow, adj_slow) = timed(_work), timed(slowdown)
        raw_ratios.append(raw_slow / raw)
        adjusted_ratios.append(adj_slow / adj)
    raw_ratio = statistics.median(raw_ratios)
    assert raw_ratio > 1.5  # the injected slowdown is real
    # the corrected time rises by about as much as the raw time
    assert 0.7 < statistics.median(adjusted_ratios) / raw_ratio < 1.4


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    op = {"wall_s": 2.0, "raw_wall_s": 2.5, "host_speed": 0.8, "peak_rss_mb": 90.0}
    traced = {"functions": {"llg.llg_rhs": [4, 0.5]}, "counts": {}, "n_spans": 4,
              "wall_s": 2.2}
    e2e = run.end_to_end([op], [1.0, 1.2, 0.9])
    layers = run.per_layer(traced, [op])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v["unit"] for k, v in layers.items()}
    assert layers["trace.overhead_frac"]["value"] == pytest.approx(0.1)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "smoke",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_workload_tables_agree():
    assert set(run.ATTEMPTED) == set(workloads.WORKLOADS)
    state = workloads.WORKLOADS["smoke"].setup(1, ROOT / ".bench_out" / "test-smoke",
                                              ROOT / "configs" / "smoke.cfg")
    assert len(state["cfg"].checks) == run.ATTEMPTED["smoke"]
    shutil.rmtree(ROOT / ".bench_out" / "test-smoke")


@pytest.mark.parametrize("trace", [0, 1])
def test_crashed_workers_still_give_a_result(trace, monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = []

    def crash(args, env, deadline, ops=1, trace=0, spans=None):
        calls.append(ops)
        return {"error": "worker exit 1: boom", "attempted": run.ATTEMPTED[args.workload]}

    monkeypatch.setattr(run, "spawn", crash)
    assert run.main(["--workload", "smoke", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert calls == [1]  # nothing more is started after a crash
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 8
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
