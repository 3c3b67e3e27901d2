"""scripts/memory_phases.py end to end on the smoke workload."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_phases_are_reported_and_bench_is_left_alone():
    before = sorted(p.relative_to(ROOT) for p in (ROOT / "bench").rglob("*"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "memory_phases.py"),
                          "--workload", "smoke"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("smoke (seed 101): operation peak ")
    assert lines[0].endswith("gates 8/8 passed")
    phases = [line.split("  ")[1].strip() for line in lines[2:]]
    assert phases == ["first sweep", "later sweeps", "xpt norm", "direct solve",
                      "compare", "other"]
    assert sorted(p.relative_to(ROOT) for p in (ROOT / "bench").rglob("*")) == before
