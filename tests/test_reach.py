"""scripts/reach.py end to end: the census of unreached functions."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# What no command-line path calls, and why each stays: the benchmark's tracer
# or the acceptance tests pin it, a test measures with it, or only a failing
# run raises it.
PINNED = {
    "experiments.cross_validate",  # bench workloads, c08
    "experiments.cross_validate_refinement",  # c08
    "fields.derivative",  # bench tracer
    "semigroup.apply_grad_semigroup",  # bench tracer
    "fields.SpinField.from_values",  # acceptance tests
    "fields.SpinField.unit_defect",  # acceptance tests
    "llg.check_equivalent_form",  # acceptance test c04
    "fields.Workspace.nbytes",  # the workspace tests
    "cgl.NonContraction.__init__",  # raised by a mild solve that diverges
    "llg.BlowupSuspected.__init__",  # raised by a direct run that blows up
}


def test_census_lists_only_pinned_functions():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "reach.py")],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    never = set(out.stdout.split())
    assert never, "the census found every function reached"
    assert never <= PINNED, f"functions no command-line path calls: {never - PINNED}"
