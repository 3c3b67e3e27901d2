#!/usr/bin/env python3
"""Run the bundled smoke pipeline twice and verify byte-identical output.

Also prints the sha256 tree digest of the output (relative path and bytes of
every file, in sorted order, as ``bench/workloads.tree_digest`` computes it),
so two checkouts can be compared for identical output with one line.
"""

import filecmp
import hashlib
import sys
import tempfile
from pathlib import Path

from llglab import run_experiment

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "smoke.cfg"


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out1, out2 = Path(tmp) / "run1", Path(tmp) / "run2"
        code1 = run_experiment(CONFIG, out_dir=out1)
        code2 = run_experiment(CONFIG, out_dir=out2)
        names = sorted(p.name for p in out1.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
        print(f"exit codes: {code1}, {code2}; files compared: {len(names)}; "
              f"mismatches: {len(mismatch) + len(errors)}")
        print(f"output tree sha256: {tree_digest(out1)}")
        if code1 or code2 or mismatch or errors:
            return 1
    print("smoke pipeline deterministic and green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
