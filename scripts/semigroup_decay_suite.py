#!/usr/bin/env python3
"""Full semigroup decay suite on the canonical (2, 64, 2pi) grid.

Writes one CSV per (p, p_tilde, gradient) case under decay_out/ and prints a
pass/fail table.  The checks are one-sided: the compensated ratio must stay
below c_max and settle across the final decade of times.
"""

import sys
from pathlib import Path

import numpy as np

from llglab import (
    SemigroupParams,
    default_decay_times,
    make_grid,
    spectral_bump,
    verify_decay,
)
from llglab.runner import _write_rows


def main(out_dir="decay_out", lam=1.0, c_max=50.0) -> int:
    grid = make_grid(2, 64, 2.0 * np.pi)
    params = SemigroupParams(lam=lam, grid=grid)
    bump = spectral_bump(grid, width=grid.length / 48.0).astype(complex)
    times = default_decay_times(grid, lam)
    out = Path(out_dir)
    all_ok = True
    for gradient_norm in (False, True):
        for p_tilde in (2.0, 4.0, 6.0):
            rep = verify_decay(bump, 2.0, p_tilde, 2.0, times, params,
                               gradient_norm=gradient_norm, c_max=c_max)
            tag = f"p2_pt{p_tilde:g}" + ("_grad" if gradient_norm else "")
            _write_rows(out / f"decay_{tag}.csv", rep.csv_rows())
            status = "PASS" if rep.passed else "FAIL"
            print(f"[{status}] {tag}: max_ratio={rep.max_ratio:.4f} "
                  f"settling={rep.trend_ok}")
            all_ok &= rep.passed
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
