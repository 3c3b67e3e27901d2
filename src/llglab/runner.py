"""Experiment orchestration: run the checks a config declares, write CSVs.

The checks of one run share its datum m0, the gauge datum v0, the direct run
and the mild solve, each made when a check first reads it: a run makes each
solve once, and a check run alone pays only for what it reads.  A solve that
raises keeps nothing, so every check that reads it sees the same error.

Every PASS/FAIL in the summary is recomputable from the emitted CSVs alone;
files contain no timestamps, and a fixed seed gives byte-identical output
trees across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .cgl import (
    NonContraction,
    exponent_window_check,
    fixed_point_residual,
    picard_iterate,
    stability_experiment,
)
from .config import LabConfig, parse_config
from .experiments import (compare_with_mild, decay_report, direct_config, mild_initial_data,
                          uniqueness_experiment)
from .fields import float_repr
from .frames import build_frame, check_identities, coulomb_gauge_fix, derive_gauge
from .initial_data import generate_initial_data, mollify_and_project, rough_raw_field
from .llg import check_energy_inequality, llg_rhs, solve
from .semigroup import decay_datum, verify_decay

__all__ = ["CheckOutcome", "run_experiment", "run_config"]


@dataclass
class CheckOutcome:
    name: str
    status: str  # PASS / FAIL / INCONCLUSIVE / ERROR
    detail: str


class _Run:
    """The datum and solves the checks of one run share, each made on first read.

    Every check gets the same arrays, so a check must not write to them.
    """

    def __init__(self, cfg: LabConfig):
        self.cfg, self.grid = cfg, cfg.grid

    @cached_property
    def m0(self):
        return generate_initial_data(self.cfg.initial_data, self.grid, self.cfg.effective_seed)

    @cached_property
    def v0(self):
        return mild_initial_data(self.grid, self.m0)

    @cached_property
    def direct(self):
        return solve(self.m0, self.cfg.llg, n_outputs=self.cfg.llg_outputs)

    @cached_property
    def mild(self):
        # only the picard check reads the per-iteration trajectory norms
        return picard_iterate(self.grid, self.v0, self.cfg.cgl,
                              track_xpt="picard" in self.cfg.checks)


def _write_rows(path: Path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        for row in rows:
            fh.write(row + "\n")


def _check_energy(run: _Run, outdir: Path) -> CheckOutcome:
    _write_rows(outdir / "energy_ledger.csv", run.direct.ledger.csv_rows())
    check = check_energy_inequality(run.direct.ledger, run.cfg.llg.lam)
    status = "PASS" if check.passed else "FAIL"
    return CheckOutcome("energy", status,
                        f"worst_violation={check.worst_violation!r} tol={check.tolerance!r}")


def _check_identities(run: _Run, outdir: Path) -> CheckOutcome:
    grid, m0, lam = run.grid, run.m0, run.cfg.lam
    frame = build_frame(m0)
    dt_m = llg_rhs(grid, m0.values, lam)
    state = coulomb_gauge_fix(grid, derive_gauge(grid, m0, dt_m, frame))
    res = check_identities(grid, m0, dt_m, frame, state, lam)
    _write_rows(outdir / "identity_residuals.csv", [res.csv_header(), res.csv_row()])
    ok = (res.torsion <= 1e-8 and res.curvature <= 1e-8 and res.tension <= 1e-8
          and res.u0_equation <= 1e-8 and res.div_a <= 1e-10)
    return CheckOutcome("identities", "PASS" if ok else "FAIL",
                        f"torsion={res.torsion:.2e} curvature={res.curvature:.2e} "
                        f"u0={res.u0_equation:.2e} tension={res.tension:.2e} "
                        f"div_a={res.div_a:.2e}")


def _check_semigroup_decay(run: _Run, outdir: Path) -> CheckOutcome:
    params, bump, times = decay_datum(run.cfg.lam)
    all_pass = True
    details = []
    cases = [(2.0, 2.0, False), (2.0, 4.0, False), (2.0, 2.0, True), (2.0, 4.0, True)]
    for p, pt, grad in cases:
        rep = verify_decay(bump, p, pt, 2.0, times, params, gradient_norm=grad)
        tag = f"p{p:g}_pt{pt:g}" + ("_grad" if grad else "")
        _write_rows(outdir / f"decay_{tag}.csv", rep.csv_rows())
        all_pass &= rep.passed
        details.append(f"{tag}:max={rep.max_ratio:.3g}")
    return CheckOutcome("semigroup_decay", "PASS" if all_pass else "FAIL",
                        " ".join(details))


def _check_exponent_window(run: _Run, outdir: Path) -> CheckOutcome:
    ps = np.linspace(2.5, 4.0, 200)
    rows = ["p,valid,first_failing,delta1,delta2"]
    ok = True
    for p in ps:
        rep = exponent_window_check(float(p), compute_beta=False)
        expected = 3.0 < p < 10.0 / 3.0
        ok &= rep.valid == expected
        bad = rep.first_failing
        if bad is None:
            rows.append(f"{float(p)!r},1,,,")
        else:
            rows.append(f"{float(p)!r},0,{bad.label},{bad.delta1!r},{bad.delta2!r}")
    _write_rows(outdir / "exponent_window.csv", rows)
    return CheckOutcome("exponent_window", "PASS" if ok else "FAIL",
                        "window matches (3, 10/3) on the scan")


def _check_picard(run: _Run, outdir: Path) -> CheckOutcome:
    try:
        result = run.mild
    except NonContraction as exc:
        return CheckOutcome("picard", "FAIL", f"non-contraction: {exc}")
    _write_rows(outdir / "picard_iterations.csv", result.csv_rows())
    resid = fixed_point_residual(run.grid, result, run.v0, run.cfg.cgl)
    ok = result.converged and resid <= 10.0 * run.cfg.cgl.picard_tol
    return CheckOutcome("picard", "PASS" if ok else "FAIL",
                        f"iterations={result.iterations} residual={resid:.3e}")


def _check_mollify(run: _Run, outdir: Path) -> CheckOutcome:
    spec = run.cfg.initial_data
    rows = ["k,min_modulus,max_modulus,grad_raw,grad_smoothed,amplification"]
    ok = True
    raw = rough_raw_field(run.grid, spec.amplitude, spec.m_infinity, run.cfg.effective_seed)
    for k in (2.0, 4.0, 8.0):
        projected, rep = mollify_and_project(run.grid, raw, k)
        ok &= rep.min_modulus >= 0.75 and rep.max_modulus <= 1.0 + 1e-12
        ok &= rep.amplification <= 8.0
        rows.append(f"{k!r},{rep.min_modulus!r},{rep.max_modulus!r},"
                    f"{rep.grad_norm_raw!r},{rep.grad_norm_smoothed!r},"
                    f"{rep.amplification!r}")
    _write_rows(outdir / "mollify.csv", rows)
    return CheckOutcome("mollify", "PASS" if ok else "FAIL",
                        "modulus in [3/4, 1] and amplification <= 8")


def _check_cross_solver(run: _Run, outdir: Path) -> CheckOutcome:
    llg_cfg = direct_config(run.grid, run.cfg.cgl.lam, run.cfg.cgl.t_end)
    rep = compare_with_mild(run.grid, run.m0, run.mild, llg_cfg)
    rows = ["t,rel_discrepancy"]
    rows += [f"{float_repr(t)},{float_repr(d)}" for t, d in zip(rep.times, rep.discrepancies)]
    _write_rows(outdir / "cross_solver.csv", rows)
    ok = rep.sup_discrepancy <= 1e-3
    return CheckOutcome("cross_solver", "PASS" if ok else "FAIL",
                        f"sup_discrepancy={rep.sup_discrepancy:.3e}")


def _check_uniqueness(run: _Run, outdir: Path) -> CheckOutcome:
    llg = run.cfg.llg
    rep = uniqueness_experiment(run.grid, run.m0, llg.lam, llg.t_end,
                                dt=llg.dt, n_outputs=run.cfg.llg_outputs)
    rows = ["t,difference,compensated"]
    rows += [f"{float_repr(t)},{float_repr(d)},{float_repr(c)}"
             for t, d, c in zip(rep.times, rep.differences, rep.compensated)]
    _write_rows(outdir / "uniqueness.csv", rows)
    return CheckOutcome("uniqueness", rep.status,
                        f"transient_steps={rep.transient_steps} exact_zero={rep.exact_zero}")


def _check_solution_decay(run: _Run, outdir: Path) -> CheckOutcome:
    table = decay_report(run.grid, run.direct.trajectory)
    _write_rows(outdir / "solution_decay.csv", table.csv_rows())
    return CheckOutcome("solution_decay", "PASS" if table.passed else "FAIL",
                        f"max_comp1={float_repr(table.first_order.max())}")


def _check_stability(run: _Run, outdir: Path) -> CheckOutcome:
    grid, v0_a = run.grid, run.v0
    x = grid.coordinates()[0]
    pert = np.zeros((grid.dim,) + grid.shape, dtype=complex)
    pert[0] = 1e-3 * np.exp(2j * 2.0 * np.pi * x / grid.length)
    rep = stability_experiment(grid, v0_a, v0_a + pert, run.cfg.cgl, halvings=3)
    rows = ["delta,ratio"]
    rows += [f"{float_repr(d)},{float_repr(r)}" for d, r in zip(rep.deltas, rep.ratios)]
    _write_rows(outdir / "stability.csv", rows)
    ok = (not rep.exact_zero) and rep.spread <= 0.25
    return CheckOutcome("stability", "PASS" if ok else "FAIL",
                        f"spread={rep.spread:.3f}")


_CHECK_FUNCS = {
    "energy": _check_energy,
    "identities": _check_identities,
    "semigroup_decay": _check_semigroup_decay,
    "exponent_window": _check_exponent_window,
    "picard": _check_picard,
    "mollify": _check_mollify,
    "cross_solver": _check_cross_solver,
    "uniqueness": _check_uniqueness,
    "solution_decay": _check_solution_decay,
    "stability": _check_stability,
}


def run_config(cfg: LabConfig, out_dir=None, jobs: int = 1):
    """Execute the declared checks; returns (outcomes, summary path).

    Checks run serially whatever ``jobs`` says: they are GIL-bound Python
    loops, and a thread pool measured slower than serial.  ``jobs`` is kept
    only because ``bench/workloads.py`` passes it.
    """
    cfg.effective_seed  # a bad LLGLAB_SEED raises ConfigError before anything is written
    outdir = Path(out_dir or cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    run = _Run(cfg)

    def run_one(name):
        try:
            return _CHECK_FUNCS[name](run, outdir)
        except Exception as exc:  # noqa: BLE001 - surfaced in the summary
            return CheckOutcome(name, "ERROR", f"{type(exc).__name__}: {exc}")

    outcomes = [run_one(name) for name in cfg.checks]

    rows = ["check,status,detail"]
    rows += [f"{o.name},{o.status},\"{o.detail}\"" for o in outcomes]
    summary = outdir / "summary.csv"
    _write_rows(summary, rows)
    return outcomes, summary


def run_experiment(config_path, out_dir=None) -> int:
    """Parse, run, and report; exit code 0 iff every declared check passes."""
    cfg = parse_config(config_path)
    outcomes, summary = run_config(cfg, out_dir=out_dir)
    for o in outcomes:
        print(f"[{o.status}] {o.name}: {o.detail}")
    print(f"summary written to {summary}")
    return 0 if all(o.status == "PASS" for o in outcomes) else 1
