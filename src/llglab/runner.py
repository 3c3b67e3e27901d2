"""Experiment orchestration: run the checks a config declares, write CSVs.

This module owns the CSV format and every file's header: the solvers and
reports return values, and ``_write_csv`` formats every file, the command
line's included.

The checks of one run share its datum m0, the gauge datum v0, the direct runs
(one per distinct config and output times, so ``energy``, ``cross_solver`` and
``uniqueness`` share one when they ask for the same run) and the mild solve,
each made when a check first reads it: a run makes each solve once, and a
check run alone pays only for what it reads.  A solve that raises keeps
nothing, so every check that reads it sees the same error.

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
from .experiments import (_uniqueness_configs, compare_with_mild, decay_report, direct_config,
                          mild_initial_data, uniqueness_experiment)
from .fields import float_repr, gradient, pointwise_magnitude
from .frames import build_frame, check_identities, coulomb_gauge_fix, derive_gauge
from .initial_data import generate_initial_data, mollify_and_project, rough_raw_field
from .llg import check_energy_inequality, llg_rhs, solve
from .morrey import morrey_norm
from .semigroup import decay_datum, verify_decays

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
        self._direct_runs = {}

    def direct_run(self, llg_cfg, output_times):
        """The direct solve of m0 under llg_cfg at output_times, made once per
        distinct (config, times) pair; a solve that raises is not kept."""
        key = (llg_cfg, tuple(output_times))
        if key not in self._direct_runs:
            self._direct_runs[key] = solve(self.m0, llg_cfg, output_times=output_times)
        return self._direct_runs[key]

    @cached_property
    def m0(self):
        return generate_initial_data(self.cfg.initial_data, self.grid, self.cfg.effective_seed)

    @cached_property
    def v0(self):
        return mild_initial_data(self.grid, self.m0)

    @property
    def direct(self):
        llg = self.cfg.llg
        return self.direct_run(llg, np.linspace(0.0, llg.t_end, self.cfg.llg_outputs))

    @cached_property
    def mild(self):
        # only the picard check reads the per-iteration trajectory norms
        return picard_iterate(self.grid, self.v0, self.cfg.cgl,
                              track_xpt="picard" in self.cfg.checks)


def _cell(value) -> str:
    if value is None:
        return ""
    return float_repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: Path, header: str, rows) -> None:
    """Write ``header`` and one LF-ended line per row of values.

    A float (numpy's float64 included) is written as ``float_repr``, None as
    an empty cell, anything else as ``str``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _write_ledger(path: Path, grid, result) -> None:
    """A direct run's ledger; each row's ||grad m||_{M^{2,2}} is measured as it is written."""
    ledger = result.ledger
    morrey22 = (morrey_norm(grid, pointwise_magnitude(grid, gradient(grid, mv)), 2.0, 2.0).value
                for mv in result.trajectory.fields)
    _write_csv(path, "t,E,dissipation,sup_grad,morrey22",
               zip(ledger.times, ledger.energy, ledger.dissipation, ledger.sup_grad, morrey22))


def _write_picard_log(path: Path, result) -> None:
    """One row per sweep; the xpt cells are empty for an untracked solve."""
    history = result.xpt_history or [None] * result.iterations
    _write_csv(path, "iter,increment,xpt_R1,xpt_R2,xpt_R3",
               ((it, inc) + ((x.r1, x.r2, x.r3) if x else (None,) * 3)
                for it, (inc, x) in enumerate(zip(result.increments, history), 1)))


def _write_decay_series(path: Path, rep) -> None:
    _write_csv(path, "t,norm,compensated_ratio",
               zip(rep.t_samples, rep.norms, rep.ratio_series))


def _check_energy(run: _Run, outdir: Path) -> CheckOutcome:
    _write_ledger(outdir / "energy_ledger.csv", run.grid, run.direct)
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
    _write_csv(outdir / "identity_residuals.csv", "torsion,curvature,u0_eq,tension",
               [(res.torsion, res.curvature, res.u0_equation, res.tension)])
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
    cases = [(2.0, False), (4.0, False), (2.0, True), (4.0, True)]
    for rep in verify_decays(bump, 2.0, cases, 2.0, times, params):
        tag = f"p{rep.p:g}_pt{rep.p_tilde:g}" + ("_grad" if rep.gradient else "")
        _write_decay_series(outdir / f"decay_{tag}.csv", rep)
        all_pass &= rep.passed
        details.append(f"{tag}:max={rep.max_ratio:.3g}")
    return CheckOutcome("semigroup_decay", "PASS" if all_pass else "FAIL",
                        " ".join(details))


def _check_exponent_window(run: _Run, outdir: Path) -> CheckOutcome:
    rows = []
    ok = True
    for p in np.linspace(2.5, 4.0, 200):
        rep = exponent_window_check(float(p))
        ok &= rep.valid == (3.0 < p < 10.0 / 3.0)
        bad = rep.first_failing
        rows.append((p, 1, None, None, None) if bad is None
                    else (p, 0, bad.label, bad.delta1, bad.delta2))
    _write_csv(outdir / "exponent_window.csv", "p,valid,first_failing,delta1,delta2", rows)
    return CheckOutcome("exponent_window", "PASS" if ok else "FAIL",
                        "window matches (3, 10/3) on the scan")


def _check_picard(run: _Run, outdir: Path) -> CheckOutcome:
    try:
        result = run.mild
    except NonContraction as exc:
        return CheckOutcome("picard", "FAIL", f"non-contraction: {exc}")
    _write_picard_log(outdir / "picard_iterations.csv", result)
    resid = fixed_point_residual(run.grid, result, run.v0, run.cfg.cgl)
    ok = result.converged and resid <= 10.0 * run.cfg.cgl.picard_tol
    return CheckOutcome("picard", "PASS" if ok else "FAIL",
                        f"iterations={result.iterations} residual={resid:.3e}")


def _check_mollify(run: _Run, outdir: Path) -> CheckOutcome:
    spec = run.cfg.initial_data
    rows = []
    ok = True
    raw = rough_raw_field(run.grid, spec.amplitude, spec.m_infinity, run.cfg.effective_seed)
    for k in (2.0, 4.0, 8.0):
        projected, rep = mollify_and_project(run.grid, raw, k)
        ok &= rep.min_modulus >= 0.75 and rep.max_modulus <= 1.0 + 1e-12
        ok &= rep.amplification <= 8.0
        rows.append((k, rep.min_modulus, rep.max_modulus, rep.grad_norm_raw,
                     rep.grad_norm_smoothed, rep.amplification))
    _write_csv(outdir / "mollify.csv",
               "k,min_modulus,max_modulus,grad_raw,grad_smoothed,amplification", rows)
    return CheckOutcome("mollify", "PASS" if ok else "FAIL",
                        "modulus in [3/4, 1] and amplification <= 8")


def _check_cross_solver(run: _Run, outdir: Path) -> CheckOutcome:
    llg_cfg = direct_config(run.grid, run.cfg.cgl.lam, run.cfg.cgl.t_end)
    times = run.mild.trajectory.times
    rep = compare_with_mild(run.grid, run.mild, run.direct_run(llg_cfg, times))
    _write_csv(outdir / "cross_solver.csv", "t,rel_discrepancy",
               zip(rep.times, rep.discrepancies))
    ok = rep.sup_discrepancy <= 1e-3
    return CheckOutcome("cross_solver", "PASS" if ok else "FAIL",
                        f"sup_discrepancy={rep.sup_discrepancy:.3e}")


def _check_uniqueness(run: _Run, outdir: Path) -> CheckOutcome:
    llg = run.cfg.llg
    times = np.linspace(0.0, llg.t_end, run.cfg.llg_outputs)
    run_a, run_b = (run.direct_run(cfg, times)
                    for cfg in _uniqueness_configs(run.grid, llg.lam, llg.t_end, llg.dt))
    rep = uniqueness_experiment(run.grid, run_a, run_b)
    _write_csv(outdir / "uniqueness.csv", "t,difference,compensated",
               zip(rep.times, rep.differences, rep.compensated))
    return CheckOutcome("uniqueness", rep.status,
                        f"transient_steps={rep.transient_steps} exact_zero={rep.exact_zero}")


def _check_solution_decay(run: _Run, outdir: Path) -> CheckOutcome:
    table = decay_report(run.grid, run.direct.trajectory)
    _write_csv(outdir / "solution_decay.csv", "t,comp_grad1,comp_grad2",
               zip(table.times, table.first_order, table.second_order))
    return CheckOutcome("solution_decay", "PASS" if table.passed else "FAIL",
                        f"max_comp1={float_repr(table.first_order.max())}")


def _check_stability(run: _Run, outdir: Path) -> CheckOutcome:
    grid, v0_a = run.grid, run.v0
    x = grid.coordinates()[0]
    pert = np.zeros((grid.dim,) + grid.shape, dtype=complex)
    pert[0] = 1e-3 * np.exp(2j * 2.0 * np.pi * x / grid.length)
    rep = stability_experiment(grid, v0_a, v0_a + pert, run.cfg.cgl, halvings=3,
                               base=run.mild)
    _write_csv(outdir / "stability.csv", "delta,ratio", zip(rep.deltas, rep.ratios))
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

    summary = outdir / "summary.csv"
    _write_csv(summary, "check,status,detail",
               [(o.name, o.status, f'"{o.detail}"') for o in outcomes])
    return outcomes, summary


def run_experiment(config_path, out_dir=None) -> int:
    """Parse, run, and report; exit code 0 iff every declared check passes."""
    cfg = parse_config(config_path)
    outcomes, summary = run_config(cfg, out_dir=out_dir)
    for o in outcomes:
        print(f"[{o.status}] {o.name}: {o.detail}")
    print(f"summary written to {summary}")
    return 0 if all(o.status == "PASS" for o in outcomes) else 1
