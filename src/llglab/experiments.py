"""Cross-solver and qualitative-behavior experiments.

cross_validate runs the direct integrator and the mild gauge solver from the
same initial field and compares the gauge-invariant gradient magnitude
|grad m| = (sum_k |u_k|^2)^(1/2) pointwise; the two solvers share nothing
past the spectral substrate, so agreement is a strong end-to-end check.

uniqueness_experiment contrasts two discretizations of the same run as a
numerical proxy for two weak solutions (genuinely distinct weak solutions
cannot be manufactured) and monitors the Gronwall-type compensated quantity
t^(-1/2) ||difference||^2, which should not increase once the start-up
transient has passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cgl import CglConfig, PicardResult, picard_iterate
from .fields import (
    Grid,
    SpinField,
    Trajectory,
    gradient,
    l2_norm,
    pointwise_magnitude,
    sup_norm,
)
from .frames import build_frame, coulomb_gauge_fix, derive_gauge
from .llg import LlgConfig, LlgResult, solve, stability_cap

__all__ = [
    "CrossValidationReport",
    "cross_validate",
    "cross_validate_refinement",
    "UniquenessReport",
    "uniqueness_experiment",
    "DecayTable",
    "decay_report",
    "mild_initial_data",
]


def mild_initial_data(grid: Grid, m0: SpinField) -> np.ndarray:
    """Gauge coefficients of grad m0 in the divergence-free gauge; m0 lies on ``grid``."""
    if m0.grid != grid:
        raise ValueError(f"m0 lies on {m0.grid}, not on {grid}")
    state = derive_gauge(grid, m0, None, build_frame(m0))
    return coulomb_gauge_fix(grid, state).u


@dataclass(frozen=True)
class CrossValidationReport:
    times: np.ndarray
    discrepancies: np.ndarray
    sup_discrepancy: float
    direct_steps: int
    mild_iterations: int


def direct_config(grid: Grid, lam: float, t_end: float,
                  direct_dt: float | None = None) -> LlgConfig:
    """Config of the direct run compared with a mild solve; no step means the stability cap."""
    if direct_dt is None:
        direct_dt = stability_cap(grid, lam)
    return LlgConfig(grid=grid, lam=lam, t_end=t_end, dt=direct_dt)


def cross_validate(grid: Grid, m0: SpinField, lam: float, t_end: float,
                   direct_dt: float | None = None, **cgl) -> CrossValidationReport:
    """Relative L2 discrepancy of |grad m| between the two solvers over time.

    The direct run steps at ``direct_dt`` (the stability cap when None); the
    mild solve runs on ``CglConfig(lam=lam, t_end=t_end, **cgl)``, so ``cgl``
    takes that config's other fields and their defaults are its own.
    """
    # both configs are built first, so bad input fails before either solve
    llg_cfg = direct_config(grid, lam, t_end, direct_dt)
    cgl_cfg = CglConfig(lam=lam, t_end=t_end, **cgl)
    v0 = mild_initial_data(grid, m0)
    mild = picard_iterate(grid, v0, cgl_cfg)
    # the comparison reads only |u| of the mild solve: keep that, and let
    # the solve and its datum go before the direct run
    times, iterations = mild.trajectory.times, mild.iterations
    g_mild = [pointwise_magnitude(grid, u) for u in mild.trajectory.fields]
    del v0, mild
    direct = solve(m0, llg_cfg, output_times=times)
    return _compare(grid, times, g_mild, iterations, direct)


def compare_with_mild(grid: Grid, mild: PicardResult, direct: LlgResult) -> CrossValidationReport:
    """Compare |grad m| of a direct run with a mild solve, both at the mild output times."""
    return _compare(grid, mild.trajectory.times,
                    (pointwise_magnitude(grid, u) for u in mild.trajectory.fields),
                    mild.iterations, direct)


def _compare(grid: Grid, times: np.ndarray, g_mild, mild_iterations: int,
             direct: LlgResult) -> CrossValidationReport:
    """The report of ``compare_with_mild`` from what it reads of the mild
    solve: its output times, |u| at each (``g_mild``, an iterable) and its
    iteration count."""
    if not np.array_equal(direct.trajectory.times, times):
        raise ValueError("the direct run must record the mild solve's output times")
    discrepancies = []
    for mv, g_m in zip(direct.trajectory.fields, g_mild):
        g_direct = pointwise_magnitude(grid, gradient(grid, mv))
        denom = l2_norm(grid, g_direct)
        num = l2_norm(grid, g_direct - g_m)
        discrepancies.append(num / denom if denom > 0 else 0.0)
    discrepancies = np.asarray(discrepancies)
    return CrossValidationReport(
        times=times, discrepancies=discrepancies,
        sup_discrepancy=float(discrepancies.max()),
        direct_steps=direct.meta["steps"], mild_iterations=mild_iterations,
    )


def cross_validate_refinement(grid: Grid, m0: SpinField, lam: float, t_end: float,
                              direct_dt: float | None = None,
                              time_steps: int = CglConfig.time_steps, **kwargs):
    """Base run plus a simultaneous refinement halving every time scale.

    Returns (base report, refined report, improvement ratio).  The refined
    run halves the direct step and doubles the mild output resolution, which
    also halves the quadrature and interpolation node spacing.
    """
    direct_dt = direct_config(grid, lam, t_end, direct_dt).dt
    base = cross_validate(grid, m0, lam, t_end, direct_dt=direct_dt,
                          time_steps=time_steps, **kwargs)
    fine = cross_validate(grid, m0, lam, t_end, direct_dt=direct_dt / 2.0,
                          time_steps=2 * time_steps, **kwargs)
    ratio = base.sup_discrepancy / fine.sup_discrepancy if fine.sup_discrepancy > 0 else np.inf
    return base, fine, ratio


# ---------------------------------------------------------------------------
# uniqueness proxy


@dataclass(frozen=True)
class UniquenessReport:
    times: np.ndarray
    differences: np.ndarray
    compensated: np.ndarray
    transient_steps: int
    status: str  # PASS / INCONCLUSIVE
    exact_zero: bool


def uniqueness_experiment(grid: Grid, m0: SpinField, lam: float, t_end: float,
                          dt: float | None = None, n_outputs: int = 9) -> UniquenessReport:
    """Two discretizations of one run; Gronwall-compensated difference decay.

    Solve A is projected RK2 at dt (the stability cap when None), solve B
    projected RK4 at dt/2; the compensated series t^(-1/2) ||mA - mB||_L2^2
    must be nonincreasing after a start-up transient shorter than 5 output
    steps for a PASS.  A datum that both solves leave exactly as it is (a
    constant field) gives an exact-zero difference.  Large-data runs may
    legitimately fail the monotonicity and come back INCONCLUSIVE.
    """
    dt = direct_config(grid, lam, t_end, dt).dt
    cfg_a = LlgConfig(grid=grid, lam=lam, t_end=t_end, dt=dt, scheme="projected-rk2")
    cfg_b = LlgConfig(grid=grid, lam=lam, t_end=t_end, dt=dt / 2, scheme="projected-rk4")
    out_times = np.linspace(0.0, t_end, n_outputs)
    run_a = solve(m0, cfg_a, output_times=out_times)
    run_b = solve(m0, cfg_b, output_times=out_times)
    diffs = np.array([
        l2_norm(grid, a - b)
        for a, b in zip(run_a.trajectory.fields, run_b.trajectory.fields)
    ])
    scale = max(sup_norm(grid, f) for f in run_a.trajectory.fields)
    if diffs.max() <= 1e-14 * max(scale, 1.0):
        return UniquenessReport(times=out_times, differences=diffs,
                                compensated=np.zeros_like(diffs),
                                transient_steps=0, status="PASS", exact_zero=True)
    positive = out_times > 0
    comp = np.zeros_like(diffs)
    comp[positive] = diffs[positive] ** 2 / np.sqrt(out_times[positive])
    comp_pos = comp[positive]
    peak = int(np.argmax(comp_pos))
    after = comp_pos[peak:]
    slack = 1e-9 * comp_pos.max()
    monotone = bool(np.all(np.diff(after) <= slack))
    status = "PASS" if (peak < 5 and monotone) else "INCONCLUSIVE"
    return UniquenessReport(times=out_times, differences=diffs, compensated=comp,
                            transient_steps=peak, status=status, exact_zero=False)


# ---------------------------------------------------------------------------
# compensated sup-norm decay


@dataclass(frozen=True)
class DecayTable:
    times: np.ndarray
    first_order: np.ndarray   # t^(1/2) * sup |grad m|
    second_order: np.ndarray  # t * sup |grad^2 m|
    passed: bool


def decay_report(grid: Grid, traj: Trajectory) -> DecayTable:
    """Compensated sup-norm series t^(k/2) ||grad^k m||_inf for k = 1, 2.

    PASS means bounded: after dropping the initial 10% of the window, the
    max over the second half stays within twice the max over the first half.
    """
    times = np.asarray(traj.times)
    s1, s2 = [], []
    for t, mv in zip(times, traj.fields):
        if t <= 0:
            s1.append(0.0)
            s2.append(0.0)
            continue
        g1 = gradient(grid, mv)
        # g2[i, ax] = d_ax d_i m, contiguous: the (i, ax) memory order fixes
        # the summation order of the magnitude below
        g2 = np.ascontiguousarray(gradient(grid, g1).swapaxes(0, 1))
        s1.append(np.sqrt(t) * float(pointwise_magnitude(grid, g1).max()))
        s2.append(t * float(pointwise_magnitude(grid, g2).max()))
    s1 = np.asarray(s1)
    s2 = np.asarray(s2)
    t_end = times[-1]
    window = times >= 0.1 * t_end
    mid = 0.5 * (times[window][0] + t_end) if window.any() else t_end
    passed = True
    for series in (s1, s2):
        early = series[window & (times <= mid)]
        late = series[window & (times > mid)]
        if len(early) and len(late) and late.max() > 2.0 * max(early.max(), 1e-300):
            passed = False
    return DecayTable(times=times, first_order=s1, second_order=s2, passed=passed)
