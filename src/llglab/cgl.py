"""Mild-solution Picard iteration for the covariant Ginzburg-Landau system.

The frame reduction of the damped spin flow reads, in the divergence-free
gauge,

    d_t u = (lam - i) laplacian(u) + F(a, u),

with the gauge fields (a, a0_1, a0_2) recovered elliptically from u and the
nonlinearity

    F_l = (lam - i) [ i sum_k Im(u_l conj(u_k)) u_k + 2i (a . grad) u_l
                      - |a|^2 u_l ] - i (a0_1 + a0_2) u_l,

split into a cubic part, a gauge-transport part, and a quintic-order gauge
potential part.  The mild solution is the fixed point of

    u(t) = S(t) v0 + int_0^t S(t - s) F(u(s)) ds,

iterated here on a uniform time grid with a composite midpoint exponential
rule for the integral.  The integral is accumulated in Fourier space, where
S(t) is the diagonal multiplier exp((i - lam)|xi|^2 t): each forcing node
costs one forward FFT, and each output time one inverse FFT.  Contraction
needs small initial data; large data is reported as NonContraction, never
forced.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .fields import Grid, Trajectory, gradient, l2_norm, require_finite_positive
from .frames import gauge_fields_from_u
from .morrey import morrey_norm, xpt_norm, XptReport
from .semigroup import SemigroupParams, apply_semigroup, semigroup_multiplier

__all__ = [
    "CglConfig",
    "NonContraction",
    "SmallnessWarning",
    "BetaPair",
    "ExponentWindowReport",
    "exponent_window_check",
    "NonlinearityParts",
    "nonlinearity_F",
    "PicardResult",
    "picard_iterate",
    "fixed_point_residual",
    "StabilityReport",
    "stability_experiment",
]


class NonContraction(RuntimeError):
    """Picard increments grew repeatedly; the smallness hypothesis failed."""

    def __init__(self, message, increments=None):
        super().__init__(message)
        self.increments = list(increments or [])


class SmallnessWarning(UserWarning):
    """Initial data exceeds the empirical contraction threshold."""


# ---------------------------------------------------------------------------
# exponent windows


@dataclass(frozen=True)
class BetaPair:
    """One singular-kernel compatibility pair (delta1, delta2).

    The time convolution of the semigroup decay t^-delta1 against a source
    weight s^-delta2 is controlled by B[delta1, delta2] =
    int_0^1 (1-t)^-delta1 t^-delta2 dt, finite iff both exponents are < 1.
    """

    label: str
    delta1: float
    delta2: float
    valid: bool
    beta_value: float | None


@dataclass(frozen=True)
class ExponentWindowReport:
    p: float
    pairs: tuple
    valid: bool
    first_failing: BetaPair | None


def _beta_quadrature(delta1: float, delta2: float) -> float:
    # QAWS handles the algebraic endpoint singularities exactly in weight form
    val, _ = integrate.quad(lambda t: 1.0, 0.0, 1.0, weight="alg",
                            wvar=(-delta2, -delta1))
    return float(val)


def exponent_window_check(p: float, compute_beta: bool = True) -> ExponentWindowReport:
    """Evaluate every (delta1, delta2) pair of the three nonlinearity estimates.

    cubic:     sources scale like s^(-3(1/2 - 1/p)), kernels t^(-2/p), t^(-3/p),
               t^(-(3/p - 1/2)) for the three trajectory-norm components;
    transport: sources s^(-(3/2 - 2/p)), kernels t^(-1/p), t^(-2/p), t^(-(2/p - 1/2));
    quintic:   sources s^(-5(1/2 - 1/p)), kernels t^(-(4-p)/p), t^(-(5-p)/p),
               t^(-(5/p - 3/2)).

    Valid overall iff every pair has both exponents < 1.
    """
    if p <= 2:
        raise ValueError(f"window check needs p > 2, got {p}")
    cubic_w = 1.5 * (1.0 - 2.0 / p)
    transport_w = 1.5 - 2.0 / p
    quintic_w = 2.5 - 5.0 / p
    raw = [
        ("cubic_r1", 2.0 / p, cubic_w),
        ("cubic_r2", 3.0 / p, cubic_w),
        ("cubic_r3", 3.0 / p - 0.5, cubic_w),
        ("transport_r1", 1.0 / p, transport_w),
        ("transport_r2", 2.0 / p, transport_w),
        ("transport_r3", 2.0 / p - 0.5, transport_w),
        ("quintic_r1", (4.0 - p) / p, quintic_w),
        ("quintic_r2", (5.0 - p) / p, quintic_w),
        ("quintic_r3", 5.0 / p - 1.5, quintic_w),
    ]
    pairs = []
    first_failing = None
    for label, d1, d2 in raw:
        valid = d1 < 1.0 and d2 < 1.0
        beta = _beta_quadrature(d1, d2) if (valid and compute_beta) else None
        pair = BetaPair(label=label, delta1=d1, delta2=d2, valid=valid, beta_value=beta)
        pairs.append(pair)
        if not valid and first_failing is None:
            first_failing = pair
    return ExponentWindowReport(p=float(p), pairs=tuple(pairs),
                                valid=first_failing is None,
                                first_failing=first_failing)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class CglConfig:
    """Mild-solver configuration; p must sit inside the admissible window."""

    lam: float
    p: float = 3.2
    t_end: float = 0.5
    time_steps: int = 16
    picard_tol: float = 1e-8
    picard_max_iter: int = 40
    duhamel_substeps: int = 8
    smallness: float = 0.05

    def __post_init__(self):
        require_finite_positive("damping parameter lam", self.lam)
        require_finite_positive("t_end", self.t_end)
        require_finite_positive("picard_tol", self.picard_tol)
        if self.time_steps < 1 or self.duhamel_substeps < 1:
            raise ValueError("time_steps and duhamel_substeps must be >= 1")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be >= 1")
        report = exponent_window_check(self.p, compute_beta=False)
        if not report.valid:
            bad = report.first_failing
            raise ValueError(
                f"p={self.p} is outside the admissible window: pair {bad.label} "
                f"has (delta1, delta2) = ({bad.delta1:.4f}, {bad.delta2:.4f})"
            )


# ---------------------------------------------------------------------------
# nonlinearity


@dataclass(frozen=True)
class NonlinearityParts:
    """The nonlinearity with its cubic / transport / quintic split exposed."""

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.f1 + self.f2 + self.f3


def nonlinearity_F(grid: Grid, u: np.ndarray, a: np.ndarray, a0_1: np.ndarray,
                   a0_2: np.ndarray, lam: float) -> NonlinearityParts:
    u = np.asarray(u, dtype=complex)
    mu = lam - 1j
    imag_matrix = np.imag(u[:, None] * np.conj(u[None, :]))  # (l, k, *shape)
    f1 = mu * 1j * np.einsum("lk...,k...->l...", imag_matrix, u)
    gu = gradient(grid, u)  # (deriv axis, component, *shape)
    advect = np.einsum("k...,kl...->l...", a, gu)
    f2 = mu * 2j * advect - 1j * a0_1 * u
    a_sq = (a**2).sum(axis=0)
    f3 = -mu * a_sq * u - 1j * a0_2 * u
    return NonlinearityParts(f1=f1, f2=f2, f3=f3)


def _forcing_at(grid: Grid, u_node: np.ndarray, lam: float) -> np.ndarray:
    a, a0_1, a0_2 = gauge_fields_from_u(grid, u_node, lam)
    return nonlinearity_F(grid, u_node, a, a0_1, a0_2, lam).total


# ---------------------------------------------------------------------------
# Picard iteration


@dataclass
class PicardResult:
    trajectory: Trajectory
    xpt: XptReport
    increments: list
    converged: bool
    iterations: int
    initial_norm: float
    iteration_log: list = field(default_factory=list)

    def csv_rows(self):
        yield "iter,increment,xpt_R1,xpt_R2,xpt_R3"
        for entry in self.iteration_log:
            yield (f"{entry['iter']},{entry['increment']!r},"
                   f"{entry.get('xpt_r1', '')!r},{entry.get('xpt_r2', '')!r},"
                   f"{entry.get('xpt_r3', '')!r}")


def _duhamel_trajectory(grid: Grid, times: np.ndarray, u_old: list, lam: float,
                        substeps: int, params: SemigroupParams) -> list:
    """Composite midpoint exponential rule for int_0^{t_i} S(t_i - s) F(u_old(s)) ds.

    Evaluated interval-recursively: I_{i+1} = S(dt) I_i + local part, which by
    the exact semigroup law equals the single composite rule over [0, t_i]
    with i * substeps midpoint nodes.  The gauge fields are recomputed from
    the (lagged) iterate at every quadrature node; u_old(s) is its linear
    interpolant in time.

    The accumulator lives in Fourier space, where S(t) is a diagonal
    multiplier: each node adds the spectrum of its forcing times the
    multiplier of t_{i+1} - s, each interval multiplies by the multiplier of
    dt, and each output time takes one inverse FFT.  Multipliers are cached
    for the sweep, keyed on the time offset, so equal offsets share one
    array: a dyadic uniform time grid computes substeps + 1 of them.
    """
    axes = grid.axes
    mult = functools.cache(functools.partial(semigroup_multiplier, params))
    integrals = [np.zeros_like(u_old[0])]
    acc_hat = np.zeros_like(u_old[0], dtype=complex)
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        acc_hat *= mult(dt)
        sub = dt / substeps
        for j in range(substeps):
            s = times[i] + (j + 0.5) * sub
            w = (s - times[i]) / dt
            u_s = (1.0 - w) * u_old[i] + w * u_old[i + 1]
            spec = np.fft.fftn(_forcing_at(grid, u_s, lam), axes=axes)
            spec *= mult(times[i + 1] - s)
            spec *= sub
            acc_hat += spec
        integrals.append(np.fft.ifftn(acc_hat, axes=axes))
    return integrals


def picard_iterate(grid: Grid, v0: np.ndarray, config: CglConfig,
                   track_xpt: bool = False) -> PicardResult:
    """Iterate the Duhamel fixed point from u^0(t) = S(t) v0.

    Stops when the sup-over-time L2 increment drops below picard_tol; raises
    NonContraction when increments grow three times in a row or blow up.
    Data above the smallness threshold only warns, it is not rejected.
    """
    v0 = np.asarray(v0, dtype=complex)
    if v0.shape != (grid.dim,) + grid.shape:
        raise ValueError(f"v0 must have shape {(grid.dim,) + grid.shape}")
    params = SemigroupParams(lam=config.lam, grid=grid)
    initial_norm = morrey_norm(grid, v0, 2.0, 2.0).value
    if initial_norm > config.smallness:
        warnings.warn(
            f"initial data norm {initial_norm:.3e} exceeds the contraction "
            f"threshold {config.smallness}; iteration may not converge",
            SmallnessWarning,
        )

    times = np.linspace(0.0, config.t_end, config.time_steps + 1)
    free = [apply_semigroup(v0, t, params) for t in times]
    u_old = [f.copy() for f in free]

    increments: list = []
    iteration_log: list = []
    converged = False
    grow_streak = 0
    xpt = None
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, config.picard_max_iter + 1):
            integrals = _duhamel_trajectory(grid, times, u_old, config.lam,
                                            config.duhamel_substeps, params)
            u_new = [free[i] + integrals[i] for i in range(len(times))]
            inc = max(l2_norm(grid, u_new[i] - u_old[i]) for i in range(len(times)))
            if not np.isfinite(inc):
                raise NonContraction(
                    f"iterate diverged (non-finite increment at iteration {it})",
                    increments + [inc],
                )
            row = {"iter": it, "increment": inc}
            if track_xpt:
                xpt = xpt_norm(grid, Trajectory(times, u_new), config.p)
                row.update(xpt_r1=xpt.r1, xpt_r2=xpt.r2, xpt_r3=xpt.r3)
            iteration_log.append(row)
            if increments and inc > increments[-1]:
                grow_streak += 1
                if grow_streak >= 3:
                    raise NonContraction(
                        "increments grew for 3 consecutive iterations "
                        f"(last {inc:.3e}); data too large for contraction",
                        increments + [inc],
                    )
            else:
                grow_streak = 0
            increments.append(inc)
            u_old = u_new
            if inc < config.picard_tol:
                converged = True
                break

    traj = Trajectory(times, u_old)
    if xpt is None:  # untracked; a tracked run already measured the final iterate
        xpt = xpt_norm(grid, traj, config.p)
    return PicardResult(trajectory=traj, xpt=xpt, increments=increments,
                        converged=converged, iterations=len(increments),
                        initial_norm=initial_norm, iteration_log=iteration_log)


def fixed_point_residual(grid: Grid, result: PicardResult, v0: np.ndarray,
                         config: CglConfig) -> float:
    """Sup-over-time L2 defect of u against its own Duhamel right-hand side."""
    params = SemigroupParams(lam=config.lam, grid=grid)
    v0 = np.asarray(v0, dtype=complex)
    times = result.trajectory.times
    u = result.trajectory.fields
    free = [apply_semigroup(v0, t, params) for t in times]
    integrals = _duhamel_trajectory(grid, times, u, config.lam,
                                    config.duhamel_substeps, params)
    return max(l2_norm(grid, u[i] - free[i] - integrals[i]) for i in range(len(times)))


# ---------------------------------------------------------------------------
# stability of the mild solution map


@dataclass(frozen=True)
class StabilityReport:
    """Response ratios ||u_a - u_b||_X / ||v0_a - v0_b|| under halved perturbations."""

    deltas: tuple
    ratios: tuple
    exact_zero: bool

    @property
    def spread(self) -> float:
        if self.exact_zero or len(self.ratios) == 0:
            return 0.0
        r = np.asarray(self.ratios)
        return float((r.max() - r.min()) / r.mean())


def stability_experiment(grid: Grid, v0_a: np.ndarray, v0_b: np.ndarray,
                         config: CglConfig, halvings: int = 3) -> StabilityReport:
    """Solve from v0_a and from v0_a + (v0_b - v0_a)/2^k, k = 0..halvings-1,
    and report the trajectory-norm-to-data-norm response ratio series."""
    v0_a = np.asarray(v0_a, dtype=complex)
    v0_b = np.asarray(v0_b, dtype=complex)
    perturbation = v0_b - v0_a
    if np.abs(perturbation).max() == 0.0:
        return StabilityReport(deltas=(), ratios=(), exact_zero=True)
    base = picard_iterate(grid, v0_a, config)
    deltas = []
    ratios = []
    for k in range(halvings):
        pert_k = perturbation / (2.0**k)
        other = picard_iterate(grid, v0_a + pert_k, config)
        diff_fields = [ub - ua for ua, ub in
                       zip(base.trajectory.fields, other.trajectory.fields)]
        diff_traj = Trajectory(base.trajectory.times, diff_fields)
        num = xpt_norm(grid, diff_traj, config.p).total
        den = morrey_norm(grid, pert_k, 2.0, 2.0).value
        deltas.append(float(np.abs(pert_k).max()))
        ratios.append(num / den)
    return StabilityReport(deltas=tuple(deltas), ratios=tuple(ratios), exact_zero=False)
