"""Direct geometric integration of the damped spin flow

    d_t m = -m x laplacian(m) - lam * m x (m x laplacian(m)),

with |m| = 1 pointwise.  The double cross product equals the tension field
laplacian(m) + |grad m|^2 m, so the flow interpolates between precession and
harmonic-map heat flow as lam grows.  Time stepping is explicit Runge-Kutta
on the spectral right-hand side followed by pointwise renormalization; the
step size is capped by an explicit stability bound at construction.

Structure diagnostics: the energy ledger tracks E(t) = 1/2 int |grad m|^2
and the dissipation integral, which satisfy

    E(t) + lam / (1 + lam^2) * int_0^t int |d_t m|^2 = E(0)

exactly along smooth solutions; the equivalent quasilinear form
lam d_t m + m x d_t m = (1+lam^2)(laplacian(m) + |grad m|^2 m) is checked
on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import (
    Grid,
    SpinField,
    Trajectory,
    _cross,
    gradient,
    laplacian,
    normalize_spin,
    pointwise_magnitude,
    require_finite_positive,
    sup_norm,
)
from .morrey import morrey_norm

__all__ = [
    "BlowupSuspected",
    "SCHEMES",
    "LlgConfig",
    "stability_cap",
    "llg_rhs",
    "EnergyLedger",
    "LlgResult",
    "solve",
    "EnergyCheck",
    "check_energy_inequality",
    "check_equivalent_form",
]

GRAD_BLOWUP_FACTOR = 1e6
C_STAB = 0.4
# A run records t = 0 and t_end at least; with one output nothing is integrated.
MIN_OUTPUTS = 2
# Energy-law tolerance, relative to E(0).
ENERGY_TOL_FACTOR = 1e-4

SCHEMES = ("projected-rk2", "projected-rk4")


class BlowupSuspected(RuntimeError):
    """NaN or gradient threshold hit; carries the last good time."""

    def __init__(self, message, time=None, step_index=None):
        super().__init__(message)
        self.time = time
        self.step_index = step_index


def stability_cap(grid: Grid, lam: float) -> float:
    """Explicit-stepping cap C_STAB * h^2 / ((1 + lam) * dim * pi^2).

    The stiffest mode has |k|^2 = dim * (pi/h)^2 and the one-sided spectrum
    scales with (1 + lam); C_STAB = 0.4 keeps the scaled eigenvalue well
    inside both RK stability regions.
    """
    require_finite_positive("damping parameter lam", lam)
    return C_STAB * grid.h**2 / ((1.0 + lam) * grid.dim * np.pi**2)


@dataclass(frozen=True)
class LlgConfig:
    grid: Grid
    lam: float
    t_end: float
    dt: float
    scheme: str = "projected-rk2"

    def __post_init__(self):
        require_finite_positive("damping parameter lam", self.lam)
        require_finite_positive("t_end", self.t_end)
        require_finite_positive("dt", self.dt)
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        cap = stability_cap(self.grid, self.lam)
        if self.dt > cap * (1.0 + 1e-12):
            raise ValueError(f"dt = {self.dt:.3e} exceeds the stability cap {cap:.3e}")


def llg_rhs(grid: Grid, m_values: np.ndarray, lam: float) -> np.ndarray:
    """-m x lap(m) - lam m x (m x lap(m)), tangentially projected.

    Bitwise equal to the same formula on numpy's cross product (see
    ``fields._cross``).  The work happens in buffers of this call, m x (m x
    lap m) overwriting the Laplacian; ``m_values`` is never written.
    """
    lap = laplacian(grid, m_values)
    rhs = _cross(m_values, lap)
    damping = _cross(m_values, rhs, out=lap)
    damping *= lam
    np.negative(rhs, out=rhs)
    rhs -= damping
    rhs -= (rhs * m_values).sum(axis=0) * m_values
    return rhs


def _advance(grid: Grid, m: np.ndarray, rhs0: np.ndarray, dt: float,
             lam: float, scheme: str) -> np.ndarray:
    """The unnormalized RK update; stages and sums are built in place, in the
    order of m + 0.5*dt*k and m + (dt/6)*(k1 + 2*k2 + 2*k3 + k4)."""
    stage = np.multiply(rhs0, 0.5 * dt)
    stage += m
    k2 = llg_rhs(grid, stage, lam)
    if scheme == "projected-rk2":
        k2 *= dt
        k2 += m
        return k2
    np.multiply(k2, 0.5 * dt, out=stage)
    stage += m
    k3 = llg_rhs(grid, stage, lam)
    np.multiply(k3, dt, out=stage)
    stage += m
    k4 = llg_rhs(grid, stage, lam)
    k2 *= 2.0
    k2 += rhs0
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += m
    return k2


def _renormalize(raw: np.ndarray, time, step_index) -> np.ndarray:
    """raw / |raw| in place, as normalize_spin computes it, once the squared
    norms show no collapse and no non-finite value."""
    norms_sq = (raw * raw).sum(axis=0)
    if not np.isfinite(norms_sq).all() or norms_sq.min() < 0.25:
        raise BlowupSuspected("field norm collapsed or went non-finite",
                              time=time, step_index=step_index)
    raw /= np.sqrt(norms_sq)
    return raw


@dataclass
class EnergyLedger:
    """Per-output-time energy bookkeeping of one run."""

    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    sup_grad: np.ndarray
    morrey22: np.ndarray


@dataclass
class LlgResult:
    trajectory: Trajectory
    ledger: EnergyLedger
    meta: dict = field(default_factory=dict)


def solve(m0: SpinField, config: LlgConfig, output_times=None, n_outputs: int = 17) -> LlgResult:
    """March m0 to t_end, recording snapshots and the energy ledger.

    The dissipation integral accumulates by trapezoid at every integrator
    step with d_t m re-evaluated from the right-hand side (never finite
    differenced).  Output times are landed on exactly by locally shrinking
    the step to an integer divisor of each output interval; they run from 0
    to exactly ``config.t_end``.  m0 must lie on ``config.grid``.
    """
    grid = config.grid
    if m0.grid != grid:
        raise ValueError(f"m0 lies on {m0.grid}, not on the config's {grid}")
    if output_times is None:
        output_times = np.linspace(0.0, config.t_end, n_outputs)
    output_times = np.asarray(output_times, dtype=float)
    if len(output_times) < MIN_OUTPUTS:
        raise ValueError(f"need at least {MIN_OUTPUTS} output times, got {len(output_times)}")
    if output_times[0] != 0.0 or np.any(np.diff(output_times) <= 0):
        raise ValueError("output times must start at 0 and increase")
    if output_times[-1] != config.t_end:
        raise ValueError(f"output times must end at t_end = {config.t_end!r}, "
                         f"got {output_times[-1]!r}")

    m = np.asarray(m0.values, dtype=float)
    if float(np.abs((m * m).sum(axis=0) - 1.0).max()) > 1e-10:
        m = normalize_spin(m)
    rhs = llg_rhs(grid, m, config.lam)
    hn = grid.cell_volume

    def power(r):
        return float((r * r).sum() * hn)

    def grad_mag(mv):
        return pointwise_magnitude(grid, gradient(grid, mv))

    times_out, snaps, energies, dissip, supg, mor22 = [], [], [], [], [], []
    dissipated = 0.0
    rhs_power = power(rhs)
    grad_limit = GRAD_BLOWUP_FACTOR / grid.h
    t = 0.0
    step_index = 0

    def record(mv):
        g = grad_mag(mv)
        sg = float(g.max())
        if not np.isfinite(sg) or sg > grad_limit:
            raise BlowupSuspected("gradient exceeded the blow-up threshold",
                                  time=t, step_index=step_index)
        times_out.append(t)
        snaps.append(mv.copy())
        energies.append(0.5 * float((g * g).sum() * hn))
        dissip.append(dissipated)
        supg.append(sg)
        mor22.append(morrey_norm(grid, g, 2.0, 2.0).value)

    record(m)
    for i in range(len(output_times) - 1):
        span = output_times[i + 1] - output_times[i]
        n_sub = max(1, int(np.ceil(span / config.dt - 1e-12)))
        dt = span / n_sub
        for _ in range(n_sub):
            raw = _advance(grid, m, rhs, dt, config.lam, config.scheme)
            m = _renormalize(raw, time=t, step_index=step_index)
            step_index += 1
            rhs = llg_rhs(grid, m, config.lam)
            rhs_power, last_power = power(rhs), rhs_power
            dissipated += 0.5 * dt * (last_power + rhs_power)
            t += dt
        t = float(output_times[i + 1])
        record(m)

    ledger = EnergyLedger(
        times=np.asarray(times_out), energy=np.asarray(energies),
        dissipation=np.asarray(dissip), sup_grad=np.asarray(supg),
        morrey22=np.asarray(mor22),
    )
    return LlgResult(trajectory=Trajectory(np.asarray(times_out), snaps),
                     ledger=ledger, meta={"steps": step_index})


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class EnergyCheck:
    """Signed worst violation of E(t) + lam/(1+lam^2) D(t) <= E(0)."""

    worst_violation: float
    max_abs_deviation: float
    tolerance: float
    passed: bool
    equality_ok: bool


def check_energy_inequality(ledger: EnergyLedger, lam: float) -> EnergyCheck:
    e0 = float(ledger.energy[0])
    tol = ENERGY_TOL_FACTOR * e0 + 1e-10
    combined = ledger.energy + lam / (1.0 + lam**2) * ledger.dissipation - e0
    worst = float(combined.max())
    max_abs = float(np.abs(combined).max())
    return EnergyCheck(worst_violation=worst, max_abs_deviation=max_abs,
                       tolerance=tol, passed=bool(worst <= tol),
                       equality_ok=bool(max_abs <= tol))


def check_equivalent_form(grid: Grid, m: SpinField, dt_m: np.ndarray,
                          lam: float) -> float:
    """Sup-norm residual of lam d_t m + m x d_t m = (1+lam^2)(lap m + |grad m|^2 m)."""
    mv = m.values
    grad_m = gradient(grid, mv)
    tension = laplacian(grid, mv) + (grad_m**2).sum(axis=(0, 1)) * mv
    lhs = lam * dt_m + _cross(mv, dt_m)
    return sup_norm(grid, lhs - (1.0 + lam**2) * tension)
