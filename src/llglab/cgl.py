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
rule for the integral.  One private ``_Rule`` per solve holds that rule:
the output times, the multipliers of S(t) and the node ``Workspace``, which
every sweep reuses, the node loop of one interval, ``add_interval``, and
the datum v0 with its spectrum, from which ``free`` remakes S(t_i) v0
whenever output time i needs it.
The integral is accumulated in Fourier space, where S(t) is the diagonal
multiplier exp((i - lam)|xi|^2 t).  It depends on xi only through |xi|^2,
so the rule keeps each multiplier as a table over the distinct |xi|^2
values and gathers it onto the grid, into the workspace, where it is
used.  Each forcing node adds one forward FFT of its forcing, and each
output time costs one inverse FFT.  A node
transforms u once, and that spectrum serves both the gauge solve's div u
and the nonlinearity's grad u; with the two Poisson solves of the gauge
fields (a transform pair each) and the inverses of div u and grad u, a
node makes eight n-d transforms, 16 one-axis passes in 2-D.  After the
first node no node allocates an array.  A sweep streams: the integral at
each output time is yielded as soon as it is made, the new iterate is
formed in it and replaces the old one an output time later, so a solve
holds one trajectory, the iterate, and the residual check none of its own.
S(t_i) v0 is never kept: each sweep remakes it from v0's spectrum with one
inverse transform per output time.
Contraction needs small initial data; large data is reported as
NonContraction, never forced.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fields import (Grid, Trajectory, Workspace, _forward, _inverse, gradient,
                     l2_norm, require_finite_positive, require_integer)
from .frames import gauge_fields_from_u
from .morrey import morrey_norm, xpt_norm, XptReport
from .semigroup import SemigroupParams, _multiplier_table, apply_semigroup

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
    There it is the Beta function B(1 - delta2, 1 - delta1) =
    Gamma(1 - delta1) Gamma(1 - delta2) / Gamma(2 - delta1 - delta2), the
    closed form ``beta_value`` holds.
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


def _beta(delta1: float, delta2: float) -> float:
    """int_0^1 (1-t)^-delta1 t^-delta2 dt in closed form, for delta1, delta2 < 1."""
    return (math.gamma(1.0 - delta1) * math.gamma(1.0 - delta2)
            / math.gamma(2.0 - delta1 - delta2))


def exponent_window_check(p: float) -> ExponentWindowReport:
    """Evaluate every (delta1, delta2) pair of the three nonlinearity estimates.

    cubic:     sources scale like s^(-3(1/2 - 1/p)), kernels t^(-2/p), t^(-3/p),
               t^(-(3/p - 1/2)) for the three trajectory-norm components;
    transport: sources s^(-(3/2 - 2/p)), kernels t^(-1/p), t^(-2/p), t^(-(2/p - 1/2));
    quintic:   sources s^(-5(1/2 - 1/p)), kernels t^(-(4-p)/p), t^(-(5-p)/p),
               t^(-(5/p - 3/2)).

    Valid overall iff every pair has both exponents < 1.  Each valid pair
    carries its time-convolution constant
    B[delta1, delta2] = Gamma(1 - delta1) Gamma(1 - delta2) / Gamma(2 - delta1 - delta2).
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
        beta = _beta(d1, d2) if valid else None
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
        for name in ("time_steps", "picard_max_iter", "duhamel_substeps"):
            require_integer(name, getattr(self, name))
        if self.time_steps < 1 or self.duhamel_substeps < 1:
            raise ValueError("time_steps and duhamel_substeps must be >= 1")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be >= 1")
        if not self.smallness >= 0:  # inf is allowed: never warn
            raise ValueError(f"smallness must be >= 0, got {self.smallness}")
        report = exponent_window_check(self.p)
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


def nonlinearity_F(grid: Grid, u: np.ndarray, a: np.ndarray, a0_1: np.ndarray,
                   a0_2: np.ndarray, lam: float, *, work: Workspace | None = None,
                   u_hat: np.ndarray | None = None) -> NonlinearityParts:
    """The nonlinearity F(a, u) of the module docstring, split into its parts.

    Every array, the returned parts included, is taken from ``work`` (a fresh
    ``Workspace`` when None): the parts alias ``work`` and stay valid until
    the caller's enclosing ``work.scope()`` exits.  ``u_hat`` as for
    ``gauge_fields_from_u``: given, grad u is made from it.
    """
    work = Workspace() if work is None else work
    u = np.asarray(u, dtype=complex)
    mu = lam - 1j
    f1, f2, f3 = (work.take(u.shape, complex) for _ in range(3))
    with work.scope():
        gu = gradient(grid, u, work=work, spectrum=u_hat)  # (deriv axis, component, *shape)
        # sum_k a_k d_k u accumulated from zero, as np.einsum("k...,kl...->l...")
        # sums it, so the bytes (signed zeros included) are the einsum's; f3
        # is free until the quintic part and holds each term
        advect = f2
        advect.fill(0)
        for k in range(grid.dim):
            advect += np.multiply(a[k], gu[k], out=f3)
    np.multiply(mu * 2j, advect, out=f2)
    with work.scope():
        uc = np.conjugate(u, out=f3)  # f3 is still free
        # pair[l, k] = u_l conj(u_k); Im of it is the (l, k, *shape) matrix
        pair = np.multiply(u[:, None], uc[None, :],
                           out=work.take((len(u),) + u.shape, complex))
        np.einsum("lk...,k...->l...", pair.imag, u, out=f1)
    np.multiply(mu * 1j, f1, out=f1)
    with work.scope():
        f2 -= _times_u(1j, a0_1, u, work)
    with work.scope():
        a_sq = np.sum(np.square(a, out=work.take(a.shape, float)), axis=0,
                      out=work.take(u.shape[1:], float))
        np.multiply(np.multiply(-mu, a_sq, out=work.take(u.shape[1:], complex)), u, out=f3)
    with work.scope():
        f3 -= _times_u(1j, a0_2, u, work)
    return NonlinearityParts(f1=f1, f2=f2, f3=f3)


def _times_u(c: complex, field: np.ndarray, u: np.ndarray, work: Workspace) -> np.ndarray:
    """(c * field) * u, in arrays taken from ``work``."""
    cf = np.multiply(c, field, out=work.take(field.shape, complex))
    return np.multiply(cf, u, out=work.take(u.shape, complex))


def _forcing_at(grid: Grid, u_node: np.ndarray, lam: float, work: Workspace) -> np.ndarray:
    """F(u_node) = f1 + f2 + f3, gauge fields included, in an array taken from
    ``work``.  u_node is complex; its spectrum is taken once and serves both
    the gauge solve's div u and the nonlinearity's grad u."""
    u_hat, _ = _forward(grid, u_node, out=work.take(u_node.shape, complex))
    a, a0_1, a0_2 = gauge_fields_from_u(grid, u_node, lam, work=work, u_hat=u_hat)
    parts = nonlinearity_F(grid, u_node, a, a0_1, a0_2, lam, work=work, u_hat=u_hat)
    total = np.add(parts.f1, parts.f2, out=work.take(u_node.shape, complex))
    total += parts.f3
    return total


# ---------------------------------------------------------------------------
# Picard iteration


@dataclass
class PicardResult:
    """A mild solve: its last iterate and how it got there.  ``config`` is
    the configuration it was solved with."""

    trajectory: Trajectory
    xpt: XptReport
    increments: list
    converged: bool
    iterations: int
    initial_norm: float
    config: CglConfig
    iteration_log: list = field(default_factory=list)


class _Rule:
    """The composite midpoint exponential rule of one solve for its Duhamel
    integrals int_0^{t_i} S(t_i - s) F(u(s)) ds: ``duhamel_substeps``
    midpoint nodes per interval of ``times``, the gauge fields recomputed at
    each from u(s), the iterate's linear interpolant in time.

    It owns what every sweep reuses: the multiplier of S(t) for each float
    offset t (substeps + 1 on a dyadic uniform grid; offsets that differ in
    the last bit, as np.linspace times that are not binary fractions give,
    stay distinct, as their multipliers do), kept as its table over the
    distinct |xi|^2 values (8 KiB at 2-D N=64, not a 64 KiB grid) and
    gathered onto the grid, by ``multiplier``, into a workspace array where
    it is used; the ``Workspace`` that holds every array of a node, so a
    node after the first allocates none; and the datum ``v0`` with its
    spectrum, one field, from which ``free`` remakes S(t_i) v0 instead of
    the solve keeping a trajectory of them.
    """

    def __init__(self, grid: Grid, config: CglConfig, times: np.ndarray,
                 v0: np.ndarray):
        self.grid, self.times = grid, times
        self.lam, self.substeps = config.lam, config.duhamel_substeps
        self.params = SemigroupParams(lam=config.lam, grid=grid)
        self.table = functools.cache(functools.partial(_multiplier_table, self.params))
        self.work = Workspace()
        self.v0 = np.asarray(v0, dtype=complex)
        self.v0_hat, _ = _forward(grid, self.v0)

    def free(self, i: int) -> np.ndarray:
        """S(t_i) v0, a fresh array, made from the spectrum of v0 with one
        inverse transform: the bytes of ``apply_semigroup(v0, t_i)``."""
        return apply_semigroup(self.v0, self.times[i], self.params, spectrum=self.v0_hat)

    def multiplier(self, t: float, work: Workspace) -> np.ndarray:
        """The bytes of ``semigroup_multiplier(params, t)``, gathered from
        t's table into an array taken from ``work``.  The index is always in
        range, so mode "clip" gathers as the default mode does, without the
        default's output-sized buffer."""
        return np.take(self.table(t), self.grid.k_squared_distinct[1], mode="clip",
                       out=work.take(self.grid.shape, complex))

    def add_interval(self, i: int, u_a: np.ndarray, u_b: np.ndarray,
                     acc_hat: np.ndarray) -> None:
        """Add the nodes of [t_i, t_{i+1}] into the Fourier accumulator: each
        node's forcing spectrum times the multiplier of t_{i+1} - s, times
        the node weight.  ``u_a``, ``u_b`` are the iterate at t_i, t_{i+1},
        the only entries of it the interval reads."""
        times, work = self.times, self.work
        dt = times[i + 1] - times[i]
        sub = dt / self.substeps
        for j in range(self.substeps):
            s = times[i] + (j + 0.5) * sub
            w = (s - times[i]) / dt
            with work.scope():
                u_s = np.multiply(1.0 - w, u_a, out=work.take(acc_hat.shape, complex))
                with work.scope():
                    u_s += np.multiply(w, u_b, out=work.take(acc_hat.shape, complex))
                forcing = _forcing_at(self.grid, u_s, self.lam, work)
                spec, _ = _forward(self.grid, forcing, out=forcing)
                spec *= self.multiplier(times[i + 1] - s, work)
                spec *= sub
                acc_hat += spec

    def integrals(self, u: list):
        """The integrals of the iterate ``u``, yielded as I_0, ..., I_n one
        output time at a time, interval-recursively: I_{i+1} = S(dt) I_i +
        the nodes of interval i, which by the exact semigroup law is the
        composite rule over [0, t_{i+1}].  S(dt) is a diagonal multiplier on
        the Fourier accumulator; each output time takes one inverse FFT.

        Each I_i is a fresh array the caller may write into.  Interval i
        reads ``u[i]`` and ``u[i + 1]`` when the generator resumes after
        yielding I_i, so the caller may then replace ``u[i - 1]``.
        """
        yield np.zeros_like(u[0])
        acc_hat = np.zeros_like(u[0], dtype=complex)
        for i in range(len(self.times) - 1):
            with self.work.scope():
                acc_hat *= self.multiplier(self.times[i + 1] - self.times[i], self.work)
            self.add_interval(i, u[i], u[i + 1], acc_hat)
            # a complex inverse given out= leaves acc_hat, which carries over, alone
            yield _inverse(self.grid, acc_hat, False, out=np.empty_like(acc_hat))


def _sweep(rule: _Rule, u_old: list) -> float:
    """One Picard sweep: replace each ``u_old[i]`` in the list by
    u_new[i] = S(t_i) v0 + I_i and return max_i ||u_new[i] - u_old[i]||_2,
    or NaN if any term is NaN, so a diverged iterate never passes for a
    converged one.

    u_new[i] is formed in the yielded I_i and replaces ``u_old[i]`` one
    output time later, once the nodes that read it are done, and S(t_i) v0
    is remade for it by ``rule.free``, so a sweep holds one iterate
    instead of four trajectories.
    """
    for i, integral in enumerate(rule.integrals(u_old)):
        if i:
            u_old[i - 1] = u_new
        u_new = np.add(rule.free(i), integral, out=integral)
        term = l2_norm(rule.grid, u_new - u_old[i])
        if i == 0 or term > inc or math.isnan(term):
            inc = term
    u_old[-1] = u_new
    return inc


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
    initial_norm = morrey_norm(grid, v0, 2.0, 2.0).value
    if initial_norm > config.smallness:
        warnings.warn(
            f"initial data norm {initial_norm:.3e} exceeds the contraction "
            f"threshold {config.smallness}; iteration may not converge",
            SmallnessWarning,
        )

    rule = _Rule(grid, config, np.linspace(0.0, config.t_end, config.time_steps + 1), v0)
    u_old = [rule.free(i) for i in range(len(rule.times))]

    increments: list = []
    iteration_log: list = []
    converged = False
    grow_streak = 0
    xpt = None
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, config.picard_max_iter + 1):
            inc = _sweep(rule, u_old)
            if not np.isfinite(inc):
                raise NonContraction(
                    f"iterate diverged (non-finite increment at iteration {it})",
                    increments + [inc],
                )
            row = {"iter": it, "increment": inc}
            if track_xpt:
                xpt = xpt_norm(grid, Trajectory(rule.times, u_old), config.p)
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
            if inc < config.picard_tol:
                converged = True
                break

    traj = Trajectory(rule.times, u_old)
    del rule  # its workspace, multipliers and v0 spectrum go before the norm runs
    if xpt is None:  # untracked; a tracked run already measured the final iterate
        xpt = xpt_norm(grid, traj, config.p)
    return PicardResult(trajectory=traj, xpt=xpt, increments=increments,
                        converged=converged, iterations=len(increments),
                        initial_norm=initial_norm, config=config,
                        iteration_log=iteration_log)


def fixed_point_residual(grid: Grid, result: PicardResult, v0: np.ndarray,
                         config: CglConfig) -> float:
    """Sup-over-time L2 defect of u against its own Duhamel right-hand side.

    The right-hand side uses the solve's own rule and datum: a ``config``
    whose ``lam`` or ``duhamel_substeps`` differs from ``result.config``, or
    a ``v0`` other than the solve's (its trajectory starts at S(0) v0 = v0),
    raises ``ValueError``, since the defect would then measure the
    mismatch, not the solve."""
    for name in ("lam", "duhamel_substeps"):
        given, solved = getattr(config, name), getattr(result.config, name)
        if given != solved:
            raise ValueError(f"config.{name} = {given!r} differs from the {solved!r} "
                             "the result was solved with")
    v0 = np.asarray(v0, dtype=complex)
    u = result.trajectory.fields
    if not np.array_equal(v0, u[0]):
        raise ValueError("v0 is not the initial datum the result was solved from")
    rule = _Rule(grid, config, result.trajectory.times, v0)
    return max(l2_norm(grid, u_t - rule.free(i) - integral)
               for i, (u_t, integral) in enumerate(zip(u, rule.integrals(u))))


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
                         config: CglConfig, halvings: int = 3,
                         base: PicardResult | None = None) -> StabilityReport:
    """Solve from v0_a and from v0_a + (v0_b - v0_a)/2^k, k = 0..halvings-1,
    and report the trajectory-norm-to-data-norm response ratio series.

    ``base`` is the solve from v0_a under ``config`` when the caller has it
    (``picard_iterate``'s result, tracked or not); it is made here otherwise.
    ``halvings`` is an integer >= 2: one ratio has no spread to check.
    """
    require_integer("halvings", halvings)
    if halvings < 2:
        raise ValueError(f"halvings must be >= 2, got {halvings}")
    v0_a = np.asarray(v0_a, dtype=complex)
    v0_b = np.asarray(v0_b, dtype=complex)
    perturbation = v0_b - v0_a
    if np.abs(perturbation).max() == 0.0:
        return StabilityReport(deltas=(), ratios=(), exact_zero=True)
    if base is None:
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
