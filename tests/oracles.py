"""Independent reference implementations used as test oracles.

These deliberately avoid the library's lattice/report machinery: plain
enumeration loops and literal formulas, so agreement is meaningful.  Where a
test demands bit-for-bit equality the arithmetic expression mirrors the
definition exactly; the enumeration itself is the independent part.
"""

from itertools import product

import numpy as np
from scipy import integrate

from llglab import cgl
from llglab.fields import (Trajectory, derivative, inverse_laplacian_divergence,
                           l2_norm, laplacian, normalize_spin)
from llglab.morrey import morrey_norm, xpt_norm
from llglab.semigroup import SemigroupParams, apply_semigroup


def _into(out, result):
    if out is None:
        return result
    out[...] = result
    return out


def nd_forward(grid, values, out=None):
    """(spectrum, real_in) from numpy's n-d wrappers: rfftn of real input,
    fftn of complex input, over the grid axes; copied into ``out`` when given."""
    real_in = np.isrealobj(values)
    spec = (np.fft.rfftn if real_in else np.fft.fftn)(values, axes=grid.axes)
    return _into(out, spec), real_in


def nd_inverse(grid, spec, real_in, out=None):
    """irfftn (``real_in``) or ifftn of ``spec`` over the grid axes, copied
    into ``out`` when given; leaves ``spec`` as it was."""
    if real_in:
        return _into(out, np.fft.irfftn(spec, s=grid.shape, axes=grid.axes))
    return _into(out, np.fft.ifftn(spec, axes=grid.axes))


def nd_spectral_operators(grid):
    """The spectral operators of llglab.fields and llglab.semigroup as
    literal formulas on numpy's n-d wrappers, by name: each takes what the
    library function takes after ``grid`` (derivatives along axis 0, S(t) at
    t = 0.01 with lambda = 0.5).  The multipliers and the order of the
    arithmetic are the library's, so the bytes must be equal."""
    def half(mult, real_in):
        return mult[..., : grid.n // 2 + 1] if real_in else mult

    def multiply(values, mult):
        spec, real_in = nd_forward(grid, values)
        return nd_inverse(grid, spec * half(mult, real_in), real_in)

    def div_hat(vec):
        spec, real_in = nd_forward(grid, vec)
        mults = [half(1j * grid.axis_table(ax, grid.wavenumbers_odd), real_in)
                 for ax in range(grid.dim)]
        out = spec[0] * mults[0]
        for ax in range(1, grid.dim):
            out += spec[ax] * mults[ax]
        return out, real_in

    def gradient(values):
        spec, real_in = nd_forward(grid, values)
        return nd_inverse(grid, np.stack([
            spec * half(1j * grid.axis_table(ax, grid.wavenumbers_odd), real_in)
            for ax in range(grid.dim)]), real_in)

    def divergence(vec):
        return nd_inverse(grid, *div_hat(vec))

    def inverse_laplacian_divergence(vec):
        d, real_in = div_hat(vec)
        return nd_inverse(grid, d * half(grid.inv_k_squared_odd, real_in), real_in)

    def apply_semigroup(values):
        spec = np.fft.fftn(np.asarray(values, dtype=complex), axes=grid.axes)
        mult = np.exp((1j - 0.5) * grid.k_squared * 0.01)
        return np.fft.ifftn(spec * mult, axes=grid.axes)

    return {
        "derivative_1": lambda v: multiply(v, 1j * grid.axis_table(0, grid.wavenumbers_odd)),
        "derivative_2": lambda v: multiply(v, (1j * grid.axis_table(0, grid.wavenumbers)) ** 2),
        "laplacian": lambda v: multiply(v, -grid.k_squared),
        "gradient": gradient,
        "divergence": divergence,
        "inverse_laplacian_divergence": inverse_laplacian_divergence,
        "apply_semigroup": apply_semigroup,
        "apply_grad_semigroup": lambda v: gradient(apply_semigroup(v)),
    }


def pointwise_mag(grid, values):
    if values.ndim == grid.dim:
        return np.abs(values)
    lead = tuple(range(values.ndim - grid.dim))
    return np.sqrt((np.abs(values) ** 2).sum(axis=lead))


def brute_force_morrey(grid, values, p, q):
    """Exhaustive max over every grid center and every dyadic radius <= L/2."""
    magp = pointwise_mag(grid, values) ** p
    idx = np.indices(grid.shape)
    h = grid.h
    best = -1.0
    for center in product(range(grid.n), repeat=grid.dim):
        d2 = np.zeros(grid.shape)
        for ax in range(grid.dim):
            delta = np.abs(idx[ax] - center[ax])
            delta = np.minimum(delta, grid.n - delta)
            d2 = d2 + (delta * h) ** 2
        r = h
        while r <= grid.length / 2 * (1 + 1e-12):
            s = magp[d2 <= r * r].sum()
            val = (r ** (q - grid.dim) * (s * h ** grid.dim)) ** (1.0 / p)
            if val > best:
                best = val
            r = 2.0 * r
    return best


def reference_morrey_norm(grid, values, p, q, lattice):
    """The per-(center, radius) loop morrey_norm must match bit for bit.

    Returns (value, witness_center, witness_radius) with the same first-wins
    tie-breaking: roll the distance table to each center, mask, sum.
    """
    magp = pointwise_mag(grid, values) ** p
    d2 = grid.wrapped_dist2
    hn = grid.h ** grid.dim
    ndim = grid.dim
    best_val = -1.0
    best_center = lattice.centers[0]
    best_radius = lattice.radii[0]
    ax_all = tuple(range(ndim))
    for center in lattice.centers:
        rolled = np.roll(d2, shift=center, axis=ax_all)
        for r in lattice.radii:
            s = magp[rolled <= r * r].sum()
            val = (r ** (q - ndim) * (s * hn)) ** (1.0 / p)
            if val > best_val:
                best_val = val
                best_center = center
                best_radius = r
    return float(best_val), tuple(best_center), float(best_radius)


def recompute_witness(grid, values, report):
    """Re-evaluate the norm candidate at the report's witness (center, radius)."""
    magp = pointwise_mag(grid, values) ** report.p
    rolled = np.roll(grid.wrapped_dist2, shift=report.witness_center,
                     axis=tuple(range(grid.dim)))
    r = report.witness_radius
    s = magp[rolled <= r * r].sum()
    hn = grid.h ** grid.dim
    return float((r ** (report.q - grid.dim) * (s * hn)) ** (1.0 / report.p))


def nonlinearity_direct(grid, u, a, a0_1, a0_2, lam):
    """The full nonlinearity written literally, component by component,
    without the cubic/transport/quintic split."""
    n = grid.dim
    mu = lam - 1j
    out = np.zeros_like(u)
    a_sq = sum(a[k] * a[k] for k in range(n))
    for l in range(n):
        cubic = np.zeros(grid.shape, dtype=complex)
        for k in range(n):
            cubic = cubic + np.imag(u[l] * np.conj(u[k])) * u[k]
        transport = np.zeros(grid.shape, dtype=complex)
        for k in range(n):
            transport = transport + a[k] * derivative(grid, u[l], k, 1)
        out[l] = (mu * (1j * cubic + 2j * transport - a_sq * u[l])
                  - 1j * (a0_1 + a0_2) * u[l])
    return out


def finite_difference_gradient(grid, values, axis):
    """Second-order centered difference, the non-spectral reference."""
    h = grid.h
    ax = values.ndim - grid.dim + axis
    return (np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax)) / (2 * h)


def beta_quadrature(delta1: float, delta2: float) -> float:
    """int_0^1 (1-t)^-delta1 t^-delta2 dt by QUADPACK's QAWS rule, which takes
    the two algebraic endpoint singularities exactly in its weight."""
    val, _ = integrate.quad(lambda t: 1.0, 0.0, 1.0, weight="alg",
                            wvar=(-delta2, -delta1))
    return float(val)


def reference_duhamel_integral(forcing, t: float, steps: int,
                               params: SemigroupParams) -> np.ndarray:
    """Approximate int_0^t S(t-s) F(s) ds by the midpoint exponential rule.

    [0, t] is split into ``steps`` intervals; on each, the exact semigroup is
    applied to the midpoint-sampled forcing.  Second order in the step size,
    and exact in the stiff linear part since only true semigroup
    applications occur.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if t < 0:
        raise ValueError("integration time must be nonnegative")
    ds = t / steps
    acc = None
    for j in range(steps):
        s = (j + 0.5) * ds
        term = apply_semigroup(np.asarray(forcing(s), dtype=complex), t - s, params) * ds
        acc = term if acc is None else acc + term
    return acc


def reference_duhamel_trajectory(grid, times, u_old, lam, substeps, params):
    """The per-operator Duhamel sweep, in physical space.

    Every node's forcing is built from ``reference_gauge_fields`` and
    ``nonlinearity_direct`` and goes through its own apply_semigroup, and
    the accumulator through one more per interval: two FFTs and a fresh
    multiplier per call.  cgl._Rule.integrals accumulates the same rule in
    Fourier space and must agree to rounding.
    """
    integrals = [np.zeros_like(u_old[0])]
    acc = np.zeros_like(u_old[0])
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        acc = apply_semigroup(acc, dt, params)
        sub = dt / substeps
        for j in range(substeps):
            s = times[i] + (j + 0.5) * sub
            w = (s - times[i]) / dt
            u_s = (1.0 - w) * u_old[i] + w * u_old[i + 1]
            a, a0_1, a0_2 = reference_gauge_fields(grid, u_s, lam)
            forcing = nonlinearity_direct(grid, u_s, a, a0_1, a0_2, lam)
            acc = acc + apply_semigroup(forcing, times[i + 1] - s, params) * sub
        integrals.append(acc.copy())
    return integrals


def reference_picard_iterate(grid, v0, config, track_xpt=False):
    """cgl.picard_iterate as a list-based loop: each sweep holds the free
    trajectory, the old iterate, every Duhamel integral and the new iterate
    whole, takes the increment as ``max`` over the output times afterwards
    (NaN if any time's term is NaN), and only then swaps the iterates.  The bitwise reference for the
    streaming sweep's in-place bookkeeping; the integrals are the solver's
    own (``list(rule.integrals(...))`` of one ``cgl._Rule``), no smallness warning."""
    v0 = np.asarray(v0, dtype=complex)
    times = np.linspace(0.0, config.t_end, config.time_steps + 1)
    rule = cgl._Rule(grid, config, times, v0)
    free = [apply_semigroup(v0, t, rule.params) for t in times]
    u_old = [f.copy() for f in free]
    increments, iteration_log = [], []
    converged, grow_streak, xpt = False, 0, None
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, config.picard_max_iter + 1):
            integrals = list(rule.integrals(u_old))
            u_new = [free[i] + integrals[i] for i in range(len(times))]
            terms = [l2_norm(grid, u_new[i] - u_old[i]) for i in range(len(times))]
            inc = float("nan") if any(np.isnan(terms)) else max(terms)
            if not np.isfinite(inc):
                raise cgl.NonContraction(
                    f"iterate diverged (non-finite increment at iteration {it})",
                    increments + [inc])
            row = {"iter": it, "increment": inc}
            if track_xpt:
                xpt = xpt_norm(grid, Trajectory(times, u_new), config.p)
                row.update(xpt_r1=xpt.r1, xpt_r2=xpt.r2, xpt_r3=xpt.r3)
            iteration_log.append(row)
            if increments and inc > increments[-1]:
                grow_streak += 1
                if grow_streak >= 3:
                    raise cgl.NonContraction(
                        "increments grew for 3 consecutive iterations "
                        f"(last {inc:.3e}); data too large for contraction",
                        increments + [inc])
            else:
                grow_streak = 0
            increments.append(inc)
            u_old = u_new
            if inc < config.picard_tol:
                converged = True
                break
    traj = Trajectory(times, u_old)
    return cgl.PicardResult(trajectory=traj, xpt=xpt or xpt_norm(grid, traj, config.p),
                            increments=increments, converged=converged,
                            iterations=len(increments),
                            initial_norm=morrey_norm(grid, v0, 2.0, 2.0).value,
                            config=config, iteration_log=iteration_log)


def reference_fixed_point_residual(grid, result, v0, config):
    """cgl.fixed_point_residual over whole lists: every S(t_i) v0 and every
    Duhamel integral first, then ``max`` of the defects, operands in order."""
    v0 = np.asarray(v0, dtype=complex)
    times = result.trajectory.times
    u = result.trajectory.fields
    rule = cgl._Rule(grid, config, times, v0)
    free = [apply_semigroup(v0, t, rule.params) for t in times]
    integrals = list(rule.integrals(u))
    return max(l2_norm(grid, u[i] - free[i] - integrals[i]) for i in range(len(times)))


def reference_gauge_fields(grid, u, lam):
    """gauge_fields_from_u with one elliptic solve per right-hand side and
    div u summed from per-axis derivatives in physical space."""
    u = np.asarray(u, dtype=complex)
    uc = np.conj(u)
    a = np.stack([
        inverse_laplacian_divergence(grid, np.imag(u[b] * uc))
        for b in range(grid.dim)
    ])
    div_u = sum(derivative(grid, u[k], k, 1) for k in range(grid.dim))
    w1 = uc * div_u
    a0_1 = inverse_laplacian_divergence(grid, lam * np.imag(w1) - np.real(w1))
    a_dot_u = (a * u).sum(axis=0)
    w2 = a_dot_u * uc
    a0_2 = inverse_laplacian_divergence(grid, lam * np.real(w2) + np.imag(w2))
    return a, a0_1, a0_2


def reference_llg_rhs(grid, m_values, lam):
    """The spin-flow right-hand side written on np.cross, the bitwise reference
    for llg.llg_rhs."""
    lap = laplacian(grid, m_values)
    precession = np.cross(m_values, lap, axis=0)
    rhs = -precession - lam * np.cross(m_values, precession, axis=0)
    rhs = rhs - (rhs * m_values).sum(axis=0) * m_values
    return rhs


def reference_llg_march(grid, m, lam, dt, steps, scheme):
    """``steps`` projected RK steps of size dt on reference_llg_rhs, written out
    of place as the formulas read; returns the final field and the trapezoid
    dissipation integral of |d_t m|^2 (the bitwise reference for llg.solve)."""
    def power(r):
        return float((r * r).sum() * grid.cell_volume)

    rhs = reference_llg_rhs(grid, m, lam)
    dissipated = 0.0
    for _ in range(steps):
        if scheme == "projected-rk2":
            k2 = reference_llg_rhs(grid, m + 0.5 * dt * rhs, lam)
            raw = m + dt * k2
        else:
            k1 = rhs
            k2 = reference_llg_rhs(grid, m + 0.5 * dt * k1, lam)
            k3 = reference_llg_rhs(grid, m + 0.5 * dt * k2, lam)
            k4 = reference_llg_rhs(grid, m + dt * k3, lam)
            raw = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        m = normalize_spin(raw)
        rhs_new = reference_llg_rhs(grid, m, lam)
        dissipated += 0.5 * dt * (power(rhs) + power(rhs_new))
        rhs = rhs_new
    return m, dissipated
