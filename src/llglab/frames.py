"""Orthonormal frames along sphere-valued fields and gauge calculus.

A tangent frame (X, Y) with X x Y = m turns the space-time gradient of m
into complex coefficients

    u_alpha = <d_alpha m, X> + i <d_alpha m, Y>,

with real connection coefficients a_alpha = <d_alpha X, Y> and covariant
derivative D_alpha = d_alpha + i a_alpha.  The frame is built by parallel
transport of (e1, e2) from the north pole along great circles, which is
singular only at the south pole; fields must keep m3 >= -1 + POLE_MARGIN.

Gauge freedom rotates the frame by a phase theta: u -> exp(-i theta) u,
a_alpha -> a_alpha + d_alpha theta.  The Coulomb gauge picks theta so the
spatial connection is divergence free, via a spectral Poisson solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    Grid,
    SpinField,
    Workspace,
    _cross,
    divergence,
    gradient,
    inverse_laplacian_divergence,
    laplacian,
    sup_norm,
)

__all__ = [
    "POLE_MARGIN",
    "PoleProximity",
    "TangentFrame",
    "build_frame",
    "rotate_frame",
    "GaugeState",
    "derive_gauge",
    "gauge_transform",
    "coulomb_gauge_fix",
    "gauge_fields_from_u",
    "IdentityResiduals",
    "check_identities",
]

POLE_MARGIN = 0.05


class PoleProximity(ValueError):
    """The field comes too close to the frame's singular antipode."""


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal pair (X, Y) along m with X x Y = m; shapes (3, *grid.shape)."""

    X: np.ndarray
    Y: np.ndarray

    def defects(self, m: np.ndarray) -> dict:
        """Sup-norm violations of the frame invariants, for diagnostics."""
        X, Y = self.X, self.Y
        cross = _cross(X, Y)
        return {
            "unit_X": float(np.abs((X**2).sum(axis=0) - 1.0).max()),
            "unit_Y": float(np.abs((Y**2).sum(axis=0) - 1.0).max()),
            "XY": float(np.abs((X * Y).sum(axis=0)).max()),
            "Xm": float(np.abs((X * m).sum(axis=0)).max()),
            "Ym": float(np.abs((Y * m).sum(axis=0)).max()),
            "cross": float(np.abs(cross - m).max()),
        }


def build_frame(m: SpinField) -> TangentFrame:
    """Parallel-transport frame, in closed form.

    The rotation R taking e3 to m along the connecting great circle gives
    X = R e1 = e1 - m1/(1+m3) * (e3 + m) and Y = R e2 likewise; both are
    exactly unit, tangential, and satisfy X x Y = m.
    """
    m1, m2, m3 = m.values
    if m3.min() < -1.0 + POLE_MARGIN:
        raise PoleProximity(
            f"m3 reaches {m3.min():.4f}; frame requires m3 >= {-1.0 + POLE_MARGIN}"
        )
    denom = 1.0 + m3
    X = np.stack([1.0 - m1 * m1 / denom, -m1 * m2 / denom, -m1])
    Y = np.stack([-m1 * m2 / denom, 1.0 - m2 * m2 / denom, -m2])
    return TangentFrame(X=X, Y=Y)


@dataclass(frozen=True)
class GaugeState:
    """Frame coefficients of a spin field: u (spatial), u0 (time), connection a.

    u0 is None when no time derivative was supplied.  The time connection is
    not stored: the mild solver recovers its elliptic split from u alone
    (gauge_fields_from_u).  theta is the accumulated zero-mean gauge phase.
    """

    u: np.ndarray
    u0: np.ndarray | None
    a: np.ndarray
    theta: np.ndarray


def rotate_frame(frame: TangentFrame, theta: np.ndarray) -> TangentFrame:
    """The frame matching gauge-transformed coefficients u -> e^{-i theta} u.

    X + iY picks up the conjugate phase: X~ = cos(theta) X + sin(theta) Y and
    Y~ = -sin(theta) X + cos(theta) Y, so that Re(u~) X~ + Im(u~) Y~
    reproduces the same tangent vectors.
    """
    c, s = np.cos(theta), np.sin(theta)
    return TangentFrame(X=c * frame.X + s * frame.Y, Y=-s * frame.X + c * frame.Y)


def _project_components(dm: np.ndarray, frame: TangentFrame) -> np.ndarray:
    """<dm, X> + i <dm, Y> for a (3, *shape) tangent vector field."""
    return (dm * frame.X).sum(axis=0) + 1j * (dm * frame.Y).sum(axis=0)


def derive_gauge(grid: Grid, m: SpinField, dt_m: np.ndarray | None,
                 frame: TangentFrame) -> GaugeState:
    """Compute (u, u0, a) from m, its time derivative, and a frame.

    dt_m must be tangential.  With dt_m None only the spatial coefficients
    are computed and u0 is left None.
    """
    mv = m.values
    u0 = None
    if dt_m is not None:
        tangency = float(np.abs((np.asarray(dt_m) * mv).sum(axis=0)).max())
        if tangency > 1e-8:
            raise ValueError(f"dt_m is not tangential (defect {tangency:.3e})")
        u0 = _project_components(np.asarray(dt_m), frame)
    dm = gradient(grid, mv)
    u = np.stack([_project_components(dm[k], frame) for k in range(grid.dim)])
    dX = gradient(grid, frame.X)
    a = np.stack([(dX[k] * frame.Y).sum(axis=0) for k in range(grid.dim)])
    return GaugeState(u=u, u0=u0, a=a, theta=np.zeros(grid.shape))


def gauge_transform(grid: Grid, state: GaugeState, theta: np.ndarray) -> GaugeState:
    """Rotate the frame by a static phase: u -> e^{-i theta} u, a -> a + grad theta."""
    theta = np.asarray(theta, dtype=float)
    phase = np.exp(-1j * theta)
    u = state.u * phase
    u0 = None if state.u0 is None else state.u0 * phase
    a = state.a + gradient(grid, theta)
    return replace(state, u=u, u0=u0, a=a, theta=state.theta + theta)


def coulomb_gauge_fix(grid: Grid, state: GaugeState) -> GaugeState:
    """Rotate into the gauge with divergence-free spatial connection.

    Solves -laplacian(theta) = div(a) spectrally with the zero mode pinned
    to zero, then applies the gauge transformation; div of the new a
    vanishes to machine precision by construction.
    """
    theta = inverse_laplacian_divergence(grid, state.a)
    return gauge_transform(grid, state, theta)


def gauge_fields_from_u(grid: Grid, u: np.ndarray, lam: float, *,
                        work: Workspace | None = None, u_hat: np.ndarray | None = None):
    """Connection and time-connection split recovered from u alone.

    Under the divergence-free gauge the connection solves, component-wise,

        -laplacian(a_b)   = div Im(u_b * conj(u)),
        -laplacian(a0_1)  = div [lam * Im(conj(u) div u) - Re(conj(u) div u)],
        -laplacian(a0_2)  = div [lam * Re((a.u) conj(u)) + Im((a.u) conj(u))],

    each solved spectrally with mean-zero right-hand sides and solutions.
    The dim right-hand sides of a go through one batched solve, and those of
    a0_1 and a0_2 through another.  Returns (a, a0_1, a0_2).

    Every array, the returned ones included, is taken from ``work`` (a fresh
    ``Workspace`` when None): the results alias ``work`` and stay valid until
    the caller's enclosing ``work.scope()`` exits.  ``u_hat``, when given, is
    ``fields._forward``'s spectrum of the complex u; it is only read, and
    ``div u`` is made from it instead of from a transform of its own.  The
    bytes are the same either way.
    """
    work = Workspace() if work is None else work
    u = np.asarray(u, dtype=complex)
    a = work.take(u.shape, float)
    a0 = work.take((2,) + u.shape[1:], float)
    # conj(u) is made once per Poisson solve and given back before it, so no
    # solve's spectra sit above it: a node that holds u_hat through this call
    # needs no larger workspace than one that transformed u twice
    with work.scope():
        # pair[k, b] = u_b conj(u_k): Im of it is component k of the
        # right-hand side of a_b
        pair = work.take((len(u),) + u.shape, complex)
        with work.scope():
            uc = np.conjugate(u, out=work.take(u.shape, complex))
            np.multiply(u[None, :], uc[:, None], out=pair)
        inverse_laplacian_divergence(grid, pair.imag, out=a, work=work)
    with work.scope():
        # rhs[:, 0] and rhs[:, 1] are the right-hand sides of a0_1 and a0_2
        rhs = work.take((len(u), 2) + u.shape[1:], float)
        with work.scope():
            uc = np.conjugate(u, out=work.take(u.shape, complex))
            with work.scope():
                div_u = divergence(grid, u, work=work, spectrum=u_hat)
                w1 = np.multiply(uc, div_u, out=work.take(u.shape, complex))
                np.multiply(lam, w1.imag, out=rhs[:, 0])
                rhs[:, 0] -= w1.real
            with work.scope():
                au = np.multiply(a, u, out=work.take(u.shape, complex))
                w2 = np.multiply(np.sum(au, axis=0, out=work.take(u.shape[1:], complex)),
                                 uc, out=uc)
                np.multiply(lam, w2.real, out=rhs[:, 1])
                rhs[:, 1] += w2.imag
        inverse_laplacian_divergence(grid, rhs, out=a0, work=work)
    return a, a0[0], a0[1]


@dataclass(frozen=True)
class IdentityResiduals:
    """Sup-norm residuals of the structural identities of the frame reduction."""

    torsion: float
    curvature: float
    u0_equation: float
    tension: float
    div_a: float


def check_identities(grid: Grid, m: SpinField, dt_m: np.ndarray,
                     frame: TangentFrame, state: GaugeState, lam: float) -> IdentityResiduals:
    """Evaluate the zero-torsion, curvature, time-component, and tension-field
    identities; all are exact in the continuum, so the residuals measure the
    spectral resolution of the data (plus whether dt_m actually is the flow)."""
    u, a, u0 = state.u, state.a, state.u0
    du = gradient(grid, u)  # du[alpha, beta] = d_alpha u_beta
    da = gradient(grid, a)
    torsion = 0.0
    curvature = 0.0
    for al in range(grid.dim):
        for be in range(al + 1, grid.dim):
            t_res = (du[al, be] + 1j * a[al] * u[be]) - (du[be, al] + 1j * a[be] * u[al])
            torsion = max(torsion, float(np.abs(t_res).max()))
            c_res = da[al, be] - da[be, al] - np.imag(u[al] * np.conj(u[be]))
            curvature = max(curvature, float(np.abs(c_res).max()))

    cov_div = sum(du[k, k] + 1j * a[k] * u[k] for k in range(grid.dim))
    u0_res = u0 - (lam - 1j) * cov_div
    u0_equation = float(np.abs(u0_res).max())

    mv = m.values
    grad_m = gradient(grid, mv)
    grad_sq = (grad_m**2).sum(axis=(0, 1))
    tension_direct = laplacian(grid, mv) + grad_sq * mv
    coef_x = sum(np.real(du[k, k]) - a[k] * np.imag(u[k]) for k in range(grid.dim))
    coef_y = sum(np.imag(du[k, k]) + a[k] * np.real(u[k]) for k in range(grid.dim))
    # the state's coefficients live in the frame rotated by the accumulated phase
    rotated = rotate_frame(frame, state.theta)
    tension_frame = coef_x * rotated.X + coef_y * rotated.Y
    tension = sup_norm(grid, tension_direct - tension_frame)

    div_a = float(np.abs(divergence(grid, a)).max())
    return IdentityResiduals(torsion=torsion, curvature=curvature,
                             u0_equation=u0_equation, tension=tension, div_a=div_a)
