import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from llglab.fields import (
    SpinField,
    derivative,
    divergence,
    gradient,
    laplacian,
    make_grid,
)
from llglab.frames import (
    GaugeState,
    PoleProximity,
    build_frame,
    check_identities,
    coulomb_gauge_fix,
    derive_gauge,
    gauge_fields_from_u,
    gauge_transform,
    rotate_frame,
)
from llglab.llg import llg_rhs

from oracles import finite_difference_gradient, frame_defects, reference_gauge_fields

TWO_PI = 2.0 * np.pi


def constant_spin(grid, direction):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return SpinField(grid, np.broadcast_to(
        d.reshape((3,) + (1,) * grid.dim), (3,) + grid.shape).copy())


def equatorial(grid, amplitude=0.1, wavenumber=1):
    x = grid.coordinates()[0]
    theta = amplitude * np.sin(wavenumber * x)
    zero = np.zeros_like(theta)
    return SpinField(grid, np.stack([np.cos(theta), np.sin(theta), zero]))


def exp_map_field(grid, seed, scale=1.2):
    """Random admissible field via the geodesic exponential at the north pole."""
    rng = np.random.default_rng(seed)
    v1 = sum(rng.normal() * np.cos(k * grid.coordinates()[0] + rng.normal())
             for k in range(1, 4)) * 0.2
    v2 = sum(rng.normal() * np.sin(k * grid.coordinates()[0] + rng.normal())
             for k in range(1, 4)) * 0.2
    mag = np.sqrt(v1**2 + v2**2)
    mag_clip = np.minimum(mag, scale)
    safe = np.where(mag > 0, mag, 1.0)
    m = np.stack([
        np.sin(mag_clip) * v1 / safe,
        np.sin(mag_clip) * v2 / safe,
        np.cos(mag_clip),
    ])
    return SpinField.from_values(grid, m)


class TestBuildFrame:
    def test_north_pole_identity(self):
        g = make_grid(1, 16, TWO_PI)
        frame = build_frame(constant_spin(g, (0, 0, 1)))
        assert np.array_equal(frame.X[0], np.ones(g.shape))
        assert np.abs(frame.X[1]).max() == 0.0
        assert np.abs(frame.X[2]).max() == 0.0
        assert np.array_equal(frame.Y[1], np.ones(g.shape))

    def test_equator_point_invariants(self):
        g = make_grid(1, 16, TWO_PI)
        m = constant_spin(g, (1, 0, 0))
        frame = build_frame(m)
        assert max(frame_defects(frame, m.values).values()) < 1e-12

    def test_pole_proximity_raises(self):
        g = make_grid(1, 16, TWO_PI)
        values = np.broadcast_to(
            np.array([0.0, 0.0, 1.0]).reshape(3, 1), (3, 16)).copy()
        values[:, 3] = [0.28, 0.0, -0.96]
        m = SpinField.from_values(g, values)
        with pytest.raises(PoleProximity):
            build_frame(m)

    @given(seed=st.integers(0, 5000))
    def test_invariants_on_random_admissible_fields(self, seed):
        g = make_grid(1, 32, TWO_PI)
        m = exp_map_field(g, seed)
        frame = build_frame(m)
        assert max(frame_defects(frame, m.values).values()) < 1e-10


class TestDeriveGauge:
    def test_constant_field_gives_zero_state(self):
        g = make_grid(2, 16, TWO_PI)
        m = constant_spin(g, (0, 0, 1))
        frame = build_frame(m)
        state = derive_gauge(g, m, np.zeros((3,) + g.shape), frame)
        assert np.abs(state.u).max() == 0.0
        assert np.abs(state.u0).max() == 0.0
        assert np.abs(state.a).max() == 0.0

    def test_equatorial_gradient_magnitude(self):
        g = make_grid(1, 64, TWO_PI)
        m = equatorial(g, amplitude=0.1)
        frame = build_frame(m)
        state = derive_gauge(g, m, llg_rhs(g, m.values, 1.0), frame)
        x = g.coordinates()[0]
        analytic = np.abs(0.1 * np.cos(x))
        assert np.abs(np.abs(state.u[0]) - analytic).max() < 1e-10
        # second-order finite differences agree at their own accuracy
        fd = np.stack([finite_difference_gradient(g, m.values[c], 0) for c in range(3)])
        fd_mag = np.sqrt((fd**2).sum(axis=0))
        assert np.abs(np.abs(state.u[0]) - fd_mag).max() < 1e-3

    def test_reconstruction_identity(self):
        g = make_grid(1, 64, TWO_PI)
        m = exp_map_field(g, seed=7)
        frame = build_frame(m)
        state = derive_gauge(g, m, llg_rhs(g, m.values, 1.0), frame)
        dm = derivative(g, m.values, 0, 1)
        rebuilt = np.real(state.u[0]) * frame.X + np.imag(state.u[0]) * frame.Y
        assert np.abs(rebuilt - dm).max() < 1e-10

    def test_without_time_derivative(self):
        g = make_grid(2, 16, TWO_PI)
        m = exp_map_field(g, seed=5)
        frame = build_frame(m)
        full = derive_gauge(g, m, llg_rhs(g, m.values, 1.0), frame)
        spatial = derive_gauge(g, m, None, frame)
        assert spatial.u0 is None
        assert np.array_equal(spatial.u, full.u)
        assert np.array_equal(spatial.a, full.a)

    def test_non_tangential_rejected(self):
        g = make_grid(1, 16, TWO_PI)
        m = constant_spin(g, (0, 0, 1))
        frame = build_frame(m)
        bad = np.zeros((3,) + g.shape)
        bad[2] = 1.0  # parallel to m
        with pytest.raises(ValueError):
            derive_gauge(g, m, bad, frame)


class TestGaugeTransform:
    def _state(self, grid, seed=0):
        m = exp_map_field(grid, seed)
        frame = build_frame(m)
        return m, frame, derive_gauge(grid, m, llg_rhs(grid, m.values, 1.0), frame)

    def test_zero_phase_is_identity(self):
        g = make_grid(1, 32, TWO_PI)
        _, _, state = self._state(g)
        out = gauge_transform(g, state, np.zeros(g.shape))
        assert np.array_equal(out.u, state.u)
        assert np.array_equal(out.a, state.a)

    def test_constant_phase_rotates_but_keeps_connection(self):
        g = make_grid(1, 32, TWO_PI)
        _, _, state = self._state(g)
        out = gauge_transform(g, state, np.full(g.shape, 0.7))
        assert np.abs(out.a - state.a).max() < 1e-13
        assert np.abs(np.abs(out.u) - np.abs(state.u)).max() < 1e-13
        assert np.abs(out.u - np.exp(-0.7j) * state.u).max() < 1e-12

    def test_magnitudes_gauge_invariant(self):
        g = make_grid(1, 32, TWO_PI)
        _, _, state = self._state(g, seed=2)
        theta = 0.5 * np.sin(3 * g.coordinates()[0])
        out = gauge_transform(g, state, theta)
        assert np.abs(np.abs(out.u) - np.abs(state.u)).max() < 1e-12
        assert np.abs(np.abs(out.u0) - np.abs(state.u0)).max() < 1e-12

    def test_composition(self):
        g = make_grid(1, 32, TWO_PI)
        _, _, state = self._state(g, seed=4)
        x = g.coordinates()[0]
        th1, th2 = 0.3 * np.sin(x), 0.2 * np.cos(2 * x)
        once = gauge_transform(g, gauge_transform(g, state, th1), th2)
        direct = gauge_transform(g, state, th1 + th2)
        assert np.abs(once.u - direct.u).max() < 1e-12
        assert np.abs(once.a - direct.a).max() < 1e-12


class TestCoulombFix:
    def test_divergence_free_input_unchanged(self):
        g = make_grid(2, 16, TWO_PI)
        x, y = g.coordinates()
        # a rotated gradient is divergence free
        phi = np.sin(x) * np.cos(y)
        a = np.stack([-derivative(g, phi, 1, 1), derivative(g, phi, 0, 1)])
        u = np.zeros((2,) + g.shape, dtype=complex)
        state = GaugeState(u=u, u0=None, a=a, theta=np.zeros(g.shape))
        fixed = coulomb_gauge_fix(g, state)
        assert np.abs(fixed.theta).max() < 1e-12
        assert np.abs(fixed.a - a).max() < 1e-12

    def test_pure_gradient_cancelled(self):
        g = make_grid(2, 16, TWO_PI)
        x, y = g.coordinates()
        phi = 0.4 * np.sin(x + y)  # mean zero
        a = gradient(g, phi)
        u = np.ones((2,) + g.shape, dtype=complex)
        state = GaugeState(u=u, u0=None, a=a, theta=np.zeros(g.shape))
        fixed = coulomb_gauge_fix(g, state)
        assert np.abs(fixed.a).max() < 1e-12
        assert np.abs(fixed.u - np.exp(1j * phi) * u).max() < 1e-12

    def test_random_connection_becomes_divergence_free(self):
        g = make_grid(2, 32, TWO_PI)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2,) + g.shape)
        u = np.zeros((2,) + g.shape, dtype=complex)
        state = GaugeState(u=u, u0=None, a=a, theta=np.zeros(g.shape))
        fixed = coulomb_gauge_fix(g, state)
        assert np.abs(divergence(g, fixed.a)).max() < 1e-10

    def test_idempotent(self):
        g = make_grid(2, 16, TWO_PI)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2,) + g.shape)
        u = (rng.standard_normal((2,) + g.shape)
             + 1j * rng.standard_normal((2,) + g.shape))
        state = GaugeState(u=u, u0=None, a=a, theta=np.zeros(g.shape))
        once = coulomb_gauge_fix(g, state)
        twice = coulomb_gauge_fix(g, once)
        assert np.abs(twice.u - once.u).max() < 1e-12
        assert np.abs(twice.a - once.a).max() < 1e-12

    def test_theta_mean_zero(self):
        g = make_grid(2, 16, TWO_PI)
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2,) + g.shape)
        state = GaugeState(u=np.zeros((2,) + g.shape, dtype=complex), u0=None,
                           a=a, theta=np.zeros(g.shape))
        fixed = coulomb_gauge_fix(g, state)
        assert abs(fixed.theta.mean()) < 1e-14


class TestGaugeFields:
    def band_limited_u(self, grid, seed, max_mode=4):
        rng = np.random.default_rng(seed)
        modes = np.fft.fftfreq(grid.n, d=1.0 / grid.n).astype(int)
        keep = np.abs(modes) <= max_mode
        mask = np.ones(grid.shape, dtype=bool)
        for ax in range(grid.dim):
            mask = mask & grid.axis_table(ax, keep)
        u = np.zeros((grid.dim,) + grid.shape, dtype=complex)
        for k in range(grid.dim):
            c = np.zeros(grid.shape, dtype=complex)
            c[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
            u[k] = np.fft.ifftn(c, axes=grid.axes)
        return u

    def test_zero_input(self):
        g = make_grid(2, 16, TWO_PI)
        a, a01, a02 = gauge_fields_from_u(g, np.zeros((2,) + g.shape, dtype=complex), 1.0)
        assert np.abs(a).max() == 0.0
        assert np.abs(a01).max() == 0.0
        assert np.abs(a02).max() == 0.0

    def test_real_u_gives_zero_connection(self):
        g = make_grid(2, 16, TWO_PI)
        u = np.zeros((2,) + g.shape, dtype=complex)
        u[0] = np.cos(g.coordinates()[0])
        u[1] = 0.5
        a, _, _ = gauge_fields_from_u(g, u, 1.0)
        assert np.abs(a).max() < 1e-14

    def test_elliptic_residuals(self):
        # bandwidth 3 keeps the quartic source below the Nyquist band
        g = make_grid(2, 32, TWO_PI)
        u = self.band_limited_u(g, seed=5, max_mode=3)
        lam = 1.3
        a, a01, a02 = gauge_fields_from_u(g, u, lam)
        for b in range(2):
            src = divergence(g, np.imag(u[b] * np.conj(u)))
            assert np.abs(-laplacian(g, a[b]) - src).max() < 1e-10
        div_u = divergence(g, u)
        w1 = np.conj(u) * div_u
        src1 = divergence(g, lam * np.imag(w1) - np.real(w1))
        assert np.abs(-laplacian(g, a01) - src1).max() < 1e-10
        w2 = (a * u).sum(axis=0) * np.conj(u)
        src2 = divergence(g, lam * np.real(w2) + np.imag(w2))
        assert np.abs(-laplacian(g, a02) - src2).max() < 1e-10

    def test_connection_is_divergence_free(self):
        g = make_grid(2, 32, TWO_PI)
        u = self.band_limited_u(g, seed=8)
        a, _, _ = gauge_fields_from_u(g, u, 1.0)
        assert np.abs(divergence(g, a)).max() < 1e-10

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 16), (3, 8)])
    def test_batched_solves_match_per_component_formulas(self, dim, n):
        g = make_grid(dim, n, TWO_PI)
        rng = np.random.default_rng(40 + dim)
        u = rng.standard_normal((dim,) + g.shape) + 1j * rng.standard_normal((dim,) + g.shape)
        lam = 0.7
        for got, want in zip(gauge_fields_from_u(g, u, lam), reference_gauge_fields(g, u, lam)):
            assert got.shape == want.shape and np.isrealobj(got)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestIdentities:
    def smooth_spin(self, grid, amp=0.1):
        x, y = grid.coordinates()
        theta = amp * np.sin(x) + 0.5 * amp * np.cos(y)
        phi = 0.8 * amp * np.cos(x + y)
        return SpinField.from_values(grid, np.stack([
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        ]))

    def test_constant_field_all_zero(self):
        g = make_grid(2, 16, TWO_PI)
        m = constant_spin(g, (0, 0, 1))
        frame = build_frame(m)
        state = derive_gauge(g, m, np.zeros((3,) + g.shape), frame)
        res = check_identities(g, m, np.zeros((3,) + g.shape), frame, state, 1.0)
        assert res.torsion == 0.0
        assert res.curvature == 0.0
        assert res.u0_equation == 0.0
        assert res.tension < 1e-14

    def test_smooth_data_residuals_small(self):
        g = make_grid(2, 64, TWO_PI)
        m = self.smooth_spin(g)
        lam = 1.0
        frame = build_frame(m)
        dt_m = llg_rhs(g, m.values, lam)
        state = coulomb_gauge_fix(g, derive_gauge(g, m, dt_m, frame))
        res = check_identities(g, m, dt_m, frame, state, lam)
        assert res.torsion < 1e-8
        assert res.curvature < 1e-8
        assert res.u0_equation < 1e-8
        assert res.tension < 1e-8
        assert res.div_a < 1e-10

    def test_u0_equation_discriminates(self):
        g = make_grid(2, 32, TWO_PI)
        m = self.smooth_spin(g, amp=0.2)
        frame = build_frame(m)
        rng = np.random.default_rng(0)
        noise = rng.standard_normal((3,) + g.shape)
        noise -= (noise * m.values).sum(axis=0) * m.values  # tangential
        state = derive_gauge(g, m, noise, frame)
        res = check_identities(g, m, noise, frame, state, 1.0)
        assert res.u0_equation > 1e-3

    def test_curvature_residual_spectral_convergence(self):
        lam = 1.0
        residuals = {}
        for n in (16, 32):
            g = make_grid(2, n, TWO_PI)
            m = self.smooth_spin(g, amp=0.6)
            frame = build_frame(m)
            dt_m = llg_rhs(g, m.values, lam)
            state = derive_gauge(g, m, dt_m, frame)
            residuals[n] = check_identities(g, m, dt_m, frame, state, lam).curvature
        assert residuals[32] < residuals[16] / 10.0

    def test_rotated_frame_consistency(self):
        g = make_grid(1, 32, TWO_PI)
        m = exp_map_field(g, seed=12)
        frame = build_frame(m)
        theta = 0.4 * np.sin(2 * g.coordinates()[0])
        rotated = rotate_frame(frame, theta)
        assert max(frame_defects(rotated, m.values).values()) < 1e-10
