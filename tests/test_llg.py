import numpy as np
import pytest

from llglab.cgl import CglConfig
from llglab.fields import SpinField, derivative, l2_norm, make_grid, normalize_spin
from llglab.llg import (
    SCHEMES,
    BlowupSuspected,
    LlgConfig,
    bump_cutoff,
    check_energy_inequality,
    check_equivalent_form,
    check_local_energy,
    llg_rhs,
    solve,
    stability_cap,
    step,
)
from llglab.morrey import ParabolicCylinder

from oracles import reference_llg_march, reference_llg_rhs

TWO_PI = 2.0 * np.pi


def constant_spin(grid, direction=(0, 0, 1)):
    d = np.asarray(direction, float)
    d /= np.linalg.norm(d)
    return SpinField(grid, np.broadcast_to(
        d.reshape((3,) + (1,) * grid.dim), (3,) + grid.shape).copy())


def equatorial(grid, amplitude=0.1, wavenumber=1):
    x = grid.coordinates()[0]
    theta = amplitude * np.sin(wavenumber * x)
    return SpinField(grid, np.stack(
        [np.cos(theta), np.sin(theta), np.zeros_like(theta)]))


def tilted_smooth(grid, amp=0.2):
    x = grid.coordinates()[0]
    theta = amp * np.sin(x) + 0.5 * amp * np.cos(2 * x)
    phi = 0.7 * amp * np.cos(x)
    return SpinField.from_values(grid, np.stack([
        np.sin(theta) * np.cos(phi),
        np.sin(theta) * np.sin(phi),
        np.cos(theta),
    ]))


class TestRhs:
    def test_constant_is_stationary(self):
        g = make_grid(2, 16, TWO_PI)
        assert np.abs(llg_rhs(g, constant_spin(g).values, 1.0)).max() < 1e-14

    def test_equatorial_closed_form(self):
        g = make_grid(1, 64, TWO_PI)
        lam = 1.3
        m = equatorial(g, amplitude=0.1)
        x = g.coordinates()[0]
        theta = 0.1 * np.sin(x)
        theta_xx = -0.1 * np.sin(x)
        e_theta = np.stack([-np.sin(theta), np.cos(theta), np.zeros_like(theta)])
        e3 = np.zeros((3,) + g.shape)
        e3[2] = 1.0
        expected = -theta_xx * e3 + lam * theta_xx * e_theta
        assert np.abs(llg_rhs(g, m.values, lam) - expected).max() < 1e-8

    def test_tension_field_identity(self):
        # -m x (m x lap m) = lap m + |grad m|^2 m for unit fields
        g = make_grid(1, 64, TWO_PI)
        m = tilted_smooth(g)
        from llglab.fields import laplacian

        lap = laplacian(g, m.values)
        double_cross = -np.cross(m.values, np.cross(m.values, lap, axis=0), axis=0)
        grad = np.stack([derivative(g, m.values, 0, 1)])
        tension = lap + (grad**2).sum(axis=(0, 1)) * m.values
        assert np.abs(double_cross - tension).max() < 1e-8

    def test_tangency(self):
        g = make_grid(2, 32, TWO_PI)
        m = tilted_smooth(g)
        rhs = llg_rhs(g, m.values, 0.8)
        assert np.abs((rhs * m.values).sum(axis=0)).max() < 1e-10


class TestBitwiseOracle:
    """llg_rhs and solve against the np.cross formulas in tests/oracles, byte for byte."""

    @pytest.mark.parametrize("lam", [0.1, 1.0, 3.0])
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 8)])
    def test_rhs_on_random_unit_fields(self, dim, n, lam):
        g = make_grid(dim, n, TWO_PI)
        m = normalize_spin(np.random.default_rng(10 * dim + n).standard_normal((3,) + g.shape))
        before = m.tobytes()
        rhs = llg_rhs(g, m, lam)
        ref = reference_llg_rhs(g, m, lam)
        assert (rhs == ref).all()
        assert rhs.tobytes() == ref.tobytes()
        assert m.tobytes() == before

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rhs_on_fields_with_exact_zeros(self, dim):
        # signed zeros decide the bytes where components vanish identically
        g = make_grid(dim, 8, TWO_PI)
        for m in (constant_spin(g).values, equatorial(g, amplitude=0.3).values):
            for lam in (0.1, 1.0, 3.0):
                assert llg_rhs(g, m, lam).tobytes() == reference_llg_rhs(g, m, lam).tobytes()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_solve_matches_the_reference_march(self, scheme):
        g = make_grid(2, 16, TWO_PI)
        rng = np.random.default_rng(2)
        values = rng.standard_normal((3,) + g.shape) * 0.3
        values[2] += 1.0
        m0 = SpinField.from_values(g, values)
        lam, dt, steps = 1.0, 2.0**-10, 8  # dt and steps * dt exact, dt below the cap
        cfg = LlgConfig(grid=g, lam=lam, t_end=steps * dt, dt=dt, scheme=scheme)
        before = m0.values.tobytes()
        res = solve(m0, cfg, output_times=[0.0, steps * dt])
        m_ref, dissipated = reference_llg_march(g, m0.values, lam, dt, steps, scheme)
        assert res.meta["steps"] == steps
        assert res.trajectory.fields[-1].tobytes() == m_ref.tobytes()
        assert res.ledger.dissipation[-1] == dissipated
        assert m0.values.tobytes() == before


class TestStep:
    def test_constant_unchanged(self):
        g = make_grid(1, 16, TWO_PI)
        cfg = LlgConfig(grid=g, lam=1.0, t_end=1.0, dt=stability_cap(g, 1.0))
        m = constant_spin(g)
        out = step(m, cfg)
        assert np.abs(out.values - m.values).max() < 1e-14

    def test_unit_norm_after_step(self):
        g = make_grid(1, 32, TWO_PI)
        cfg = LlgConfig(grid=g, lam=1.0, t_end=1.0, dt=stability_cap(g, 1.0))
        out = step(equatorial(g), cfg)
        assert out.unit_defect() < 1e-15

    def test_dt_cap_enforced(self):
        g = make_grid(1, 32, TWO_PI)
        with pytest.raises(ValueError):
            LlgConfig(grid=g, lam=1.0, t_end=1.0, dt=10.0 * stability_cap(g, 1.0))

    def test_scheme_validation(self):
        g = make_grid(1, 32, TWO_PI)
        with pytest.raises(ValueError):
            LlgConfig(grid=g, lam=1.0, t_end=1.0, dt=1e-5, scheme="euler")

    @pytest.mark.parametrize("build", [
        lambda g: LlgConfig(grid=g, lam=1.0, t_end=1.0, dt=-1e-3),
        lambda g: LlgConfig(grid=g, lam=1.0, t_end=1.0, dt=np.nan),
        lambda g: make_grid(1, 32, np.inf),
        lambda g: CglConfig(lam=1.0, t_end=np.inf),
        lambda g: CglConfig(lam=1.0, picard_tol=np.nan),
        lambda g: CglConfig(lam=1.0, picard_max_iter=0),
    ], ids=["llg_dt_negative", "llg_dt_nan", "grid_length_inf", "cgl_t_end_inf",
            "cgl_picard_tol_nan", "cgl_picard_max_iter_0"])
    def test_non_finite_or_non_positive_inputs_rejected(self, build):
        with pytest.raises(ValueError):
            build(make_grid(1, 32, TWO_PI))

    def test_rk2_second_order_in_dt(self):
        g = make_grid(1, 32, TWO_PI)
        m0 = equatorial(g, amplitude=0.2)
        t_end = 0.02
        finals = {}
        for frac in (1.0, 0.5, 0.125):
            dt = frac * stability_cap(g, 1.0)
            cfg = LlgConfig(grid=g, lam=1.0, t_end=t_end, dt=dt)
            finals[frac] = solve(m0, cfg, output_times=np.array([0.0, t_end]))
        ref = finals[0.125].trajectory.fields[-1]
        err_full = l2_norm(g, finals[1.0].trajectory.fields[-1] - ref)
        err_half = l2_norm(g, finals[0.5].trajectory.fields[-1] - ref)
        assert err_full / err_half >= 3.5

    def test_nan_raises_blowup(self):
        g = make_grid(1, 16, TWO_PI)
        cfg = LlgConfig(grid=g, lam=1.0, t_end=1.0, dt=stability_cap(g, 1.0))
        bad = constant_spin(g).values.copy()
        bad[0, 3] = np.nan
        with pytest.raises(BlowupSuspected):
            step(SpinField(g, bad), cfg)

    def test_blowup_reports_time_of_last_good_state(self):
        # the last good state is the step's input, at time 0 relative to the step
        g = make_grid(1, 16, TWO_PI)
        cfg = LlgConfig(grid=g, lam=1.0, t_end=1.0, dt=stability_cap(g, 1.0))
        bad = constant_spin(g).values.copy()
        bad[0, 3] = np.nan
        with pytest.raises(BlowupSuspected) as exc:
            step(SpinField(g, bad), cfg)
        assert exc.value.time == 0.0
        assert exc.value.step_index == 0


class TestSolve:
    def test_constant_trajectory(self):
        g = make_grid(1, 16, TWO_PI)
        cfg = LlgConfig(grid=g, lam=1.0, t_end=0.01, dt=stability_cap(g, 1.0))
        res = solve(constant_spin(g), cfg, n_outputs=3)
        assert np.abs(res.ledger.energy).max() < 1e-20
        for mv in res.trajectory.fields:
            assert np.abs(mv - res.trajectory.fields[0]).max() < 1e-13

    def test_equatorial_energy_start_and_monotonicity(self):
        g = make_grid(1, 64, TWO_PI)
        cfg = LlgConfig(grid=g, lam=1.0, t_end=0.2, dt=stability_cap(g, 1.0) / 2)
        res = solve(equatorial(g, amplitude=0.1), cfg, n_outputs=9)
        assert res.ledger.energy[0] == pytest.approx(0.005 * np.pi, abs=1e-12)
        assert np.all(np.diff(res.ledger.energy) <= 1e-12)

    def test_energy_equality(self):
        g = make_grid(1, 64, TWO_PI)
        cfg = LlgConfig(grid=g, lam=1.0, t_end=0.2, dt=stability_cap(g, 1.0) / 4)
        res = solve(equatorial(g, amplitude=0.1), cfg, n_outputs=9)
        check = check_energy_inequality(res.ledger, 1.0)
        assert check.passed
        assert check.equality_ok

    def test_output_alignment(self):
        g = make_grid(1, 32, TWO_PI)
        cfg = LlgConfig(grid=g, lam=1.0, t_end=0.05, dt=stability_cap(g, 1.0))
        times = np.array([0.0, 0.013, 0.05])
        res = solve(equatorial(g), cfg, output_times=times)
        assert np.array_equal(res.trajectory.times, times)
        assert np.array_equal(res.ledger.times, times)

    def test_wild_data_never_fails_silently(self):
        g = make_grid(1, 64, TWO_PI)
        x = g.coordinates()[0]
        theta = 3.0 * np.sin(8 * x)
        m = SpinField.from_values(g, np.stack(
            [np.cos(theta), np.sin(theta), np.zeros_like(theta)]))
        cfg = LlgConfig(grid=g, lam=0.05, t_end=0.2, dt=stability_cap(g, 0.05))
        try:
            res = solve(m, cfg, n_outputs=5)
            assert np.isfinite(res.ledger.sup_grad).all()
        except BlowupSuspected as exc:
            assert exc.time is not None


class TestDiagnostics:
    def test_equivalent_form_identity(self):
        g = make_grid(1, 64, TWO_PI)
        lam = 0.9
        m = tilted_smooth(g)
        rhs = llg_rhs(g, m.values, lam)
        assert check_equivalent_form(g, m, rhs, lam) < 1e-8

    def test_equivalent_form_discriminates(self):
        g = make_grid(1, 64, TWO_PI)
        lam = 0.9
        m = tilted_smooth(g)
        rhs = llg_rhs(g, m.values, lam)
        noisy = rhs + 1e-3 * np.random.default_rng(0).standard_normal(rhs.shape)
        residual = check_equivalent_form(g, m, noisy, lam)
        assert 1e-4 < residual < 1e-1

    def test_constant_equivalent_form_zero(self):
        g = make_grid(1, 16, TWO_PI)
        m = constant_spin(g)
        assert check_equivalent_form(g, m, np.zeros((3,) + g.shape), 1.0) < 1e-14

    def test_lambda_limit_approaches_heat_flow(self):
        # angle between rhs/lam and the tension field decays like 1/lam
        g = make_grid(1, 64, TWO_PI)
        m = tilted_smooth(g)
        from llglab.fields import laplacian

        lap = laplacian(g, m.values)
        grad = np.stack([derivative(g, m.values, 0, 1)])
        tension = lap + (grad**2).sum(axis=(0, 1)) * m.values

        def angle(lam):
            r = llg_rhs(g, m.values, lam) / lam
            num = (r * tension).sum() * g.cell_volume
            den = l2_norm(g, r) * l2_norm(g, tension)
            return np.arccos(np.clip(num / den, -1.0, 1.0))

        a10, a100 = angle(10.0), angle(100.0)
        assert a100 < a10
        assert 5.0 <= a10 / a100 <= 20.0

    def test_local_energy_constant_trajectory(self):
        g = make_grid(2, 16, TWO_PI)
        cfg = LlgConfig(grid=g, lam=1.0, t_end=1.3, dt=stability_cap(g, 1.0))
        res = solve(constant_spin(g), cfg, n_outputs=9)
        cyl = ParabolicCylinder(center=(8, 8), t0=1.2, r0=1.0)
        check = check_local_energy(g, res.trajectory, cyl, 1.0)
        assert check.lhs == pytest.approx(0.0, abs=1e-20)
        assert check.rhs == pytest.approx(0.0, abs=1e-20)
        assert check.passed

    def test_local_energy_smooth_run_passes_with_slack(self):
        g = make_grid(2, 32, TWO_PI)
        x, y = g.coordinates()
        theta = 0.2 * np.sin(x) * np.cos(y)
        m0 = SpinField.from_values(g, np.stack([
            np.sin(theta), np.zeros_like(theta), np.cos(theta)]))
        cfg = LlgConfig(grid=g, lam=1.0, t_end=1.3, dt=stability_cap(g, 1.0))
        res = solve(m0, cfg, n_outputs=17)
        cyl = ParabolicCylinder(center=(16, 16), t0=1.2, r0=1.0)
        check = check_local_energy(g, res.trajectory, cyl, 1.0)
        assert check.passed
        assert check.margin > 0
        assert np.isfinite(check.time_ratio_full)
        assert np.isfinite(check.time_ratio_half)

    def test_bump_cutoff_support_and_peak(self):
        g = make_grid(2, 32, TWO_PI)
        phi, grad_phi = bump_cutoff(g, (16, 16), 1.0)
        assert phi[16, 16] == pytest.approx(1.0)
        assert phi.min() == 0.0
        assert np.isfinite(grad_phi).all()
