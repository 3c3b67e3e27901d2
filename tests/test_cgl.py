import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from llglab import cgl
from llglab.cgl import (
    CglConfig,
    NonContraction,
    SmallnessWarning,
    exponent_window_check,
    fixed_point_residual,
    nonlinearity_F,
    picard_iterate,
    stability_experiment,
)
from llglab.fields import Workspace, l2_norm, make_grid
from llglab.frames import gauge_fields_from_u
from llglab.initial_data import spectral_bump
from llglab.morrey import morrey_norm, xpt_norm

from oracles import (beta_quadrature, nonlinearity_direct, reference_duhamel_trajectory,
                     reference_fixed_point_residual, reference_picard_iterate)

TWO_PI = 2.0 * np.pi


def bump_pair(grid, width=0.35, quadrature=True):
    """Two-component modulated bump with active cross-coupling."""
    x = grid.coordinates()[0]
    y = grid.coordinates()[1]
    bump = spectral_bump(grid, width=width)
    v0 = np.zeros((2,) + grid.shape, dtype=complex)
    v0[0] = bump * np.exp(1j * x)
    second = bump * np.exp(1j * x) if quadrature else bump * np.exp(1j * (x + y))
    v0[1] = (1j if quadrature else 1.0) * 0.5 * second
    return v0


def normalized(grid, v0, target):
    return v0 * (target / morrey_norm(grid, v0, 2.0, 2.0).value)


class TestExponentWindow:
    def test_interior_p_all_valid(self):
        rep = exponent_window_check(3.2)
        assert rep.valid
        assert all(pair.valid for pair in rep.pairs)
        assert all(pair.beta_value is not None for pair in rep.pairs)

    def test_left_endpoint_fails_on_cubic_grad_pair(self):
        rep = exponent_window_check(3.0)
        assert not rep.valid
        bad = rep.first_failing
        assert bad.label == "cubic_r2"
        assert bad.delta1 == pytest.approx(1.0)
        assert bad.delta2 == pytest.approx(0.5)

    def test_right_endpoint_fails_on_quintic_pair(self):
        rep = exponent_window_check(10.0 / 3.0)
        assert not rep.valid
        bad = rep.first_failing
        assert bad.label == "quintic_r1"
        assert bad.delta1 == pytest.approx((4.0 - 10.0 / 3.0) / (10.0 / 3.0))
        assert bad.delta2 == pytest.approx(1.0)

    def test_beta_values_match_gamma_oracle(self):
        rep = exponent_window_check(3.25)
        for pair in rep.pairs:
            exact = special.beta(1.0 - pair.delta2, 1.0 - pair.delta1)
            assert pair.beta_value == pytest.approx(exact, rel=1e-13)

    # 3.0 + 1e-6 puts cubic_r2 at delta1 = 1 - 3.3e-7, where B is about 3e6
    @pytest.mark.parametrize("p", [3.05, 3.2, 3.25, 3.3, 3.0 + 1e-6])
    def test_beta_values_match_quadrature_oracle(self, p):
        rep = exponent_window_check(p)
        assert rep.valid
        for pair in rep.pairs:
            assert np.isfinite(pair.beta_value)
            assert pair.beta_value == cgl._beta(pair.delta1, pair.delta2)
            assert pair.beta_value == pytest.approx(
                beta_quadrature(pair.delta1, pair.delta2), rel=1e-9)

    def test_import_loads_no_scipy_and_every_numpy_submodule(self):
        # a fresh interpreter: this one has scipy loaded by the oracles
        src = Path(cgl.__file__).resolve().parents[1]
        child = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import llglab\n"
            "after_import = sorted(sys.modules)\n"
            "rep = llglab.exponent_window_check(3.2)\n"
            "print(json.dumps({'after_import': after_import,\n"
            "                  'after_check': sorted(sys.modules),\n"
            "                  'betas': [pair.beta_value for pair in rep.pairs]}))\n"
        )
        out = subprocess.run([sys.executable, "-c", child], capture_output=True,
                             text=True, check=True, timeout=120)
        seen = json.loads(out.stdout.strip().splitlines()[-1])
        assert all(b is not None for b in seen["betas"])
        assert not [m for m in seen["after_check"] if m.startswith("scipy")]
        assert {"numpy.fft", "numpy.random"} <= set(seen["after_import"])

    def test_small_p_rejected(self):
        with pytest.raises(ValueError):
            exponent_window_check(2.0)

    def test_config_enforces_window(self):
        with pytest.raises(ValueError):
            CglConfig(lam=1.0, p=3.0)
        with pytest.raises(ValueError):
            CglConfig(lam=1.0, p=3.5)
        CglConfig(lam=1.0, p=3.2)  # interior value accepted


class TestNonlinearity:
    def test_zero_input(self):
        g = make_grid(2, 16, TWO_PI)
        u = np.zeros((2,) + g.shape, dtype=complex)
        zero = np.zeros(g.shape)
        parts = nonlinearity_F(g, u, np.zeros((2,) + g.shape), zero, zero, 1.0)
        assert np.abs(parts.total).max() == 0.0

    def test_single_real_component_annihilates_cubic(self):
        g = make_grid(2, 16, TWO_PI)
        u = np.zeros((2,) + g.shape, dtype=complex)
        u[0] = np.cos(g.coordinates()[0])  # u ubar is real
        zero = np.zeros(g.shape)
        parts = nonlinearity_F(g, u, np.zeros((2,) + g.shape), zero, zero, 1.0)
        assert np.abs(parts.f1).max() == 0.0
        assert np.abs(parts.total).max() == 0.0

    def test_transport_part_is_bitwise_the_einsum(self):
        g = make_grid(2, 16, TWO_PI)
        rng = np.random.default_rng(8)
        u = (rng.standard_normal((2,) + g.shape)
             + 1j * rng.standard_normal((2,) + g.shape))
        u[:, ::2] = 0.0
        a, a01, a02 = gauge_fields_from_u(g, u, 0.7)
        a[0, 1::3] = -0.0
        mu = 0.7 - 1j
        advect = np.einsum("k...,kl...->l...", a, cgl.gradient(g, u))
        expected = mu * 2j * advect - 1j * a01 * u
        assert nonlinearity_F(g, u, a, a01, a02, 0.7).f2.tobytes() == expected.tobytes()

    def test_matches_unsplit_expression(self):
        g = make_grid(2, 16, TWO_PI)
        rng = np.random.default_rng(3)
        u = (rng.standard_normal((2,) + g.shape)
             + 1j * rng.standard_normal((2,) + g.shape))
        lam = 0.7
        a, a01, a02 = gauge_fields_from_u(g, u, lam)
        parts = nonlinearity_F(g, u, a, a01, a02, lam)
        direct = nonlinearity_direct(g, u, a, a01, a02, lam)
        scale = np.abs(direct).max()
        assert np.abs(parts.total - direct).max() < 1e-12 * scale


class TestPicard:
    def small_config(self, **kw):
        defaults = dict(lam=1.0, p=3.2, t_end=0.5, time_steps=8,
                        duhamel_substeps=4, picard_tol=1e-14)
        defaults.update(kw)
        return CglConfig(**defaults)

    def test_zero_data_converges_immediately(self):
        g = make_grid(2, 16, TWO_PI)
        v0 = np.zeros((2,) + g.shape, dtype=complex)
        result = picard_iterate(g, v0, self.small_config())
        assert result.converged
        assert result.iterations == 1
        assert all(np.abs(u).max() == 0.0 for u in result.trajectory.fields)

    def test_small_data_geometric_decay(self):
        g = make_grid(2, 32, TWO_PI)
        v0 = normalized(g, bump_pair(g), 1e-3)
        result = picard_iterate(g, v0, self.small_config())
        assert result.converged
        assert len(result.increments) >= 2
        ratios = [b / a for a, b in zip(result.increments, result.increments[1:])]
        assert all(r < 0.1 for r in ratios)

    def test_fixed_point_residual_small(self):
        g = make_grid(2, 32, TWO_PI)
        cfg = self.small_config(picard_tol=1e-12)
        v0 = normalized(g, bump_pair(g), 1e-3)
        result = picard_iterate(g, v0, cfg)
        assert fixed_point_residual(g, result, v0, cfg) <= 10.0 * cfg.picard_tol

    @pytest.mark.parametrize("change", [dict(duhamel_substeps=2), dict(lam=0.5)],
                             ids=["substeps", "lam"])
    def test_residual_rejects_another_rule(self, change):
        # with another rule the residual used to return the quadrature
        # mismatch instead of the solve's defect
        g = make_grid(2, 16, TWO_PI)
        cfg = self.small_config(picard_tol=1e-12)
        v0 = normalized(g, bump_pair(g), 1e-3)
        result = picard_iterate(g, v0, cfg)
        other = CglConfig(**{**vars(cfg), **change})
        name = next(iter(change))
        with pytest.raises(ValueError, match=f"config.{name} = "):
            fixed_point_residual(g, result, v0, other)
        assert result.config is cfg
        # the fields the rule does not read may differ
        assert (fixed_point_residual(g, result, v0, CglConfig(**{**vars(cfg), "picard_tol": 1e-6}))
                == fixed_point_residual(g, result, v0, cfg))

    @pytest.mark.parametrize("other", [lambda v0: 2 * v0, lambda v0: np.roll(v0, 1, axis=-1)],
                             ids=["doubled", "shifted"])
    def test_residual_rejects_another_datum(self, other):
        # with 2 * v0 the residual used to read 1.0e-3, the defect of a
        # right-hand side the result was not solved for
        g = make_grid(2, 16, TWO_PI)
        cfg = self.small_config(picard_tol=1e-12)
        v0 = normalized(g, bump_pair(g), 1e-3)
        result = picard_iterate(g, v0, cfg)
        with pytest.raises(ValueError, match="v0 is not the initial datum"):
            fixed_point_residual(g, result, other(v0), cfg)
        residual = fixed_point_residual(g, result, v0.copy(), cfg)
        assert residual == reference_fixed_point_residual(g, result, v0, cfg)
        assert residual <= 10.0 * cfg.picard_tol

    def test_trajectory_starts_at_initial_data(self):
        g = make_grid(2, 16, TWO_PI)
        v0 = normalized(g, bump_pair(g), 1e-3)
        result = picard_iterate(g, v0, self.small_config())
        assert result.trajectory.times[0] == 0.0
        assert np.abs(result.trajectory.fields[0] - v0).max() < 1e-15

    def test_tracked_solve_measures_each_iterate_once(self, monkeypatch):
        g = make_grid(2, 16, TWO_PI)
        v0 = normalized(g, bump_pair(g), 1e-3)
        calls = []

        def counting_xpt_norm(*args, **kwargs):
            calls.append(args)
            return xpt_norm(*args, **kwargs)

        monkeypatch.setattr(cgl, "xpt_norm", counting_xpt_norm)
        tracked = picard_iterate(g, v0, self.small_config(), track_xpt=True)
        assert tracked.iterations >= 2
        assert len(calls) == tracked.iterations
        last = tracked.iteration_log[-1]
        assert (last["xpt_r1"], last["xpt_r2"], last["xpt_r3"]) == (
            tracked.xpt.r1, tracked.xpt.r2, tracked.xpt.r3)
        untracked = picard_iterate(g, v0, self.small_config())
        assert len(calls) == tracked.iterations + 1
        assert untracked.xpt == tracked.xpt

    def test_overflowed_iterate_raises_noncontraction(self):
        # once every time after t = 0 is NaN, only the finite t = 0 term (0.0)
        # is left: a running maximum that skips NaN reported convergence and
        # xpt_norm then failed on the non-finite iterate
        g = make_grid(2, 16, TWO_PI)
        v0 = normalized(g, bump_pair(g), 30.0)
        with pytest.raises(NonContraction, match="non-finite increment") as err:
            picard_iterate(g, v0, self.small_config(smallness=np.inf))
        assert np.isnan(err.value.increments[-1])

    def test_large_data_raises_noncontraction(self):
        g = make_grid(2, 32, TWO_PI)
        v0 = normalized(g, bump_pair(g), 10.0)
        with pytest.warns(SmallnessWarning):
            with pytest.raises(NonContraction):
                picard_iterate(g, v0, self.small_config(picard_max_iter=20))

    @pytest.mark.parametrize("smallness", [np.nan, -1.0, -np.inf])
    def test_nan_and_negative_smallness_rejected(self, smallness):
        # a NaN threshold would silence SmallnessWarning: norm > nan is False
        with pytest.raises(ValueError, match="smallness"):
            CglConfig(lam=1.0, smallness=smallness)
        assert CglConfig(lam=1.0, smallness=np.inf).smallness == np.inf  # never warn

    @pytest.mark.parametrize("name", ["time_steps", "picard_max_iter", "duhamel_substeps"])
    @pytest.mark.parametrize("value", [2.5, 3.7, 4.0, True, "4", None])
    def test_non_integer_counts_rejected(self, name, value):
        # a float count used to fail deep inside the solve with a TypeError
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            CglConfig(lam=1.0, **{name: value})

    @pytest.mark.parametrize("name", ["time_steps", "picard_max_iter", "duhamel_substeps"])
    def test_numpy_integer_counts_accepted(self, name):
        assert getattr(CglConfig(lam=1.0, **{name: np.int64(3)}), name) == 3

    def test_smallness_warning_threshold(self):
        g = make_grid(2, 16, TWO_PI)
        v0 = normalized(g, bump_pair(g), 0.06)
        with pytest.warns(SmallnessWarning):
            picard_iterate(g, v0, self.small_config(picard_max_iter=3))

    def test_smallness_persistence(self):
        # sup_t ||u(t)|| stays within a small multiple of the initial norm
        g = make_grid(2, 32, TWO_PI)
        v0 = normalized(g, bump_pair(g), 1e-3)
        result = picard_iterate(g, v0, self.small_config())
        assert result.xpt.r3 <= 10.0 * result.initial_norm

    def test_substep_refinement_second_order(self):
        g = make_grid(2, 16, TWO_PI)
        v0 = normalized(g, bump_pair(g), 0.04)
        finals = {}
        for sub in (2, 4, 8):
            cfg = self.small_config(time_steps=4, duhamel_substeps=sub,
                                    picard_tol=1e-13)
            finals[sub] = picard_iterate(g, v0, cfg).trajectory.fields[-1]
        err2 = l2_norm(g, finals[2] - finals[8])
        err4 = l2_norm(g, finals[4] - finals[8])
        assert err2 / err4 >= 3.5

    def test_bad_shape_rejected(self):
        g = make_grid(2, 16, TWO_PI)
        with pytest.raises(ValueError):
            picard_iterate(g, np.zeros((3,) + g.shape, dtype=complex),
                           self.small_config())

    def test_gauge_consistency_of_final_iterate(self):
        from llglab.fields import divergence

        g = make_grid(2, 32, TWO_PI)
        v0 = normalized(g, bump_pair(g), 1e-3)
        result = picard_iterate(g, v0, self.small_config())
        u_final = result.trajectory.fields[-1]
        a, _, _ = gauge_fields_from_u(g, u_final, 1.0)
        assert np.abs(divergence(g, a)).max() < 1e-10

    def test_internal_quadrature_matches_standalone_duhamel(self):
        # the solver's interval-recursive integral is the same composite
        # midpoint exponential rule as the standalone quadrature
        from llglab.cgl import _forcing_at, _Rule
        from llglab.semigroup import SemigroupParams, apply_semigroup
        from oracles import reference_duhamel_integral as duhamel_integral

        g = make_grid(2, 16, TWO_PI)
        v0 = normalized(g, bump_pair(g), 0.02)
        lam = 1.0
        params = SemigroupParams(lam=lam, grid=g)
        steps, sub = 4, 3
        times = np.linspace(0.0, 0.3, steps + 1)
        u_old = [apply_semigroup(v0, t, params) for t in times]
        rule = _Rule(g, CglConfig(lam=lam, duhamel_substeps=sub), times, v0)
        integrals = list(rule.integrals(u_old))

        def forcing(s):
            i = min(int(s / (times[1] - times[0])), steps - 1)
            w = (s - times[i]) / (times[1] - times[0])
            return _forcing_at(g, (1 - w) * u_old[i] + w * u_old[i + 1], lam, Workspace())

        for i in (1, steps):
            direct = duhamel_integral(forcing, times[i], i * sub, params)
            scale = max(np.abs(direct).max(), 1e-300)
            assert np.abs(integrals[i] - direct).max() < 1e-12 * max(scale, 1.0)


class TestSpectralSweep:
    """The Fourier-space Duhamel accumulator against the per-operator sweep."""

    @pytest.mark.parametrize("dim,n,substeps", [(1, 16, 2), (2, 16, 3), (3, 8, 2)])
    def test_matches_per_operator_sweep(self, dim, n, substeps):
        from llglab.cgl import _Rule
        from llglab.semigroup import SemigroupParams

        g = make_grid(dim, n, TWO_PI)
        rng = np.random.default_rng(50 + dim)
        lam = 0.8
        params = SemigroupParams(lam=lam, grid=g)
        times = np.linspace(0.0, 0.3, 4)
        shape = (dim,) + g.shape
        u_old = [0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                 for _ in times]
        got = list(_Rule(g, CglConfig(lam=lam, duhamel_substeps=substeps), times, u_old[0])
                   .integrals(u_old))
        want = reference_duhamel_trajectory(g, times, u_old, lam, substeps, params)
        scale = max(np.abs(w).max() for w in want)
        assert scale > 0 and len(got) == len(want)
        for x, y in zip(got, want):
            assert x.shape == y.shape
            assert np.abs(x - y).max() <= 1e-13 * scale

    def test_one_multiplier_per_distinct_offset(self, monkeypatch):
        # one cache serves every sweep of a solve, not one sweep
        from llglab.semigroup import semigroup_multiplier

        offsets = []

        def counted(params, t):
            offsets.append(t)
            return semigroup_multiplier(params, t)

        monkeypatch.setattr(cgl, "semigroup_multiplier", counted)
        g = make_grid(2, 16, TWO_PI)
        v0 = normalized(g, bump_pair(g), 0.02)
        # dyadic steps (t_end 0.5 over 8): equal offsets in every interval
        cfg = CglConfig(lam=1.0, t_end=0.5, time_steps=8, duhamel_substeps=4,
                        picard_tol=1e-14)
        result = picard_iterate(g, v0, cfg)
        assert result.iterations >= 3
        assert len(offsets) == len(set(offsets)) == 4 + 1

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 16), (3, 8)])
    def test_interval_reads_only_its_two_iterates(self, dim, n):
        # add_interval(i, u[i], u[i + 1], acc) gives the same bytes when every
        # other entry of u is NaN, also after those entries ran through the
        # rule's workspace: the streaming sweep, which replaces u[i - 1] once
        # I_i is yielded, relies on it, and so would an interval-by-interval
        # march
        from llglab.cgl import _Rule

        g = make_grid(dim, n, TWO_PI)
        rng = np.random.default_rng(60 + dim)
        times = np.linspace(0.0, 0.3, 5)
        shape = (dim,) + g.shape
        u = [0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
             for _ in times]
        acc0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rule = _Rule(g, CglConfig(lam=0.8, duhamel_substeps=3), times, u[0])
        for i in range(len(times) - 1):
            masked = [x if k in (i, i + 1) else np.full_like(x, np.nan)
                      for k, x in enumerate(u)]
            want = acc0.copy()
            rule.add_interval(i, u[i], u[i + 1], want)
            for k in range(len(times) - 1):
                junk = acc0.copy()
                rule.add_interval(k, masked[k], masked[k + 1], junk)
            got = acc0.copy()
            rule.add_interval(i, masked[i], masked[i + 1], got)
            assert np.isfinite(want).all() and got.tobytes() == want.tobytes()


class TestNodeWorkspace:
    """A Duhamel node runs in the solve's Workspace: reusing it changes no
    byte, and a warm node allocates almost nothing."""

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 16), (3, 8)])
    def test_reused_workspace_gives_the_fresh_bytes(self, dim, n):
        g = make_grid(dim, n, TWO_PI)
        rng = np.random.default_rng(70 + dim)
        shape = (dim,) + g.shape
        lam = 0.8
        work = Workspace()
        for _ in range(3):
            u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            fresh = gauge_fields_from_u(g, u, lam)
            fresh_parts = nonlinearity_F(g, u, *fresh, lam)
            with work.scope():
                gauge = gauge_fields_from_u(g, u, lam, work=work)
                parts = nonlinearity_F(g, u, *gauge, lam, work=work)
                total = cgl._forcing_at(g, u, lam, work)
                for got, want in zip((*gauge, parts.f1, parts.f2, parts.f3, total),
                                     (*fresh, fresh_parts.f1, fresh_parts.f2,
                                      fresh_parts.f3, fresh_parts.total)):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
        assert work.nbytes > 0  # the later passes ran in the reused buffer

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 16), (3, 8)])
    def test_shared_spectrum_gives_the_plain_bytes(self, dim, n):
        # u_hat= makes div u and grad u from one given transform of u
        from llglab.fields import _forward

        g = make_grid(dim, n, TWO_PI)
        rng = np.random.default_rng(90 + dim)
        shape = (dim,) + g.shape
        lam = 0.7
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        plain = gauge_fields_from_u(g, u, lam)
        plain_parts = nonlinearity_F(g, u, *plain, lam)
        u_hat, _ = _forward(g, u)
        kept = u_hat.copy()
        shared = gauge_fields_from_u(g, u, lam, u_hat=u_hat)
        parts = nonlinearity_F(g, u, *shared, lam, u_hat=u_hat)
        assert u_hat.tobytes() == kept.tobytes()  # read, never written
        for got, want in zip((*shared, parts.f1, parts.f2, parts.f3),
                             (*plain, plain_parts.f1, plain_parts.f2, plain_parts.f3)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def picard_large_node():
        """The node of the picard_large benchmark (2-D N=64, two components)
        with its forcing's transform, and the workspace it runs in."""
        from llglab.fields import _forward

        g = make_grid(2, 64, TWO_PI)
        u = 0.3 * normalized(g, bump_pair(g), 1.0)
        work = Workspace()

        def node():
            with work.scope():
                forcing = cgl._forcing_at(g, u, 1.0, work)
                _forward(g, forcing, out=forcing)

        return node, work

    def test_warm_node_makes_sixteen_fft_passes(self, monkeypatch):
        # u's spectrum 2, the a solve 4, div u's inverse 2, the a0 solve 4,
        # grad u's inverse 2, the forcing's spectrum 2; transforming u once
        # for div u and once for grad u made 18
        node, _ = self.picard_large_node()
        node()
        passes = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kw):
                passes.append(_name)
                return _fn(*args, **kw)
            monkeypatch.setattr(np.fft, name, counted)
        node()
        assert len(passes) == 16, passes

    def test_warm_node_allocates_little(self):
        # Without a workspace the node's temporaries peak at 1,506 KiB; in a
        # warm one the peak is about 133 KiB (numpy's iteration buffers for
        # the mixed-type and broadcast products), so 400 KiB leaves a 3x margin.
        import tracemalloc

        node, work = self.picard_large_node()
        node()
        node()
        # the workspace's high-water: sharing u's spectrum between the gauge
        # solve and the nonlinearity must not raise it
        assert work.nbytes <= 917_504
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            node()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 400 * 1024, f"warm node peaked at {peak / 1024:.0f} KiB"

    def test_scopes_share_memory_and_the_first_pass_sizes_the_buffer(self):
        work = Workspace()

        def one_pass():
            with work.scope():
                kept = work.take((4, 8), complex)
                with work.scope():
                    inner = work.take((3,), float)
                again = work.take((3,), float)
            return kept, inner, again

        kept, inner, again = one_pass()
        assert not np.shares_memory(inner, again)  # the first pass gets fresh arrays
        assert work.nbytes == kept.nbytes + inner.nbytes  # and sizes the buffer
        kept, inner, again = one_pass()
        assert np.shares_memory(inner, again) and not np.shares_memory(kept, inner)
        with work.scope():
            past = work.take((work.nbytes // 8 + 1,), float)
            assert past.base is None  # past the end: a fresh array
        assert work.nbytes >= past.nbytes


def random_datum(grid, seed, target):
    rng = np.random.default_rng(seed)
    shape = (grid.dim,) + grid.shape
    return normalized(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                      target)


def assert_same_solve(got, want):
    assert got.increments == want.increments
    assert got.iteration_log == want.iteration_log
    assert (got.converged, got.iterations) == (want.converged, want.iterations)
    assert got.xpt == want.xpt and got.initial_norm == want.initial_norm
    assert len(got.trajectory.fields) == len(want.trajectory.fields)
    assert np.array_equal(got.trajectory.times, want.trajectory.times)
    for x, y in zip(got.trajectory.fields, want.trajectory.fields):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


class TestStreamingSweep:
    """picard_iterate streams the Duhamel sweep and swaps iterates in place:
    every byte equals the list-based loop of ``reference_picard_iterate``."""

    GRIDS = [(1, 16), (2, 16), (3, 8)]

    @staticmethod
    def config(**kw):
        defaults = dict(lam=0.9, p=3.2, t_end=0.5, time_steps=4, duhamel_substeps=2,
                        picard_tol=1e-13, smallness=np.inf)
        defaults.update(kw)
        return CglConfig(**defaults)

    @pytest.mark.parametrize("max_iter", [40, 3], ids=["converged", "capped"])
    @pytest.mark.parametrize("track", [False, True])
    @pytest.mark.parametrize("dim,n", GRIDS)
    def test_matches_list_based_loop(self, dim, n, track, max_iter):
        g = make_grid(dim, n, TWO_PI)
        v0 = random_datum(g, 80 + dim, 3.0)
        cfg = self.config(picard_max_iter=max_iter)
        got = picard_iterate(g, v0, cfg, track_xpt=track)
        if max_iter == 3:
            assert not got.converged and got.iterations == 3
        else:
            assert got.converged and got.iterations >= 5
        assert_same_solve(got, reference_picard_iterate(g, v0, cfg, track_xpt=track))
        assert (fixed_point_residual(g, got, v0, cfg)
                == reference_fixed_point_residual(g, got, v0, cfg))

    @pytest.mark.parametrize("dim,n,target,reason", [
        (1, 16, 30.0, "grew for 3"), (2, 16, 30.0, "grew for 3"),
        (2, 16, 1e4, "non-finite"), (3, 8, 1e4, "non-finite")])
    def test_noncontraction_matches(self, dim, n, target, reason):
        g = make_grid(dim, n, TWO_PI)
        v0 = random_datum(g, 5, target)
        cfg = self.config(picard_tol=1e-14, picard_max_iter=20)
        with pytest.raises(NonContraction, match=reason) as got:
            picard_iterate(g, v0, cfg)
        with pytest.raises(NonContraction) as want:
            reference_picard_iterate(g, v0, cfg)
        assert str(got.value) == str(want.value)
        assert got.value.increments == want.value.increments

    def test_increment_takes_max_order(self, monkeypatch):
        # the running maximum keeps max()'s order, and a NaN term at any
        # output time makes the increment NaN
        g = make_grid(1, 8, TWO_PI)
        times = np.linspace(0.0, 0.3, 4)
        one = np.ones((1,) + g.shape, dtype=complex)
        nan = np.full_like(one, np.nan)
        for terms in ([nan, one, 2 * one, one], [0 * one, nan, 3 * one, nan],
                      [one, 2 * one, nan, nan]):
            u_old = [0 * one for _ in times]
            rule = cgl._Rule(g, self.config(), times, 0 * one)
            monkeypatch.setattr(rule, "integrals",
                                lambda u, terms=terms: (t.copy() for t in terms))
            inc = cgl._sweep(rule, u_old)
            norms = [l2_norm(g, t) for t in terms]
            want = float("nan") if any(np.isnan(norms)) else max(norms)
            assert repr(inc) == repr(want)
            assert all(x.tobytes() == t.tobytes() for x, t in zip(u_old, terms))


class TestSweepMemory:
    """A warm mild solve holds one trajectory, the iterate, not four; the
    residual holds no trajectory of its own.  2-D N=32 with 16 steps, one
    substep and a dyadic t_end; a field is one (2, 32, 32) complex array.
    The list-based sweep peaked at 86 fields in the solve and 47 in the
    residual; the streaming one, which kept every S(t_i) v0, at 67 (two
    trajectories, 34, plus the node workspace, multipliers and norms) and
    17; remaking S(t_i) v0 from v0's spectrum brought the solve to 41."""

    @staticmethod
    def traced_peak(run):
        import tracemalloc

        run()  # warm: grid tables, rank caches, FFT plans
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def setup_method(self):
        self.grid = make_grid(2, 32, TWO_PI)
        self.v0 = normalized(self.grid, bump_pair(self.grid), 1e-3)
        self.cfg = CglConfig(lam=1.0, t_end=0.5, time_steps=16, duhamel_substeps=1,
                             picard_tol=1e-12)
        self.field = self.v0.nbytes

    def test_solve_holds_one_trajectory(self):
        peak = self.traced_peak(lambda: picard_iterate(self.grid, self.v0, self.cfg))
        trajectory = (self.cfg.time_steps + 1) * self.field
        assert peak <= trajectory + 28 * self.field, (
            f"solve peaked at {peak / self.field:.1f} fields")

    def test_residual_holds_no_trajectory(self):
        result = picard_iterate(self.grid, self.v0, self.cfg)
        peak = self.traced_peak(
            lambda: fixed_point_residual(self.grid, result, self.v0, self.cfg))
        assert peak <= 24 * self.field, f"residual peaked at {peak / self.field:.1f} fields"


class TestStability:
    def test_identical_data_flagged(self):
        g = make_grid(2, 16, TWO_PI)
        v0 = normalized(g, bump_pair(g), 1e-3)
        cfg = CglConfig(lam=1.0, p=3.2, t_end=0.25, time_steps=4,
                        duhamel_substeps=2, picard_tol=1e-12)
        rep = stability_experiment(g, v0, v0, cfg)
        assert rep.exact_zero
        assert rep.spread == 0.0

    @pytest.mark.parametrize("halvings", [0, 1, -2, 2.5, True])
    def test_too_few_halvings_fail_before_any_solve(self, monkeypatch, halvings):
        # fewer than two ratios have spread 0.0, which would read as stable
        def forbidden(*args, **kwargs):
            raise AssertionError("a solve ran before halvings was checked")

        monkeypatch.setattr(cgl, "picard_iterate", forbidden)
        g = make_grid(2, 16, TWO_PI)
        v0 = normalized(g, bump_pair(g), 1e-3)
        cfg = CglConfig(lam=1.0, t_end=0.25, time_steps=4, duhamel_substeps=2)
        with pytest.raises(ValueError, match="halvings"):
            stability_experiment(g, v0, 2 * v0, cfg, halvings=halvings)

    def test_linear_response_ratios(self):
        g = make_grid(2, 16, TWO_PI)
        x = g.coordinates()[0]
        v0 = normalized(g, bump_pair(g), 1e-3)
        pert = np.zeros_like(v0)
        pert[0] = 1e-3 * np.exp(2j * x)
        cfg = CglConfig(lam=1.0, p=3.2, t_end=0.25, time_steps=4,
                        duhamel_substeps=2, picard_tol=1e-12)
        rep = stability_experiment(g, v0, v0 + pert, cfg, halvings=3)
        assert len(rep.ratios) == 3
        assert all(np.isfinite(rep.ratios))
        assert rep.spread <= 0.25
