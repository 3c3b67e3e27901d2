from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from llglab import semigroup
from llglab.config import parse_config
from llglab.fields import float_repr, gradient, l2_norm, make_grid
from llglab.initial_data import spectral_bump
from llglab.runner import _check_semigroup_decay, _Run, _write_decay_series
from llglab.semigroup import (
    DECAY_NUM_T,
    SemigroupParams,
    apply_grad_semigroup,
    apply_semigroup,
    decay_datum,
    default_decay_times,
    verify_decay,
    verify_decays,
)

from oracles import reference_duhamel_integral as duhamel_integral

TWO_PI = 2.0 * np.pi


def band_limited(grid, seed, max_mode=4):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.shape, dtype=complex)
    modes = np.fft.fftfreq(grid.n, d=1.0 / grid.n).astype(int)
    keep = np.abs(modes) <= max_mode
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dim):
        mask = mask & grid.axis_table(ax, keep)
    coeffs[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    return np.fft.ifftn(coeffs, axes=grid.axes)


@pytest.fixture
def params_1d():
    grid = make_grid(1, 16, TWO_PI)
    return SemigroupParams(lam=1.0, grid=grid)


class TestApply:
    def test_eigenfunction(self, params_1d):
        g = params_1d.grid
        x = g.coordinates()[0]
        f = np.exp(1j * x)
        out = apply_semigroup(f, 0.5, params_1d)
        expected = np.exp((1j - 1.0) * 0.5) * f
        assert np.abs(out - expected).max() < 1e-12
        # magnitude factor e^{-lambda k^2 t} = e^{-0.5}
        assert np.abs(out).max() == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_identity_at_zero(self, params_1d):
        f = band_limited(params_1d.grid, seed=0)
        out = apply_semigroup(f, 0.0, params_1d)
        assert np.array_equal(out, f.astype(complex))

    @given(seed=st.integers(0, 1000), t1=st.floats(0.01, 0.5), t2=st.floats(0.01, 0.5))
    def test_semigroup_law(self, seed, t1, t2):
        grid = make_grid(1, 16, TWO_PI)
        params = SemigroupParams(lam=1.0, grid=grid)
        f = band_limited(grid, seed)
        two_step = apply_semigroup(apply_semigroup(f, t1, params), t2, params)
        one_step = apply_semigroup(f, t1 + t2, params)
        assert np.abs(two_step - one_step).max() < 1e-12 * max(1.0, np.abs(f).max())

    def test_negative_time_rejected(self, params_1d):
        with pytest.raises(ValueError):
            apply_semigroup(np.zeros(16, dtype=complex), -0.1, params_1d)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, params_1d, t):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            apply_semigroup(np.ones(16, dtype=complex), t, params_1d)

    def test_nonpositive_damping_rejected(self):
        with pytest.raises(ValueError):
            SemigroupParams(lam=0.0, grid=make_grid(1, 16, TWO_PI))

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_damping_rejected(self, lam):
        with pytest.raises(ValueError, match="finite and positive"):
            SemigroupParams(lam=lam, grid=make_grid(1, 16, TWO_PI))

    def test_l2_strictly_decreasing(self, params_1d):
        f = band_limited(params_1d.grid, seed=2)
        norms = [l2_norm(params_1d.grid, apply_semigroup(f, t, params_1d))
                 for t in (0.0, 0.1, 0.2, 0.4)]
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_mean_preserved(self, params_1d):
        f = band_limited(params_1d.grid, seed=3) + 2.5
        out = apply_semigroup(f, 0.3, params_1d)
        assert out.mean() == pytest.approx(f.mean(), abs=1e-13)

    def test_gradient_same_code_path(self, params_1d):
        f = band_limited(params_1d.grid, seed=4)
        direct = apply_grad_semigroup(f, 0.2, params_1d)
        composed = gradient(params_1d.grid, apply_semigroup(f, 0.2, params_1d))
        assert np.array_equal(direct, composed)

    def test_grad_semigroup_t0_analytic(self, params_1d):
        x = params_1d.grid.coordinates()[0]
        out = apply_grad_semigroup(np.exp(1j * x), 0.0, params_1d)
        assert np.abs(out[0] - 1j * np.exp(1j * x)).max() < 1e-12

    def test_grad_of_constant_vanishes(self, params_1d):
        out = apply_grad_semigroup(np.full(16, 1.0 + 0j), 0.7, params_1d)
        assert np.abs(out).max() < 1e-13


class TestMultiplier:
    """The distinct-|xi|^2 multiplier and the given-spectrum path keep the
    bytes of the plain full-grid computation."""

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 32), (3, 8)])
    @pytest.mark.parametrize("lam", [0.1, 0.8, 1.0])
    def test_equals_the_full_grid_exponential(self, dim, n, lam):
        g = make_grid(dim, n, TWO_PI)
        params = SemigroupParams(lam=lam, grid=g)
        # non-dyadic times among them, as np.linspace's t_i and offsets are
        for t in (1e-3, 0.03125, 0.1, 1 / 3, 0.5 / 16 * 7, *np.linspace(0.0, 0.3, 4)[1:]):
            want = np.exp((1j - lam) * g.k_squared * t)
            got = semigroup.semigroup_multiplier(params, t)
            assert got.shape == g.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 16), (3, 8)])
    @pytest.mark.parametrize("t", [0.0, 0.1, 1 / 3])
    def test_given_spectrum_gives_the_plain_bytes(self, dim, n, t):
        from llglab.fields import _forward

        g = make_grid(dim, n, TWO_PI)
        params = SemigroupParams(lam=0.7, grid=g)
        v0 = np.stack([band_limited(g, seed=dim + k) for k in range(dim)])
        spectrum = _forward(g, v0)
        kept = spectrum.copy()
        got = apply_semigroup(v0, t, params, spectrum=spectrum)
        assert got.tobytes() == apply_semigroup(v0, t, params).tobytes()
        assert spectrum.tobytes() == kept.tobytes()


class TestVerifyDecay:
    def test_non_expansive_case(self):
        grid = make_grid(2, 64, TWO_PI)
        params = SemigroupParams(lam=1.0, grid=grid)
        bump = spectral_bump(grid, width=grid.length / 48).astype(complex)
        rep = verify_decay(bump, 2.0, 2.0, 2.0, default_decay_times(grid, 1.0),
                           params, c_max=1.1)
        assert rep.passed
        assert rep.max_ratio <= 1.1

    def test_plane_wave_ratio_vanishes(self):
        grid = make_grid(2, 64, TWO_PI)
        params = SemigroupParams(lam=1.0, grid=grid)
        x, _ = grid.coordinates()
        f = np.exp(12j * x)
        rep = verify_decay(f, 2.0, 4.0, 2.0, default_decay_times(grid, 1.0), params)
        assert rep.passed
        assert rep.ratio_series[-1] < 1e-4

    def test_zero_field_rejected(self):
        grid = make_grid(2, 16, TWO_PI)
        params = SemigroupParams(lam=1.0, grid=grid)
        with pytest.raises(ValueError):
            verify_decay(np.zeros(grid.shape, dtype=complex), 2.0, 4.0, 2.0,
                         np.logspace(-3, -1, 5), params)

    def test_short_time_span_rejected(self):
        grid = make_grid(2, 16, TWO_PI)
        params = SemigroupParams(lam=1.0, grid=grid)
        f = np.ones(grid.shape, dtype=complex)
        with pytest.raises(ValueError):
            verify_decay(f, 2.0, 4.0, 2.0, np.linspace(0.01, 0.05, 5), params)

    def test_exponent_range_rejected(self):
        grid = make_grid(2, 16, TWO_PI)
        params = SemigroupParams(lam=1.0, grid=grid)
        f = np.ones(grid.shape, dtype=complex)
        with pytest.raises(ValueError):
            verify_decay(f, 2.0, 8.0, 2.0, np.logspace(-3, -1, 5), params)

    def test_csv_rows(self, tmp_path):
        grid = make_grid(2, 32, TWO_PI)
        params = SemigroupParams(lam=1.0, grid=grid)
        bump = spectral_bump(grid, width=0.5).astype(complex)
        rep = verify_decay(bump, 2.0, 2.0, 2.0, default_decay_times(grid, 1.0), params)
        path = tmp_path / "decay.csv"
        _write_decay_series(path, rep)
        rows = path.read_text().splitlines()
        assert rows[0] == "t,norm,compensated_ratio"
        assert len(rows) == len(rep.t_samples) + 1
        assert rows[1] == ",".join(map(float_repr, (rep.t_samples[0], rep.norms[0],
                                                    rep.ratio_series[0])))


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so its calls are counted; returns the counter."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# the four laws the runner's semigroup_decay check tests, (p_tilde, gradient)
RUNNER_CASES = [(2.0, False), (4.0, False), (2.0, True), (4.0, True)]


class TestVerifyDecays:
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_time_rejected_before_any_norm(self, monkeypatch, bad):
        params, bump, times = decay_datum(1.0, make_grid(2, 16, TWO_PI))
        norms = _count_calls(monkeypatch, semigroup, "morrey_norm")
        times = times.copy()
        times[3] = bad
        with pytest.raises(ValueError, match="t_list"):
            verify_decay(bump, 2.0, 4.0, 2.0, times, params)
        with pytest.raises(ValueError, match="t_list"):
            verify_decays(bump, 2.0, RUNNER_CASES, 2.0, times, params)
        assert norms == []

    @pytest.mark.parametrize("where", [0, 3])
    def test_bad_exponent_in_any_case_rejected_before_any_norm(self, monkeypatch, where):
        params, bump, times = decay_datum(1.0, make_grid(2, 16, TWO_PI))
        norms = _count_calls(monkeypatch, semigroup, "morrey_norm")
        cases = list(RUNNER_CASES)
        cases[where] = (8.0, cases[where][1])  # above p(n+1) = 6
        with pytest.raises(ValueError, match="p_tilde"):
            verify_decays(bump, 2.0, cases, 2.0, times, params)
        assert norms == []

    def test_no_case_rejected(self):
        params, bump, times = decay_datum(1.0, make_grid(2, 16, TWO_PI))
        with pytest.raises(ValueError, match="case"):
            verify_decays(bump, 2.0, [], 2.0, times, params)

    def test_equal_to_one_call_per_case(self):
        params, bump, times = decay_datum(1.0)
        shared = verify_decays(bump, 2.0, RUNNER_CASES, 2.0, times, params)
        assert len(shared) == len(RUNNER_CASES)
        for rep, (p_tilde, grad) in zip(shared, RUNNER_CASES):
            alone = verify_decay(bump, 2.0, p_tilde, 2.0, times, params, gradient_norm=grad)
            for name in alone.__dataclass_fields__:
                a, b = getattr(rep, name), getattr(alone, name)
                if isinstance(a, np.ndarray):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
                else:
                    assert type(a) is type(b) and a == b, name

    def test_runner_check_evolves_each_time_once(self, monkeypatch, tmp_path):
        applies = _count_calls(monkeypatch, semigroup, "apply_semigroup")
        norms = _count_calls(monkeypatch, semigroup, "morrey_norm")
        cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "smoke.cfg")
        outcome = _check_semigroup_decay(_Run(cfg), tmp_path)
        assert outcome.status == "PASS"
        # one S(t)f per sample time; one base norm, then one norm per law and time
        assert len(applies) == DECAY_NUM_T == 13
        assert len(norms) == 1 + len(RUNNER_CASES) * DECAY_NUM_T == 53


class TestDuhamel:
    def test_zero_forcing(self, params_1d):
        out = duhamel_integral(lambda s: np.zeros(16, dtype=complex), 0.5, 8, params_1d)
        assert np.abs(out).max() == 0.0

    def test_constant_forcing_closed_form(self, params_1d):
        # per-mode ODE: int_0^t e^{(i-1)(t-s)} ds = (1 - e^{(i-1)t}) / (1 - i)
        g = params_1d.grid
        x = g.coordinates()[0]
        F = np.exp(1j * x)
        t = 0.5
        out = duhamel_integral(lambda s: F, t, 64, params_1d)
        exact = F * (1.0 - np.exp((1j - 1.0) * t)) / (1.0 - 1j)
        rel = np.abs(out - exact).max() / np.abs(exact).max()
        assert rel < 1e-4

    def test_second_order_convergence(self, params_1d):
        g = params_1d.grid
        x = g.coordinates()[0]

        def forcing(s):
            return np.cos(3.0 * s) * np.exp(1j * x) + np.sin(s) * np.exp(2j * x)

        ref = duhamel_integral(forcing, 0.5, 1024, params_1d)
        err32 = np.abs(duhamel_integral(forcing, 0.5, 32, params_1d) - ref).max()
        err64 = np.abs(duhamel_integral(forcing, 0.5, 64, params_1d) - ref).max()
        assert err32 / err64 >= 3.5

    def test_validation(self, params_1d):
        with pytest.raises(ValueError):
            duhamel_integral(lambda s: np.zeros(16, dtype=complex), 0.5, 0, params_1d)
        with pytest.raises(ValueError):
            duhamel_integral(lambda s: np.zeros(16, dtype=complex), -0.5, 4, params_1d)
