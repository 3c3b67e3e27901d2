import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.array_utils import byte_bounds

from llglab import morrey
from llglab.fields import Trajectory, gradient, make_grid
from llglab.initial_data import spectral_bump
from llglab.morrey import BallLattice, ball_lattice, morrey_norm, xpt_norm

from oracles import brute_force_morrey, recompute_witness, reference_morrey_norm

TWO_PI = 2.0 * np.pi


def random_field(grid, seed):
    return np.random.default_rng(seed).standard_normal(grid.shape)


class TestBallLattice:
    def test_radii_are_dyadic_and_capped(self):
        g = make_grid(2, 32, TWO_PI)
        lat = ball_lattice(g)
        radii = np.asarray(lat.radii)
        assert radii[0] == g.h
        assert np.all(radii[1:] == 2.0 * radii[:-1])
        assert radii[-1] <= g.length / 2 * (1 + 1e-12)
        assert BallLattice(grid=g, stride=3).radii == lat.radii

    def test_default_stride_switches_at_64(self):
        assert ball_lattice(make_grid(1, 32, TWO_PI)).stride == 1
        assert ball_lattice(make_grid(1, 64, TWO_PI)).stride == 2

    @pytest.mark.parametrize("stride", [2.5, 2.0, True, "2"])
    def test_non_integer_stride_rejected(self, stride):
        # 2.5 used to raise TypeError and True passed for a stride of 1
        g = make_grid(2, 16, TWO_PI)
        ball_lattice(g, stride=1)  # a cached stride-1 lattice must not answer for True
        with pytest.raises(ValueError, match="stride must be an integer"):
            ball_lattice(g, stride=stride)

    @pytest.mark.parametrize("stride,message", [
        (2.5, "must be an integer"), (True, "must be an integer"),
        (-1, "must be >= 1"), (0, "must be >= 1")])
    def test_bad_stride_rejected_at_construction(self, stride, message):
        # a lattice built directly used to keep any stride, which then did
        # not describe its centers
        with pytest.raises(ValueError, match=f"stride {message}"):
            BallLattice(grid=make_grid(1, 8, TWO_PI), stride=stride)

    def test_no_centers_means_the_strided_sub_lattice(self):
        g = make_grid(2, 16, TWO_PI)
        lat = BallLattice(grid=g, stride=np.int64(5))
        assert lat.centers == tuple((i, j) for i in (0, 5, 10, 15) for j in (0, 5, 10, 15))
        assert type(lat.stride) is int

    def test_centers_are_not_an_argument(self):
        # centers are derived from stride and radii from the grid,
        # so no given set can disagree with them
        with pytest.raises(TypeError, match="centers"):
            BallLattice(grid=make_grid(1, 8, TWO_PI), centers=((0,),), stride=5)
        # a given radius could pass L/2, where a torus ball is not a ball
        with pytest.raises(TypeError, match="radii"):
            BallLattice(grid=make_grid(1, 8, TWO_PI), radii=(TWO_PI, 2 * TWO_PI))

    def test_numpy_integer_stride_accepted(self):
        lat = ball_lattice(make_grid(2, 16, TWO_PI), stride=np.int64(3))
        assert lat == ball_lattice(make_grid(2, 16, TWO_PI), stride=3)
        assert type(lat.stride) is int

    def test_default_lattice_built_once_per_grid(self):
        g = make_grid(2, 16, TWO_PI)
        lat = ball_lattice(g)
        assert lat.grid == g
        assert ball_lattice(make_grid(2, 16, TWO_PI)) is lat

    @pytest.mark.parametrize("other", [(2, 32, TWO_PI), (2, 64, 10.0), (1, 64, TWO_PI)],
                             ids=["other_n", "other_length", "other_dim"])
    def test_lattice_of_another_grid_rejected(self, other):
        g = make_grid(2, 64, TWO_PI)
        lat = ball_lattice(make_grid(*other))
        with pytest.raises(ValueError, match="lattice belongs to"):
            morrey_norm(g, np.ones(g.shape), 2.0, 2.0, lat)


class TestMorreyNorm:
    def test_zero_field(self):
        g = make_grid(2, 16, TWO_PI)
        for p, q in ((1.0, 0.0), (2.0, 2.0), (3.0, 1.0)):
            assert morrey_norm(g, np.zeros(g.shape), p, q).value == 0.0

    def test_constant_field_matches_brute_force(self):
        g = make_grid(2, 32, TWO_PI)
        f = np.ones(g.shape)
        lat = ball_lattice(g, stride=1)
        mine = morrey_norm(g, f, 2.0, 2.0, lat)
        assert mine.value == brute_force_morrey(g, f, 2.0, 2.0)

    def test_spike_maximized_at_smallest_radius(self):
        # q < n makes the weight favor small radii, so the tightest ball
        # containing the spike wins
        g = make_grid(2, 16, TWO_PI)
        f = np.zeros(g.shape)
        f[5, 11] = 1.0 / g.cell_volume
        rep = morrey_norm(g, f, 2.0, 1.0, ball_lattice(g, stride=1))
        assert rep.witness_radius == g.h
        assert rep.value == brute_force_morrey(g, f, 2.0, 1.0)

    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 8)])
    def test_stride1_equals_brute_force(self, dim, n):
        g = make_grid(dim, n, TWO_PI)
        f = random_field(g, seed=dim * 10 + n)
        lat = ball_lattice(g, stride=1)
        assert morrey_norm(g, f, 2.0, 1.0, lat).value == brute_force_morrey(g, f, 2.0, 1.0)

    @given(alpha=st.floats(0.1, 50.0))
    def test_homogeneity(self, alpha):
        g = make_grid(1, 16, TWO_PI)
        f = random_field(g, seed=5)
        base = morrey_norm(g, f, 2.0, 1.0).value
        scaled = morrey_norm(g, alpha * f, 2.0, 1.0).value
        assert scaled == pytest.approx(alpha * base, rel=1e-12)

    @given(seed=st.integers(0, 1000))
    def test_monotone_in_lattice(self, seed):
        g = make_grid(1, 16, TWO_PI)
        f = random_field(g, seed)
        full = ball_lattice(g, stride=1)
        small = ball_lattice(g, stride=3)
        assert (morrey_norm(g, f, 2.0, 1.0, small).value
                <= morrey_norm(g, f, 2.0, 1.0, full).value)

    @given(seed=st.integers(0, 1000))
    def test_holder_consistency(self, seed):
        # ||f||_{p1,q} <= C ||f||_{p2,q} with C from discrete ball volumes
        g = make_grid(2, 16, TWO_PI)
        f = random_field(g, seed)
        lat = ball_lattice(g, stride=1)
        p1, p2, q = 2.0, 4.0, 2.0
        n1 = morrey_norm(g, f, p1, q, lat).value
        n2 = morrey_norm(g, f, p2, q, lat).value
        d2 = g.wrapped_dist2
        c = max(
            (r ** (q - g.dim) * (d2 <= r * r).sum() * g.cell_volume)
            ** (1.0 / p1 - 1.0 / p2)
            for r in lat.radii
        )
        assert n1 <= c * n2 * (1 + 1e-12)

    def test_witness_recomputable(self):
        g = make_grid(2, 16, TWO_PI)
        f = random_field(g, seed=9)
        rep = morrey_norm(g, f, 3.0, 1.5)
        assert recompute_witness(g, f, rep) == rep.value

    def test_validation(self):
        g = make_grid(2, 16, TWO_PI)
        f = np.zeros(g.shape)
        with pytest.raises(ValueError):
            morrey_norm(g, f, 0.5, 1.0)
        with pytest.raises(ValueError):
            morrey_norm(g, f, 2.0, -0.1)
        with pytest.raises(ValueError):
            morrey_norm(g, f, 2.0, 3.0)

    def test_q2_allowed_in_one_dimension(self):
        # torus radii are capped, so the q > n weight stays finite
        g = make_grid(1, 16, TWO_PI)
        val = morrey_norm(g, np.ones(g.shape), 2.0, 2.0).value
        assert val == brute_force_morrey(g, np.ones(g.shape), 2.0, 2.0)

    @pytest.mark.parametrize("where", ["everywhere", "one_point"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_rejected(self, where, bad):
        g = make_grid(2, 16, TWO_PI)
        f = np.ones(g.shape)
        if where == "everywhere":
            f[...] = bad
        else:
            f[3, 4] = bad
        with pytest.raises(ValueError, match="not finite"):
            morrey_norm(g, f, 2.0, 2.0)


def _report_tuple(rep):
    return rep.value, rep.witness_center, rep.witness_radius


class TestBatchedEngine:
    """morrey_norm against the per-(center, radius) reference loop, with ==."""

    @settings(max_examples=40)
    @given(dim=st.integers(1, 3), n=st.sampled_from([8, 16, 32]),
           stride=st.integers(1, 3),
           p=st.sampled_from([1.0, 2.0, 3.2]), q=st.sampled_from([0.0, 1.0, 2.0]),
           field=st.sampled_from(["scalar", "complex_stack", "constant"]),
           seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_reference_loop(self, dim, n, stride, p, q, field, seed):
        if dim == 3:
            n = 8
        g = make_grid(dim, n, TWO_PI)
        lat = ball_lattice(g, stride=stride)
        rng = np.random.default_rng(seed)
        if field == "scalar":
            f = rng.standard_normal(g.shape)
        elif field == "complex_stack":
            f = (rng.standard_normal((2,) + g.shape)
                 + 1j * rng.standard_normal((2,) + g.shape))
        else:  # every ball of one radius ties; the first center must win
            f = np.full(g.shape, 0.3)
        assert (_report_tuple(morrey_norm(g, f, p, q, lat))
                == reference_morrey_norm(g, f, p, q, lat))

    def test_winner_value_from_scalar_pow(self):
        # vectorised np.power differs from scalar pow in the last bit for some
        # inputs on SIMD builds (on an AVX-512 build, at 12 of these 200 maxima)
        g = make_grid(1, 32, TWO_PI)
        lat = ball_lattice(g, stride=1)
        for seed in range(200):
            f = random_field(g, seed)
            assert (_report_tuple(morrey_norm(g, f, 3.2, 1.0, lat))
                    == reference_morrey_norm(g, f, 3.2, 1.0, lat)), seed

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.2, 7.0])
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_float32_winner_bitwise_equal_to_reference_loop(self, dim, n, p):
        # a float32 field's norm is the norm of its values in float64
        g = make_grid(dim, n, TWO_PI)
        lat = ball_lattice(g, stride=1)
        rng = np.random.default_rng(dim * n)
        fields = {"gaussian": rng.standard_normal(g.shape),
                  "lognormal": np.exp(2.0 * rng.standard_normal(g.shape))}
        for name, f in fields.items():
            f = f.astype(np.float32)
            for q in (0.0, 1.0, 2.0):
                assert (_report_tuple(morrey_norm(g, f, p, q, lat))
                        == reference_morrey_norm(g, f.astype(np.float64), p, q, lat)), (name, q)

    @pytest.mark.parametrize("dim,n,stride", [(1, 32, 1), (2, 16, 1), (2, 32, 3), (3, 8, 1)])
    def test_uncached_chunk_path_identical(self, monkeypatch, dim, n, stride):
        g = make_grid(dim, n, TWO_PI)
        lat = ball_lattice(g, stride=stride)
        f = random_field(g, seed=dim * n + stride)
        cached = [_report_tuple(morrey_norm(g, f, p, 1.0, lat)) for p in (1.0, 2.0, 3.2)]
        monkeypatch.setattr(morrey, "_rank_cache", {})
        # chunks of 3 centers (or 1 for wide fields) leave a ragged last chunk
        monkeypatch.setattr(morrey, "_CHUNK_ELEMS", 3 * g.num_points)
        uncached = [_report_tuple(morrey_norm(g, f, p, 1.0, lat)) for p in (1.0, 2.0, 3.2)]
        assert morrey._rank_cache["key"] == lat
        assert uncached == cached
        assert uncached[1] == reference_morrey_norm(g, f, 2.0, 1.0, lat)


class TestHybridTables:
    """FFT screen plus exact ball-window sums against the reference loop, with ==.

    The ``case`` ids pick a lattice and cache state: "every" a coarser
    stride on the same grid, "some" the full lattice on an empty cache, and
    "none" the full lattice right after the coarse one filled the cache, so
    its tables are rebuilt for the new key."""

    LATTICES = {1: (32, 3), 2: (16, 3), 3: (8, 1)}  # dim: n, stride (the coarse one doubles it)

    def _lattices(self, dim):
        n, stride = self.LATTICES[dim]
        g = make_grid(dim, n, TWO_PI)
        return g, [ball_lattice(g, stride=2 * stride), ball_lattice(g, stride=stride)]

    @pytest.mark.parametrize("chunk", ["default", "ragged"])
    @pytest.mark.parametrize("case", ["every", "some", "none"])
    @pytest.mark.parametrize("field", ["random", "constant"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bitwise_equal_to_reference_loop(self, monkeypatch, dim, field, case, chunk):
        g, (coarse, full) = self._lattices(dim)
        monkeypatch.setattr(morrey, "_rank_cache", {})
        if chunk == "ragged":  # a constant field's shortlist ends on a short chunk
            monkeypatch.setattr(morrey, "_CHUNK_ELEMS", 5 * g.num_points + 1)
            assert coarse.n_centers % 5 and full.n_centers % 5
        if field == "random":
            f = random_field(g, seed=7 * dim)
        else:  # every ball of one radius ties; the first center must win
            f = np.full((2,) + g.shape, 0.3)
        lat = coarse if case == "every" else full
        if case == "none":
            morrey_norm(g, f, 2.0, 2.0, coarse)
            assert morrey._rank_cache["key"] == coarse
        for p, q in ((1.0, 0.0), (2.0, 2.0), (3.2, 1.0)):
            assert (_report_tuple(morrey_norm(g, f, p, q, lat))
                    == reference_morrey_norm(g, f, p, q, lat)), (p, q)
        assert morrey._rank_cache["key"] == lat

    def test_ball_windows_hold_each_ball_in_raster_order(self, monkeypatch):
        # each shortlisted ball's mask is a window of its radius's tiled indicator
        monkeypatch.setattr(morrey, "_rank_cache", {})
        g, (lat, _) = self._lattices(2)
        tables = morrey._tables(lat)
        for center, start in zip(lat.centers, tables["starts"].T):
            rolled = np.roll(g.wrapped_dist2, shift=center, axis=(0, 1))
            for j, r in enumerate(lat.radii):
                assert np.array_equal(tables["windows"][(j, *start)], rolled <= r * r)

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (2, 64), (3, 16)])
    def test_default_lattice_tables_fit_the_budget(self, monkeypatch, dim, n):
        # the exact-sum tables (every cached array but the screen's spectra,
        # center indices and ball sizes) span under 256 KiB of memory, views
        # counted by the buffer they span; a rank table of one byte per
        # (center, point) took 1-16 MiB on these lattices
        monkeypatch.setattr(morrey, "_rank_cache", {})
        g = make_grid(dim, n, TWO_PI)
        f = random_field(g, seed=n)
        rep = morrey_norm(g, f, 2.0, 2.0)
        assert recompute_witness(g, f, rep) == rep.value
        tables = morrey._rank_cache
        spans = {k: byte_bounds(v)[1] - byte_bounds(v)[0] for k, v in tables.items()
                 if isinstance(v, np.ndarray) and k not in ("spectra", "flat", "counts")}
        assert sum(spans.values()) < 256 * 1024
        assert spans["windows"] == len(rep.lattice.radii) * (2 * n) ** dim
        assert tables["spectra"].shape == (len(rep.lattice.radii),) + g.shape[:-1] + (n // 2 + 1,)
        assert [int(k) for k in tables["counts"]] == [
            int(np.count_nonzero(g.wrapped_dist2 <= r * r)) for r in rep.lattice.radii]


def _margin_fields(grid, rng):
    """Positive test fields of very different dynamic range, by name."""
    spike = np.zeros(grid.shape)
    spike[(grid.n // 3,) * grid.dim] = 1.0
    x = grid.coordinates()[0]
    return {
        "gaussian": rng.standard_normal(grid.shape),
        "spike_on_floor": spike + 1e-8,
        "lognormal": np.exp(3.0 * rng.standard_normal(grid.shape)),
        "sparse": 1e5 * rng.random(grid.shape) * (rng.random(grid.shape) < 0.05),
        "smooth_plus_spike": 2.0 + np.cos(x) + 50.0 * spike,
    }


class TestScreen:
    """The FFT screen's error bound, its ties, and how much it prunes."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 8)])
    def test_fft_sums_within_half_the_bound(self, monkeypatch, dim, n, stride):
        monkeypatch.setattr(morrey, "_rank_cache", {})
        g = make_grid(dim, n, TWO_PI)
        tables = morrey._tables(ball_lattice(g, stride=stride))
        n_radii = len(tables["key"].radii)
        rows, cols = np.divmod(np.arange(tables["key"].n_centers * n_radii), n_radii)
        rng = np.random.default_rng(dim * n + stride)
        worst = 0.0
        for name, f in _margin_fields(g, rng).items():
            for p in (1.0, 2.0, 3.2, 7.0):
                magp = np.abs(f) ** p
                approx, err = morrey._screen(tables, magp)
                exact = morrey._exact_sums(tables, magp.ravel(), rows, cols)
                exact = exact.reshape(-1, n_radii)  # every ball, center-major
                ratio = np.max(np.abs(approx - exact) / err)
                assert ratio <= 0.5, (name, p, ratio)
                worst = max(worst, ratio)
        assert worst > 0.0

    @pytest.mark.parametrize("field", ["zero", "constant", "x_only"])
    @pytest.mark.parametrize("dim,n,stride", [(2, 16, 1), (2, 32, 2), (3, 8, 1)])
    def test_bitwise_ties_keep_the_first_witness(self, dim, n, stride, field):
        g = make_grid(dim, n, TWO_PI)
        lat = ball_lattice(g, stride=stride)
        f = {"zero": np.zeros(g.shape), "constant": np.full(g.shape, 0.7),
             "x_only": np.cos(3.0 * g.coordinates()[0]) + 0.25}[field]
        for p, q in ((1.0, 0.0), (2.0, 2.0), (7.0, 1.0)):
            rep = morrey_norm(g, f, p, q, lat)
            assert _report_tuple(rep) == reference_morrey_norm(g, f, p, q, lat), (p, q)
            assert rep.exact_sums >= n // stride  # every tied center is summed

    def test_smooth_field_prunes_and_constant_field_sums_every_center(self):
        g = make_grid(2, 64, TWO_PI)
        lat = ball_lattice(g)
        assert lat.stride == 2
        bump = morrey_norm(g, spectral_bump(g, 1.0), 2.0, 2.0)
        assert 1 <= bump.exact_sums < lat.n_centers
        # q = n: the weight is flat, so the largest radius wins at every center
        assert morrey_norm(g, np.ones(g.shape), 2.0, 2.0).exact_sums == lat.n_centers


class TestTrajectoryNorms:
    def test_zero_trajectory(self):
        g = make_grid(2, 16, TWO_PI)
        times = np.linspace(0.0, 1.0, 4)
        traj = Trajectory(times, [np.zeros((2,) + g.shape, dtype=complex)] * 4)
        rep = xpt_norm(g, traj, 3.2)
        assert (rep.r1, rep.r2, rep.r3) == (0.0, 0.0, 0.0)

    def test_single_time_unit_powers(self):
        g = make_grid(2, 16, TWO_PI)
        x, _ = g.coordinates()
        u = np.zeros((2,) + g.shape, dtype=complex)
        u[0] = 0.3 * np.exp(1j * x)
        traj = Trajectory(np.array([1.0]), [u])
        lat = ball_lattice(g, stride=1)
        rep = xpt_norm(g, traj, 3.2)
        assert rep.r1 == pytest.approx(morrey_norm(g, u, 3.2, 2.0, lat).value, rel=1e-14)
        assert rep.r2 == pytest.approx(
            morrey_norm(g, gradient(g, u), 2.0, 2.0, lat).value, rel=1e-14)
        assert rep.r3 == pytest.approx(morrey_norm(g, u, 2.0, 2.0, lat).value, rel=1e-14)
        assert rep.total == rep.r1 + rep.r2 + rep.r3

    def test_components_equal_the_field_norms_bitwise(self):
        # each sample's |u| is taken once and serves both of its norms
        g = make_grid(2, 16, TWO_PI)
        rng = np.random.default_rng(11)
        u = rng.standard_normal((2,) + g.shape) + 1j * rng.standard_normal((2,) + g.shape)
        t, p = 0.5, 3.2
        rep = xpt_norm(g, Trajectory(np.array([t]), [u]), p)
        assert rep.r1 == t ** (0.5 - 1.0 / p) * morrey_norm(g, u, p, 2.0).value
        assert rep.r2 == np.sqrt(t) * morrey_norm(g, gradient(g, u), 2.0, 2.0).value
        assert rep.r3 == morrey_norm(g, u, 2.0, 2.0).value

    def test_validation(self):
        g = make_grid(2, 16, TWO_PI)
        traj = Trajectory(np.array([0.0]), [np.zeros((2,) + g.shape, dtype=complex)])
        with pytest.raises(ValueError):
            xpt_norm(g, traj, 2.0)
