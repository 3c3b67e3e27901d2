import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llglab import cgl, fields, initial_data, morrey
from llglab.fields import (
    SpinField,
    Trajectory,
    Workspace,
    _apply_multiplier,
    _cross,
    _forward,
    _inverse,
    as_complex_components,
    derivative,
    divergence,
    gradient,
    inverse_laplacian_divergence,
    l2_norm,
    laplacian,
    load_snapshot,
    make_grid,
    pointwise_magnitude,
    save_snapshot,
)
from llglab.morrey import ball_lattice, morrey_norm
from llglab.semigroup import SemigroupParams, apply_grad_semigroup, apply_semigroup
from oracles import nd_forward, nd_inverse, nd_spectral_operators

TWO_PI = 2.0 * np.pi


def band_limited(grid, seed, max_mode=None, complex_field=False):
    rng = np.random.default_rng(seed)
    if max_mode is None:
        max_mode = grid.n // 4
    coeffs = np.zeros(grid.shape, dtype=complex)
    modes = np.fft.fftfreq(grid.n, d=1.0 / grid.n).astype(int)
    keep = np.abs(modes) <= max_mode
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dim):
        mask = mask & grid.axis_table(ax, keep)
    coeffs[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    out = np.fft.ifftn(coeffs, axes=grid.axes)
    return out if complex_field else out.real


class TestGrid:
    def test_wavenumbers_and_spacing(self):
        g = make_grid(1, 16, TWO_PI)
        assert sorted(np.round(g.wavenumbers).astype(int)) == list(range(-8, 8))
        assert g.h == pytest.approx(np.pi / 8, rel=1e-15)

    def test_2d_grid_k_range(self):
        g = make_grid(2, 32, 1.0)
        assert g.num_points == 1024
        assert g.wavenumbers.min() == pytest.approx(-32 * np.pi)
        assert g.wavenumbers.max() == pytest.approx(30 * np.pi)

    def test_3d_accepted_and_bad_sizes_rejected(self):
        make_grid(3, 8, TWO_PI)
        with pytest.raises(ValueError):
            make_grid(3, 7, TWO_PI)
        with pytest.raises(ValueError):
            make_grid(1, 4, TWO_PI)
        with pytest.raises(ValueError):
            make_grid(1, 24, TWO_PI)
        with pytest.raises(ValueError):
            make_grid(4, 16, TWO_PI)
        with pytest.raises(ValueError):
            make_grid(2, 16, -1.0)

    @pytest.mark.parametrize("name,args", [
        ("dim", (2.0, 16)), ("dim", (True, 16)), ("dim", ("2", 16)),
        ("n", (2, 16.0)), ("n", (1, True)), ("n", (2, None))])
    def test_non_integer_sizes_rejected(self, name, args):
        # 2.0 used to give Grid(dim=2.0, ...) and 16.0 a TypeError
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            make_grid(*args, TWO_PI)

    def test_numpy_integer_sizes_accepted(self):
        g = make_grid(np.int64(2), np.int32(16), TWO_PI)
        assert g == make_grid(2, 16, TWO_PI)
        assert type(g.dim) is int and type(g.n) is int


class TestDerivatives:
    def test_sin_to_cos(self):
        g = make_grid(1, 64, TWO_PI)
        x = g.coordinates()[0]
        assert np.abs(derivative(g, np.sin(x), 0, 1) - np.cos(x)).max() < 1e-12

    def test_constant_derivative_zero(self):
        g = make_grid(2, 16, TWO_PI)
        f = np.full(g.shape, 3.7)
        for axis in range(2):
            for order in (1, 2):
                assert np.abs(derivative(g, f, axis, order)).max() < 1e-13

    def test_fourier_eigenfunction_second_derivative(self):
        g = make_grid(1, 64, TWO_PI)
        x = g.coordinates()[0]
        f = np.exp(2j * x)
        assert np.abs(derivative(g, f, 0, 2) + 4.0 * f).max() < 1e-12

    def test_laplacian_analytic(self):
        g = make_grid(2, 32, TWO_PI)
        x, y = g.coordinates()
        f = np.sin(x) + np.cos(y)
        assert np.abs(laplacian(g, f) + f).max() < 1e-12

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 16), (3, 8)])
    def test_laplacian_is_bitwise_the_negated_k_squared_multiplier(self, dim, n):
        # the cached -|k|^2 does the arithmetic of negating grid.k_squared on
        # every call
        g = make_grid(dim, n, TWO_PI)
        rng = np.random.default_rng(dim)
        real = rng.standard_normal((3,) + g.shape)
        for f in (real, real[0], real + 1j * rng.standard_normal(real.shape)):
            new, old = laplacian(g, f), _apply_multiplier(g, f, -g.k_squared)
            assert new.dtype == old.dtype
            assert new.tobytes() == old.tobytes()

    def test_div_grad_equals_laplacian_on_band_limited(self):
        g = make_grid(2, 32, TWO_PI)
        f = band_limited(g, seed=3)
        lhs = divergence(g, gradient(g, f))
        rhs = laplacian(g, f)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    def test_gradient_of_constant_vanishes(self):
        g = make_grid(3, 8, TWO_PI)
        assert np.abs(gradient(g, np.ones(g.shape))).max() < 1e-14

    def test_validation(self):
        g = make_grid(2, 16, TWO_PI)
        f = np.zeros(g.shape)
        with pytest.raises(ValueError):
            derivative(g, f, 2, 1)
        with pytest.raises(ValueError):
            derivative(g, f, 0, 3)


GRIDS_1_TO_3D = [(1, 16), (2, 16), (3, 8)]


def random_field(grid, lead, complex_field, seed):
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(lead + grid.shape)
    if complex_field:
        out = out + 1j * rng.standard_normal(lead + grid.shape)
    return out


class TestBatchedSpectral:
    """One forward transform and one inverse of the whole stack per operator."""

    @pytest.mark.parametrize("dim,n", GRIDS_1_TO_3D)
    @pytest.mark.parametrize("lead", [(), (2,), (3,)])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_gradient_equals_per_axis_stack(self, dim, n, lead, complex_field):
        g = make_grid(dim, n, TWO_PI)
        f = random_field(g, lead, complex_field, seed=dim + len(lead))
        stacked = np.stack([derivative(g, f, ax, 1) for ax in range(dim)])
        out = gradient(g, f)
        assert out.dtype == stacked.dtype
        assert np.array_equal(out, stacked)

    @pytest.mark.parametrize("dim,n", GRIDS_1_TO_3D)
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_divergence_matches_per_axis_sum(self, dim, n, complex_field):
        g = make_grid(dim, n, TWO_PI)
        vec = random_field(g, (dim, 2), complex_field, seed=10 + dim)
        per_axis = sum(derivative(g, vec[ax], ax, 1) for ax in range(dim))
        out = divergence(g, vec)
        assert np.isrealobj(out) == (not complex_field)
        assert np.abs(out - per_axis).max() <= 1e-14 * np.abs(per_axis).max()

    @pytest.mark.parametrize("dim,n", GRIDS_1_TO_3D)
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_batched_poisson_equals_per_rhs_solves(self, dim, n, complex_field):
        g = make_grid(dim, n, TWO_PI)
        vec = random_field(g, (dim, 3), complex_field, seed=20 + dim)
        phi = inverse_laplacian_divergence(g, vec)
        assert phi.shape == (3,) + g.shape
        assert np.isrealobj(phi) == (not complex_field)
        per_rhs = np.stack([inverse_laplacian_divergence(g, vec[:, j]) for j in range(3)])
        assert np.array_equal(phi, per_rhs)

    @pytest.mark.parametrize("dim,n", GRIDS_1_TO_3D)
    def test_batched_poisson_leaves_no_divergence(self, dim, n):
        g = make_grid(dim, n, TWO_PI)
        vec = random_field(g, (dim, 3), False, seed=30 + dim)
        phi = inverse_laplacian_divergence(g, vec)
        residual = divergence(g, vec + gradient(g, phi))
        assert np.isrealobj(phi)
        assert np.abs(residual).max() <= 1e-14 * np.abs(divergence(g, vec)).max()

    def test_real_poisson_is_real_part_of_complex_solve(self):
        g = make_grid(2, 32, TWO_PI)
        vec = random_field(g, (2,), False, seed=5)
        real = inverse_laplacian_divergence(g, vec)
        cplx = inverse_laplacian_divergence(g, vec.astype(complex))
        assert np.abs(real - cplx.real).max() <= 1e-15 * np.abs(real).max()
        assert np.abs(cplx.imag).max() <= 1e-15 * np.abs(real).max()


# dims 1/2/3 at the sizes the lab runs: the 1-D tests, the bench, 3-D runs
GRIDS_BITWISE = [(1, 32), (2, 64), (3, 16)]
VECTOR_INPUT = {"divergence", "inverse_laplacian_divergence"}
# the operators that take ``work=``; of them, only the last takes ``out=``
WORKSPACE_OPERATORS = {"gradient": gradient, "divergence": divergence,
                       "inverse_laplacian_divergence": inverse_laplacian_divergence}
OUT_OPERATORS = {"inverse_laplacian_divergence"}


def library_operators(grid):
    """The library side of ``oracles.nd_spectral_operators``, by the same names."""
    params = SemigroupParams(lam=0.5, grid=grid)
    return {
        "derivative_1": lambda v: derivative(grid, v, 0, 1),
        "derivative_2": lambda v: derivative(grid, v, 0, 2),
        "laplacian": lambda v: laplacian(grid, v),
        "gradient": lambda v: gradient(grid, v),
        "divergence": lambda v: divergence(grid, v),
        "inverse_laplacian_divergence": lambda v: inverse_laplacian_divergence(grid, v),
        "apply_semigroup": lambda v: apply_semigroup(v, 0.01, params),
        "apply_grad_semigroup": lambda v: apply_grad_semigroup(v, 0.01, params),
    }


def read_only_strided(values):
    """The same values as a read-only view with a stride of 2 on the last axis."""
    big = np.zeros(values.shape[:-1] + (2 * values.shape[-1],), values.dtype)
    big[..., ::2] = values
    big.flags.writeable = False
    view = big[..., ::2]
    assert not view.flags.c_contiguous
    return view


def assert_same_bytes(out, ref, what):
    assert (out.dtype, out.shape) == (ref.dtype, ref.shape), what
    assert out.tobytes() == ref.tobytes(), what


class TestTransformPasses:
    """fields' transforms are numpy's 1-D passes in the order of its n-d
    wrappers: they, and every operator built on them, give the bytes of the
    literal rfftn/irfftn/fftn/ifftn formulas, and no operator writes to its
    input."""

    @pytest.mark.parametrize("dim,n", GRIDS_BITWISE)
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_helpers_are_the_nd_wrappers(self, dim, n, lead, complex_field):
        g = make_grid(dim, n, TWO_PI)
        f = random_field(g, lead, complex_field, seed=40 + dim + len(lead))
        kept = f.copy()
        for values in (f, read_only_strided(f)):
            spec, real_in = _forward(g, values)
            ref, ref_real_in = nd_forward(g, values)
            assert real_in == ref_real_in == (not complex_field)
            assert_same_bytes(spec, ref, "forward")
            out = np.empty_like(spec)
            assert _forward(g, values, out=out)[0] is out
            assert_same_bytes(out, ref, "forward into out")
            inv = nd_inverse(g, ref, real_in)
            out = np.empty_like(inv)
            assert _inverse(g, spec.copy(), real_in, out=out) is out
            assert_same_bytes(out, inv, "inverse into out")
            assert_same_bytes(_inverse(g, spec, real_in), inv, "inverse")
        assert_same_bytes(f, kept, "forward wrote to its input")
        if complex_field:  # a complex spectrum may overwrite its own input
            spec, _ = _forward(g, kept, out=kept)
            assert_same_bytes(spec, nd_forward(g, f)[0], "forward in place")

    @pytest.mark.parametrize("dim,n", GRIDS_BITWISE)
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_operators_are_the_nd_formulas(self, dim, n, lead, complex_field):
        g = make_grid(dim, n, TWO_PI)
        literal = nd_spectral_operators(g)
        f = random_field(g, lead, complex_field, seed=50 + dim + len(lead))
        vec = random_field(g, (dim,) + lead, complex_field, seed=60 + dim + len(lead))
        inputs = [(f, vec)]
        if not complex_field:
            # a float32 spectrum is complex64, yet every result is float64
            # (complex128 for S(t)): the multiplier products are out of place
            inputs.append((f.astype(np.float32), vec.astype(np.float32)))
        for f, vec in inputs:
            self.check_operators(g, literal, f, vec)

    @staticmethod
    def check_operators(g, literal, f, vec):
        for name, op in library_operators(g).items():
            values = vec if name in VECTOR_INPUT else f
            kept = values.copy()
            ref = literal[name](kept)
            assert_same_bytes(op(values), ref, name)
            assert_same_bytes(values, kept, f"{name} wrote to its input")
            assert_same_bytes(op(read_only_strided(values)), ref, f"{name}, strided input")
        work = Workspace()
        for name, op in WORKSPACE_OPERATORS.items():
            values = vec if name in VECTOR_INPUT else f
            ref = literal[name](values.copy())
            for _ in range(2):  # the second pass runs in the sized buffer
                with work.scope():
                    assert_same_bytes(op(g, values, work=work), ref, f"{name}, in work")
                    if name in OUT_OPERATORS:
                        out = np.empty_like(ref)
                        assert op(g, values, out=out, work=work) is out
                        assert_same_bytes(out, ref, f"{name}, into out")

    def test_every_transform_site_gives_the_nd_bytes(self, monkeypatch):
        """The Duhamel sweep, the ball-norm screen, the semigroup and the
        initial-data generators give the same bytes with ``_forward`` and
        ``_inverse`` swapped for the n-d wrappers, which never consume their
        input: no site reads a spectrum that its inverse consumed.  Every
        ``llglab`` binding of the two is swapped, found by identity as the
        bench's tracer finds the functions it wraps."""
        g = make_grid(2, 32, TWO_PI)
        params = SemigroupParams(lam=0.5, grid=g)
        rng = np.random.default_rng(7)
        u_old = [0.1 * (rng.standard_normal((2,) + g.shape)
                        + 1j * rng.standard_normal((2,) + g.shape)) for _ in range(4)]
        times = np.linspace(0.0, 0.03, 4)

        def outputs():
            monkeypatch.setattr(morrey, "_rank_cache", {})
            tables = morrey._tables(ball_lattice(g))
            raw = initial_data.rough_raw_field(g, 0.3, (0.0, 0.0, 1.0), seed=3)
            return [*cgl._Rule(g, cgl.CglConfig(lam=0.5, duhamel_substeps=3), times, u_old[0])
                    .integrals(u_old),
                    *morrey._screen(tables, np.abs(u_old[1][0]) ** 3.2), tables["spectra"],
                    morrey_norm(g, u_old[2], 3.2, 2.0).value,
                    apply_semigroup(u_old[3], 0.01, params),
                    initial_data.spectral_bump(g, 0.5, center=(3, 5)),
                    initial_data.mollify_and_project(g, raw, 1.0)[0].values,
                    initial_data._random_band_limited(g, np.random.default_rng(1), 3)]

        lean = outputs()
        swaps = ((fields._forward, nd_forward), (fields._inverse, nd_inverse))
        patched = set()
        for key, module in list(sys.modules.items()):
            if module is None or not (key == "llglab" or key.startswith("llglab.")):
                continue
            for attr, value in list(vars(module).items()):
                for original, oracle in swaps:
                    if value is original:
                        monkeypatch.setattr(module, attr, oracle)
                        patched.add(f"{key}.{attr}")
        assert {"llglab.fields._forward", "llglab.fields._inverse"} <= patched
        for i, (out, ref) in enumerate(zip(lean, outputs(), strict=True)):
            assert_same_bytes(np.asarray(out), np.asarray(ref), f"output {i}")


class TestNorms:
    @pytest.mark.parametrize("shape", [(2, 32, 8), (2, 16), (16,), (16, 16, 2)],
                             ids=["swapped_axes", "too_few_axes", "one_axis", "trailing"])
    def test_field_off_the_grid_rejected(self, shape):
        g = make_grid(2, 16, TWO_PI)
        f = np.ones(shape)
        for norm in (pointwise_magnitude, l2_norm):
            with pytest.raises(ValueError, match="grid axes"):
                norm(g, f)
        with pytest.raises(ValueError, match="grid axes"):
            morrey_norm(g, f, 2.0, 2.0)


class TestSpectralProperties:
    @given(seed=st.integers(0, 10_000), dim=st.sampled_from([1, 2]))
    def test_parseval(self, seed, dim):
        g = make_grid(dim, 16, TWO_PI)
        f = band_limited(g, seed, complex_field=True)
        coeffs = np.fft.fftn(f, axes=g.axes)
        phys = (np.abs(f) ** 2).sum() * g.cell_volume
        spec = (np.abs(coeffs) ** 2).sum() * g.cell_volume / g.num_points
        assert phys == pytest.approx(spec, rel=1e-12)

    @given(seed=st.integers(0, 10_000), alpha=st.floats(-5, 5), beta=st.floats(-5, 5))
    def test_linearity(self, seed, alpha, beta):
        g = make_grid(1, 32, TWO_PI)
        f = band_limited(g, seed)
        h = band_limited(g, seed + 1)
        combined = derivative(g, alpha * f + beta * h, 0, 1)
        split = alpha * derivative(g, f, 0, 1) + beta * derivative(g, h, 0, 1)
        scale = max(1.0, np.abs(split).max())
        assert np.abs(combined - split).max() < 1e-12 * scale

    @given(seed=st.integers(0, 10_000))
    def test_round_trip(self, seed):
        g = make_grid(2, 16, TWO_PI)
        f = band_limited(g, seed, complex_field=True)
        back = np.fft.ifftn(np.fft.fftn(f, axes=g.axes), axes=g.axes)
        assert np.abs(back - f).max() < 1e-12 * np.abs(f).max()


class TestSpinField:
    def test_shape_validation(self):
        g = make_grid(1, 16, TWO_PI)
        with pytest.raises(ValueError):
            SpinField.from_values(g, np.zeros((2, 16)))

    def test_renormalization(self):
        g = make_grid(1, 16, TWO_PI)
        raw = np.stack([np.full(g.shape, 2.0), np.zeros(g.shape), np.ones(g.shape)])
        m = SpinField.from_values(g, raw)
        assert m.unit_defect() < 1e-15


    def test_cross_is_bitwise_numpy_cross(self):
        # signed zeros included: components that vanish or flip sign on zero
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 8, 8))
        b = rng.standard_normal((3, 8, 8))
        a[2, ::2] = 0.0
        b[0, 1::2] = -0.0
        b[1] = np.where(a[1] > 0, -0.0, b[1])
        for x, y in ((a, b), (b, a), (a, a)):
            out = _cross(x, y)
            assert out.flags.c_contiguous
            assert out.tobytes() == np.cross(x, y, axis=0).tobytes()


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), [np.zeros(3)])
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), [np.zeros(3), np.zeros(3)])


class TestSnapshots:
    def test_real_round_trip(self, tmp_path):
        g = make_grid(2, 16, TWO_PI)
        values = np.random.default_rng(0).standard_normal((3,) + g.shape)
        path = tmp_path / "field.llgf"
        save_snapshot(path, g, values)
        g2, comps = load_snapshot(path)
        assert (g2.dim, g2.n) == (g.dim, g.n)
        assert g2.length == pytest.approx(g.length, rel=0, abs=0)
        assert comps.shape == (3,) + g.shape
        assert np.array_equal(comps, values)

    def test_complex_round_trip(self, tmp_path):
        g = make_grid(1, 16, TWO_PI)
        u = (np.random.default_rng(1).standard_normal((2, 16))
             + 1j * np.random.default_rng(2).standard_normal((2, 16)))
        path = tmp_path / "u.llgf"
        save_snapshot(path, g, u)
        _, comps = load_snapshot(path)
        assert comps.shape == (4, 16)
        assert np.array_equal(as_complex_components(comps), u)

    @given(dim=st.integers(1, 3), n=st.sampled_from([8, 16]), ncomp=st.integers(1, 3),
           complex_field=st.booleans(), length=st.floats(1e-3, 1e3), seed=st.integers(0, 99))
    def test_round_trip_property(self, dim, n, ncomp, complex_field, length, seed):
        g = make_grid(dim, n, length)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((ncomp,) + g.shape)
        if complex_field:
            values = values + 1j * rng.standard_normal((ncomp,) + g.shape)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.llgf"
            save_snapshot(path, g, values)
            g2, comps = load_snapshot(path)
        assert g2 == g
        assert np.array_equal(as_complex_components(comps) if complex_field else comps, values)

    @settings(max_examples=5)
    @given(dim=st.integers(1, 2), ncomp=st.integers(1, 2), extra=st.binary(min_size=1, max_size=9))
    def test_every_truncation_or_extension_rejected(self, dim, ncomp, extra):
        g = make_grid(dim, 8, TWO_PI)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.llgf"
            save_snapshot(path, g, np.ones((ncomp,) + g.shape))
            raw = path.read_bytes()
            for cut in range(len(raw)):
                path.write_bytes(raw[:cut])
                with pytest.raises(ValueError):
                    load_snapshot(path)
            path.write_bytes(raw + extra)
            with pytest.raises(ValueError, match="payload has"):
                load_snapshot(path)

    @given(fields=st.tuples(st.integers(0, 4), st.integers(0, 2**32 - 1),
                            st.floats(allow_nan=True, allow_infinity=True),
                            st.integers(0, 2**32 - 1)),
           payload=st.binary(max_size=600))
    def test_corrupt_header_raises_value_error(self, fields, payload):
        dim, n, length, ncomp = fields
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.llgf"
            path.write_bytes(struct.pack("<4sIIIdI", b"LLGF", 1, dim, n, length, ncomp)
                             + payload)
            try:
                grid, comps = load_snapshot(path)
            except ValueError:
                return
        assert comps.shape == (ncomp,) + grid.shape
        assert len(payload) == 8 * comps.size

    def test_header_magic(self, tmp_path):
        path = tmp_path / "bad.llgf"
        path.write_bytes(b"NOPE" + bytes(24))
        with pytest.raises(ValueError):
            load_snapshot(path)
        path.write_bytes(b"LLGF")
        with pytest.raises(ValueError):
            load_snapshot(path)

    def test_header_layout(self, tmp_path):
        g = make_grid(1, 8, 1.5)
        path = tmp_path / "h.llgf"
        save_snapshot(path, g, np.zeros(g.shape))
        raw = path.read_bytes()
        assert raw[:4] == b"LLGF"
        version, dim, n = struct.unpack("<III", raw[4:16])
        (length,) = struct.unpack("<d", raw[16:24])
        (ncomp,) = struct.unpack("<I", raw[24:28])
        assert (version, dim, n, ncomp) == (1, 1, 8, 1)
        assert length == 1.5
