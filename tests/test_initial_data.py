import numpy as np
import pytest

from llglab import initial_data
from llglab.fields import SpinField, derivative, make_grid
from llglab.frames import PoleProximity
from llglab.initial_data import (
    InitialDataSpec,
    MollificationTooWeak,
    _mollifier_multiplier,
    generate_initial_data,
    mollify_and_project,
    rough_raw_field,
    spectral_bump,
)
from llglab.morrey import morrey_norm

TWO_PI = 2.0 * np.pi


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            InitialDataSpec(kind="vortex")

    def test_non_unit_background(self):
        with pytest.raises(ValueError):
            InitialDataSpec(kind="constant", m_infinity=(0.0, 0.0, 2.0))

    @pytest.mark.parametrize("kind,values", [
        ("equatorial_wave", {"amplitude": float("nan")}),
        ("bump_chart", {"amplitude": float("inf")}),
        ("bump_chart", {"width": float("nan")}),
        ("bump_chart", {"width": 0.0}),
        ("rough_mollified", {"mollification_k": float("inf")}),
        ("rough_mollified", {"mollification_k": -4.0}),
        ("constant", {"m_infinity": (0.0, 0.0, float("nan"))}),
        # a wave of wavenumber 1.5 is not periodic on the box
        ("equatorial_wave", {"wavenumber": 1.5}),
        ("equatorial_wave", {"wavenumber": True}),
        # no modes, or a negative count, make a constant "rough" datum
        ("rough_mollified", {"roughness_modes": 0}),
        ("rough_mollified", {"roughness_modes": -3}),
        ("rough_mollified", {"roughness_modes": 2.5}),
    ], ids=["nan_amplitude", "inf_amplitude", "nan_width", "zero_width", "inf_k",
            "negative_k", "nan_background", "fractional_wavenumber", "bool_wavenumber",
            "zero_modes", "negative_modes", "fractional_modes"])
    def test_non_finite_or_non_positive_rejected(self, kind, values):
        with pytest.raises(ValueError):
            InitialDataSpec(kind=kind, **values)


class TestGenerators:
    def test_constant(self):
        g = make_grid(2, 16, TWO_PI)
        m = generate_initial_data(InitialDataSpec(kind="constant"), g)
        assert np.abs(m.values[2] - 1.0).max() == 0.0
        assert np.abs(m.values[:2]).max() == 0.0

    def test_equatorial_wave_closed_form(self):
        g = make_grid(1, 64, TWO_PI)
        spec = InitialDataSpec(kind="equatorial_wave", amplitude=0.1, wavenumber=1)
        m = generate_initial_data(spec, g)
        x = g.coordinates()[0]
        assert np.abs(m.values[0] - np.cos(0.1 * np.sin(x))).max() < 1e-15
        assert np.abs(m.values[1] - np.sin(0.1 * np.sin(x))).max() < 1e-15
        assert m.unit_defect() < 1e-15

    def test_bump_chart_admissible(self):
        g = make_grid(2, 32, TWO_PI)
        spec = InitialDataSpec(kind="bump_chart", amplitude=0.4, width=0.6)
        m = generate_initial_data(spec, g)
        assert m.unit_defect() < 1e-14
        assert m.values[2].min() > -0.95

    def test_bump_chart_south_pole_background_rejected(self):
        g = make_grid(2, 16, TWO_PI)
        spec = InitialDataSpec(kind="bump_chart", m_infinity=(0.0, 0.0, -1.0))
        with pytest.raises(PoleProximity):
            generate_initial_data(spec, g)

    def test_rough_mollified_deterministic_in_seed(self):
        g = make_grid(2, 32, TWO_PI)
        spec = InitialDataSpec(kind="rough_mollified", amplitude=0.3,
                               mollification_k=4.0)
        a = generate_initial_data(spec, g, seed=5)
        b = generate_initial_data(spec, g, seed=5)
        c = generate_initial_data(spec, g, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_spectral_bump_positive_normalized(self):
        g = make_grid(2, 32, TWO_PI)
        bump = spectral_bump(g, width=0.4)
        assert bump.max() == pytest.approx(1.0)
        assert bump.min() > -1e-8  # positive up to spectral truncation ringing


class TestGeneratorValidation:
    @pytest.mark.parametrize("width", [float("nan"), float("inf"), 0.0, -0.5])
    def test_spectral_bump_rejects_bad_width(self, width):
        with pytest.raises(ValueError, match="width"):
            spectral_bump(make_grid(2, 16, TWO_PI), width)

    @pytest.mark.parametrize("center", [(3,), (3, 5, 7), ()])
    def test_spectral_bump_rejects_center_of_wrong_length(self, center):
        with pytest.raises(ValueError, match="center"):
            spectral_bump(make_grid(2, 16, TWO_PI), 0.5, center=center)

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), -float("inf")])
    def test_rough_raw_field_rejects_non_finite_amplitude(self, amplitude):
        with pytest.raises(ValueError, match="amplitude"):
            rough_raw_field(make_grid(2, 16, TWO_PI), amplitude, (0, 0, 1), seed=1)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_rough_raw_field_rejects_bad_seed(self, seed):
        # numpy's own message for -1 ("expected non-negative integer") named no argument
        with pytest.raises(ValueError, match="seed"):
            rough_raw_field(make_grid(2, 16, TWO_PI), 0.3, (0, 0, 1), seed=seed)

    @pytest.mark.parametrize("max_mode", [0, -3, 2.5, True])
    def test_rough_raw_field_rejects_bad_max_mode(self, max_mode):
        with pytest.raises(ValueError, match="max_mode"):
            rough_raw_field(make_grid(2, 16, TWO_PI), 0.3, (0, 0, 1), seed=1,
                            max_mode=max_mode)

    def test_rough_raw_field_keeps_its_bytes_for_valid_input(self):
        # one mode is the smallest roughness and a numpy integer passes
        g = make_grid(2, 16, TWO_PI)
        one = rough_raw_field(g, 0.3, (0, 0, 1), seed=1, max_mode=np.int64(1))
        assert np.abs(derivative(g, one.values, 0)).max() > 0
        assert (rough_raw_field(g, 0.3, (0, 0, 1), seed=1, max_mode=5).values.tobytes()
                == rough_raw_field(g, 0.3, (0, 0, 1), seed=1, max_mode=np.int64(5))
                .values.tobytes())


class TestMollify:
    def test_upper_bound_exact_convexity(self):
        g = make_grid(2, 64, TWO_PI)
        raw = rough_raw_field(g, amplitude=0.35, m_infinity=(0, 0, 1), seed=7)
        for k in (2.0, 4.0, 8.0):
            _, rep = mollify_and_project(g, raw, k)
            assert rep.max_modulus <= 1.0 + 1e-12
            assert rep.min_modulus >= 0.75

    def test_gradient_norm_amplification_bounded(self):
        g = make_grid(2, 64, TWO_PI)
        raw = rough_raw_field(g, amplitude=0.35, m_infinity=(0, 0, 1), seed=7)
        for k in (2.0, 4.0, 8.0):
            projected, rep = mollify_and_project(g, raw, k)
            assert rep.amplification <= 8.0
            assert projected.unit_defect() < 1e-14

    def test_non_finite_sample_raises(self):
        # a NaN sample spreads through the smoothing; the shell test must not
        # pass it on to the norms
        g = make_grid(2, 16, TWO_PI)
        values = rough_raw_field(g, amplitude=0.1, m_infinity=(0, 0, 1), seed=1).values.copy()
        values[0, 3, 5] = np.nan
        with pytest.raises(MollificationTooWeak, match="not >= 3/4"):
            mollify_and_project(g, SpinField(g, values), 4.0)

    def test_datum_is_the_projection_without_its_report(self, monkeypatch):
        g = make_grid(2, 32, TWO_PI)
        spec = InitialDataSpec(kind="rough_mollified", amplitude=0.3, mollification_k=4.0)
        raw = rough_raw_field(g, spec.amplitude, spec.m_infinity, 5)
        want = mollify_and_project(g, raw, spec.mollification_k)[0]
        calls = []

        def counting_morrey_norm(*args, **kwargs):
            calls.append(args)
            return morrey_norm(*args, **kwargs)

        monkeypatch.setattr(initial_data, "morrey_norm", counting_morrey_norm)
        got = generate_initial_data(spec, g, seed=5)
        assert calls == []
        assert got.values.tobytes() == want.values.tobytes()

    def test_too_weak_raises(self):
        g = make_grid(2, 64, TWO_PI)
        raw = rough_raw_field(g, amplitude=8.0, m_infinity=(0, 0, 1), seed=7)
        with pytest.raises(MollificationTooWeak):
            mollify_and_project(g, raw, 2.0)

    def test_kernel_must_fit_torus(self):
        g = make_grid(2, 16, TWO_PI)
        raw = rough_raw_field(g, amplitude=0.1, m_infinity=(0, 0, 1), seed=1)
        with pytest.raises(ValueError):
            mollify_and_project(g, raw, 0.1)

    @pytest.mark.parametrize("k", [np.inf, np.nan, 0.0, -2.0])
    def test_non_finite_or_non_positive_scale_rejected(self, k):
        # k = inf used to pass the check and return the raw field unsmoothed
        g = make_grid(2, 16, TWO_PI)
        raw = rough_raw_field(g, amplitude=0.1, m_infinity=(0, 0, 1), seed=1)
        with pytest.raises(ValueError, match="mollification scale k must be finite"):
            mollify_and_project(g, raw, k)

    @pytest.mark.parametrize("k", [1e200, np.float64(1e200)], ids=["float", "float64"])
    def test_scale_with_infinite_square_rejected(self, k):
        # k**2 overflowed: an OverflowError traceback for a float, an inf for float64
        g = make_grid(2, 16, TWO_PI)
        raw = rough_raw_field(g, amplitude=0.1, m_infinity=(0, 0, 1), seed=1)
        with pytest.raises(ValueError, match="mollification scale k squared must be finite"):
            mollify_and_project(g, raw, k)
        with pytest.raises(ValueError, match="mollification_k squared must be finite"):
            InitialDataSpec(kind="rough_mollified", mollification_k=k)

    def test_kernel_narrower_than_a_cell_is_the_identity(self):
        # only the origin sample is inside the support, so the multiplier is 1
        g = make_grid(2, 16, TWO_PI)
        mult = _mollifier_multiplier(g, 1e3)
        assert mult.shape == g.shape and (mult == 1.0).all()

    def test_norm_bookkeeping_recomputable(self):
        g = make_grid(2, 32, TWO_PI)
        raw = rough_raw_field(g, amplitude=0.3, m_infinity=(0, 0, 1), seed=2)
        projected, rep = mollify_and_project(g, raw, 4.0)
        grad = np.stack([derivative(g, projected.values, ax, 1) for ax in range(2)])
        assert rep.grad_norm_smoothed == pytest.approx(
            morrey_norm(g, grad, 2.0, 2.0).value, rel=1e-12)
