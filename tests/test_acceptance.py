"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime (run with -s to see them).  Tolerances are pinned here, not
deferred; the heavy end-to-end runs live in this module rather than the unit
tests.
"""

import filecmp
import hashlib
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import llglab as L

TWO_PI = 2.0 * np.pi


class _Timer:
    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.label} "
              f"({elapsed:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.budget}s")
        return False


def band_limited(grid, seed, max_mode=None):
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
    return np.fft.ifftn(coeffs, axes=grid.axes).real


def test_c01_spectral_exactness():
    with _Timer(1, "semigroup eigenfunctions and semigroup law", 1.0):
        g = L.make_grid(1, 64, TWO_PI)
        params = L.SemigroupParams(lam=1.0, grid=g)
        x = g.coordinates()[0]
        for k in (1, 3, 7):
            f = np.exp(1j * k * x)
            out = L.apply_semigroup(f, 0.3, params)
            expected = np.exp((1j - 1.0) * k * k * 0.3) * f
            assert np.abs(out - expected).max() < 1e-12
        rng = np.random.default_rng(0)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        two = L.apply_semigroup(L.apply_semigroup(f, 0.12, params), 0.34, params)
        one = L.apply_semigroup(f, 0.46, params)
        assert np.abs(two - one).max() < 1e-12 * np.abs(f).max()


def test_c02_morrey_oracle_equivalence():
    from oracles import brute_force_morrey

    with _Timer(2, "stride-1 norm equals exhaustive enumeration exactly", 30.0):
        rng = np.random.default_rng(2024)
        checked = 0
        for dim in (1, 2):
            for n in (8, 16):
                g = L.make_grid(dim, n, TWO_PI)
                lat = L.ball_lattice(g, stride=1)
                for _ in range(5):
                    f = rng.standard_normal(g.shape)
                    p = float(rng.choice([1.0, 2.0, 3.0]))
                    q = float(rng.uniform(0.0, dim))
                    mine = L.morrey_norm(g, f, p, q, lat).value
                    assert mine == brute_force_morrey(g, f, p, q)
                    checked += 1
        assert checked == 20


def test_c03_decay_suite():
    with _Timer(3, "compensated decay ratios bounded and settling", 120.0):
        g = L.make_grid(2, 64, TWO_PI)
        params = L.SemigroupParams(lam=1.0, grid=g)
        bump = L.spectral_bump(g, width=g.length / 48.0).astype(complex)
        times = L.default_decay_times(g, 1.0)
        assert times[0] == pytest.approx(1e-3)
        assert times[-1] == pytest.approx(1e-1)
        for gradient_norm in (False, True):
            for p_tilde in (2.0, 4.0, 6.0):
                rep = L.verify_decay(bump, 2.0, p_tilde, 2.0, times, params,
                                     gradient_norm=gradient_norm, c_max=50.0)
                assert rep.max_ratio <= 50.0
                assert rep.trend_ok, (gradient_norm, p_tilde)
                assert rep.passed


def test_c04_identity_suite():
    with _Timer(4, "structural identities at N=64 within 1e-8", 60.0):
        g = L.make_grid(2, 64, TWO_PI)
        x, y = g.coordinates()
        theta = 0.1 * np.sin(x) + 0.05 * np.cos(y)
        phi = 0.08 * np.cos(x + y)
        m = L.SpinField.from_values(g, np.stack([
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        ]))
        lam = 1.0
        frame = L.build_frame(m)
        dt_m = L.llg_rhs(g, m.values, lam)
        state = L.coulomb_gauge_fix(g, L.derive_gauge(g, m, dt_m, frame))
        res = L.check_identities(g, m, dt_m, frame, state, lam)
        assert res.torsion <= 1e-8
        assert res.curvature <= 1e-8
        assert res.tension <= 1e-8
        assert res.u0_equation <= 1e-8
        assert res.div_a <= 1e-10
        assert L.check_equivalent_form(g, m, dt_m, lam) <= 1e-8


def test_c05_exponent_windows():
    with _Timer(5, "validity window is exactly (3, 10/3)", 1.0):
        for p in np.linspace(2.5, 4.0, 200):
            rep = L.exponent_window_check(float(p))
            assert rep.valid == (3.0 < p < 10.0 / 3.0), p
        left = L.exponent_window_check(3.0)
        assert not left.valid
        assert left.first_failing.label == "cubic_r2"
        assert left.first_failing.delta1 == pytest.approx(1.0)
        assert left.first_failing.delta2 == pytest.approx(0.5)
        right = L.exponent_window_check(10.0 / 3.0)
        assert not right.valid
        assert right.first_failing.label == "quintic_r1"
        assert right.first_failing.delta2 == pytest.approx(1.0)


def _picard_base_data(grid):
    x = grid.coordinates()[0]
    bump = L.spectral_bump(grid, width=0.25)
    v0 = np.zeros((2,) + grid.shape, dtype=complex)
    v0[0] = bump * np.exp(1j * x)
    v0[1] = 0.5j * bump * np.exp(1j * x)
    v0 *= 1e-3 / L.morrey_norm(grid, v0, 2.0, 2.0).value
    return v0


def test_c06_picard_contraction():
    with _Timer(6, "geometric Picard contraction and fixed-point residual", 300.0):
        g = L.make_grid(2, 32, TWO_PI)
        v0 = _picard_base_data(g)
        assert L.morrey_norm(g, v0, 2.0, 2.0).value == pytest.approx(1e-3, rel=1e-12)
        cfg = L.CglConfig(lam=1.0, p=3.2, t_end=0.5, time_steps=16,
                          duhamel_substeps=8, picard_tol=1e-14)
        result = L.picard_iterate(g, v0, cfg)
        assert result.converged
        assert len(result.increments) >= 2
        # ratio < 0.5 from the second iteration onward
        for a, b in zip(result.increments, result.increments[1:]):
            assert b / a < 0.5
        residual = L.fixed_point_residual(g, result, v0, cfg)
        assert residual <= 10.0 * cfg.picard_tol


def test_c06_noncontraction_negative_control():
    # The stated control: scaling the norm-1e-3 data by 1e3 (to norm 1.0) must
    # raise NonContraction.  Measured reality: the iteration's response scales
    # like ~0.05 * norm^2 for every realizable profile (the norm is scale
    # invariant in 2d, so concentration cannot raise the response), putting
    # the divergence threshold near norm 4-6, not 1.  The scan below records
    # the measured threshold; the assertion is kept as specified and is
    # expected to fail until the criterion's multiplier is recalibrated.
    with _Timer(6, "1e3-scaled data raises NonContraction", 300.0):
        g = L.make_grid(2, 32, TWO_PI)
        v0 = _picard_base_data(g)
        cfg = L.CglConfig(lam=1.0, p=3.2, t_end=0.5, time_steps=16,
                          duhamel_substeps=8, picard_tol=1e-14,
                          picard_max_iter=25)
        threshold = None
        for scale in (1e3, 3e3, 6e3, 1e4):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    L.picard_iterate(g, v0 * scale, cfg)
            except L.NonContraction:
                threshold = scale
                break
        print(f"  measured non-contraction threshold: {threshold and threshold * 1e-3}"
              f" (in units of the 1e-3 base norm)")
        assert threshold == 1e3, (
            "the 1e3-scaled data (norm 1.0) converged; non-contraction first "
            f"appears at scale {threshold} (norm {threshold and threshold * 1e-3:g}). "
            "The iteration's measured response is ~0.05 * norm^2 for every "
            "realizable profile (the norm is scale invariant in 2d, so "
            "concentration cannot raise it), which puts the true divergence "
            "threshold near norm 4-6; a negative control pinned at norm 1.0 "
            "cannot diverge at these parameters (lam=1, p=3.2, T=0.5, N=32).")


def test_c07_energy_law():
    with _Timer(7, "global energy equality and analytic E(0)", 120.0):
        g = L.make_grid(1, 64, TWO_PI)
        m0 = L.generate_initial_data(
            L.InitialDataSpec(kind="equatorial_wave", amplitude=0.1, wavenumber=1), g)
        cap = L.stability_cap(g, 1.0)
        cfg = L.LlgConfig(grid=g, lam=1.0, t_end=1.0, dt=cap / 4.0)
        res = L.solve(m0, cfg, n_outputs=33)
        e0 = res.ledger.energy[0]
        assert abs(e0 - 0.01 * np.pi / 2.0) < 1e-6
        check = L.check_energy_inequality(res.ledger, 1.0)
        assert check.passed
        assert check.equality_ok
        assert check.max_abs_deviation <= 1e-4 * e0


def test_c08_cross_solver_agreement():
    with _Timer(8, "direct vs mild gradient fields, with refinement", 600.0):
        g = L.make_grid(2, 64, TWO_PI)
        m0 = L.generate_initial_data(
            L.InitialDataSpec(kind="equatorial_wave", amplitude=0.01), g)
        base, fine, ratio = L.cross_validate_refinement(
            g, m0, lam=1.0, t_end=0.5, time_steps=16,
            duhamel_substeps=8, picard_tol=1e-12)
        assert base.sup_discrepancy <= 1e-3
        assert ratio >= 2.0


def test_c09_stability_scaling():
    with _Timer(9, "perturbation response ratio spread within 25%", 600.0):
        g = L.make_grid(2, 32, TWO_PI)
        x = g.coordinates()[0]
        v0 = _picard_base_data(g)
        pert = np.zeros_like(v0)
        pert[0] = 1e-3 * np.exp(2j * x)
        cfg = L.CglConfig(lam=1.0, p=3.2, t_end=0.5, time_steps=16,
                          duhamel_substeps=8, picard_tol=1e-12)
        rep = L.stability_experiment(g, v0, v0 + pert, cfg, halvings=3)
        assert not rep.exact_zero
        assert len(rep.ratios) == 3  # deltas 1e-3, 5e-4, 2.5e-4
        assert rep.spread <= 0.25


def test_c10_mollify_and_project():
    with _Timer(10, "mollified modulus window and gradient-norm factor", 60.0):
        g = L.make_grid(2, 64, TWO_PI)
        raw = L.rough_raw_field(g, amplitude=0.35, m_infinity=(0, 0, 1), seed=7)
        for k in (2.0, 4.0, 8.0):
            projected, rep = L.mollify_and_project(g, raw, k)
            assert rep.min_modulus >= 0.75
            assert rep.max_modulus <= 1.0 + 1e-12
            assert rep.grad_norm_smoothed <= 8.0 * rep.grad_norm_raw
            assert projected.unit_defect() < 1e-12


def test_c11_smoke_determinism(tmp_path):
    with _Timer(11, "bundled smoke config: exit 0, byte-identical reruns", 60.0):
        config = Path(__file__).resolve().parents[1] / "configs" / "smoke.cfg"
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert L.run_experiment(config, out_dir=out1) == 0
            assert L.run_experiment(config, out_dir=out2) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2 and files1
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, files1, shallow=False)
        assert not mismatch and not errors


# sha256 of the configs/smoke.cfg output tree, pinned with numpy 2.4.6: each
# file adds its relative path, a NUL byte and its bytes, in sorted path order
SMOKE_TREE_DIGEST = "440946e6a8c2cc0ef0cb5a01ecaf30416fbe44145316b5d581662224df112c06"
SMOKE_DIGEST_NUMPY = "2.4.6"


def test_smoke_tree_digest(tmp_path, monkeypatch):
    monkeypatch.delenv("LLGLAB_SEED", raising=False)
    config = Path(__file__).resolve().parents[1] / "configs" / "smoke.cfg"
    out = tmp_path / "smoke_out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert L.run_experiment(config, out_dir=out) == 0
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    assert h.hexdigest() == SMOKE_TREE_DIGEST, (
        f"the smoke output tree changed: digest {h.hexdigest()}; the pinned digest "
        f"was taken with numpy {SMOKE_DIGEST_NUMPY}, this run uses numpy {np.__version__}")
