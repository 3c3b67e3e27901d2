"""Cross-module sanity checks on three-dimensional grids.

The heavy suites run in one and two dimensions; these pin down that nothing
is hard-wired to dim <= 2.
"""

import numpy as np
import pytest

from llglab.fields import SpinField, derivative, divergence, gradient, laplacian, make_grid
from llglab.frames import build_frame, check_identities, coulomb_gauge_fix, derive_gauge
from llglab.llg import LlgConfig, llg_rhs, solve, stability_cap
from llglab.morrey import ball_lattice, morrey_norm
from llglab.semigroup import SemigroupParams, apply_semigroup

from oracles import brute_force_morrey, frame_defects

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def grid3():
    return make_grid(3, 8, TWO_PI)


def test_spectral_calculus(grid3):
    x, y, z = grid3.coordinates()
    f = np.sin(x) * np.cos(y) + np.sin(2 * z)
    lap = laplacian(grid3, f)
    expected = -2.0 * np.sin(x) * np.cos(y) - 4.0 * np.sin(2 * z)
    assert np.abs(lap - expected).max() < 1e-12
    assert np.abs(divergence(grid3, gradient(grid3, f)) - lap).max() < 1e-12


def test_morrey_matches_brute_force(grid3):
    rng = np.random.default_rng(33)
    f = rng.standard_normal(grid3.shape)
    lat = ball_lattice(grid3, stride=1)
    mine = morrey_norm(grid3, f, 2.0, 2.0, lat).value
    assert mine == brute_force_morrey(grid3, f, 2.0, 2.0)


def test_semigroup_eigenfunction(grid3):
    params = SemigroupParams(lam=0.8, grid=grid3)
    x, y, z = grid3.coordinates()
    f = np.exp(1j * (x + 2 * y + z))
    k2 = 1.0 + 4.0 + 1.0
    out = apply_semigroup(f, 0.1, params)
    assert np.abs(out - np.exp((1j - 0.8) * k2 * 0.1) * f).max() < 1e-12


def smooth_spin3(grid):
    x, y, z = grid.coordinates()
    theta = 0.2 * np.sin(x) + 0.1 * np.cos(y)
    phi = 0.15 * np.cos(z)
    return SpinField.from_values(grid, np.stack([
        np.sin(theta) * np.cos(phi),
        np.sin(theta) * np.sin(phi),
        np.cos(theta),
    ]))


def test_frame_and_identities():
    g = make_grid(3, 16, TWO_PI)
    m = smooth_spin3(g)
    lam = 1.0
    frame = build_frame(m)
    assert max(frame_defects(frame, m.values).values()) < 1e-12
    dt_m = llg_rhs(g, m.values, lam)
    state = coulomb_gauge_fix(g, derive_gauge(g, m, dt_m, frame))
    assert state.u.shape == (3,) + g.shape
    res = check_identities(g, m, dt_m, frame, state, lam)
    assert res.torsion < 1e-8
    assert res.curvature < 1e-8
    assert res.u0_equation < 1e-8
    assert res.div_a < 1e-10


def test_short_energy_run():
    g = make_grid(3, 16, TWO_PI)
    m0 = smooth_spin3(g)
    cap = stability_cap(g, 1.0)
    cfg = LlgConfig(grid=g, lam=1.0, t_end=20 * cap, dt=cap)
    res = solve(m0, cfg, n_outputs=5)
    assert np.all(np.diff(res.ledger.energy) <= 1e-12)
    assert res.trajectory.fields[-1].shape == (3,) + g.shape
    combined = res.ledger.energy + 0.5 * res.ledger.dissipation - res.ledger.energy[0]
    assert np.abs(combined).max() <= 1e-4 * res.ledger.energy[0] + 1e-10
