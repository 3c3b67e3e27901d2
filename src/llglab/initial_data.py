"""Initial spin-field generators, including mollify-and-project roughening.

The rough family draws a seeded band-limited perturbation of a constant
state, smooths it by convolution with a compactly supported bump kernel
phi_k(x) = k^n phi(k x), verifies the smoothed field stays in the spherical
shell 3/4 <= |m| <= 1, and projects back to the sphere by y -> y/|y|.  The
kernel is realized as a normalized circular convolution (grid samples of
phi_k, unit discrete mass), so the smoothed field is a convex combination of
unit vectors and the upper bound holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy 2 loads it on first use; load it with the package

from .fields import (Grid, SpinField, _apply_multiplier, _forward, _inverse, gradient,
                     normalize_spin, require_finite_positive, require_integer)
from .frames import build_frame
from .morrey import morrey_norm

__all__ = [
    "MollificationTooWeak",
    "InitialDataSpec",
    "generate_initial_data",
    "rough_raw_field",
    "mollify_and_project",
    "MollifyReport",
    "spectral_bump",
    "KINDS",
]

KINDS = ("constant", "equatorial_wave", "bump_chart", "rough_mollified")


class MollificationTooWeak(ValueError):
    """Smoothing left the field below the 3/4 shell; decrease the amplitude
    or the kernel concentration."""


@dataclass(frozen=True)
class InitialDataSpec:
    kind: str
    amplitude: float = 0.1
    wavenumber: int = 1
    width: float = 0.5
    mollification_k: float = 4.0
    m_infinity: tuple = (0.0, 0.0, 1.0)
    roughness_modes: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        require_integer("wavenumber", self.wavenumber)
        if self.roughness_modes is not None:
            require_integer("roughness_modes", self.roughness_modes)
            if self.roughness_modes < 1:
                raise ValueError(f"roughness_modes must be >= 1, got {self.roughness_modes}")
        require_finite_positive("width", self.width)
        require_finite_positive("mollification_k", self.mollification_k)
        k = float(self.mollification_k)  # k * k overflows to inf, where k**2 raises
        require_finite_positive("mollification_k squared", k * k)
        norm = float(np.linalg.norm(self.m_infinity))
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError("m_infinity must be a unit vector")


def spectral_bump(grid: Grid, width: float, center: tuple | None = None) -> np.ndarray:
    """Band-limited periodic Gaussian bump (positive up to truncation ringing).

    ``width`` is finite and positive; ``center``, when given, holds one grid
    index per axis."""
    require_finite_positive("width", width)
    if center is not None and len(center) != grid.dim:
        raise ValueError(f"center must have {grid.dim} entries, one per axis, "
                         f"got {center!r}")
    k2 = grid.k_squared
    coeffs = np.exp(-0.5 * k2 * width**2).astype(complex)
    if center is not None:
        for ax in range(grid.dim):
            shift = center[ax] * grid.h
            coeffs = coeffs * np.exp(-1j * grid.axis_table(ax, grid.wavenumbers) * shift)
    bump = _inverse(grid, coeffs).real
    return bump / bump.max()


def _mollifier_multiplier(grid: Grid, k: float) -> np.ndarray:
    """Spectral multiplier of the normalized bump kernel phi_k.

    phi(x) = exp(-1/(1 - |x|^2)) on the unit ball; the kernel is sampled on
    the wrapped grid and normalized so its discrete mass is one, which makes
    the induced circular convolution an exact convex combination.
    """
    require_finite_positive("mollification scale k", k)
    require_finite_positive("mollification scale k squared", float(k) * float(k))
    if 1.0 / k > grid.length / 2.0:
        raise ValueError("mollifier support 1/k must fit inside the torus (k >= 2/L)")
    s = (k**2) * grid.wrapped_dist2
    inside = s < 1.0
    denom = np.where(inside, 1.0 - s, 1.0)
    kernel = np.where(inside, np.exp(-1.0 / denom), 0.0)
    mass = kernel.sum()  # >= exp(-1), the origin sample; alone it is the identity
    # the full complex transform of the real kernel, not its half spectrum
    return _forward(grid, (kernel / mass).astype(complex))


@dataclass(frozen=True)
class MollifyReport:
    min_modulus: float
    max_modulus: float
    grad_norm_raw: float
    grad_norm_smoothed: float

    @property
    def amplification(self) -> float:
        if self.grad_norm_raw == 0.0:
            return 0.0
        return self.grad_norm_smoothed / self.grad_norm_raw


def _mollify(grid: Grid, raw: np.ndarray, k: float):
    """phi_k * raw projected to the sphere, with the min and max of the
    smoothed modulus.  Raises MollificationTooWeak when that modulus is below
    3/4 somewhere or not finite (the projection's Lipschitz bound needs it)."""
    mult = _mollifier_multiplier(grid, k)
    smoothed = _apply_multiplier(grid, raw.astype(complex), mult).real
    modulus = np.sqrt((smoothed**2).sum(axis=0))
    min_mod = float(modulus.min())
    if not min_mod >= 0.75:  # NaN fails it too
        raise MollificationTooWeak(
            f"smoothed modulus dropped to {min_mod:.4f}, not >= 3/4; "
            "amplitude too large for this kernel scale, or a non-finite sample"
        )
    return SpinField(grid, smoothed / modulus), min_mod, float(modulus.max())


def mollify_and_project(grid: Grid, m_raw: SpinField, k: float):
    """Smooth a sphere-valued field with phi_k, then project to the sphere, as
    ``_mollify`` does.  Returns (projected SpinField, MollifyReport with the
    norm bookkeeping)."""
    raw = m_raw.values
    projected, min_mod, max_mod = _mollify(grid, raw, k)
    grad_raw, grad_smoothed = (morrey_norm(grid, gradient(grid, mv), 2.0, 2.0).value
                               for mv in (raw, projected.values))
    return projected, MollifyReport(min_mod, max_mod, grad_raw, grad_smoothed)


def _random_band_limited(grid: Grid, rng: np.random.Generator, max_mode: int) -> np.ndarray:
    """Real random field with spectrum supported on |k_i| <= max_mode per axis."""
    coeffs = np.zeros(grid.shape, dtype=complex)
    modes = np.fft.fftfreq(grid.n, d=1.0 / grid.n).astype(int)
    keep = np.abs(modes) <= max_mode
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dim):
        mask = mask & grid.axis_table(ax, keep)
    count = int(mask.sum())
    coeffs[mask] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    out = _inverse(grid, coeffs).real
    peak = np.abs(out).max()
    return out / peak if peak > 0 else out


def rough_raw_field(grid: Grid, amplitude: float, m_infinity, seed: int,
                    max_mode: int | None = None) -> SpinField:
    """Seeded band-limited random perturbation of a constant state, projected
    to the sphere but not smoothed; the raw input of the mollify step.

    ``amplitude`` is finite and ``max_mode``, when given, an integer >= 1,
    as ``InitialDataSpec`` requires of its amplitude and roughness_modes;
    ``seed`` is an integer >= 0."""
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    require_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if max_mode is not None:
        require_integer("max_mode", max_mode)
        if max_mode < 1:
            raise ValueError(f"max_mode must be >= 1, got {max_mode}")
    rng = np.random.default_rng(seed)
    m_inf = np.asarray(m_infinity, dtype=float)
    m_inf = m_inf / np.linalg.norm(m_inf)
    if max_mode is None:
        max_mode = max(2, grid.n // 3)
    noise = np.stack([amplitude * _random_band_limited(grid, rng, max_mode)
                      for _ in range(3)])
    return SpinField(grid, normalize_spin(
        m_inf.reshape((3,) + (1,) * grid.dim) + noise))


def generate_initial_data(spec: InitialDataSpec, grid: Grid, seed: int = 0) -> SpinField:
    """Build the requested spin field; |m| = 1 holds exactly for every kind."""
    m_inf = np.asarray(spec.m_infinity, dtype=float)
    m_inf = m_inf / np.linalg.norm(m_inf)

    uniform = np.broadcast_to(m_inf.reshape((3,) + (1,) * grid.dim), (3,) + grid.shape)
    if spec.kind == "constant":
        return SpinField(grid, uniform.copy())

    if spec.kind == "equatorial_wave":
        x = grid.coordinates()[0]
        theta = spec.amplitude * np.sin(2.0 * np.pi * spec.wavenumber * x / grid.length)
        values = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)])
        return SpinField(grid, values)

    if spec.kind == "bump_chart":
        center = (grid.n // 2,) * grid.dim
        profile = spec.amplitude * spectral_bump(grid, spec.width, center)
        # geodesic exponential of profile * X at m_infinity, X the frame's first axis
        values = (np.cos(profile) * uniform
                  + np.sin(profile) * build_frame(SpinField(grid, uniform)).X)
        return SpinField(grid, values)

    # rough_mollified
    raw = rough_raw_field(grid, spec.amplitude, m_inf, seed,
                          max_mode=spec.roughness_modes)
    return _mollify(grid, raw.values, spec.mollification_k)[0]
