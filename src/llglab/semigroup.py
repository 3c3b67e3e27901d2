"""The dissipative Schroedinger semigroup as a spectral multiplier.

S(t) solves d_t v = (lambda - i) * laplacian(v); each Fourier coefficient is
multiplied by exp((i - lambda) |xi|^2 t).  The damping lambda > 0 makes the
multiplier magnitude exp(-lambda |xi|^2 t) <= 1, so S(t) is non-expansive and
smoothing.  This module also provides a one-sided numerical check of the
norm-decay power laws and the canonical datum it is run on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid, _forward, _inverse, gradient, make_grid, require_finite_positive
from .initial_data import spectral_bump
from .morrey import morrey_norm

__all__ = [
    "SemigroupParams",
    "semigroup_multiplier",
    "apply_semigroup",
    "apply_grad_semigroup",
    "DecayReport",
    "verify_decay",
    "default_decay_times",
    "DECAY_GRID",
    "DECAY_NUM_T",
    "DECAY_C_MAX",
    "decay_datum",
]

# (dim, N, L) of the canonical decay grid: the decay window must clear the
# grid's diffusion scale for the final decade to show genuine decay
DECAY_GRID = (2, 64, 2.0 * np.pi)
# sample times of the canonical decay series, and the bound on its
# compensated ratio
DECAY_NUM_T = 13
DECAY_C_MAX = 50.0


@dataclass(frozen=True)
class SemigroupParams:
    """Damping parameter and grid; lambda must be positive (dissipativity)."""

    lam: float
    grid: Grid

    def __post_init__(self):
        require_finite_positive("damping parameter lam", self.lam)


def semigroup_multiplier(params: SemigroupParams, t: float) -> np.ndarray:
    """The Fourier multiplier of S(t), exp((i - lambda) |xi|^2 t), fft layout."""
    return np.exp((1j - params.lam) * params.grid.k_squared * t)


def apply_semigroup(values: np.ndarray, t: float, params: SemigroupParams) -> np.ndarray:
    """Apply S(t) spectrally; t = 0 returns the input unchanged (complex copy)."""
    if not 0 <= t < np.inf:
        raise ValueError(f"semigroup time must be finite and nonnegative, got {t}")
    grid = params.grid
    values = np.asarray(values, dtype=complex)
    if t == 0:
        return values.copy()
    spec, _ = _forward(grid, values)
    spec *= semigroup_multiplier(params, t)
    return _inverse(grid, spec, False)


def apply_grad_semigroup(values: np.ndarray, t: float, params: SemigroupParams) -> np.ndarray:
    """Gradient of S(t)f, same code path as gradient(apply_semigroup(f, t))."""
    return gradient(params.grid, apply_semigroup(values, t, params))


@dataclass(frozen=True)
class DecayReport:
    """Compensated-ratio series for one claimed norm-decay power law.

    ratio(t) = ||S(t)f||_{M^{pt,q}} * t**power / ||f||_{M^{p,q}} with
    power = (q/2)(1/p - 1/pt), plus 1/2 when the gradient is measured.
    The check is one-sided: pass means the series stays below c_max and is
    non-increasing across the final decade of sample times (early times sit
    below the grid's diffusion scale, where every discrete compensated
    series still rises from zero).
    """

    p: float
    p_tilde: float
    q: float
    lam: float
    gradient: bool
    t_samples: np.ndarray
    norms: np.ndarray
    ratio_series: np.ndarray
    max_ratio: float
    base_norm: float
    c_max: float
    trend_ok: bool
    passed: bool


def default_decay_times(grid: Grid, lam: float, num: int = DECAY_NUM_T) -> np.ndarray:
    """Log-spaced times spanning two decades, capped so the slowest mode's
    wrap-around/decay-to-constant effects stay below ~10% of the norm."""
    t_max = 0.1 * grid.length**2 / (4.0 * np.pi**2 * lam)
    return np.logspace(np.log10(t_max) - 2.0, np.log10(t_max), num)


def decay_datum(lam: float, grid: Grid | None = None, num: int = DECAY_NUM_T):
    """The canonical decay datum on ``grid`` (default ``DECAY_GRID``):
    (params, spectral bump of width L/48, ``num`` default decay times)."""
    if grid is None:
        grid = make_grid(*DECAY_GRID)
    params = SemigroupParams(lam=lam, grid=grid)
    bump = spectral_bump(grid, width=grid.length / 48.0).astype(complex)
    return params, bump, default_decay_times(grid, lam, num)


def verify_decay(values: np.ndarray, p: float, p_tilde: float, q: float,
                 t_list: np.ndarray, params: SemigroupParams,
                 gradient_norm: bool = False, c_max: float = DECAY_C_MAX) -> DecayReport:
    """One-sided numerical check of a semigroup decay estimate.

    The hidden constants of the continuum estimates are not reproducible, so
    only boundedness of the compensated ratio is tested, never slope equality.
    """
    require_finite_positive("c_max", c_max)
    grid = params.grid
    n = grid.dim
    if not (p <= p_tilde <= p * (n + 1)):
        raise ValueError(f"need p <= p_tilde <= p(n+1), got ({p}, {p_tilde})")
    t_list = np.asarray(t_list, dtype=float)
    if t_list.ndim != 1 or len(t_list) < 2 or np.any(t_list <= 0):
        raise ValueError("t_list must be positive with at least two entries")
    t_list = np.sort(t_list)
    if t_list[-1] / t_list[0] < 100.0 * (1.0 - 1e-9):
        raise ValueError("t_list must span at least two decades")
    base = morrey_norm(grid, values, p, q).value
    if base == 0.0:
        raise ValueError("decay ratio undefined for the zero field")
    power = 0.5 * q * (1.0 / p - 1.0 / p_tilde)
    if gradient_norm:
        power += 0.5
    norms = np.empty(len(t_list))
    for i, t in enumerate(t_list):
        if gradient_norm:
            out = apply_grad_semigroup(values, t, params)
        else:
            out = apply_semigroup(values, t, params)
        norms[i] = morrey_norm(grid, out, p_tilde, q).value
    ratios = norms * t_list**power / base
    max_ratio = float(ratios.max())
    final = ratios[t_list >= t_list[-1] / 10.0]
    trend_ok = bool(np.all(np.diff(final) <= 1e-6 * max_ratio))
    return DecayReport(
        p=float(p), p_tilde=float(p_tilde), q=float(q), lam=params.lam,
        gradient=gradient_norm, t_samples=t_list, norms=norms,
        ratio_series=ratios, max_ratio=max_ratio, base_norm=float(base),
        c_max=float(c_max), trend_ok=trend_ok,
        passed=bool(max_ratio <= c_max and trend_ok),
    )
