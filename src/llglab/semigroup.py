"""The dissipative Schroedinger semigroup as a spectral multiplier.

S(t) solves d_t v = (lambda - i) * laplacian(v); each Fourier coefficient is
multiplied by exp((i - lambda) |xi|^2 t).  The damping lambda > 0 makes the
multiplier magnitude exp(-lambda |xi|^2 t) <= 1, so S(t) is non-expansive and
smoothing.  The multiplier takes its exponential once per distinct |xi|^2
(506 of the 4,096 modes of a 2-D N=64 grid), so remaking S(t) v0 at every
output time of every Picard sweep stays cheap, and that table of distinct
values is all a mild solve keeps of each S(t) it reuses.

This module also provides a one-sided numerical check of the norm-decay
power laws and the canonical datum it is run on.  ``verify_decays`` checks
several laws of one datum together: it computes the base norm once
and S(t)f (and its gradient, when a law measures it) once per sample time,
then measures every law on that state, so the runner's four laws cost 13
applications of S(t) and 53 ball norms.  ``verify_decay`` is its one-law
call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid, _apply_multiplier, gradient, make_grid, require_finite_positive
from .initial_data import spectral_bump
from .morrey import morrey_norm

__all__ = [
    "SemigroupParams",
    "semigroup_multiplier",
    "apply_semigroup",
    "apply_grad_semigroup",
    "DecayReport",
    "verify_decay",
    "verify_decays",
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


def _multiplier_table(params: SemigroupParams, t: float) -> np.ndarray:
    """exp((i - lambda) |xi|^2 t) at each distinct |xi|^2, in the order of
    ``Grid.k_squared_distinct``: 506 values on a 2-D N=64 grid, 8 KiB."""
    values, _ = params.grid.k_squared_distinct
    return np.exp((1j - params.lam) * values * t)


def semigroup_multiplier(params: SemigroupParams, t: float) -> np.ndarray:
    """The Fourier multiplier of S(t), exp((i - lambda) |xi|^2 t), fft layout.

    The exponential is taken once per distinct |xi|^2, in ``_multiplier_table``,
    and spread over the grid by ``Grid.k_squared_distinct``'s index: the same
    bytes as the elementwise expression on the whole grid, at a fraction of
    the cost.
    """
    return _multiplier_table(params, t)[params.grid.k_squared_distinct[1]]


def apply_semigroup(values: np.ndarray, t: float, params: SemigroupParams, *,
                    spectrum: np.ndarray | None = None) -> np.ndarray:
    """Apply S(t) spectrally; t = 0 returns the input unchanged (complex copy).

    ``spectrum``, as for ``fields._apply_multiplier``: the spectrum of the
    complex input, read and not written, so that S(t) of one datum at many
    times costs one forward transform.
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"semigroup time must be finite and nonnegative, got {t}")
    values = np.asarray(values, dtype=complex)
    if t == 0:
        return values.copy()
    return _apply_multiplier(params.grid, values, semigroup_multiplier(params, t),
                             spectrum=spectrum)


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


def verify_decays(values: np.ndarray, p: float, cases, q: float, t_list: np.ndarray,
                  params: SemigroupParams, c_max: float = DECAY_C_MAX) -> list[DecayReport]:
    """One-sided numerical checks of several decay estimates of one datum.

    ``cases`` is a sequence of ``(p_tilde, gradient_norm)`` pairs, one report
    each, in order.  Every case and the sample times are checked before any
    norm is computed, and the base norm is computed once.  At each sample
    time S(t)f is computed once and measured for every plain case, then
    replaced by its gradient (only if a case needs it) for every gradient
    case, and dropped before the next time.

    The hidden constants of the continuum estimates are not reproducible, so
    only boundedness of the compensated ratio is tested, never slope equality.
    """
    require_finite_positive("c_max", c_max)
    grid = params.grid
    n = grid.dim
    if len(cases) == 0:
        raise ValueError("need at least one (p_tilde, gradient_norm) case")
    for p_tilde, _ in cases:
        if not (p <= p_tilde <= p * (n + 1)):
            raise ValueError(f"need p <= p_tilde <= p(n+1), got ({p}, {p_tilde})")
    t_list = np.asarray(t_list, dtype=float)
    if t_list.ndim != 1 or len(t_list) < 2:
        raise ValueError("t_list must be one-dimensional with at least two entries")
    if not (np.all(np.isfinite(t_list)) and np.all(t_list > 0)):
        raise ValueError(f"t_list must be finite and positive, got {t_list}")
    t_list = np.sort(t_list)
    if t_list[-1] / t_list[0] < 100.0 * (1.0 - 1e-9):
        raise ValueError("t_list must span at least two decades")
    base = morrey_norm(grid, values, p, q).value
    if base == 0.0:
        raise ValueError("decay ratio undefined for the zero field")
    norms = [np.empty(len(t_list)) for _ in cases]
    plain = [(series, p_tilde) for series, (p_tilde, g) in zip(norms, cases) if not g]
    grads = [(series, p_tilde) for series, (p_tilde, g) in zip(norms, cases) if g]
    for i, t in enumerate(t_list):
        state = apply_semigroup(values, t, params)
        for series, p_tilde in plain:
            series[i] = morrey_norm(grid, state, p_tilde, q).value
        if grads:
            # S(t)f is dropped once its gradient exists, so no norm holds both
            state = gradient(grid, state)
            for series, p_tilde in grads:
                series[i] = morrey_norm(grid, state, p_tilde, q).value
    reports = []
    for series, (p_tilde, gradient_norm) in zip(norms, cases):
        power = 0.5 * q * (1.0 / p - 1.0 / p_tilde)
        if gradient_norm:
            power += 0.5
        ratios = series * t_list**power / base
        max_ratio = float(ratios.max())
        final = ratios[t_list >= t_list[-1] / 10.0]
        trend_ok = bool(np.all(np.diff(final) <= 1e-6 * max_ratio))
        reports.append(DecayReport(
            p=float(p), p_tilde=float(p_tilde), q=float(q), lam=params.lam,
            gradient=bool(gradient_norm), t_samples=t_list, norms=series,
            ratio_series=ratios, max_ratio=max_ratio, c_max=float(c_max),
            trend_ok=trend_ok, passed=bool(max_ratio <= c_max and trend_ok),
        ))
    return reports


def verify_decay(values: np.ndarray, p: float, p_tilde: float, q: float,
                 t_list: np.ndarray, params: SemigroupParams,
                 gradient_norm: bool = False, c_max: float = DECAY_C_MAX) -> DecayReport:
    """One-sided numerical check of one semigroup decay estimate: the one-case
    call of ``verify_decays``."""
    return verify_decays(values, p, [(p_tilde, gradient_norm)], q, t_list, params, c_max)[0]
