"""Ball-based norm estimators on the torus.

The spatial norm of a field f is the supremum over lattice balls of

    (r**(q - n) * sum_{x in B_r(c)} |f(x)|**p * h**n) ** (1/p)

with wrapped Euclidean distance and closed balls.  Radii are dyadic
multiples of the grid spacing up to half the box length (a torus ball of
larger radius is not a ball), and centers run over a strided sub-lattice.
A ``BallLattice`` derives both from its grid and stride, belongs to that
grid and is checked once, when it is made; ``ball_lattice`` caches the
default one per grid.  Only ``morrey_norm`` takes a lattice, and it rejects
one built for another grid; the trajectory norms, solvers and diagnostics
measure on the default lattice.

The trajectory norms take time-weighted suprema of the spatial norms
(components r1, r2, r3).

``morrey_norm`` takes ``|f|`` in the field's dtype and its p-th power, every
sum and the winner's expression in float64.  It screens every (center,
radius) ball with one FFT convolution, sums exactly only the balls that can
win, and returns bit for bit what a plain loop over
``|f|**p [ball mask].sum()`` returns:

* Screen.  One ``rfftn`` of ``|f|**p`` times the cached
  spectrum of each radius's ball indicator, and one batched ``irfftn``
  sampled at the lattice centers, estimate every ball's sum (a torus ball is
  symmetric, so the convolution is the ball sum).  ``_screen`` bounds each
  estimate's distance from the exact sum by the FFT rounding of the
  transform, the product and the inverse (Higham, *Accuracy and Stability of
  Numerical Algorithms*, Thm 24.2, times ``_FFT_SAFETY``) plus twice the
  rounding bound of a K-term float64 sum in any order (eq. 4.4), which
  holds whatever order numpy's pairwise summation adds in.
* Shortlist.  The bounds give each ball's value an upper and a lower bound.
  A ball is summed exactly only if its upper bound reaches the largest lower
  bound, less a relative ``_SHORTLIST_RTOL`` for vectorised against scalar
  ``pow``.  The FFT only prunes; every value the norm reports comes from an
  exact sum.
* Exact sums.  Each radius's closed-ball indicator at the origin
  (``dist2 <= r_j * r_j`` on the wrapped distance table) is tiled twice
  along every axis; the ``N**dim`` window of that tile starting at
  ``-c mod N`` is the ball rolled to center c.  Compressing a field with a
  shortlisted ball's window keeps the ball's points in raster order, so each
  sum sees the same sequence, and the same pairwise summation, as
  ``magp[mask].sum()``.
* Winner.  The scalar expression and a strict ``>`` in center-major,
  radius-minor order pick the winner among the shortlist, which keeps the
  value, the witness and the first-wins tie-breaking.  The weights
  ``r**(q - n)`` are computed once per call.  The sums are scanned as
  Python floats, which makes the same IEEE products and the same C ``pow``
  as numpy's float64 scalars without boxing one per ball.  Every ball that
  ties the winner bitwise is shortlisted; ``MorreyReport.exact_sums``
  counts the shortlist.

Cost of one call with the tables cached: an FFT of one field and an inverse
FFT of one field per radius, then a gather of ``N**dim`` mask bytes and a
compression per shortlisted ball.

Memory: the screen holds one field per radius; no exact-sum temporary holds
more than ``_CHUNK_ELEMS`` elements (or one field, when a field is larger).
One cache holds the tables of the last lattice used: a half spectrum per
radius and the tiled ball indicators, ``n_radii * (2N)**dim`` bytes
(96 KiB at 2-D N=64, 128 KiB at 3-D N=16), whatever the number of centers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fields import (Grid, Trajectory, _apply_multiplier, _forward, gradient,
                     pointwise_magnitude, require_integer)

__all__ = [
    "BallLattice",
    "ball_lattice",
    "MorreyReport",
    "morrey_norm",
    "XptReport",
    "xpt_norm",
]


@dataclass(frozen=True)
class BallLattice:
    """Balls on one grid, centered at every ``stride``-th index along each
    axis, with the dyadic radii h, 2h, 4h, ... up to L/2.
    ``centers`` (integer index tuples) and ``radii`` are derived, so they
    always describe the lattice.  Everything is checked once, here;
    ``morrey_norm`` only checks that it is handed the grid it was built for.
    """

    grid: Grid
    stride: int = 1
    radii: tuple = field(init=False)
    centers: tuple = field(init=False)

    def __post_init__(self):
        require_integer("stride", self.stride)
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        object.__setattr__(self, "stride", int(self.stride))
        object.__setattr__(self, "centers", tuple(
            product(range(0, self.grid.n, self.stride), repeat=self.grid.dim)))
        radii = []
        r = self.grid.h
        while r <= self.grid.length / 2.0 * (1.0 + 1e-12):
            radii.append(r)
            r = 2.0 * r
        object.__setattr__(self, "radii", tuple(radii))

    @property
    def n_centers(self) -> int:
        return len(self.centers)


@lru_cache(maxsize=16, typed=True)
def ball_lattice(grid: Grid, stride: int | None = None) -> BallLattice:
    """Default search lattice: stride 2 for N >= 64 (cost control), else 1.

    Cached, so each lattice is built and checked once per process (a cache
    typed by argument, so ``stride=True`` never reuses the lattice of 1)."""
    if stride is None:
        stride = 2 if grid.n >= 64 else 1
    return BallLattice(grid=grid, stride=stride)


@dataclass(frozen=True)
class MorreyReport:
    """Norm value plus the maximizing (center, radius) witness, and how many
    balls the engine summed exactly (the rest were pruned by the screen)."""

    value: float
    p: float
    q: float
    witness_center: tuple
    witness_radius: float
    lattice: BallLattice
    exact_sums: int


def _validate_pq(grid: Grid, p: float, q: float) -> None:
    if not (1.0 <= p < np.inf):
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
    # q <= n is the natural whole-space restriction; q = 2 is additionally
    # admitted in one dimension because torus radii are capped, which keeps
    # the q > n weight finite (the solution-space norms fix q = 2).
    if not (0.0 <= q <= max(2.0, float(grid.dim))):
        raise ValueError(f"q must lie in [0, max(2, n)], got {q}")


# Engine limits (see the module docstring): elements per temporary, the
# relative slack between vectorised and scalar ``pow``, and the safety factor
# of the FFT error bound.
_CHUNK_ELEMS = 1 << 16
_SHORTLIST_RTOL = 1e-9
_FFT_SAFETY = 4.0

# Single-entry cache: {"key": lattice, "windows": every N**dim window of each
# radius's ball indicator tiled twice per axis (a view of the tiles), "starts":
# each center's window, -center mod N, one row per axis, "flat": the centers'
# raster indices, "counts": points per ball, "spectra": rfftn of each radius's
# ball indicator}.
_rank_cache: dict = {}


def _tables(lattice: BallLattice) -> dict:
    """The lattice's cached tables (see ``_rank_cache``)."""
    if _rank_cache.get("key") == lattice:
        return _rank_cache
    grid = lattice.grid
    n_radii = len(lattice.radii)
    r2 = np.array([r * r for r in lattice.radii]).reshape((-1,) + (1,) * grid.dim)
    centers = np.array(lattice.centers, dtype=np.intp).reshape(lattice.n_centers, grid.dim)
    _rank_cache.clear()  # drop the old tables before building the new ones
    balls = grid.wrapped_dist2 <= r2
    tiles = np.tile(balls, (1,) + (2,) * grid.dim)
    _rank_cache.update(key=lattice, starts=((-centers) % grid.n).T.copy(),
                       windows=sliding_window_view(tiles, grid.shape, axis=grid.axes),
                       flat=np.ravel_multi_index(tuple(centers.T), grid.shape),
                       counts=np.count_nonzero(balls.reshape(n_radii, -1), axis=1),
                       spectra=_forward(grid, balls.astype(float)))
    return _rank_cache


def _screen(tables: dict, magp: np.ndarray) -> tuple:
    """FFT estimates of every lattice ball's sum of ``magp``, (centers, radii),
    and a bound on their distance from the exact sums (module docstring)."""
    grid = tables["key"].grid
    conv = _apply_multiplier(grid, magp, tables["spectra"])
    approx = conv.reshape(len(conv), -1)[:, tables["flat"]].T
    counts = tables["counts"]
    # Higham Thm 24.2: relative 2-norm error of one transform of log2(N**dim)
    # radix-2 stages, eta = u + gamma_4 (sqrt(2) + u) per stage
    u = 0.5 * np.finfo(float).eps
    stage = u + 4 * u / (1 - 4 * u) * (np.sqrt(2) + u)
    eta = _FFT_SAFETY * grid.dim * np.ceil(np.log2(grid.n)) * stage
    # forward transform, ball spectrum (|spectrum| <= K points), product and
    # inverse; the sup norm is at most the 2-norm
    fft_err = eta / (1 - eta) * (3 * counts * np.sqrt(np.vdot(magp, magp))
                                 + np.sqrt(counts) * magp.sum())
    # summing K terms in whatever order numpy adds them: K - 1 roundings,
    # gamma_(K-1) (Higham eq. 4.4), doubled for a margin where it is tight
    # (balls of a few points)
    gamma = 2 * (counts - 1) * u / (1 - (counts - 1) * u)
    return approx, fft_err + gamma * (approx + fft_err)


def _exact_sums(tables: dict, flat: np.ndarray, rows: np.ndarray,
                cols: np.ndarray) -> np.ndarray:
    """The exact sum of ``flat`` (raster order) over each shortlisted ball,
    center ``rows[i]`` and radius ``cols[i]``, in shortlist order."""
    sums = np.empty(len(rows), dtype=flat.dtype)
    step = max(1, _CHUNK_ELEMS // flat.size)
    src = np.broadcast_to(flat, (step, flat.size))
    # the window at -c (mod N) of a tile is the ball rolled to c, in raster order
    windows, starts = tables["windows"], tables["starts"]
    for j in sorted(set(cols.tolist())):
        at = np.flatnonzero(cols == j)
        for lo in range(0, len(at), step):
            chunk = at[lo:lo + step]
            sel = rows[chunk]
            mask = windows[(j,) + tuple(s[sel] for s in starts)].reshape(len(sel), -1)
            sums[chunk] = src[:len(sel)][mask].reshape(len(sel), -1).sum(axis=1)
    return sums


def morrey_norm(grid: Grid, values: np.ndarray, p: float, q: float,
                lattice: BallLattice | None = None) -> MorreyReport:
    """Maximum over lattice balls of the r^(q-n)-weighted p-mass of |values|.

    ``lattice`` defaults to ``ball_lattice(grid)`` and must belong to ``grid``."""
    _validate_pq(grid, p, q)
    if lattice is None:
        lattice = ball_lattice(grid)
    elif lattice.grid != grid:
        raise ValueError(f"lattice belongs to {lattice.grid}, not to {grid}")
    magp = pointwise_magnitude(grid, values).astype(float, copy=False) ** p
    if not np.isfinite(magp).all():
        raise ValueError(f"|values|**{p} is not finite everywhere")
    tables = _tables(lattice)
    approx, err = _screen(tables, magp)
    hn = grid.h ** grid.dim
    ndim = grid.dim
    weights = np.array([r ** (q - ndim) for r in lattice.radii])
    upper = (weights * ((approx + err) * hn)) ** (1.0 / p)
    lower = (weights * (np.maximum(approx - err, 0.0) * hn)) ** (1.0 / p)
    # a ball that can reach the best lower bound, or any ball when a bound is NaN
    shortlist = np.flatnonzero(~(upper < lower.max() * (1.0 - _SHORTLIST_RTOL)))
    rows, cols = np.divmod(shortlist, len(lattice.radii))
    # scanned as Python floats: the same IEEE products and C pow as numpy's scalars
    exact = _exact_sums(tables, magp.ravel(), rows, cols).tolist()
    weight = weights.tolist()
    best_val = -1.0
    best_center = lattice.centers[0]
    best_radius = lattice.radii[0]
    for i, j, s in zip(rows.tolist(), cols.tolist(), exact):
        val = (weight[j] * (s * hn)) ** (1.0 / p)
        if val > best_val:
            best_val = val
            best_center = lattice.centers[i]
            best_radius = lattice.radii[j]
    return MorreyReport(
        value=float(best_val),
        p=float(p),
        q=float(q),
        witness_center=tuple(best_center),
        witness_radius=float(best_radius),
        lattice=lattice,
        exact_sums=len(shortlist),
    )


# ---------------------------------------------------------------------------
# trajectory norms


@dataclass(frozen=True)
class XptReport:
    """Time-weighted trajectory norm split into its three components.

    r1 = sup_t t^(1/2 - 1/p) ||u(t)||_{M^{p,2}},
    r2 = sup_t t^(1/2)       ||grad u(t)||_{M^{2,2}},
    r3 = sup_t               ||u(t)||_{M^{2,2}};
    the t = 0 sample contributes only to r3.
    """

    r1: float
    r2: float
    r3: float
    p: float
    t_end: float

    @property
    def total(self) -> float:
        return self.r1 + self.r2 + self.r3


def xpt_norm(grid: Grid, traj: Trajectory, p: float) -> XptReport:
    """The three sups of ``XptReport`` over the samples of ``traj``; p > 2."""
    if p <= 2:
        raise ValueError(f"trajectory norm needs p > 2, got {p}")
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    r1 = r2 = r3 = 0.0
    for t, u in zip(traj.times, traj.fields):
        # |u| once: a real scalar field's magnitude is its abs, the identity on |u|
        mag = pointwise_magnitude(grid, u)
        r3 = max(r3, morrey_norm(grid, mag, 2.0, 2.0).value)
        if t > 0.0:
            r1 = max(r1, t ** (0.5 - 1.0 / p) * morrey_norm(grid, mag, p, 2.0).value)
            gu = gradient(grid, u)
            r2 = max(r2, np.sqrt(t) * morrey_norm(grid, gu, 2.0, 2.0).value)
    return XptReport(r1=float(r1), r2=float(r2), r3=float(r3), p=float(p),
                     t_end=float(traj.times[-1]))
