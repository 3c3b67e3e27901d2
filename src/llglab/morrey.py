"""Ball-based norm estimators on the torus.

The spatial norm of a field f is the supremum over lattice balls of

    (r**(q - n) * sum_{x in B_r(c)} |f(x)|**p * h**n) ** (1/p)

with wrapped Euclidean distance and closed balls.  Radii are dyadic
multiples of the grid spacing capped at half the box length (a torus ball of
larger radius is not a ball), and centers run over a strided sub-lattice.
A ``BallLattice`` belongs to the grid it was built for and is checked once,
when it is made; ``ball_lattice`` caches the default one per grid.  Only
``morrey_norm`` takes a lattice, and it rejects one built for another grid;
the trajectory norms, solvers and diagnostics measure on the default lattice.

The trajectory norms take time-weighted suprema of the spatial norms
(components r1, r2, r3).

``morrey_norm`` screens every (center, radius) ball with one FFT convolution,
sums exactly only the balls that can win, and returns bit for bit what a
plain loop over ``|f|**p [ball mask].sum()`` returns:

* Screen.  One ``rfftn`` of ``|f|**p`` (in float64) times the cached
  spectrum of each radius's ball indicator, and one batched ``irfftn``
  sampled at the lattice centers, estimate every ball's sum (a torus ball is
  symmetric, so the convolution is the ball sum).  ``_screen`` bounds each
  estimate's distance from the exact sum by the FFT rounding of the
  transform, the product and the inverse (Higham, *Accuracy and Stability of
  Numerical Algorithms*, Thm 24.2, times ``_FFT_SAFETY``) plus twice the
  rounding bound of a K-term sum in the sums' dtype in any order (eq. 4.4),
  which holds whatever order numpy's pairwise summation adds in.
* Shortlist.  The bounds give each ball's value an upper and a lower bound.
  A ball is summed exactly only if its upper bound reaches the largest lower
  bound, less a relative ``_SHORTLIST_RTOL`` (at least 1e4 ulps of the sums'
  dtype) for vectorised against scalar ``pow``.  The FFT only prunes; every
  value the norm reports comes from an exact sum.
* Exact sums.  A rank table holds, for each center and grid point, the
  index of the smallest radius whose closed ball contains the point
  (``searchsorted`` of the squared radii against the origin's distance
  table, rolled to the center), so ``rank <= j`` is exactly the mask
  ``dist2 <= r_j * r_j``.  Compressing a shortlisted center's rank row with
  ``rank <= j`` keeps the ball's points in raster order, so each row sum sees
  the same sequence, and the same pairwise summation, as ``magp[mask].sum()``.
* Winner.  The scalar expression and a strict ``>`` in center-major,
  radius-minor order pick the winner among the shortlist, which keeps the
  value, the witness and the first-wins tie-breaking.  Every ball that ties
  the winner bitwise is shortlisted; ``MorreyReport.exact_sums`` counts the
  shortlist.

Cost of one call with the tables cached: an FFT of one field and an inverse
FFT of one field per radius, then ``N**dim`` byte comparisons and a
compression per shortlisted ball.

Memory: the screen holds one field per radius; no exact-sum temporary holds
more than ``_CHUNK_ELEMS`` elements (or one field, when a field is larger).
One cache holds the tables of the last lattice used: the origin's rank
table, a half spectrum per radius and, when it fits ``_TABLE_BYTES``, the
rank table (one byte per center and point).  Otherwise the shortlisted rank
rows are rebuilt chunk by chunk for every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fields import (Grid, Trajectory, _forward, _inverse, gradient, pointwise_magnitude,
                     require_finite_positive)

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
    """Centers (integer index tuples) and dyadic radii on one grid.

    Everything is checked once, here; ``morrey_norm`` only checks that it is
    handed the grid the lattice was built for.
    """

    grid: Grid
    centers: tuple
    radii: tuple
    stride: int = 1

    def __post_init__(self):
        if len(self.centers) == 0:
            raise ValueError("lattice must carry at least one center")
        n, dim = self.grid.n, self.grid.dim
        for c in self.centers:
            if not (isinstance(c, tuple) and len(c) == dim
                    and all(isinstance(i, Integral) and 0 <= i < n for i in c)):
                raise ValueError(f"center {c!r} is not a {dim}-tuple of indices in [0, {n})")
        if len(self.radii) == 0:
            raise ValueError("lattice must carry at least one radius")
        require_finite_positive("smallest radius", self.radii[0])
        for a, b in zip(self.radii, self.radii[1:]):
            if not b == 2.0 * a:
                raise ValueError("radii must be strictly doubling")

    @property
    def n_centers(self) -> int:
        return len(self.centers)


@lru_cache(maxsize=16)
def ball_lattice(grid: Grid, stride: int | None = None, r_max: float | None = None) -> BallLattice:
    """Default search lattice: stride 2 for N >= 64 (cost control), else 1.

    Cached, so each lattice is built and checked once per process."""
    if stride is None:
        stride = 2 if grid.n >= 64 else 1
    if stride < 1:
        raise ValueError("stride must be >= 1")
    cap = grid.length / 2.0
    if r_max is not None:
        require_finite_positive("r_max", r_max)
        cap = min(cap, float(r_max))
    radii = []
    r = grid.h
    while r <= cap * (1.0 + 1e-12):
        radii.append(r)
        r = 2.0 * r
    if not radii:
        raise ValueError("no admissible radius <= L/2; increase r_max")
    centers = tuple(product(range(0, grid.n, stride), repeat=grid.dim))
    return BallLattice(grid=grid, centers=centers, radii=tuple(radii), stride=stride)


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


# Engine limits (see the module docstring): elements per temporary, the byte
# budget for caching a lattice's rank table, the relative slack between
# vectorised and scalar ``pow``, and the safety factor of the FFT error bound.
_CHUNK_ELEMS = 1 << 16
_TABLE_BYTES = 1 << 24
_SHORTLIST_RTOL = 1e-9
_FFT_SAFETY = 4.0

# Single-entry cache: {"key": lattice, "rank0": the origin's rank table,
# "centers", "flat": their raster indices, "table": rank table or None,
# "counts": points per ball, "spectra": rfftn of each radius's ball indicator}.
_rank_cache: dict = {}


def _rank_rows(grid: Grid, rank0: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Rows of the rank table for the given centers: rank0 rolled to each center,
    read as the window of the doubled table that starts at -center (mod N)."""
    windows = sliding_window_view(np.tile(rank0, (2,) * grid.dim), rank0.shape)
    return windows[tuple(((-centers) % grid.n).T)].reshape(len(centers), -1)


def _tables(lattice: BallLattice) -> dict:
    """The lattice's cached tables; the rank table only if it fits ``_TABLE_BYTES``."""
    if _rank_cache.get("key") == lattice:
        return _rank_cache
    grid = lattice.grid
    n_radii = len(lattice.radii)
    r2 = np.array([r * r for r in lattice.radii])
    rank0 = np.searchsorted(r2, grid.wrapped_dist2).astype(np.min_scalar_type(n_radii))
    centers = np.array(lattice.centers, dtype=np.intp).reshape(lattice.n_centers, grid.dim)
    _rank_cache.clear()  # drop the old tables before building the new ones
    table = None
    if lattice.n_centers * rank0.size <= _TABLE_BYTES:
        table = _rank_rows(grid, rank0, centers)
        table.flags.writeable = False
    balls = rank0 <= np.arange(n_radii).reshape((-1,) + (1,) * grid.dim)
    _rank_cache.update(key=lattice, rank0=rank0, centers=centers, table=table,
                       flat=np.ravel_multi_index(tuple(centers.T), grid.shape),
                       counts=np.count_nonzero(balls.reshape(n_radii, -1), axis=1),
                       spectra=_forward(grid, balls.astype(float))[0])
    return _rank_cache


def _screen(tables: dict, magp: np.ndarray) -> tuple:
    """FFT estimates of every lattice ball's sum of ``magp``, (centers, radii),
    and a bound on their distance from the exact sums (module docstring)."""
    grid = tables["key"].grid
    x = magp.astype(float, copy=False)
    conv = _inverse(grid, _forward(grid, x)[0] * tables["spectra"], True)
    approx = conv.reshape(len(conv), -1)[:, tables["flat"]].T
    counts = tables["counts"]
    # Higham Thm 24.2: relative 2-norm error of one transform of log2(N**dim)
    # radix-2 stages, eta = u + gamma_4 (sqrt(2) + u) per stage
    u = 0.5 * np.finfo(float).eps
    stage = u + 4 * u / (1 - 4 * u) * (np.sqrt(2) + u)
    eta = _FFT_SAFETY * grid.dim * np.ceil(np.log2(grid.n)) * stage
    # forward transform, ball spectrum (|spectrum| <= K points), product and
    # inverse; the sup norm is at most the 2-norm
    fft_err = eta / (1 - eta) * (3 * counts * np.sqrt(np.vdot(x, x)) + np.sqrt(counts) * x.sum())
    # summing K terms in the sums' dtype, in whatever order numpy adds them:
    # K - 1 roundings, gamma_(K-1) (Higham eq. 4.4), doubled for a margin where
    # it is tight (balls of a few points)
    u_sum = 0.5 * np.finfo(np.result_type(magp, 1.0)).eps
    gamma = 2 * (counts - 1) * u_sum / (1 - (counts - 1) * u_sum)
    return approx, fft_err + gamma * (approx + fft_err)


def _exact_sums(tables: dict, flat: np.ndarray, shortlist: np.ndarray) -> np.ndarray:
    """(centers, radii) array holding the exact sum of ``flat`` (raster order)
    over each shortlisted ball; the other entries are left unset."""
    lattice = tables["key"]
    n_radii = len(lattice.radii)
    sums = np.empty((lattice.n_centers, n_radii), dtype=flat.dtype)
    rows, cols = np.divmod(shortlist, n_radii)
    step = max(1, _CHUNK_ELEMS // flat.size)
    for j in sorted(set(cols.tolist())):
        need = rows[cols == j]
        for lo in range(0, len(need), step):
            sel = need[lo:lo + step]
            if tables["table"] is not None:
                block = tables["table"][sel]
            else:
                block = _rank_rows(lattice.grid, tables["rank0"], tables["centers"][sel])
            src = np.broadcast_to(flat, block.shape)
            sums[sel, j] = src[block <= j].reshape(len(block), -1).sum(axis=1)
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
    magp = pointwise_magnitude(grid, values) ** p
    if not np.isfinite(magp).all():
        raise ValueError(f"|values|**{p} is not finite everywhere")
    tables = _tables(lattice)
    approx, err = _screen(tables, magp)
    hn = grid.h ** grid.dim
    ndim = grid.dim
    weights = np.array([r ** (q - ndim) for r in lattice.radii])
    upper = (weights * ((approx + err) * hn)) ** (1.0 / p)
    lower = (weights * (np.maximum(approx - err, 0.0) * hn)) ** (1.0 / p)
    # the scalar expression runs in the sums' precision (float32 for float32 fields)
    rtol = max(_SHORTLIST_RTOL, 1e4 * np.finfo(np.result_type(magp, 1.0)).eps)
    # a ball that can reach the best lower bound, or any ball when a bound is NaN
    shortlist = np.flatnonzero(~(upper < lower.max() * (1.0 - rtol)))
    sums = _exact_sums(tables, magp.ravel(), shortlist)
    best_val = -1.0
    best_center = lattice.centers[0]
    best_radius = lattice.radii[0]
    for flat_index in shortlist:
        i, j = divmod(int(flat_index), len(lattice.radii))
        r = lattice.radii[j]
        val = (r ** (q - ndim) * (sums[i, j] * hn)) ** (1.0 / p)
        if val > best_val:
            best_val = val
            best_center = lattice.centers[i]
            best_radius = r
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
    r1_time: float
    r2_time: float
    r3_time: float

    @property
    def total(self) -> float:
        return self.r1 + self.r2 + self.r3


def xpt_norm(grid: Grid, traj: Trajectory, p: float) -> XptReport:
    if p <= 2:
        raise ValueError(f"trajectory norm needs p > 2, got {p}")
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    r1 = r2 = r3 = 0.0
    t1 = t2 = t3 = float(traj.times[0])
    for t, u in zip(traj.times, traj.fields):
        # |u| once: a real scalar field's magnitude is its abs, the identity on |u|
        mag = pointwise_magnitude(grid, u)
        n3 = morrey_norm(grid, mag, 2.0, 2.0).value
        if n3 > r3:
            r3, t3 = n3, float(t)
        if t > 0.0:
            n1 = morrey_norm(grid, mag, p, 2.0).value
            w1 = t ** (0.5 - 1.0 / p) * n1
            if w1 > r1:
                r1, t1 = w1, float(t)
            gu = gradient(grid, u)
            n2 = morrey_norm(grid, gu, 2.0, 2.0).value
            w2 = np.sqrt(t) * n2
            if w2 > r2:
                r2, t2 = w2, float(t)
    return XptReport(r1=float(r1), r2=float(r2), r3=float(r3), p=float(p),
                     t_end=float(traj.times[-1]), r1_time=t1, r2_time=t2, r3_time=t3)
