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

Space-time variants measure trajectories: the parabolic norm integrates
|f|^2 over cylinders B_r(x) x [t - r^2, t], and the trajectory norms take
time-weighted suprema of the spatial norms (components r1, r2, r3).

``morrey_norm`` evaluates every (center, radius) ball in batches and returns
bit for bit what a plain loop over ``|f|**p [ball mask].sum()`` returns:

* A rank table holds, for each center and grid point, the index of the
  smallest radius whose closed ball contains the point (``searchsorted`` of
  the squared radii against the origin's distance table, rolled to the
  center), so ``rank <= j`` is exactly the mask ``dist2 <= r_j * r_j``.
* Every lattice ball of one radius holds the same number K of points (the
  balls are translates on the torus).  A radius whose ball holds at most
  ``_GATHER_SHARE`` (half) of the grid is summed by a gather: its index
  table holds each center's K flat indices in raster order, and a row sum
  of ``flat.take(row)`` is the ball's sum.  The larger radii compress a
  block of rank rows with ``rank <= j``, which also keeps each row's points
  in raster order.  Either way each row sum sees the same K-sequence, and
  the same pairwise summation, as ``magp[mask].sum()``.
* Vectorised ``np.power`` can differ from scalar ``pow`` in the last bit,
  so the array of candidate values only shortlists the balls within a
  relative 1e-9 of the maximum; the winner is decided among those by the
  scalar expression and a strict ``>`` in center-major, radius-minor order,
  which keeps the value, the witness and the first-wins tie-breaking.

Cost of one call with the tables cached: ``n_centers * sum(K_j)`` gathered
points over the indexed radii, plus ``n_centers * N**dim`` byte comparisons
and a compression per scanned radius.  At 2-D N=64 stride 2 the five
indexed radii hold 5 + 13 + 49 + 197 + 797 points and only the largest
radius (3,207 of 4,096 points) is scanned.

Memory: no temporary holds more than ``_CHUNK_ELEMS`` elements (or one field,
when a field is larger).  The rank table (one byte per center and point) and
the index tables (the smallest unsigned type that holds ``N**dim - 1`` per
center and ball point) share one budget, ``_TABLE_BYTES``, and one cache
that holds the last lattice used.  Radii are indexed smallest first while
everything fits; the tables are built chunk by chunk, from one compression
of the rank rows for the largest indexed radius, and each smaller radius
keeps the points of the next larger ball whose rank it admits.  When the
rank table alone does not fit, nothing is cached and its rows are rebuilt
chunk by chunk for every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from numbers import Integral

import numpy as np

from .fields import Grid, Trajectory, gradient, pointwise_magnitude, require_finite_positive

__all__ = [
    "BallLattice",
    "ball_lattice",
    "MorreyReport",
    "morrey_norm",
    "recompute_witness",
    "ParabolicCylinder",
    "parabolic_morrey_norm",
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
    """Norm value plus the maximizing (center, radius) witness."""

    value: float
    p: float
    q: float
    witness_center: tuple
    witness_radius: float
    lattice: BallLattice


def _validate_pq(grid: Grid, p: float, q: float) -> None:
    if not (1.0 <= p < np.inf):
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
    # q <= n is the natural whole-space restriction; q = 2 is additionally
    # admitted in one dimension because torus radii are capped, which keeps
    # the q > n weight finite (the solution-space norms fix q = 2).
    if not (0.0 <= q <= max(2.0, float(grid.dim))):
        raise ValueError(f"q must lie in [0, max(2, n)], got {q}")


# Engine limits (see the module docstring): elements per temporary, the byte
# budget for caching a lattice's tables, and the largest share of the grid a
# ball may hold and still be summed by a gather from an index table.
_CHUNK_ELEMS = 1 << 16
_TABLE_BYTES = 1 << 24
_GATHER_SHARE = 0.5
_SHORTLIST_RTOL = 1e-9

# Single-entry cache: {"key": lattice, "table": rank table,
# "index": one (n_centers, K_j) raster-order index table per gathered radius j}.
_rank_cache: dict = {}


def _rank_rows(grid: Grid, rank0: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Rows of the rank table for the given centers: rank0 rolled to each center."""
    n, dim = grid.n, grid.dim
    index = []
    for ax in range(dim):
        shape = [1] * (dim + 1)
        shape[ax + 1] = n
        offsets = centers[:, ax].reshape((-1,) + (1,) * dim)
        index.append((np.arange(n).reshape(shape) - offsets) % n)
    return rank0[tuple(index)].reshape(len(centers), -1)


def _index_tables(table: np.ndarray, counts: np.ndarray, n_gathered: int) -> tuple:
    """Raster-order index tables of the first ``n_gathered`` radii, chunk by chunk.

    One compression of each block of rank rows serves the largest of those
    radii; every smaller radius keeps the points of the next larger ball whose
    rank it admits, which preserves raster order."""
    n_centers, size = table.shape
    positions = np.arange(size, dtype=np.min_scalar_type(size - 1))
    index = [np.empty((n_centers, int(k)), dtype=positions.dtype)
             for k in counts[:n_gathered]]
    top = n_gathered - 1
    step = max(1, _CHUNK_ELEMS // size)
    for lo in range(0, n_centers, step):
        block = table[lo:lo + step]
        keep = block <= top
        cols = np.broadcast_to(positions, block.shape)[keep].reshape(len(block), -1)
        ranks = block[keep].reshape(len(block), -1)
        index[top][lo:lo + step] = cols
        for j in range(top - 1, -1, -1):
            keep = ranks <= j
            cols = cols[keep].reshape(len(block), -1)
            ranks = ranks[keep].reshape(len(block), -1)
            index[j][lo:lo + step] = cols
    for idx in index:
        idx.flags.writeable = False
    return tuple(index)


def _cached_tables(lattice: BallLattice, rank0: np.ndarray, centers: np.ndarray) -> dict:
    """The lattice's rank table and as many index tables as fit in ``_TABLE_BYTES``.

    Radii whose ball holds at most ``_GATHER_SHARE`` of the grid are indexed,
    smallest first, while the rank table and the index tables fit the budget
    together.  Returns an empty dict when the rank table alone does not fit."""
    grid = lattice.grid
    n_radii = len(lattice.radii)
    table_bytes = lattice.n_centers * rank0.size
    if table_bytes > _TABLE_BYTES:
        return {}
    counts = np.cumsum(np.bincount(rank0.ravel(), minlength=n_radii + 1))[:n_radii]
    itemsize = np.min_scalar_type(rank0.size - 1).itemsize
    spent = table_bytes + np.cumsum(lattice.n_centers * counts * itemsize)
    n_gathered = int(np.count_nonzero((counts <= _GATHER_SHARE * rank0.size)
                                      & (spent <= _TABLE_BYTES)))
    _rank_cache.clear()  # drop the old tables before building the new ones
    table = _rank_rows(grid, rank0, centers)
    table.flags.writeable = False
    index = _index_tables(table, counts, n_gathered) if n_gathered else ()
    _rank_cache.update(key=lattice, table=table, index=index)
    return _rank_cache


def _ball_sums(lattice: BallLattice, flat: np.ndarray) -> np.ndarray:
    """Sum of ``flat`` (raster order) over every lattice ball, (centers, radii)."""
    grid = lattice.grid
    n_radii = len(lattice.radii)
    cache = _rank_cache if _rank_cache.get("key") == lattice else None
    if cache is None:
        r2 = np.array([r * r for r in lattice.radii])
        rank0 = np.searchsorted(r2, grid.wrapped_dist2).astype(np.min_scalar_type(n_radii))
        centers = np.array(lattice.centers, dtype=np.intp).reshape(lattice.n_centers, grid.dim)
        cache = _cached_tables(lattice, rank0, centers)
    table = cache.get("table")
    index = cache.get("index", ())
    sums = np.empty((lattice.n_centers, n_radii), dtype=flat.dtype)
    if index:
        # Reused for every chunk: a fresh half-MiB temporary per chunk measured
        # up to twice as slow.  The indices are in range, so ``clip`` clips
        # nothing; unlike ``raise`` it does not buffer ``out``.
        width = max(_CHUNK_ELEMS, flat.size)
        pos, vals = np.empty(width, dtype=np.intp), np.empty(width, dtype=flat.dtype)
    for j, idx in enumerate(index):
        step = max(1, _CHUNK_ELEMS // idx.shape[1])
        for lo in range(0, lattice.n_centers, step):
            block = idx[lo:lo + step]
            block_pos = pos[:block.size].reshape(block.shape)
            block_pos[...] = block
            block_vals = vals[:block.size].reshape(block.shape)
            flat.take(block_pos, out=block_vals, mode="clip").sum(axis=1, out=sums[lo:lo + step, j])
    if len(index) == n_radii:
        return sums
    step = max(1, _CHUNK_ELEMS // flat.size)
    for lo in range(0, lattice.n_centers, step):
        if table is not None:
            block = table[lo:lo + step]
        else:
            block = _rank_rows(grid, rank0, centers[lo:lo + step])
        src = np.broadcast_to(flat, block.shape)
        for j in range(len(index), n_radii):
            sums[lo:lo + step, j] = src[block <= j].reshape(len(block), -1).sum(axis=1)
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
    sums = _ball_sums(lattice, magp.ravel())
    hn = grid.h ** grid.dim
    ndim = grid.dim
    weights = np.array([r ** (q - ndim) for r in lattice.radii])
    approx = (weights * (sums * hn)) ** (1.0 / p)
    # the scalar expression runs in the sums' precision (float32 for float32 fields)
    rtol = max(_SHORTLIST_RTOL, 1e4 * np.finfo(np.result_type(sums, 1.0)).eps)
    shortlist = np.flatnonzero(approx >= approx.max() * (1.0 - rtol))
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
    )


def recompute_witness(grid: Grid, values: np.ndarray, report: MorreyReport) -> float:
    """Re-evaluate the norm candidate at the stored witness (center, radius)."""
    magp = pointwise_magnitude(grid, values) ** report.p
    rolled = np.roll(grid.wrapped_dist2, shift=report.witness_center,
                     axis=tuple(range(grid.dim)))
    r = report.witness_radius
    s = magp[rolled <= r * r].sum()
    hn = grid.h ** grid.dim
    return float((r ** (report.q - grid.dim) * (s * hn)) ** (1.0 / report.p))


# ---------------------------------------------------------------------------
# parabolic cylinders


@dataclass(frozen=True)
class ParabolicCylinder:
    """B_r0(center) x [t0 - r0^2, t0]; center is an integer grid index tuple."""

    center: tuple
    t0: float
    r0: float

    def __post_init__(self):
        if not np.isfinite(self.t0):
            raise ValueError(f"cylinder top time t0 must be finite, got {self.t0}")
        require_finite_positive("cylinder radius r0", self.r0)


def _interp_integral(times: np.ndarray, series: np.ndarray, t_lo: float, t_hi: float) -> float:
    """Integral over [t_lo, t_hi] of the linear interpolant through the samples."""
    if t_hi <= t_lo:
        return 0.0
    inner = times[(times > t_lo) & (times < t_hi)]
    nodes = np.concatenate(([t_lo], inner, [t_hi]))
    vals = np.interp(nodes, times, series)
    return float(np.trapezoid(vals, nodes))


def parabolic_morrey_norm(grid: Grid, traj: Trajectory, cylinder: ParabolicCylinder,
                          subcylinders: bool = True) -> float:
    """Sup over sampled sub-cylinders P_r(z) inside the given cylinder of

        (r**(2 - (n+2)) * int_{P_r(z)} |f|^2 dx dt) ** (1/2),

    with the time integral taken by trapezoid on the stored steps.
    """
    t0, r0 = cylinder.t0, cylinder.r0
    times = np.asarray(traj.times, dtype=float)
    tol = 1e-10
    if r0 > np.sqrt(t0) + tol:
        raise ValueError("cylinder radius must satisfy r0 <= sqrt(t0)")
    if times.min() > t0 - r0 * r0 + tol or times.max() < t0 - tol:
        raise ValueError("trajectory does not cover the cylinder time span")

    g2 = np.stack([pointwise_magnitude(grid, f) ** 2 for f in traj.fields])
    d2 = grid.wrapped_dist2
    hn = grid.h ** grid.dim
    ax_all = tuple(range(grid.dim))

    if subcylinders:
        radii = []
        r = grid.h
        while r < r0 * (1.0 - 1e-12):
            radii.append(r)
            r = 2.0 * r
        radii.append(r0)
        centers = list(product(range(grid.n), repeat=grid.dim))
        t_candidates = list(times[(times <= t0 + tol)])
        if not any(abs(t - t0) <= tol for t in t_candidates):
            t_candidates.append(t0)
    else:
        radii = [r0]
        centers = [cylinder.center]
        t_candidates = [t0]

    best = 0.0
    exponent = 2.0 - (grid.dim + 2)
    for center in centers:
        rolled = np.roll(d2, shift=center, axis=ax_all)
        dist_c = np.sqrt(d2[tuple(np.subtract(center, cylinder.center) % grid.n)])
        series_cache = {}
        for r in radii:
            if dist_c + r > r0 + tol:
                continue
            if r not in series_cache:
                mask = rolled <= r * r
                series_cache[r] = g2[:, mask].sum(axis=1) * hn
            series = series_cache[r]
            for t in t_candidates:
                t_lo = t - r * r
                if t_lo < t0 - r0 * r0 - tol or t > t0 + tol:
                    continue
                if t_lo < times.min() - tol:
                    continue
                integral = _interp_integral(times, series, t_lo, t)
                val = (max(r, 0.0) ** exponent * integral) ** 0.5
                if val > best:
                    best = val
    return float(best)


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
        n3 = morrey_norm(grid, u, 2.0, 2.0).value
        if n3 > r3:
            r3, t3 = n3, float(t)
        if t > 0.0:
            n1 = morrey_norm(grid, u, p, 2.0).value
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
