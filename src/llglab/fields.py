"""Periodic torus grids and exact spectral calculus.

All field data are plain numpy arrays whose trailing axes are the grid axes:
a scalar field has shape ``grid.shape``, an n-tuple of complex fields is
``(n, *grid.shape)``, a sphere-valued field is ``(3, *grid.shape)``.  Leading
axes broadcast through every operator, so component stacks go through a
single FFT pass.

Derivatives are Fourier multipliers.  Odd-order derivatives zero the Nyquist
multiplier (the standard real-output convention); even orders keep it.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "make_grid",
    "SpinField",
    "Trajectory",
    "to_spectral",
    "derivative",
    "gradient",
    "laplacian",
    "divergence",
    "inverse_laplacian_divergence",
    "pointwise_magnitude",
    "l2_norm",
    "sup_norm",
    "save_snapshot",
    "load_snapshot",
    "as_complex_components",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^dim, N points per axis."""

    dim: int
    n: int
    length: float

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def axes(self) -> tuple:
        """The trailing array axes that carry the grid."""
        return tuple(range(-self.dim, 0))

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @property
    def num_points(self) -> int:
        return self.n ** self.dim

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """1d wavenumber table 2*pi*m/L, m in [-N/2, N/2), fft layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    @cached_property
    def wavenumbers_odd(self) -> np.ndarray:
        """Wavenumbers with the Nyquist entry zeroed, for odd-order derivatives."""
        k = self.wavenumbers.copy()
        k[self.n // 2] = 0.0
        return k

    def axis_table(self, axis: int, table: np.ndarray) -> np.ndarray:
        """Reshape a 1d spectral table so it broadcasts along one grid axis."""
        shape = [1] * self.dim
        shape[axis] = self.n
        return table.reshape(shape)

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|xi|^2 with Nyquist retained (even-order calculus, semigroup)."""
        out = np.zeros(self.shape)
        for ax in range(self.dim):
            out = out + self.axis_table(ax, self.wavenumbers**2)
        return out

    @cached_property
    def k_squared_odd(self) -> np.ndarray:
        """Sum of squared Nyquist-zeroed wavenumbers, consistent with div/grad."""
        out = np.zeros(self.shape)
        for ax in range(self.dim):
            out = out + self.axis_table(ax, self.wavenumbers_odd**2)
        return out

    @cached_property
    def wrapped_offsets(self) -> np.ndarray:
        """Signed wrapped lattice offsets ((j + N/2) mod N - N/2) * h, j in [0, N)."""
        j = np.arange(self.n)
        return ((j + self.n // 2) % self.n - self.n // 2) * self.h

    @cached_property
    def wrapped_dist2(self) -> np.ndarray:
        """Squared wrapped distance from the origin, as a grid-shaped table."""
        out = np.zeros(self.shape)
        for ax in range(self.dim):
            out = out + self.axis_table(ax, self.wrapped_offsets) ** 2
        return out

    def coordinates(self) -> list:
        x = np.arange(self.n) * self.h
        return np.meshgrid(*([x] * self.dim), indexing="ij")


def float_repr(x) -> str:
    """Shortest round-trip decimal of a float, numpy scalars included."""
    return repr(float(x))


def require_finite_positive(name: str, value) -> None:
    """Reject a physical input that is NaN, infinite, zero or negative."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def make_grid(dim: int, n: int, length: float) -> Grid:
    """Validated grid constructor: dim in {1,2,3}, N a power of two >= 8, finite L > 0."""
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"points per axis must be a power of two >= 8, got {n}")
    require_finite_positive("box length", length)
    return Grid(dim=dim, n=int(n), length=float(length))


# ---------------------------------------------------------------------------
# spectral transforms and derivatives


def to_spectral(grid: Grid, values: np.ndarray) -> np.ndarray:
    return np.fft.fftn(np.asarray(values), axes=grid.axes)


def _apply_multiplier(grid: Grid, values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Multiply the spectral coefficients of ``values`` by ``mult``.

    Real input goes through the real transform and comes back real, so only
    multipliers that map real fields to real fields belong here.
    """
    values = np.asarray(values)
    axes = grid.axes
    if np.isrealobj(values):
        m = np.asarray(mult)
        if m.ndim and m.shape[-1] == grid.n:
            m = m[..., : grid.n // 2 + 1]
        spec = np.fft.rfftn(values, axes=axes)
        return np.fft.irfftn(spec * m, s=grid.shape, axes=axes)
    return np.fft.ifftn(np.fft.fftn(values, axes=axes) * mult, axes=axes)


def derivative(grid: Grid, values: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
    """Exact spectral derivative along one grid axis, order 1 or 2."""
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    table = grid.wavenumbers_odd if order == 1 else grid.wavenumbers
    mult = (1j * grid.axis_table(axis, table)) ** order
    return _apply_multiplier(grid, values, mult)


def gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Stack of first derivatives; output shape (dim, *values.shape)."""
    return np.stack([derivative(grid, values, ax, 1) for ax in range(grid.dim)])


def laplacian(grid: Grid, values: np.ndarray) -> np.ndarray:
    return _apply_multiplier(grid, values, -grid.k_squared)


def divergence(grid: Grid, vec: np.ndarray) -> np.ndarray:
    """Divergence of a stack of components laid out along axis 0."""
    vec = np.asarray(vec)
    if vec.shape[0] != grid.dim:
        raise ValueError(f"expected {grid.dim} components, got {vec.shape[0]}")
    out = derivative(grid, vec[0], 0, 1)
    for ax in range(1, grid.dim):
        out = out + derivative(grid, vec[ax], ax, 1)
    return out


def inverse_laplacian_divergence(grid: Grid, vec: np.ndarray) -> np.ndarray:
    """Mean-zero phi solving -laplacian(phi) = divergence(vec).

    Built from the same Nyquist-zeroed first-derivative multipliers as
    ``gradient``/``divergence`` so that div(vec + grad(phi)) vanishes to
    machine precision on every mode.  Modes where all zeroed wavenumbers
    vanish (the mean and pure-Nyquist modes) are set to zero.
    """
    vec = np.asarray(vec)
    if vec.shape[0] != grid.dim:
        raise ValueError(f"expected {grid.dim} components, got {vec.shape[0]}")
    real_in = np.isrealobj(vec)
    axes = grid.axes
    spec = np.fft.fftn(vec, axes=axes)
    div_hat = np.zeros(spec.shape[1:], dtype=complex)
    for ax in range(grid.dim):
        div_hat = div_hat + 1j * grid.axis_table(ax, grid.wavenumbers_odd) * spec[ax]
    k2 = grid.k_squared_odd
    nz = k2 > 0
    phi_hat = np.where(nz, div_hat / np.where(nz, k2, 1.0), 0.0)
    phi = np.fft.ifftn(phi_hat, axes=axes)
    return phi.real if real_in else phi


# ---------------------------------------------------------------------------
# norms and magnitudes


def _require_grid_axes(grid: Grid, values: np.ndarray) -> None:
    if values.shape[-grid.dim:] != grid.shape:
        raise ValueError(f"array of shape {values.shape} does not end in the grid "
                         f"axes {grid.shape}")


def pointwise_magnitude(grid: Grid, values: np.ndarray) -> np.ndarray:
    """|f|(x): abs for scalar fields, Euclidean norm over leading axes else."""
    values = np.asarray(values)
    _require_grid_axes(grid, values)
    lead = values.ndim - grid.dim
    if lead == 0:
        return np.abs(values)
    mag2 = (np.abs(values) ** 2).sum(axis=tuple(range(lead)))
    return np.sqrt(mag2)


def l2_norm(grid: Grid, values: np.ndarray) -> float:
    values = np.asarray(values)
    _require_grid_axes(grid, values)
    return float(np.sqrt((np.abs(values) ** 2).sum() * grid.cell_volume))


def sup_norm(grid: Grid, values: np.ndarray) -> float:
    return float(pointwise_magnitude(grid, values).max())


# ---------------------------------------------------------------------------
# sphere-valued fields


def normalize_spin(values: np.ndarray) -> np.ndarray:
    norms = np.sqrt((values**2).sum(axis=0))
    return values / norms


@dataclass(frozen=True)
class SpinField:
    """Unit-sphere-valued field; values have shape (3, *grid.shape)."""

    grid: Grid
    values: np.ndarray

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (3,) + grid.shape:
            raise ValueError(f"spin field must have shape {(3,) + grid.shape}")
        return cls(grid=grid, values=normalize_spin(values))

    def unit_defect(self) -> float:
        return float(np.abs(np.sqrt((self.values**2).sum(axis=0)) - 1.0).max())


@dataclass
class Trajectory:
    """Time-indexed sequence of field arrays."""

    times: np.ndarray
    fields: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or len(self.times) != len(self.fields):
            raise ValueError("times and fields must have matching lengths")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# binary snapshots
#
# header: magic "LLGF", u32 version=1, u32 dim, u32 N, f64 L, u32 components;
# payload: little-endian f64 samples, row-major over grid axes, components
# interleaved last.  Complex data are stored as (re, im) component pairs.

SNAPSHOT_MAGIC = b"LLGF"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIIIdI")


def save_snapshot(path, grid: Grid, values: np.ndarray) -> None:
    values = np.asarray(values)
    if values.shape[-grid.dim :] != grid.shape:
        raise ValueError("trailing axes must match the grid shape")
    flat = values.reshape((-1,) + grid.shape)
    if np.iscomplexobj(flat):
        comps = np.empty((2 * flat.shape[0],) + grid.shape)
        comps[0::2] = flat.real
        comps[1::2] = flat.imag
    else:
        comps = flat.astype(float)
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.dim, grid.n, grid.length, comps.shape[0]
    )
    payload = np.moveaxis(comps, 0, -1).astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_snapshot(path):
    """Read a snapshot; returns (grid, components) with shape (C, *grid.shape)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("truncated snapshot header")
        magic, version, dim, n, length, ncomp = _HEADER.unpack(head)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        grid = make_grid(dim, n, length)
        expected = 8 * ncomp * grid.num_points  # bytes of f64 samples
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != expected:  # checked before the payload is read
            raise ValueError(f"payload has {size} bytes, expected {expected}")
        raw = np.frombuffer(fh.read(), dtype="<f8")
    arr = raw.reshape(grid.shape + (ncomp,))
    return grid, np.moveaxis(arr, -1, 0).copy()


def as_complex_components(components: np.ndarray) -> np.ndarray:
    """Pair consecutive real components (re, im) into complex fields."""
    if components.shape[0] % 2 != 0:
        raise ValueError("need an even number of components for complex data")
    return components[0::2] + 1j * components[1::2]
