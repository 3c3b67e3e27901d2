"""Periodic torus grids and exact spectral calculus.

All field data are plain numpy arrays whose trailing axes are the grid axes:
a scalar field has shape ``grid.shape``, an n-tuple of complex fields is
``(n, *grid.shape)``, a sphere-valued field is ``(3, *grid.shape)``.  Leading
axes broadcast through every operator, so component stacks go through a
single FFT pass.

Derivatives are Fourier multipliers.  Odd-order derivatives zero the Nyquist
multiplier (the standard real-output convention); even orders keep it.
This module owns every spectral transform of the package: ``_forward`` and
``_inverse`` run numpy's own 1-D passes in the order of its n-d wrappers,
so their bytes are those of ``rfftn``/``irfftn`` for real input (the half
spectrum: the last grid axis keeps its N/2 + 1 non-negative modes, and the
output comes back real) and of ``fftn``/``ifftn`` for complex input.  Every
pass after the first writes into the spectrum in place, and ``_inverse``
consumes the spectrum it is given.  Both take ``out=``, an array to write
the result into.  Every operator makes one forward transform of its input
(none when ``gradient`` or ``divergence`` is given the input's spectrum as
``spectrum=``, so that one transform can serve both) and one inverse
transform of its whole output stack: ``gradient``
multiplies the one spectrum by each axis's multiplier and inverts the
``(dim, ...)`` stack together, ``divergence`` sums its components in
spectral space, and ``inverse_laplacian_divergence`` solves every
right-hand side of a ``(dim, *batch, *grid)`` stack in the same call.
Every single multiplier (``derivative``, ``laplacian``, S(t), the mollifier,
the ball-norm screen) goes through ``_apply_multiplier``, the one forward ->
multiply -> inverse round trip (only multiply -> inverse when it is given the
input's spectrum as ``spectrum=``, so that one transform of a datum serves
every S(t) of it); ``_layout`` halves a full table for real input.

A computation repeated many times on one grid, such as the nodes of a
mild solve, runs in a ``Workspace``: ``gradient``, ``divergence`` and
``inverse_laplacian_divergence`` given ``work=`` take their spectra from
it and write a complex result into ``work`` too
(``inverse_laplacian_divergence`` writes to ``out=`` when given one), so
that after the first pass no call allocates an array.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np
import numpy.fft  # numpy 2 loads it on first use; load it with the package

__all__ = [
    "Grid",
    "make_grid",
    "SpinField",
    "Trajectory",
    "Workspace",
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

    def _axis_sum(self, table: np.ndarray) -> np.ndarray:
        """The grid-shaped sum over the axes of a 1d table laid along each one."""
        out = np.zeros(self.shape)
        for ax in range(self.dim):
            out = out + self.axis_table(ax, table)
        return out

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|xi|^2 with Nyquist retained (even-order calculus, semigroup)."""
        return self._axis_sum(self.wavenumbers**2)

    @cached_property
    def k_squared_distinct(self) -> tuple:
        """(values, index): the distinct values of ``k_squared``, sorted, and
        the grid-shaped index that rebuilds it, ``values[index]``."""
        values, index = np.unique(self.k_squared, return_inverse=True)
        return values, index.reshape(self.shape)

    @cached_property
    def _laplacian_multiplier(self) -> np.ndarray:
        """-|xi|^2, full layout; ``_layout`` slices its half for real input."""
        return -self.k_squared

    @cached_property
    def k_squared_odd(self) -> np.ndarray:
        """Sum of squared Nyquist-zeroed wavenumbers, consistent with div/grad."""
        return self._axis_sum(self.wavenumbers_odd**2)

    @cached_property
    def inv_k_squared_odd(self) -> np.ndarray:
        """1 / k_squared_odd, zero where it vanishes (the mean and pure-Nyquist modes)."""
        k2 = self.k_squared_odd
        nz = k2 > 0
        return np.where(nz, 1.0 / np.where(nz, k2, 1.0), 0.0)

    @cached_property
    def derivative_multipliers(self) -> tuple:
        """First-derivative multipliers i*k_ax (Nyquist zeroed), one per axis."""
        return tuple(1j * self.axis_table(ax, self.wavenumbers_odd)
                     for ax in range(self.dim))

    @cached_property
    def wrapped_offsets(self) -> np.ndarray:
        """Signed wrapped lattice offsets ((j + N/2) mod N - N/2) * h, j in [0, N)."""
        j = np.arange(self.n)
        return ((j + self.n // 2) % self.n - self.n // 2) * self.h

    @cached_property
    def wrapped_dist2(self) -> np.ndarray:
        """Squared wrapped distance from the origin, as a grid-shaped table."""
        return self._axis_sum(self.wrapped_offsets**2)

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


def require_integer(name: str, value) -> None:
    """Reject a count that is not an integer (numpy integers pass, bools do not)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def make_grid(dim: int, n: int, length: float) -> Grid:
    """Validated grid constructor: dim in {1,2,3}, N a power of two >= 8, finite L > 0."""
    require_integer("dim", dim)
    require_integer("n", n)
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"points per axis must be a power of two >= 8, got {n}")
    require_finite_positive("box length", length)
    return Grid(dim=int(dim), n=int(n), length=float(length))


# ---------------------------------------------------------------------------
# reusable scratch memory


class Workspace:
    """Scratch memory for a computation repeated on one grid: one byte buffer
    handed out as arrays in stack order.

    ``take`` carves the next array off the buffer, and everything taken
    inside a ``with work.scope():`` block is given back when the block
    exits, so arrays whose lifetimes do not overlap share memory.  An array
    taken in a scope must not be read after the scope exits.  A request past
    the end of the buffer gets a fresh array, and when the outermost scope
    exits the buffer grows to the largest extent ever requested: the first
    pass sizes it, and every later pass allocates nothing.  A fresh
    workspace hands out fresh arrays, so a function given none builds one
    and runs the same code.  One workspace serves one thread.
    """

    _ALIGN = 64  # bytes; every array starts on a cache line

    def __init__(self):
        self._buffer = np.empty(0, np.uint8)
        self._top = 0
        self._high = 0
        self._marks = []

    @property
    def nbytes(self) -> int:
        """Size of the buffer."""
        return self._buffer.size

    def take(self, shape: tuple, dtype) -> np.ndarray:
        """An uninitialised C-contiguous array, valid until its scope exits."""
        dtype = np.dtype(dtype)
        start = -(-self._top // self._ALIGN) * self._ALIGN
        self._top = start + math.prod(shape) * dtype.itemsize
        if self._top > self._buffer.size:
            self._high = max(self._high, self._top)
            return np.empty(shape, dtype)
        return np.ndarray(shape, dtype, self._buffer, start)

    def scope(self) -> Workspace:
        """The workspace as a context manager that gives back, on exit,
        everything taken since it was entered."""
        return self

    def __enter__(self):
        self._marks.append(self._top)

    def __exit__(self, *exc_info):
        self._top = top = self._marks.pop()
        if top == 0 and self._high > self._buffer.size:
            self._buffer = np.empty(self._high, np.uint8)


# ---------------------------------------------------------------------------
# spectral transforms and derivatives


def _forward(grid: Grid, values: np.ndarray, out: np.ndarray | None = None):
    """(spectrum, real_in): the bytes of numpy's rfftn of real input and fftn
    of complex input over the grid axes, made as their 1-D passes in their
    order (rfft or fft on the last axis, then fft on -2, then -3), every pass
    after the first in place.  The spectrum is written to ``out`` when given
    (``values`` itself may be ``out``); otherwise ``values`` is not written to."""
    real_in = np.isrealobj(values)
    spec = (np.fft.rfft if real_in else np.fft.fft)(values, axis=-1, out=out)
    for ax in grid.axes[-2::-1]:
        np.fft.fft(spec, axis=ax, out=spec)
    return spec, real_in


def _inverse(grid: Grid, spec: np.ndarray, real_in: bool,
             out: np.ndarray | None = None) -> np.ndarray:
    """The bytes of numpy's irfftn (``real_in``) or ifftn of ``spec`` over the
    grid axes, made as their 1-D passes in their order: irfftn runs ifft on
    -3, then -2, then irfft on -1; ifftn runs ifft on -1, then -2, then -3.
    The result is written to ``out`` when given.  The ifft passes run in
    place (in ``out``, when ifftn is given one), so ``spec`` may be
    overwritten: pass only an array the caller owns and no longer reads."""
    if real_in:
        for ax in grid.axes[:-1]:
            np.fft.ifft(spec, axis=ax, out=spec)
        return np.fft.irfft(spec, n=grid.n, axis=-1, out=out)
    if out is None:
        out = spec
    for ax in grid.axes[::-1]:
        spec = np.fft.ifft(spec, axis=ax, out=out)
    return out


def _layout(grid: Grid, mult, real_in: bool):
    """A full-spectrum multiplier in the layout of ``_forward``'s spectrum:
    its half-spectrum (rfftn) part for real input, unchanged otherwise."""
    m = np.asarray(mult)
    if real_in and m.ndim and m.shape[-1] == grid.n:
        m = m[..., : grid.n // 2 + 1]
    return m


def _apply_multiplier(grid: Grid, values: np.ndarray, mult: np.ndarray, *,
                      spectrum: np.ndarray | None = None) -> np.ndarray:
    """Multiply the spectral coefficients of ``values`` by ``mult``.

    Real input goes through the real transform and comes back real, so only
    multipliers that map real fields to real fields belong here.  The product
    is out of place: a float32 field's spectrum is complex64, and an in-place
    product would bring a float32 result back, not a float64 one.  Given
    ``spectrum``, ``_forward``'s spectrum of ``values`` (read, not written),
    it makes no forward transform.
    """
    values = np.asarray(values)
    if spectrum is None:
        spectrum = _forward(grid, values)[0]
    real_in = np.isrealobj(values)
    return _inverse(grid, spectrum * _layout(grid, mult, real_in), real_in)


def derivative(grid: Grid, values: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
    """Exact spectral derivative along one grid axis, order 1 or 2."""
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    table = grid.wavenumbers_odd if order == 1 else grid.wavenumbers
    mult = (1j * grid.axis_table(axis, table)) ** order
    return _apply_multiplier(grid, values, mult)


def _spectrum_of(grid: Grid, values: np.ndarray, work: Workspace,
                 spectrum: np.ndarray | None):
    """(spectrum, real_in) of ``values``: ``spectrum`` itself when given (it
    must be ``_forward``'s spectrum of ``values``; it is only read), else
    one forward transform into an array from ``work``."""
    if spectrum is not None:
        return spectrum, np.isrealobj(values)
    shape = values.shape
    if np.isrealobj(values):
        shape = shape[:-1] + (grid.n // 2 + 1,)
    return _forward(grid, values, out=work.take(shape, np.result_type(values, 1j)))


def gradient(grid: Grid, values: np.ndarray, *, work: Workspace | None = None,
             spectrum: np.ndarray | None = None) -> np.ndarray:
    """Stack of first derivatives; output shape (dim, *values.shape).

    One forward transform, one inverse of the whole stack; bitwise equal to
    stacking ``derivative(grid, values, ax, 1)`` over the axes.  With
    ``work`` the spectra come from it, and so does a complex result.  Given
    ``spectrum``, ``_forward``'s spectrum of ``values`` (read, not written),
    it makes no forward transform.
    """
    work = Workspace() if work is None else work
    values = np.asarray(values)
    spec, real_in = _spectrum_of(grid, values, work, spectrum)
    mults = [_layout(grid, m, real_in) for m in grid.derivative_multipliers]
    stack = work.take((grid.dim,) + spec.shape, np.result_type(spec, *mults))
    for ax, m in enumerate(mults):
        np.multiply(spec, m, out=stack[ax])
    return _inverse(grid, stack, real_in)


def laplacian(grid: Grid, values: np.ndarray) -> np.ndarray:
    return _apply_multiplier(grid, values, grid._laplacian_multiplier)


def _divergence_spectrum(grid: Grid, vec: np.ndarray, work: Workspace,
                         spectrum: np.ndarray | None = None):
    """(spectrum of div vec, real_in) from one transform of the component
    stack, or from its given ``spectrum``, in arrays taken from ``work``."""
    vec = np.asarray(vec)
    if vec.shape[0] != grid.dim:
        raise ValueError(f"expected {grid.dim} components, got {vec.shape[0]}")
    spec, real_in = _spectrum_of(grid, vec, work, spectrum)
    mults = [_layout(grid, m, real_in) for m in grid.derivative_multipliers]
    dtype = np.result_type(spec, *mults)
    div_hat = np.multiply(spec[0], mults[0], out=work.take(spec.shape[1:], dtype))
    if grid.dim > 1:
        term = work.take(spec.shape[1:], dtype)
        for ax in range(1, grid.dim):
            div_hat += np.multiply(spec[ax], mults[ax], out=term)
    return div_hat, real_in


def divergence(grid: Grid, vec: np.ndarray, *, work: Workspace | None = None,
               spectrum: np.ndarray | None = None) -> np.ndarray:
    """Divergence of a stack of components laid out along axis 0.

    ``work`` and ``spectrum`` as for ``gradient``.
    """
    div_hat, real_in = _divergence_spectrum(grid, vec, Workspace() if work is None else work,
                                            spectrum)
    return _inverse(grid, div_hat, real_in)


def inverse_laplacian_divergence(grid: Grid, vec: np.ndarray, *,
                                 out: np.ndarray | None = None,
                                 work: Workspace | None = None) -> np.ndarray:
    """Mean-zero phi solving -laplacian(phi) = divergence(vec).

    Built from the same Nyquist-zeroed first-derivative multipliers as
    ``gradient``/``divergence`` so that div(vec + grad(phi)) vanishes to
    machine precision on every mode.  Modes where all zeroed wavenumbers
    vanish (the mean and pure-Nyquist modes) are set to zero.

    ``vec`` has shape ``(dim, *batch, *grid.shape)``: axis 0 holds the
    components and every axis between it and the grid axes indexes
    right-hand sides, all solved in one transform pair; phi has shape
    ``(*batch, *grid.shape)``.  The result is written to ``out`` when
    given; ``work`` as for ``gradient``, and a complex result without
    ``out`` comes from it too.
    """
    div_hat, real_in = _divergence_spectrum(grid, vec, Workspace() if work is None else work)
    div_hat *= _layout(grid, grid.inv_k_squared_odd, real_in)
    return _inverse(grid, div_hat, real_in, out=out)


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


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a x b over axis 0, each component formed as numpy's cross product forms it
    (a1*b2 - a2*b1, ...), so the bytes are the same, but on contiguous component
    rows and without its axis moves.  ``out`` must not share memory with a or b.
    """
    if out is None:
        out = np.empty(np.shape(a), np.result_type(a, b))
    tmp = np.empty_like(out[0])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        np.multiply(a[k], b[j], out=tmp)
        out[i] -= tmp
    return out


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
