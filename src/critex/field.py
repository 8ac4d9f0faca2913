"""Grids, sampled fields and norms on a truncated periodic box.

Functions on R^N are represented by samples on the uniform grid of the
periodic box [-L, L)^N.  All integrals are rectangle-rule sums, which are
spectrally accurate for smooth data whose mass stays away from the box
boundary; the boundary-shell diagnostic quantifies how far that assumption
holds for a given field.

A data profile (a bump, a constant or a snapshot file) is built as a stream
of first-axis slabs by ``profile_slabs``.  ``data_profile`` writes the
stream into one array to make a Field; a consumer that only reduces the
profile (the certificate) takes the slabs and never holds the whole field.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SNAPSHOT_MAGIC = "CRITEX-FIELD v1"


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^N with n points per axis.

    n must be a power of two (the propagator uses radix-2 transforms) and at
    least 8; N is 1, 2 or 3.
    """

    N: int
    L: float
    n: int

    def __post_init__(self):
        if self.N not in (1, 2, 3):
            raise ValueError(f"N must be 1, 2 or 3, got {self.N}")
        if not (self.L > 0):
            raise ValueError(f"L must be positive, got {self.L}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        object.__setattr__(self, "L", float(self.L))

    @property
    def h(self):
        return 2.0 * self.L / self.n

    @property
    def shape(self):
        return (self.n,) * self.N

    @property
    def size(self):
        return self.n**self.N

    @property
    def cell_volume(self):
        return self.h**self.N

    def axis(self):
        """Coordinates of one axis: -L, -L+h, ..., L-h."""
        return -self.L + self.h * np.arange(self.n)

    @property
    def slab_shape(self):
        """Shape of one slab: max(1, 128 // n^(N-1)) first-axis rows, at most n.

        A slab thus holds 128 * 2^k points, or the whole grid (see
        ``slab_integral``).
        """
        rows = min(self.n, max(1, 128 // self.n ** (self.N - 1)))
        return (rows,) + self.shape[1:]

    def slab_rows(self):
        """The first-axis index ranges of the slabs, in order."""
        rows = self.slab_shape[0]
        return [slice(i, i + rows) for i in range(0, self.n, rows)]

    @cached_property
    def _face_masks(self):
        return {}

    def face_mask(self, depth):
        """Read-only mask of the points within depth*L of a box face.

        Built once per grid and depth.
        """
        mask = self._face_masks.get(depth)
        if mask is None:
            near = np.abs(self.axis()) >= (1.0 - depth) * self.L
            mask = np.zeros(self.shape, dtype=bool)
            for a in range(self.N):
                shp = [1] * self.N
                shp[a] = self.n
                mask |= near.reshape(shp)
            mask.flags.writeable = False
            self._face_masks[depth] = mask
        return mask


class Field:
    """Immutable real-valued samples on a Grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must all be finite")
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def __repr__(self):
        g = self.grid
        return f"Field(N={g.N}, L={g.L}, n={g.n}, max|u|={np.max(np.abs(self.values)):.6g})"

    def scaled(self, factor):
        return Field(self.grid, self.values * float(factor))


def integral(f):
    """Signed rectangle-rule quadrature h^N * sum(values)."""
    return f.grid.cell_volume * float(np.sum(f.values))


def slab_integral(grid, slab_sums):
    """``integral`` of a field from ``np.sum`` of each of its slabs, in order.

    numpy sums a contiguous float64 array pairwise: blocks of at most 128
    elements in an unrolled loop, larger ranges halved recursively at a
    multiple of 8.  A slab holds 128 * 2^k points or the whole grid, and a
    grid holds a power of two of slabs, so adding the slab sums pairwise,
    neighbours first, retraces ``np.sum(values)`` bitwise.
    """
    sums = list(slab_sums)
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return grid.cell_volume * float(sums[0])


def lr_norm(f, r):
    """Lebesgue r-norm by grid quadrature; r = inf gives max |values|."""
    if r != math.inf and r < 1:
        raise ValueError(f"r must be >= 1 (or inf), got {r}")
    with np.errstate(over="ignore"):  # inf is the honest answer for huge fields
        return norm_of_abs(np.abs(f.values), r, f.grid.cell_volume)


def norm_of_abs(absu, r, cell_volume):
    """lr_norm from precomputed |values|, for callers taking several norms."""
    if r == math.inf:
        return float(np.max(absu)) if absu.size else 0.0
    r = float(r)
    return (cell_volume * float(np.sum(absu**r))) ** (1.0 / r)


def boundary_shell_fraction(grid_values, depth=0.125, absu=None):
    """Fraction of the L1 mass within depth*L of the box faces.

    Returns 0 for the zero field and for a spatially constant field, which
    the periodic box carries exactly.  Large values mean the periodic
    truncation is no longer a faithful stand-in for free space.

    grid_values is a (grid, values) pair.  A caller that has already taken
    |values| passes it as absu.
    """
    grid, values = grid_values
    if absu is None:
        absu = np.abs(values)
    total = float(np.sum(absu))
    if total == 0.0 or values.min() == values.max():
        return 0.0
    return float(np.sum(absu[grid.face_mask(depth)])) / total


@dataclass(frozen=True)
class BumpSpec:
    """Recipe for a data profile: a bump kind, "constant" or "none" (no profile)."""

    kind: str = "gaussian"
    scale: float = 0.25
    amplitude: float = 1.0
    center: tuple | None = None

    def slabs(self, grid):
        """The profile's slabs, lazily; None for kind "none".

        kind = "gaussian":      amplitude * exp(-|x - c|^2 / (4*scale))
        kind = "compact_bump":  amplitude * exp(1 - 1/(1 - |x - c|^2/scale^2))
                                inside |x - c| < scale, zero outside.
        kind = "constant":      amplitude everywhere.

        For the gaussian, scale plays the role of the heat-kernel width
        parameter a, so amplitude (4*pi*scale)^(-N/2) gives unit mass.  A bad
        recipe raises here, and a warning is issued here when the bump sits
        too close to the box boundary (within 4 effective radii).
        """
        if self.kind == "none":
            return None
        if self.kind == "constant":
            return (np.full(grid.slab_shape, float(self.amplitude)) for _ in grid.slab_rows())
        scale, amplitude = self.scale, self.amplitude
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        center = (0.0,) * grid.N if self.center is None else tuple(map(float, self.center))
        if len(center) != grid.N:
            raise ValueError(f"center must have {grid.N} coordinates")

        ax = grid.axis()
        if self.kind == "gaussian":
            radius = 4.0 * math.sqrt(scale)
            # the Gaussian factors over the axes: N 1-D exponentials, and a
            # slab is the outer product of the first one's rows with the rest
            factors = [np.exp(-((ax - c) ** 2) / (4.0 * scale)) for c in center]
            factors[0] = amplitude * factors[0]

            def slab(rows):
                vals = factors[0][rows]
                for f in factors[1:]:
                    vals = np.multiply.outer(vals, f)
                return vals
        elif self.kind == "compact_bump":
            radius = scale
            squares = [(ax - c) ** 2 for c in center]

            def slab(rows):
                # |x - c|^2 summed axis by axis, the first axis first
                r2 = squares[0][rows].reshape((-1,) + (1,) * (grid.N - 1))
                for a in range(1, grid.N):
                    shp = [1] * grid.N
                    shp[a] = grid.n
                    r2 = r2 + squares[a].reshape(shp)
                s = r2 / (scale * scale)
                vals = np.zeros(s.shape)
                inside = s < 1.0
                with np.errstate(divide="ignore"):
                    vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s[inside]))
                return vals
        else:
            raise ValueError(f"unknown bump kind {self.kind!r}")

        margin = min(grid.L - abs(c) for c in center)
        if margin < radius:
            warnings.warn(
                f"{self.kind} with effective radius {radius:.3g} is within "
                f"{margin:.3g} of the box boundary; truncation may be visible",
                stacklevel=3,
            )
        return (slab(rows) for rows in grid.slab_rows())


def profile_slabs(grid, path=None, factor=1.0, **bump):
    """A data profile as its slabs (``Grid.slab_rows``), in order.

    The profile is the snapshot at path, else ``BumpSpec(**bump)`` on grid,
    times factor; None for kind "none".  A bad recipe or snapshot header
    raises ValueError here, before any slab; a slab with a non-finite value
    raises ValueError when it is reached.  Each slab is a fresh array, since
    a consumer may read one after it has asked for the next
    (``certificate.stream_forcing`` hashes them on another thread): no
    producer may refill one buffer.
    """
    slabs = _snapshot_slabs(path, grid) if path else BumpSpec(**bump).slabs(grid)
    return None if slabs is None else _finite(slabs, float(factor))


def _finite(slabs, factor):
    for slab in slabs:
        if factor != 1.0:
            slab = slab * factor  # the elementwise product of Field.scaled
        if not np.all(np.isfinite(slab)):
            raise ValueError("field values must all be finite")
        yield slab


def data_profile(grid, path=None, factor=1.0, **bump):
    """The Field that ``profile_slabs`` streams, written into one array; None for kind "none"."""
    slabs = profile_slabs(grid, path, factor, **bump)
    if slabs is None:
        return None
    values = np.empty(grid.shape)
    for rows, slab in zip(grid.slab_rows(), slabs, strict=True):
        values[rows] = slab
    return Field(grid, values)


def _snapshot_header(grid):
    return f"{SNAPSHOT_MAGIC} N={grid.N} L={grid.L:.17g} n={grid.n}\n".encode("ascii")


def write_snapshot(f, path):
    """Write a field as header line + row-major little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(_snapshot_header(f.grid))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8"))


def _snapshot_slabs(path, grid):
    """The slabs of the snapshot at path, read one at a time.

    The header must name grid and the payload must be exactly its 8 * n^N
    bytes; both are checked before any slab is read.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = os.fstat(fh.fileno()).st_size - len(line)
    header = line.decode("ascii", errors="replace").strip()
    parts = header.split()
    if parts[:2] != SNAPSHOT_MAGIC.split():
        raise ValueError(f"{path}: bad snapshot header {header!r}")
    kv = dict(item.partition("=")[::2] for item in parts[2:])
    missing = [key for key in ("N", "L", "n") if key not in kv]
    if missing:
        raise ValueError(f"{path}: snapshot header {header!r} lacks {', '.join(missing)}")
    try:
        snap = Grid(N=int(kv["N"]), L=float(kv["L"]), n=int(kv["n"]))
    except ValueError as exc:
        raise ValueError(f"{path}: bad snapshot header {header!r}: {exc}") from None
    if snap != grid:
        raise ValueError(f"snapshot {path} does not match the grid")
    expected = 8 * grid.size
    if payload < expected:
        raise ValueError(f"{path}: truncated snapshot payload: {payload} bytes, "
                         f"expected {expected}")
    if payload > expected:
        raise ValueError(f"{path}: snapshot payload has {payload - expected} bytes "
                         f"beyond the expected {expected}")
    return _read_slabs(path, len(line), grid)


def _read_slabs(path, offset, grid):
    size = 8 * math.prod(grid.slab_shape)
    with open(path, "rb") as fh:
        fh.seek(offset)
        for _ in grid.slab_rows():
            raw = fh.read(size)
            if len(raw) != size:
                raise ValueError(f"{path}: truncated snapshot payload")
            yield np.frombuffer(raw, dtype="<f8").reshape(grid.slab_shape)


def fingerprint_hash(grid):
    """SHA-256 fed the snapshot header of grid; fed the payload too, it is ``field_fingerprint``."""
    return hashlib.sha256(_snapshot_header(grid))


def field_fingerprint(f):
    """Stable content hash of a field (header + payload bytes)."""
    hsh = fingerprint_hash(f.grid)
    hsh.update(np.ascontiguousarray(f.values, dtype="<f8"))
    return hsh.hexdigest()
