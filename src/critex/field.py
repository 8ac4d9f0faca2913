"""Grids, sampled fields and norms on a truncated periodic box.

Functions on R^N are represented by samples on the uniform grid of the
periodic box [-L, L)^N.  All integrals are rectangle-rule sums, which are
spectrally accurate for smooth data whose mass stays away from the box
boundary; the boundary-shell diagnostic quantifies how far that assumption
holds for a given field.
"""

from __future__ import annotations

import math
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


def boundary_shell_fraction(f, depth=0.125, absu=None):
    """Fraction of the L1 mass within depth*L of the box faces.

    Returns 0 for the zero field and for a spatially constant field, which
    the periodic box carries exactly.  Large values mean the periodic
    truncation is no longer a faithful stand-in for free space.

    f is a Field or a (grid, values) pair.  A caller that has already taken
    |values| passes it as absu.
    """
    grid, values = (f.grid, f.values) if isinstance(f, Field) else f
    if absu is None:
        absu = np.abs(values)
    total = float(np.sum(absu))
    if total == 0.0 or values.min() == values.max():
        return 0.0
    return float(np.sum(absu[grid.face_mask(depth)])) / total


@dataclass(frozen=True)
class ForcingSpec:
    """Spatial forcing profile w together with its cached signed mass."""

    profile: Field
    mass: float

    def __post_init__(self):
        actual = integral(self.profile)
        if abs(actual - self.mass) > 1e-12 * max(1.0, abs(actual)):
            raise ValueError(
                f"cached mass {self.mass!r} disagrees with quadrature {actual!r}"
            )

    @classmethod
    def from_profile(cls, profile):
        return cls(profile=profile, mass=integral(profile))


def make_bump(grid, kind, center=None, scale=1.0, amplitude=1.0):
    """Sample a localized profile on the grid.

    kind = "gaussian":      amplitude * exp(-|x - c|^2 / (4*scale))
    kind = "compact_bump":  amplitude * exp(1 - 1/(1 - |x - c|^2/scale^2))
                            inside |x - c| < scale, zero outside.

    For the gaussian, scale plays the role of the heat-kernel width
    parameter a, so amplitude (4*pi*scale)^(-N/2) gives unit mass.  A
    warning is attached when the bump sits too close to the box boundary
    (within 4 effective radii).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if center is None:
        center = (0.0,) * grid.N
    center = tuple(float(c) for c in center)
    if len(center) != grid.N:
        raise ValueError(f"center must have {grid.N} coordinates")

    ax = grid.axis()
    if kind == "gaussian":
        radius = 4.0 * math.sqrt(scale)
        # the Gaussian factors over the axes: N 1-D exponentials, outer product
        vals = amplitude * np.exp(-((ax - center[0]) ** 2) / (4.0 * scale))
        for c in center[1:]:
            vals = np.multiply.outer(vals, np.exp(-((ax - c) ** 2) / (4.0 * scale)))
    elif kind == "compact_bump":
        radius = scale
        r2 = np.zeros(grid.shape)
        for a in range(grid.N):
            shp = [1] * grid.N
            shp[a] = grid.n
            r2 = r2 + ((ax - center[a]) ** 2).reshape(shp)
        s = r2 / (scale * scale)
        vals = np.zeros(grid.shape)
        inside = s < 1.0
        with np.errstate(divide="ignore"):
            vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s[inside]))
    else:
        raise ValueError(f"unknown bump kind {kind!r}")

    margin = min(grid.L - abs(c) for c in center)
    if margin < radius:
        warnings.warn(
            f"{kind} with effective radius {radius:.3g} is within "
            f"{margin:.3g} of the box boundary; truncation may be visible",
            stacklevel=2,
        )
    return Field(grid, vals)


@dataclass(frozen=True)
class BumpSpec:
    """Recipe for a data profile: a make_bump kind, "constant" or "none" (no profile)."""

    kind: str = "gaussian"
    scale: float = 0.25
    amplitude: float = 1.0
    center: tuple | None = None

    def build(self, grid):
        if self.kind == "none":
            return None
        if self.kind == "constant":
            return Field(grid, np.full(grid.shape, self.amplitude))
        return make_bump(grid, self.kind, center=self.center, scale=self.scale,
                         amplitude=self.amplitude)


def data_profile(grid, path=None, factor=1.0, **bump):
    """The snapshot at path, else BumpSpec(**bump).build(grid), scaled by factor.

    None for kind "none".  At factor 1.0 the field is returned as built or read.
    """
    f = read_snapshot(path) if path else BumpSpec(**bump).build(grid)
    if path and f.grid != grid:
        raise ValueError(f"snapshot {path} does not match the grid")
    return f if f is None or factor == 1.0 else f.scaled(factor)


def write_snapshot(f, path):
    """Write a field as header line + row-major little-endian float64."""
    g = f.grid
    header = f"{SNAPSHOT_MAGIC} N={g.N} L={g.L:.17g} n={g.n}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8"))


def read_snapshot(path):
    """Read a field written by write_snapshot."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        parts = header.split()
        if parts[:2] != SNAPSHOT_MAGIC.split():
            raise ValueError(f"{path}: bad snapshot header {header!r}")
        kv = dict(item.split("=", 1) for item in parts[2:])
        grid = Grid(N=int(kv["N"]), L=float(kv["L"]), n=int(kv["n"]))
        raw = fh.read(8 * grid.size)
        if len(raw) != 8 * grid.size:
            raise ValueError(f"{path}: truncated snapshot payload")
        vals = np.frombuffer(raw, dtype="<f8").reshape(grid.shape)
    return Field(grid, vals)


def field_fingerprint(f):
    """Stable content hash of a field (header + payload bytes)."""
    import hashlib

    g = f.grid
    hsh = hashlib.sha256()
    hsh.update(f"{SNAPSHOT_MAGIC} N={g.N} L={g.L:.17g} n={g.n}\n".encode("ascii"))
    hsh.update(np.ascontiguousarray(f.values, dtype="<f8"))
    return hsh.hexdigest()
