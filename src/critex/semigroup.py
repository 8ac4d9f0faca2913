"""The heat semigroup on the periodic grid.

Propagation is exact in the spectral sense: each Fourier mode is damped by
exp(-t |xi|^2) with xi the integer frequency scaled by pi/L.  The
smoothing-estimate machinery measures the empirical constant of the q -> r
decay bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import Field, lr_norm

_CACHE_CAP = 256


class Propagator:
    """Fourier-multiplier heat propagator bound to one grid.

    Multipliers for reused times are cached keyed by the exact float t, so
    repeated applications are bitwise reproducible.
    """

    def __init__(self, grid):
        self.grid = grid
        h = grid.h
        freqs = [2.0 * np.pi * np.fft.fftfreq(grid.n, d=h) for _ in range(grid.N - 1)]
        freqs.append(2.0 * np.pi * np.fft.rfftfreq(grid.n, d=h))
        xi2 = np.zeros([grid.n] * (grid.N - 1) + [grid.n // 2 + 1])
        for a, f in enumerate(freqs):
            shp = [1] * grid.N
            shp[a] = f.size
            xi2 = xi2 + (f * f).reshape(shp)
        self._xi2 = xi2
        self._axes = tuple(range(grid.N))
        self._cache = {}

    @property
    def xi2(self):
        """|xi|^2 on the rfftn half-spectrum of the grid, as a read-only view."""
        view = self._xi2.view()
        view.flags.writeable = False
        return view

    def multiplier(self, t):
        key = float(t)
        mult = self._cache.get(key)
        if mult is None:
            mult = np.exp(-key * self._xi2)
            if len(self._cache) >= _CACHE_CAP:
                self._cache.clear()
            self._cache[key] = mult
        return mult

    def to_spectrum(self, values):
        """Real FFT of grid values onto the half-spectrum where xi2 lives."""
        return np.fft.rfftn(values)

    def from_spectrum(self, spec):
        """Grid values of a half-spectrum (inverse of to_spectrum)."""
        return np.fft.irfftn(spec, s=self.grid.shape, axes=self._axes)

    def apply_values(self, values, t):
        if t == 0.0:
            return values
        spec = self.to_spectrum(values)
        spec *= self.multiplier(t)
        return self.from_spectrum(spec)

    def apply(self, f, t):
        """Evolve a field by time t >= 0; t = 0 is the identity."""
        if f.grid != self.grid:
            raise ValueError("field grid does not match propagator grid")
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        if t == 0.0:
            return f
        return Field(self.grid, self.apply_values(f.values, t))

    def laplacian_values(self, values):
        spec = self.to_spectrum(values)
        spec *= -self._xi2
        return self.from_spectrum(spec)


def spectral_laplacian(f):
    """Laplacian of a field by Fourier differentiation."""
    return Field(f.grid, Propagator(f.grid).laplacian_values(f.values))


def apply(f, t):
    """One-shot heat evolution (builds a throwaway propagator)."""
    return Propagator(f.grid).apply(f, t)


def verify_contraction(prop, f, t, q):
    """True iff the q-norm did not grow beyond roundoff under propagation."""
    return lr_norm(prop.apply(f, t), q) <= lr_norm(f, q) * (1.0 + 1e-12)


def presaturation_limit(grid):
    """Largest time for which torus smoothing still mimics free space.

    Beyond (L/8)^2 the kernel wraps around the box and the q -> r decay
    ratios drift away from their free-space behavior.
    """
    return (grid.L / 8.0) ** 2


@dataclass(frozen=True)
class SmoothingReport:
    """Observed q -> r smoothing ratios and their sup (the empirical constant).

    Each sample is (t, ratio) with
    ratio = ||e^{tD} phi||_r * t^{(N/2)(1/q - 1/r)} / ||phi||_q.
    """

    q: float
    r: float
    samples: tuple
    c1_hat: float


def estimate_smoothing_constant(grid, q, r, probes, times):
    """Measure the smoothing ratio over probes and pre-saturation times."""
    if not (1 <= q <= r):
        raise ValueError(f"need 1 <= q <= r, got q={q}, r={r}")
    tmax = presaturation_limit(grid)
    times = [float(t) for t in times]
    if any(t <= 0 for t in times):
        raise ValueError("times must be positive")
    if any(t > tmax * (1 + 1e-12) for t in times):
        raise ValueError(
            f"times beyond the pre-saturation range t <= (L/8)^2 = {tmax:.6g}"
        )
    prop = Propagator(grid)
    exponent = (grid.N / 2.0) * (1.0 / q - (0.0 if r == math.inf else 1.0 / r))
    samples = []
    for probe in probes:
        nq = lr_norm(probe, q)
        if nq == 0.0:
            raise ValueError("zero probe")
        for t in times:
            ratio = lr_norm(prop.apply(probe, t), r) * t**exponent / nq
            samples.append((t, ratio))
    c1_hat = max(s[1] for s in samples)
    return SmoothingReport(q=float(q), r=float(r), samples=tuple(samples), c1_hat=c1_hat)
