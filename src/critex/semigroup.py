"""The heat semigroup on the periodic grid.

Propagation is exact in the spectral sense: each Fourier mode is damped by
exp(-t |xi|^2) with xi the integer frequency scaled by pi/L.  The forcing
term int_0^t s^sigma e^{(t-s)D} w ds has the closed-form multiplier
`forcing_multiplier`, shared by the Picard map and the evolver.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import hyp1f1

from .field import lr_norm  # noqa: F401 - the benchmark tracer hooks lr_norm here


class Propagator:
    """Fourier-multiplier heat propagator bound to one grid.

    Multipliers are cached by the exact float t.  The evolver asks for five
    per step-doubling trial, and the next trial may ask again, so a few
    recent times are all the cache keeps.
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
        self._multipliers = functools.lru_cache(maxsize=8)(lambda t: np.exp(-t * xi2))

    @property
    def xi2(self):
        """|xi|^2 on the rfftn half-spectrum of the grid, as a read-only view."""
        view = self._xi2.view()
        view.flags.writeable = False
        return view

    def multiplier(self, t):
        return self._multipliers(float(t))

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

    def laplacian_values(self, values):
        spec = self.to_spectrum(values)
        spec *= -self._xi2
        return self.from_spectrum(spec)

    @functools.cached_property
    def _xi2_levels(self):
        levels, where = np.unique(self._xi2.ravel(), return_inverse=True)
        return levels, where.reshape(self._xi2.shape)

    def forcing_multiplier(self, t, sigma):
        """`forcing_multiplier` on the half-spectrum, with 1F1 evaluated once
        per distinct |xi|^2 and expanded to the modes that share it."""
        levels, where = self._xi2_levels
        return forcing_multiplier(t, levels, sigma)[where]


def forcing_multiplier(t, xi2, sigma):
    """int_0^t s^sigma exp(-(t-s) xi2) ds for sigma > -1, in closed form.

    Substituting s = t u turns it into t^(sigma+1) times Kummer's integral,
    t^(sigma+1)/(sigma+1) 1F1(1; sigma+2; -t xi2): the Fourier multiplier of
    the forcing term, exact for every mode however stiff.
    """
    s1 = sigma + 1.0
    return t**s1 / s1 * hyp1f1(1.0, s1 + 1.0, -t * xi2)
