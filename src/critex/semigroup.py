"""The heat semigroup on the periodic grid.

Propagation is exact in the spectral sense: each Fourier mode is damped by
exp(-t |xi|^2) with xi the integer frequency scaled by pi/L.  The forcing
term int_0^t s^sigma e^{(t-s)D} w ds has the closed-form multiplier
`forcing_multiplier`, t^(sigma+1) g(t |xi|^2) with
g(z) = 1F1(1; sigma+2; -z)/(sigma+1), shared by the Picard map and the
evolver.  g is evaluated in numpy alone, band by band in z: 8-term Taylor
polynomials for z < 4, 16-term ones further out, and the asymptotic series
in 1/z beyond a sigma-dependent edge.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

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
    def xi2_levels(self):
        """(levels, where): the distinct |xi|^2, ascending, and each mode's
        index into them, so that levels[where] is xi2."""
        levels, where = np.unique(self._xi2.ravel(), return_inverse=True)
        return levels, where.reshape(self._xi2.shape)

    def forcing_multiplier(self, t, sigma):
        """`forcing_multiplier` on the half-spectrum, evaluated once per
        distinct |xi|^2 and expanded to the modes that share it."""
        levels, where = self.xi2_levels
        return forcing_multiplier(t, levels, sigma)[where]


def forcing_multiplier(t, xi2, sigma):
    """int_0^t s^sigma exp(-(t-s) xi2) ds for sigma > -1, in closed form.

    Substituting s = t u turns it into t^(sigma+1) g(t xi2), with Kummer's
    integral g(z) = int_0^1 u^sigma e^{-z(1-u)} du = 1F1(1; sigma+2; -z)/(sigma+1):
    the Fourier multiplier of the forcing term, exact for every mode however
    stiff.  g is evaluated in numpy alone (`_kummer_g`), one polynomial per
    band of z (`_bands`): 8-term Taylor polynomials on bands of width 1/16
    below z = 4, 16-term ones on bands of width max(1, 0.16 (sigma + 1))
    beyond, and the asymptotic series in 1/z from z = max(86, 11.6 sigma)
    on.  Relative error against 40-digit mpmath is at most about 2e-15.
    """
    z = np.asarray(t * xi2, dtype=np.float64)
    return t ** (sigma + 1.0) * _kummer_g(z.ravel(), sigma).reshape(z.shape)


_NEAR = 4.0  # z below this takes the 8-term bands, z above it the 16-term ones
_DEPTH = 1000  # start of the backward recurrence for the Taylor coefficients


class _Bands(NamedTuple):
    """Polynomials of g on bands in z, one coefficient column per band.

    Rows are in bit-reversed order for `_estrin`.  The first 64 columns are
    the 8-term polynomials of the bands [b/16, (b+1)/16) below z = 4,
    zero-padded to 16 terms (which leaves every result bit the same), then
    come the far bands [(b-64) width, (b-63) width), and last the asymptotic
    band, a polynomial in 1/z.
    """

    coef: np.ndarray
    centres: np.ndarray
    width: float


def _bit_reversed(terms):
    bits = terms.bit_length() - 1
    return [int(f"{k:0{bits}b}"[::-1], 2) for k in range(terms)]


def _taylor_coefficients(centres, s1, terms):
    """g^(k)(c)/k! for k < terms (rows) at each centre c (columns).

    For s1 < 1 they are the all-positive sums
    (-1)^k e^{-c} sum_j c^j / (j! (s1+j)_{k+1}), from differentiating
    e^{-z} sum_j z^j / (j! (s1+j)) (DLMF 13.2.39).  For s1 >= 1, where the
    centres may lie too far out for those sums, g's ODE
    z g' + (z + s1) g = 1 gives c (k+1) d_{k+1} + (k + c + s1) d_k + d_{k-1} = 0
    for k >= 1 and c d_1 + (c + s1) d_0 = 1.  g is entire, so its
    coefficients are the minimal solution and their ratios come from the
    backward recurrence (Gautschi, SIAM Review 9, 1967).  That loses digits
    as s1 -> 0, where the other solution z^-s1 e^-z tends to the entire e^-z.
    """
    c = np.asarray(centres, dtype=np.float64)
    k = np.arange(terms)
    if s1 < 1.0:
        j = np.arange(int(c.max() + 12.0 * np.sqrt(c.max()) + 30.0))
        poisson = np.multiply.accumulate(
            np.column_stack([np.exp(-c), c[:, None] / j[1:]]), axis=1)
        pochhammer = np.multiply.accumulate(1.0 / (s1 + j[:, None] + k), axis=1)
        d = (poisson[:, :, None] * pochhammer).sum(axis=1).T
        return d * np.where(k % 2, -1.0, 1.0)[:, None]
    ratio = np.zeros_like(c)
    ratios = []
    for n in range(_DEPTH, 0, -1):
        ratio = -1.0 / (n + c + s1 + c * (n + 1) * ratio)
        if n < terms:
            ratios.append(ratio)
    d0 = 1.0 / (c + s1 + c * ratio)
    return np.multiply.accumulate(np.vstack([d0] + ratios[::-1]), axis=0)


@functools.lru_cache(maxsize=8)
def _bands(sigma):
    """The bands of g at sigma.

    Near, for z < 4: 64 bands of width 1/16 with the 8-term Taylor polynomial
    of g about each centre.  Far, for z >= 4: bands of width
    w = max(1, 0.16 (sigma + 1)) with the 16-term Taylor polynomial, up to
    n w >= max(86, 11.6 sigma); then one band with the 15-term asymptotic
    series (1/z) sum_k (-sigma)_k z^-k (DLMF 13.7.2) as a polynomial in 1/z.
    The half-widths 1/32 and w/2 give double precision: g's Taylor
    coefficients fall like 1/k! near 0 and like (z + sigma + 1)^-k further
    out.  The asymptotic terms fall like 15!/z^15 for sigma near -1 and grow
    with sigma, hence the sigma in its edge.
    """
    s1 = sigma + 1.0
    width = max(1.0, 0.16 * s1)
    n = math.ceil(max(86.0, 11.6 * sigma) / width)
    near_centres = (np.arange(64) + 0.5) / 16.0
    far_centres = (np.arange(n) + 0.5) * width
    coef = np.zeros((16, 64 + n + 1))
    coef[:8, :64] = _taylor_coefficients(near_centres, s1, 8)
    coef[:, 64:-1] = _taylor_coefficients(far_centres, s1, 16)
    coef[1, -1] = 1.0
    coef[2:, -1] = np.cumprod(np.arange(14) - sigma)
    bands = _Bands(coef[_bit_reversed(16)],
                   np.concatenate([near_centres, far_centres, [0.0]]), width)
    for table in bands[:2]:  # shared by every caller through the cache
        table.flags.writeable = False
    return bands


def _kummer_g(z, sigma):
    """1F1(1; sigma+2; -z)/(sigma+1) for a flat array z >= 0.

    Each z takes the polynomial of its band in `_bands(sigma)`, evaluated by
    Estrin's scheme.  The band and the arithmetic depend on z alone, never
    on the other elements, so a mode's value does not depend on the array it
    is evaluated in.
    """
    bands = _bands(sigma)
    last = len(bands.centres) - 1
    band = np.where(z < _NEAR, z * 16.0, z / bands.width + 64.0)
    band = np.minimum(band, last).astype(np.intp)
    x = z - bands.centres[band]
    if z.max() / bands.width + 64.0 >= last:  # the largest z's band is the asymptotic one
        np.reciprocal(z, out=x, where=band == last)
    return _estrin(bands.coef.take(band, axis=1), x)


def _estrin(coef, x):
    """sum_k coef_k x^k with coef in bit-reversed order: each level pairs the
    first half of the rows with the second, then squares x.  coef, a
    gathered copy, is overwritten."""
    while True:
        half = len(coef) // 2
        high = coef[half:]
        high *= x
        high += coef[:half]
        if half == 1:
            return high[0]
        coef = high
        x = x * x
