"""Rescaled test-function functionals certifying blow-up by scaling.

A hypothetical global solution forces the inequality

    (time integral of t^sigma eta(t/T)^{p'}) * (space integral of w mu)
        <= C_young * (I1(T) + I2(T)),

with mu a rescaled spatial cutoff and I1, I2 the dissipation functionals of
the test function.  All ingredients are computable: the time factors are
integrals over (0, 1) by one fixed midpoint rule.  The spatial factor
mu = xi(|x|^2/T)^{2p'} is radial, so it and its Laplacian
(4 s g''(s) + 2N g'(s)) / T, with s = |x|^2/T and g = xi^{2p'}, are
evaluated in closed form once per shell of grid points with equal |x|^2;
the space integrals are sums over shells weighted by the number of points
in each (or, for the forcing factor, by w summed over each).  No array of
grid size is built: the counts are shifted 1-D histograms of one slab's
shells, and the forcing is never held.  It arrives as a stream of slabs
(``field.profile_slabs``) from which one pass takes its shell sums and its
mass, while a worker thread hashes the same slabs into its fingerprint.
Tracking the implied upper bound on the forcing mass along a T-ladder turns
the scaling argument into a numerical verdict: if the bound decays, a
positive-mass forcing is contradicted and no global solution can exist.

The functionals never consume a simulated solution; only the inequality
structure matters.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .config import csv_text
from .field import Grid, fingerprint_hash, slab_integral

# Quotient guard: the exact quotient mu^{-1/(p-1)} |Lap mu|^{p'} is bounded
# (the xi powers cancel), but its first factor overflows where mu underflows,
# so it is evaluated only where mu exceeds this floor.  The discarded region is
# fixed in the rescaled coordinate |x|^2/T, so the T-scaling of the integrals
# is unaffected.
_MU_FLOOR = 1e-6


def _smoothstep_pair(sharpness=1.0):
    """xi: 1 on [0,1], 0 on [2,inf), smooth exp(-1/s) transition on (1,2).

    Returns xi with its closed-form first and second derivatives.  On (1,2)
    xi = a/(a+b) = 1/(1+e^u) with a = exp(-k/(2-r)), b = exp(-k/(r-1)) and
    u = k/(2-r) - k/(r-1), so with q = xi(1-xi) = ab/(a+b)^2:
    xi' = -q u' and xi'' = q (1-2 xi) u'^2 - q u''.
    """
    k = sharpness

    def piecewise(shoulder, inner):
        def fn(r):
            out = np.zeros_like(r)
            out[r <= 1.0] = inner
            mid = (r > 1.0) & (r < 2.0)
            rm = r[mid]
            a = np.exp(-k / (2.0 - rm))
            b = np.exp(-k / (rm - 1.0))
            out[mid] = shoulder(rm, a, b)
            return out

        return fn

    def u_d(rm):
        return k / (rm - 1.0) ** 2 + k / (2.0 - rm) ** 2

    def xi(rm, a, b):
        return a / (a + b)

    def xi_d(rm, a, b):
        return -(a * b / (a + b) ** 2) * u_d(rm)

    def xi_dd(rm, a, b):
        q = a * b / (a + b) ** 2
        u_dd = 2.0 * k / (2.0 - rm) ** 3 - 2.0 * k / (rm - 1.0) ** 3
        return q * (1.0 - 2.0 * xi(rm, a, b)) * u_d(rm) ** 2 - q * u_dd

    return piecewise(xi, 1.0), piecewise(xi_d, 0.0), piecewise(xi_dd, 0.0)


def _eta_bump(power=1.0):
    """eta = exp(-1/(s(1-s))^power) on (0,1), with its derivative."""

    def eta(s):
        out = np.zeros_like(s)
        inside = (s > 0.0) & (s < 1.0)
        g = s[inside] * (1.0 - s[inside])
        with np.errstate(divide="ignore"):
            out[inside] = np.exp(-1.0 / g**power)
        return out

    def eta_d(s):
        out = np.zeros_like(s)
        inside = (s > 0.0) & (s < 1.0)
        si = s[inside]
        g = si * (1.0 - si)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            val = np.exp(-1.0 / g**power)
            raw = val * power * (1.0 - 2.0 * si) / g ** (power + 1.0)
        out[inside] = np.where(val > 0.0, raw, 0.0)
        return out

    return eta, eta_d


@dataclass(frozen=True)
class Cutoffs:
    """A spatial shoulder profile xi (with xi', xi'') and a temporal bump eta
    (with eta'), each evaluated elementwise on a float array."""

    xi: object
    xi_d: object
    xi_dd: object
    eta: object
    eta_d: object
    label: str


def default_cutoffs():
    xi, xi_d, xi_dd = _smoothstep_pair(1.0)
    eta, eta_d = _eta_bump(power=1.0)
    return Cutoffs(xi=xi, xi_d=xi_d, xi_dd=xi_dd, eta=eta, eta_d=eta_d,
                   label="default")


def steep_cutoffs():
    """A second valid pair; verdicts must not depend on the choice."""
    xi, xi_d, xi_dd = _smoothstep_pair(2.0)
    eta, eta_d = _eta_bump(power=2.0)
    return Cutoffs(xi=xi, xi_d=xi_d, xi_dd=xi_dd, eta=eta, eta_d=eta_d,
                   label="steep")


def _pp(params):
    p = float(params.p)
    return p / (p - 1.0)


# Midpoint nodes on (0, 1) for the time factors.  Their integrands vanish with
# all derivatives at both ends, where the midpoint rule converges faster than
# any power of the node spacing (Trefethen & Weideman, "The exponentially
# convergent trapezoidal rule", SIAM Review 56, 2014).
_TIME_NODES = 6400


def _midpoint(fn):
    """int_0^1 fn(s) ds by the midpoint rule on _TIME_NODES nodes."""
    s = (np.arange(_TIME_NODES) + 0.5) / _TIME_NODES
    return float(np.mean(fn(s)))


def time_factor_forcing(params, cutoffs):
    """int_0^1 s^sigma eta(s)^{p'} ds."""
    pp = _pp(params)
    sigma = float(params.sigma)
    return _midpoint(lambda s: s**sigma * cutoffs.eta(s) ** pp)


def time_factor_plain(params, cutoffs):
    """int_0^1 eta(s)^{p'} ds."""
    pp = _pp(params)
    return _midpoint(lambda s: cutoffs.eta(s) ** pp)


def time_factor_dissipation(params, cutoffs):
    """int_0^1 (p')^{p'} |eta'(s)|^{p'} ds.

    This is the exact reduction of int eta_T^{-1/(p-1)} |eta_T'|^{p'} dt to
    unit scale: with eta_T = eta(t/T)^{p'} the eta powers cancel identically,
    leaving only the chain-rule constant and |eta'|^{p'} (valid since eta > 0
    inside its support and both endpoint limits vanish).

    eta' changes sign where eta peaks, at s = 1/2, so |eta'|^{p'} has a kink
    like |s - 1/2|^{p'} there, on which the midpoint rule converges only like
    h^{p'+1}.  Each half is therefore mapped to x in (0, 1) by
    s = (1 -+ x^2)/2, ds = x dx; the mapped integrand vanishes like
    x^{2p'+1} at x = 0 and stays flat at x = 1.
    """
    pp = _pp(params)

    def mapped(x):
        half = 0.5 * x * x
        return (np.abs(cutoffs.eta_d(0.5 - half)) ** pp
                + np.abs(cutoffs.eta_d(0.5 + half)) ** pp) * x

    return pp**pp * _midpoint(mapped)


@dataclass(frozen=True, eq=False)
class Shells:
    """The grid's points grouped into shells of equal |x|^2 = h^2 m.

    A point at integer offsets (i, j, l) from the origin lies on shell
    m = i^2 + j^2 + l^2; a 128^3 grid has 8,041 occupied shells.

    A radial function takes one value per shell, so its grid sum is a sum
    over the occupied shells weighted by ``count``, and its sum against a
    field is weighted by the field summed over each shell (``stream_forcing``).

    No array of grid size is built.  Slab i of the first axis holds the
    shells ``rest + k2[i]``, with ``rest`` the shell of each point of one
    slab (n^(N-1) entries), so the counts are the 1-D histogram of ``rest``
    shifted by each ``k2[i]`` and added: exact integer sums.
    """

    grid: Grid
    k2: np.ndarray  # squared integer offset of each index along one axis
    rest: np.ndarray  # shell of each point of one slab minus its own k2[i]
    occupied: np.ndarray  # the shells that hold grid points, ascending
    count: np.ndarray  # grid points in each occupied shell

    @classmethod
    def of(cls, grid):
        k2 = (np.arange(grid.n) - grid.n // 2) ** 2  # -L + h i = h (i - n/2)
        rest = np.zeros(1, dtype=k2.dtype)
        for _ in range(grid.N - 1):
            rest = np.add.outer(rest, k2).ravel()
        slab = np.bincount(rest)
        count = np.zeros(k2.max() + slab.size, dtype=np.int64)
        for shift in k2:
            count[shift:shift + slab.size] += slab
        occupied = np.flatnonzero(count)
        return cls(grid=grid, k2=k2, rest=rest, occupied=occupied,
                   count=count[occupied])

    @property
    def r2(self):
        """|x|^2 of each occupied shell."""
        return self.grid.h**2 * self.occupied


def stream_forcing(shells, slabs):
    """Everything the certificate reads of w, in one pass over its slabs.

    ``slabs`` are w's slabs in order (``field.profile_slabs``).  Returns
    (w summed over each occupied shell, w's mass, w's fingerprint), bitwise
    the same as ``np.bincount`` over all points in C order,
    ``field.integral`` and ``field.field_fingerprint`` of the whole field.
    The shell sums are exact in order because the unbuffered ``np.add.at``
    adds a slab's points one after another.

    The fingerprint is hashed on a worker thread, which takes the slabs in
    order through a queue of two and calls only ``update`` (hashlib releases
    the GIL on large buffers), while this thread sums them.  A slab is thus
    read after the next one is requested: a producer must yield a fresh
    array each time and never refill one buffer.
    """
    grid = shells.grid
    total = np.zeros(shells.occupied[-1] + 1)
    digest = fingerprint_hash(grid)
    pending = queue.Queue(maxsize=2)
    errors = []

    def hash_in_order():
        # until the None that closes the queue; after a failure it only
        # drains, so that no put blocks
        while (slab := pending.get()) is not None:
            if not errors:
                try:
                    digest.update(slab)
                except BaseException as exc:
                    errors.append(exc)

    worker = threading.Thread(target=hash_in_order, name="critex-fingerprint")
    worker.start()
    sums = []
    try:
        for rows, slab in zip(grid.slab_rows(), slabs, strict=True):
            if slab.shape != grid.slab_shape:
                raise ValueError(f"slab shape {slab.shape} != grid slab shape {grid.slab_shape}")
            pending.put(np.ascontiguousarray(slab, dtype="<f8"))
            np.add.at(total, (shells.k2[rows, None] + shells.rest).ravel(), slab.ravel())
            sums.append(np.sum(slab))
    finally:
        pending.put(None)
        worker.join()
    if errors:
        raise errors[0]
    return total[shells.occupied], slab_integral(grid, sums), digest.hexdigest()


def _xi_power(s, a, cutoffs):
    """g = xi(s)^a with g' and g'' in closed form (a = 2p' > 2)."""
    xi, xi_d, xi_dd = cutoffs.xi(s), cutoffs.xi_d(s), cutoffs.xi_dd(s)
    g = xi**a
    g_d = a * xi ** (a - 1.0) * xi_d
    g_dd = a * xi ** (a - 2.0) * ((a - 1.0) * xi_d * xi_d + xi * xi_dd)
    return g, g_d, g_dd


@dataclass(frozen=True, eq=False)
class RadialFactor:
    """mu(x) = xi(|x|^2/scale)^{2p'} and its exact Laplacian, per shell."""

    shells: Shells
    values: np.ndarray
    laplacian: np.ndarray

    @classmethod
    def build(cls, scale, params, cutoffs, shells, label):
        """mu is supported in |x|^2 <= 2 scale, so the box must have L^2 >= 2 scale.

        ``label`` names the scale's source in the error, e.g. ``"T = 16.0"``.
        """
        L2 = shells.grid.L ** 2
        if 2.0 * scale > L2 * (1.0 + 1e-12):
            raise ValueError(f"box too small for {label}: need L^2 >= 2 * {scale}, "
                             f"have L^2 = {L2}")
        s = shells.r2 / scale
        g, g_d, g_dd = _xi_power(s, 2.0 * _pp(params), cutoffs)
        lap = (4.0 * s * g_dd + 2.0 * shells.grid.N * g_d) / scale
        return cls(shells=shells, values=g, laplacian=lap)

    def _sum(self, weights, values):
        return self.shells.grid.cell_volume * float(np.dot(weights, values))

    def integral(self):
        """int mu dx."""
        return self._sum(self.shells.count, self.values)

    def against(self, w_shells):
        """int w mu dx, given w summed over each shell (``Shells.sum``)."""
        return self._sum(w_shells, self.values)

    def dissipation(self, params):
        """int mu^{-1/(p-1)} |Lap mu|^{p'} dx, the quotient zeroed off-support."""
        p = float(params.p)
        pp = _pp(params)
        mu = self.values
        quot = np.zeros_like(mu)
        mask = mu > _MU_FLOOR
        quot[mask] = mu[mask] ** (-1.0 / (p - 1.0)) * np.abs(self.laplacian[mask]) ** pp
        if not np.all(np.isfinite(quot)):
            raise FloatingPointError("non-finite dissipation quotient")
        return self._sum(self.shells.count, quot)


def build_phi(T, params, cutoffs, shells):
    """The rescaled spatial factor xi(|x|^2/T)^{2p'} for horizon T."""
    return RadialFactor.build(T, params, cutoffs, shells, f"T = {T}")


def build_mu_fixed(R, params, cutoffs, shells):
    """Spatial factor xi(|x|^2/R^2)^{2p'} at a T-independent scale R."""
    return RadialFactor.build(R**2, params, cutoffs, shells, f"R = {R} (scale R^2)")


def young_constant(params):
    """C with ab <= a^p/2 + C b^{p'}, used to absorb the solution terms."""
    p = float(params.p)
    return ((p - 1.0) / p) * (p / 2.0) ** (-1.0 / (p - 1.0))


def _fit_slope(T, y):
    T = np.asarray(T, dtype=float)
    y = np.asarray(y, dtype=float)
    good = y > 0
    if np.count_nonzero(good) < 2:
        return math.nan
    return float(np.polyfit(np.log(T[good]), np.log(y[good]), 1)[0])


@dataclass
class CertificateReport:
    """Forcing and dissipation functionals along a T-ladder, with verdict."""

    mode: str  # "rescaled-space" (sigma < 0) or "fixed-space" (sigma > 0)
    cutoff_label: str
    mass: float
    T_ladder: np.ndarray
    forcing: np.ndarray
    I1: np.ndarray
    I2: np.ndarray
    bound: np.ndarray
    threshold_ok: np.ndarray
    contradiction_at: np.ndarray
    slopes: dict
    expected_slopes: dict
    verdict: str

    def csv(self):
        flags = ("CONTRADICTION" if c else "ok" for c in self.contradiction_at)
        return csv_text(
            ("T", "forcing", "I1", "I2", "bound", "verdict"),
            zip(self.T_ladder, self.forcing, self.I1, self.I2, self.bound, flags),
            [("verdict", self.verdict), ("mode", self.mode), ("cutoffs", self.cutoff_label),
             ("forcing_mass", self.mass)]
            + [("slope", key, self.slopes[key], "expected", self.expected_slopes[key])
               for key in sorted(self.slopes)])


def expected_slopes(params):
    N = params.N
    p = float(params.p)
    sigma = float(params.sigma)
    pp = p / (p - 1.0)
    return {
        "forcing": sigma + 1.0,
        "I1": 1.0 + N / 2.0 - pp,
        "I2": 1.0 + N / 2.0 - pp,
        "bound": N / 2.0 - sigma - pp,
    }


def blowup_certificate(shells, w_shells, mass, params, cutoffs, T_ladder, R=None):
    """Evaluate the scaling certificate for forcing w over a ladder of T.

    w enters only through ``w_shells``, its sums over the occupied
    ``shells`` of its grid, and its signed ``mass`` (``stream_forcing``).

    For sigma > 0 the spatial cutoff is held at a fixed scale R (default L/2)
    while T grows; otherwise the cutoff rescales with T and R must be unset.
    The verdict is CONTRADICTION when the fitted T-slope of the implied mass
    bound is negative and the forcing mass is positive, matching the sign of
    N/2 - sigma - p/(p-1).
    """
    if R is not None and not (R > 0):
        raise ValueError(f"R must be positive, got {R}")
    grid = shells.grid
    sigma = float(params.sigma)
    if R is not None and not sigma > 0:
        raise ValueError(f"R (R_length) = {R} fixes the cutoff scale, which only "
                         f"sigma > 0 uses; at sigma = {sigma} the cutoff rescales with T")
    pp = _pp(params)
    T_ladder = np.sort(np.asarray(T_ladder, dtype=float))
    if np.unique(T_ladder).size < 2:
        raise ValueError(f"T_ladder needs at least two distinct values to fit slopes, "
                         f"got {T_ladder.tolist()}")
    if not T_ladder[0] > 0:
        raise ValueError(f"T_ladder values must be positive, got {T_ladder.tolist()}")
    c_forcing = time_factor_forcing(params, cutoffs)
    c_plain = time_factor_plain(params, cutoffs)
    if c_plain <= 0.0 or c_forcing <= 0.0:
        raise ValueError("degenerate cutoff: eta integrates to zero")
    c_diss = time_factor_dissipation(params, cutoffs)
    cy = young_constant(params)

    mode = "fixed-space" if sigma > 0 else "rescaled-space"
    if mode == "fixed-space":
        R = grid.L / 2.0 if R is None else float(R)
        mu = build_mu_fixed(R, params, cutoffs, shells)

    space_forcing = np.empty_like(T_ladder)
    i1 = np.empty_like(T_ladder)
    i2 = np.empty_like(T_ladder)
    for idx, T in enumerate(T_ladder):
        if mode == "rescaled-space":
            mu = build_phi(T, params, cutoffs, shells)
        space_forcing[idx] = mu.against(w_shells)
        i1[idx] = (T * c_plain) * mu.dissipation(params)
        i2[idx] = (T ** (1.0 - pp) * c_diss) * mu.integral()

    time_int = T_ladder ** (sigma + 1.0) * c_forcing
    forcing = time_int * space_forcing
    bound = 2.0 * cy * (i1 + i2) / time_int
    threshold_ok = space_forcing >= 0.5 * mass
    contradiction_at = threshold_ok & (bound < mass) & (mass > 0)

    slopes = {
        "forcing": _fit_slope(T_ladder, forcing),
        "I1": _fit_slope(T_ladder, i1),
        "I2": _fit_slope(T_ladder, i2),
        "bound": _fit_slope(T_ladder, bound),
    }
    if mass > 0 and slopes["bound"] < 0:
        verdict = "CONTRADICTION"
    elif mass <= 0:
        verdict = "INAPPLICABLE"
    else:
        verdict = "NO_CONTRADICTION"

    return CertificateReport(
        mode=mode,
        cutoff_label=cutoffs.label,
        mass=mass,
        T_ladder=T_ladder,
        forcing=forcing,
        I1=i1,
        I2=i2,
        bound=bound,
        threshold_ok=threshold_ok,
        contradiction_at=contradiction_at,
        slopes=slopes,
        expected_slopes=expected_slopes(params),
        verdict=verdict,
    )
