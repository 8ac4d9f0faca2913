"""Weighted-norm fixed-point construction of global mild solutions.

The solution map

    (Su)(t) = e^{tD} u0 + int_0^t e^{(t-s)D} |u(s)|^p ds
                        + int_0^t s^sigma e^{(t-s)D} w ds

is evaluated on a geometric time ladder and iterated inside the ball
{ sup_t t^beta ||u(t)||_q <= delta }.  The map works in Fourier space, where
e^{tD} multiplies mode xi by exp(-t|xi|^2), and returns to the grid with one
inverse transform per rung.  The free and forcing terms are fixed data; the
forcing integral has the exact per-mode multiplier
t^(sigma+1)/(sigma+1) 1F1(1; sigma+2; -t|xi|^2).  Each iteration only
re-evaluates the nonlinear term, by fourth-order composite quadrature in
log s over the ladder plus an analytic free-term approximation of the slice
below the first rung: every |u_i|^p is transformed once, and the weighted
sum over the rungs below t_j is carried up the ladder in Fourier space.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .exponents import beta_rate, derive, picard_smallness
from .field import Field, lr_norm, make_bump
from .semigroup import Propagator, forcing_multiplier


def beta_function(a, b):
    """Euler beta via log-gamma; relative error at the 1e-15 level."""
    if a <= 0 or b <= 0:
        raise ValueError(f"beta function needs positive arguments, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def geometric_ladder(tcap=10.0, rungs=64, tmin_factor=1e-6):
    """Geometric time ladder on (tmin, tcap] with tmin = tmin_factor * tcap."""
    if rungs < 2:
        raise ValueError("need at least 2 rungs")
    return np.geomspace(tcap * tmin_factor, tcap, rungs)


@dataclass
class LadderSolution:
    """Fields on a time ladder plus the ball data (q, beta, delta)."""

    times: np.ndarray
    fields: list
    q: float
    beta: float
    delta: float

    def weighted_norms(self):
        return np.array(
            [t**self.beta * lr_norm(f, self.q) for t, f in zip(self.times, self.fields)]
        )

    @property
    def in_ball(self):
        return float(np.max(self.weighted_norms())) <= self.delta

    def replace_fields(self, fields):
        return LadderSolution(self.times, fields, self.q, self.beta, self.delta)


def ladder_distance(u, v):
    """Distance max_j t_j^beta ||u_j - v_j||_q of two ladder solutions."""
    if u.times.shape != v.times.shape or not np.array_equal(u.times, v.times):
        raise ValueError("ladder mismatch")
    vals = [
        t**u.beta * lr_norm(Field(a.grid, a.values - b.values), u.q)
        for t, a, b in zip(u.times, u.fields, v.fields)
    ]
    return float(np.max(vals))


def _log_quad_weights(intervals, dy):
    """Weights of 4th-order composite quadrature on a uniform grid in y.

    intervals + 1 nodes; composite Simpson for even interval counts, Simpson
    plus a closing 3/8 rule for odd counts, trapezoid for a single interval,
    a zero weight for no interval.
    """
    m = intervals
    w = np.zeros(m + 1)
    if m == 0:
        return w  # a single node spans nothing
    if m == 1:
        w[:] = [0.5, 0.5]
    elif m % 2 == 0:
        w[0] = w[m] = 1.0 / 3.0
        w[1:m:2] = 4.0 / 3.0
        w[2 : m - 1 : 2] = 2.0 / 3.0
    elif m == 3:
        w[:] = [3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0]
    else:
        w[: m - 2] = _log_quad_weights(m - 3, 1.0)
        w[m - 3 : m + 1] += [3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0]
    return w * dy


def _running_weights(count):
    """Weights the composite rule gives a node four or more intervals before its end.

    Simpson's pattern 1/3, 4/3, 2/3, 4/3, 2/3, ... in units of the step; the
    rule over m intervals differs from it only on nodes m-3 .. m.
    """
    w = np.where(np.arange(count) % 2 == 1, 4.0 / 3.0, 2.0 / 3.0)
    w[0] = 1.0 / 3.0
    return w


class SolutionMap:
    """The map S on one ladder, with the data-dependent terms precomputed.

    q must lie in the admissible window; None takes its default.  Every term
    is assembled mode by mode from real FFT spectra and brought back to the
    grid with one inverse transform per rung.
    """

    def __init__(self, u0, w, params, q, times):
        grid = u0.grid
        if w is not None and w.profile.grid != grid:
            raise ValueError("forcing grid does not match data grid")
        times = np.asarray(times, dtype=np.float64)
        ratios = times[1:] / times[:-1]
        if times.size < 2 or not np.allclose(ratios, ratios[0], rtol=1e-9):
            raise ValueError("ladder must be geometric")
        if q is None:
            q = derive(params).q_default
            if q is None:
                raise ValueError("no admissible q-window; pass q explicitly")
        _check_q_in_window(params, q)
        self.grid = grid
        self.params = params
        self.q = float(q)
        self.p = float(params.p)
        self.sigma = float(params.sigma)
        self.times = times
        self.dy = math.log(ratios[0])
        self.prop = Propagator(grid)
        self.u0 = u0
        self.w = w
        xi2 = self.prop.xi2

        u0_hat = self.prop.to_spectrum(u0.values)
        self.free = [Field(grid, self.prop.from_spectrum(u0_hat * np.exp(-t * xi2)))
                     for t in times]
        self.forcing = self._forcing_terms()
        # midpoint rule on the slice [0, t0]: t0 e^{(t0/2)D} |e^{(t0/2)D} u0|^p,
        # the spectrum the nonlinear sum starts from at the first rung
        t0 = times[0]
        half_damp = np.exp(-0.5 * t0 * xi2)
        half_pow = np.abs(self.prop.from_spectrum(u0_hat * half_damp)) ** self.p
        self._slice_hat = t0 * half_damp * self.prop.to_spectrum(half_pow)

    def _forcing_terms(self):
        """int_0^t s^sigma e^{(t-s)D} w ds at every rung, exactly per mode."""
        if self.w is None:
            zero = np.zeros(self.grid.shape)
            return [zero for _ in self.times]
        w_hat = self.prop.to_spectrum(self.w.profile.values)
        return [
            self.prop.from_spectrum(w_hat * forcing_multiplier(t, self.prop.xi2, self.sigma))
            for t in self.times
        ]

    def nonlinear_term(self, u):
        """int_0^{t_j} e^{(t_j - s)D} |u(s)|^p ds at every rung, from ladder samples.

        The quadrature sum over i <= j of w_ij e^{(t_j - t_i)D} |u_i|^p is
        kept in Fourier space.  Its part with the running Simpson weights is
        carried from rung j-1 to rung j by one damping multiplier; the
        weights of the last four nodes depend on j and are corrected per rung.
        """
        if not np.array_equal(u.times, self.times):
            raise ValueError("ladder mismatch")
        times, xi2 = self.times, self.prop.xi2
        running = _running_weights(times.size) * self.dy * times
        acc = self._slice_hat.copy()
        recent = []  # spectra of |u_i|^p on the last four rungs
        out = []
        for j, (t, f) in enumerate(zip(times, u.fields)):
            if j:
                acc *= np.exp(-(t - times[j - 1]) * xi2)
            with np.errstate(over="ignore"):  # divergence is detected by the caller
                spec = self.prop.to_spectrum(np.abs(f.values) ** self.p)
            acc += running[j] * spec
            recent = recent[-3:] + [spec]
            lo = j + 1 - len(recent)
            ends = _log_quad_weights(j, self.dy)[lo:] * times[lo : j + 1] - running[lo : j + 1]
            total = acc.copy()
            for ti, c, sp in zip(times[lo : j + 1], ends, recent):
                if c:
                    total += c * np.exp(-(t - ti) * xi2) * sp
            out.append(self.prop.from_spectrum(total))
        return out

    def term_fields(self, u):
        """The three summands of S(u) at every rung (free, nonlinear, forcing)."""
        nl = [Field(self.grid, v) for v in self.nonlinear_term(u)]
        frc = [Field(self.grid, f) for f in self.forcing]
        return self.free, nl, frc

    def apply(self, u):
        fields = []
        for v, free, forcing in zip(self.nonlinear_term(u), self.free, self.forcing):
            v += free.values
            v += forcing
            fields.append(Field(self.grid, v))
        return u.replace_fields(fields)

    def free_only(self, q=None, beta=None, delta=math.inf):
        q = self.q if q is None else q
        beta = beta_rate(self.params, q) if beta is None else beta
        return LadderSolution(self.times, list(self.free), float(q), float(beta), delta)


def _check_q_in_window(params, q):
    der = derive(params)
    if der.q_window is None:
        raise ValueError("no admissible q-window for these parameters")
    lo, hi = float(der.q_window[0]), float(der.q_window[1])
    if not (lo < float(q) < hi):
        raise ValueError(f"q = {q} outside the admissible window ({lo:.6g}, {hi:.6g})")


@dataclass
class ContractionDiagnostics:
    """Iteration record of the fixed-point loop."""

    iterates: int
    distances: tuple
    ratio_estimate: float
    converged: bool
    non_contractive: bool
    stayed_in_ball: bool
    outside_guarantee: bool

    def csv(self):
        out = io.StringIO()
        out.write("iteration,distance\n")
        for i, d in enumerate(self.distances, start=1):
            out.write(f"{i},{d:.17g}\n")
        return out.getvalue()


def _fit_ratio(distances):
    pos = [(i, d) for i, d in enumerate(distances) if d > 0]
    if len(pos) < 2:
        return 0.0
    xs = np.array([i for i, _ in pos], dtype=float)
    ys = np.log([d for _, d in pos])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(np.exp(slope))


def default_probe_set(grid):
    """Unit-mass gaussians of three widths, used to measure torus constants."""
    out = []
    for frac in (1e-3, 1e-2, 1.0 / 32.0):  # widest still fits the box
        a = frac * grid.L**2
        amp = (4.0 * math.pi * a) ** (-grid.N / 2.0)
        out.append(make_bump(grid, "gaussian", scale=a, amplitude=amp))
    return out


def sup_smoothing_ratio(prop, probes, times, r_src, r_dst):
    """sup over probes and times of the q -> r smoothing ratio on this grid.

    Unlike the free-space estimate this deliberately covers times beyond the
    pre-saturation range: it is the constant under which the audited bounds
    actually hold on the torus.
    """
    grid = prop.grid
    exponent = (grid.N / 2.0) * (
        1.0 / r_src - (0.0 if r_dst == math.inf else 1.0 / r_dst)
    )
    xi2 = prop.xi2
    best = 0.0
    for probe in probes:
        if probe.grid != grid:
            raise ValueError("probe grid does not match propagator grid")
        nsrc = lr_norm(probe, r_src)
        if nsrc == 0.0:
            continue
        spec = prop.to_spectrum(probe.values)
        for t in times:
            t = float(t)
            heated = prop.from_spectrum(spec * np.exp(-t * xi2))
            val = lr_norm(Field(grid, heated), r_dst)
            best = max(best, val * t**exponent / nsrc)
    return best


def measure_cstar(grid, params, q, tcap=10.0, probes=None, times=None):
    """Empirical constant of the map bound on this grid.

    Combines the three measured smoothing constants with the two beta-function
    factors; feeding it into the smallness thresholds is circular by
    construction (the constant is measured, not proved) and is reported as
    such.
    """
    der = derive(params)
    _check_q_in_window(params, q)
    q = float(q)
    p = float(params.p)
    sigma = float(params.sigma)
    N = params.N
    d = float(der.data_index)
    k = float(der.forcing_index)
    beta = float(beta_rate(params, q))
    prop = Propagator(grid)
    if probes is None:
        probes = default_probe_set(grid)
    if times is None:
        times = np.geomspace(1e-6 * tcap, tcap, 48)
    c_free = sup_smoothing_ratio(prop, probes, times, d, q)
    c_nl = sup_smoothing_ratio(prop, probes, times, q / p, q)
    c_frc = sup_smoothing_ratio(prop, probes, times, k, q)
    b_nl = beta_function(1.0 - beta * p, 1.0 - N * (p - 1.0) / (2.0 * q))
    b_frc = beta_function(sigma + 1.0, 1.0 - (N / 2.0) * (1.0 / k - 1.0 / q))
    return max(c_free, c_nl * b_nl, c_frc * b_frc)


def iterate_to_fixed_point(op, delta=None, max_iter=40, tol=1e-9, cstar=None):
    """Iterate the map op from its free term until the ladder distance drops below tol.

    delta defaults to half the largest admissible ball radius.  Returns
    (LadderSolution, ContractionDiagnostics).  Divergence (distance growing
    three times in a row) is reported, not raised.
    """
    params, q = op.params, op.q
    if delta is not None and not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    der = derive(params)
    beta = float(beta_rate(params, q))
    if cstar is None:
        cstar = measure_cstar(op.grid, params, q, float(op.times[-1]))
    delta_max, budget = picard_smallness(params, q, cstar)
    if delta is None:
        delta = 0.5 * delta_max
    data_size = lr_norm(op.u0, float(der.data_index)) + (
        0.0 if op.w is None else lr_norm(op.w.profile, float(der.forcing_index))
    )
    outside = delta > delta_max or data_size > budget

    u = op.free_only(q=q, beta=beta, delta=delta)
    distances = []
    in_ball_all = u.in_ball
    converged = False
    non_contractive = False
    grew = 0
    for _ in range(max_iter):
        try:
            nxt = op.apply(u)
        except ValueError:  # iterates left the representable range: divergence
            non_contractive = True
            break
        dist = ladder_distance(nxt, u)
        distances.append(dist)
        u = nxt
        in_ball_all = in_ball_all and u.in_ball
        if dist < tol:
            converged = True
            break
        if len(distances) >= 2 and dist > distances[-2]:
            grew += 1
            if grew >= 3:
                non_contractive = True
                break
        else:
            grew = 0
    diag = ContractionDiagnostics(
        iterates=len(distances),
        distances=tuple(distances),
        ratio_estimate=_fit_ratio(distances),
        converged=converged,
        non_contractive=non_contractive,
        stayed_in_ball=in_ball_all,
        outside_guarantee=outside,
    )
    return u, diag


@dataclass
class EstimateAudit:
    """Measured weighted norms of the three map terms against their bounds."""

    times: np.ndarray
    measured_free: np.ndarray
    measured_nonlinear: np.ndarray
    measured_forcing: np.ndarray
    bound_free: float
    bound_nonlinear: float
    bound_forcing: float
    c1_free: float
    c1_nonlinear: float
    c1_forcing: float
    beta_args_nonlinear: tuple
    beta_args_forcing: tuple
    cstar_hat: float

    @property
    def margins_free(self):
        return self.bound_free - self.measured_free

    @property
    def margins_nonlinear(self):
        return self.bound_nonlinear - self.measured_nonlinear

    @property
    def margins_forcing(self):
        return self.bound_forcing - self.measured_forcing

    @property
    def all_margins_nonnegative(self):
        return bool(
            np.all(self.margins_free >= 0)
            and np.all(self.margins_nonlinear >= 0)
            and np.all(self.margins_forcing >= 0)
        )

    def csv(self):
        out = io.StringIO()
        out.write(
            "t,free,free_bound,free_margin,nonlinear,nonlinear_bound,"
            "nonlinear_margin,forcing,forcing_bound,forcing_margin\n"
        )
        for i, t in enumerate(self.times):
            out.write(
                f"{t:.17g},{self.measured_free[i]:.17g},{self.bound_free:.17g},"
                f"{self.margins_free[i]:.17g},{self.measured_nonlinear[i]:.17g},"
                f"{self.bound_nonlinear:.17g},{self.margins_nonlinear[i]:.17g},"
                f"{self.measured_forcing[i]:.17g},{self.bound_forcing:.17g},"
                f"{self.margins_forcing[i]:.17g}\n"
            )
        return out.getvalue()


def audit_estimates(u, op):
    """Check the three term-by-term bounds at every rung of a ladder solution of op.

    The smoothing constants are measured on the same grid over the ladder's
    own time range, with the actual data among the probes, so the audit
    certifies that the inequalities hold with empirical constants.
    """
    params, u0, w = op.params, op.u0, op.w
    der = derive(params)
    q = op.q
    p = float(params.p)
    sigma = float(params.sigma)
    N = params.N
    d = float(der.data_index)
    k = float(der.forcing_index)
    beta = float(beta_rate(params, q))
    if not u.in_ball:
        raise ValueError("ladder solution is outside its ball; bounds need delta")

    a_nl = 1.0 - beta * p
    b_nl = 1.0 - N * (p - 1.0) / (2.0 * q)
    a_frc = sigma + 1.0
    b_frc = 1.0 - (N / 2.0) * (1.0 / k - 1.0 / q)
    for name, val in (("1-beta*p", a_nl), ("1-N(p-1)/(2q)", b_nl),
                      ("sigma+1", a_frc), ("1-(N/2)(1/k-1/q)", b_frc)):
        if val <= 0:
            raise ValueError(
                f"admissibility bug: beta-function argument {name} = {val} <= 0 "
                f"inside the q-window"
            )

    free, nl, frc = op.term_fields(u)
    tb = u.times**beta
    measured_free = tb * np.array([lr_norm(f, q) for f in free])
    measured_nl = tb * np.array([lr_norm(f, q) for f in nl])
    measured_frc = tb * np.array([lr_norm(f, q) for f in frc])

    prop = op.prop
    dense = np.geomspace(u.times[0] / 2.0, u.times[-1], 96)
    base = default_probe_set(u0.grid)
    probes_free = base + [u0]
    probes_nl = base + [Field(u0.grid, np.abs(u.fields[j].values) ** p)
                        for j in range(0, len(u.fields), max(1, len(u.fields) // 8))]
    probes_frc = base + ([] if w is None else [w.profile])
    c1_free = sup_smoothing_ratio(prop, probes_free, dense, d, q)
    c1_nl = sup_smoothing_ratio(prop, probes_nl, dense, q / p, q)
    c1_frc = sup_smoothing_ratio(prop, probes_frc, dense, k, q)

    norm_u0 = lr_norm(u0, d)
    norm_w = 0.0 if w is None else lr_norm(w.profile, k)
    bound_free = c1_free * norm_u0
    bound_nl = c1_nl * beta_function(a_nl, b_nl) * u.delta**p
    bound_frc = c1_frc * beta_function(a_frc, b_frc) * norm_w

    total = np.array(
        [lr_norm(Field(u0.grid, free[j].values + nl[j].values + frc[j].values), q)
         for j in range(len(u.times))]
    )
    denom = norm_u0 + u.delta**p + norm_w
    cstar_hat = float(np.max(tb * total) / denom) if denom > 0 else math.inf

    return EstimateAudit(
        times=u.times,
        measured_free=measured_free,
        measured_nonlinear=measured_nl,
        measured_forcing=measured_frc,
        bound_free=bound_free,
        bound_nonlinear=bound_nl,
        bound_forcing=bound_frc,
        c1_free=c1_free,
        c1_nonlinear=c1_nl,
        c1_forcing=c1_frc,
        beta_args_nonlinear=(a_nl, b_nl),
        beta_args_forcing=(a_frc, b_frc),
        cstar_hat=cstar_hat,
    )
