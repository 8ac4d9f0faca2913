"""Weighted-norm fixed-point construction of global mild solutions.

The solution map

    (Su)(t) = e^{tD} u0 + int_0^t e^{(t-s)D} |u(s)|^p ds
                        + int_0^t s^sigma e^{(t-s)D} w ds

is evaluated on a geometric time ladder and iterated inside the ball
{ sup_t t^beta ||u(t)||_q <= delta }.  The map works in Fourier space, where
e^{tD} multiplies mode xi by exp(-t|xi|^2).  At each rung the three terms
are summed as half-spectra and brought back to the grid with one inverse
transform, so the map holds no ladder of fields: only the spectra of u0
and w and each rung's forcing multiplier on the distinct |xi|^2.  The
forcing integral has the exact per-mode multiplier
t^(sigma+1)/(sigma+1) 1F1(1; sigma+2; -t|xi|^2).  The nonlinear term is
evaluated by fourth-order composite quadrature in log s over the ladder
plus an analytic free-term approximation of the slice below the first
rung: every |u_i|^p is transformed once, and the weighted sum over the
rungs below t_j is carried up the ladder in Fourier space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import csv_text
from .exponents import beta_rate, derive, picard_smallness
from .field import Field, lr_norm
from .semigroup import Propagator, forcing_multiplier


def beta_function(a, b):
    """Euler beta via log-gamma; relative error at the 1e-15 level."""
    if a <= 0 or b <= 0:
        raise ValueError(f"beta function needs positive arguments, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def geometric_ladder(tcap=10.0, rungs=64):
    """Geometric time ladder from 1e-6 * tcap to tcap."""
    if not tcap > 0:
        raise ValueError(f"tcap must be positive, got {tcap}")
    if rungs < 2:
        raise ValueError("need at least 2 rungs")
    return np.geomspace(tcap * 1e-6, tcap, rungs)


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
    """The map S on one ladder, with the spectra of the data precomputed.

    q must lie in the admissible window; None takes its default.  S(u) at a
    rung is one real FFT half-spectrum, nonlinear plus free plus forcing,
    brought back to the grid with one inverse transform.  The free and
    forcing multipliers are evaluated once per distinct |xi|^2 and gathered
    to the modes: the forcing ones (1F1) once per map, the damping ones when
    used.  The q-norms of the free and forcing terms, which the audit
    reports, are taken here from fields that are not kept.
    """

    def __init__(self, u0, w, params, q, times):
        grid = u0.grid
        if w is not None and w.grid != grid:
            raise ValueError("forcing grid does not match data grid")
        times = np.asarray(times, dtype=np.float64)
        ratios = times[1:] / times[:-1]
        if times.size < 2 or not np.allclose(ratios, ratios[0], rtol=1e-9):
            raise ValueError("ladder must be geometric")
        if q is None:
            q = derive(params).q_default
            if q is None:
                raise ValueError("no admissible q-window; pass q explicitly")
        _check_q_in_window(params, q, forced=w is not None)
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
        self._levels, self._where = self.prop.xi2_levels

        self._u0_hat = self.prop.to_spectrum(u0.values)
        self.free_norms = np.array([lr_norm(self._field(self._free_hat(j)), self.q)
                                    for j in range(times.size)])
        if w is None:
            self._w_hat = None
            self.forcing_norms = np.zeros(times.size)
        else:
            self._w_hat = self.prop.to_spectrum(w.values)
            self._forcing = [forcing_multiplier(t, self._levels, self.sigma) for t in times]
            self.forcing_norms = np.array([lr_norm(self._field(self._forcing_hat(j)), self.q)
                                           for j in range(times.size)])
        # midpoint rule on the slice [0, t0]: t0 e^{(t0/2)D} |e^{(t0/2)D} u0|^p,
        # the spectrum the nonlinear sum starts from at the first rung
        t0 = times[0]
        half_damp = np.exp(-0.5 * t0 * xi2)
        half_pow = np.abs(self.prop.from_spectrum(self._u0_hat * half_damp)) ** self.p
        self._slice_hat = t0 * half_damp * self.prop.to_spectrum(half_pow)

    def _field(self, spec):
        return Field(self.grid, self.prop.from_spectrum(spec))

    def _free_hat(self, j):
        """Half-spectrum of e^{t_j D} u0."""
        return self._u0_hat * np.exp(-self.times[j] * self._levels)[self._where]

    def _forcing_hat(self, j):
        """Half-spectrum of int_0^{t_j} s^sigma e^{(t_j - s)D} w ds, exact per mode."""
        return self._w_hat * self._forcing[j][self._where]

    def data_spectrum(self, j):
        """Half-spectrum of the free plus forcing terms at rung j."""
        spec = self._free_hat(j)
        if self._w_hat is not None:
            spec += self._forcing_hat(j)
        return spec

    def nonlinear_term(self, u):
        """int_0^{t_j} e^{(t_j - s)D} |u(s)|^p ds at every rung, as half-spectra.

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
                step = np.exp(-(t - times[j - 1]) * xi2)
                acc *= step
            with np.errstate(over="ignore"):  # divergence is detected by the caller
                spec = self.prop.to_spectrum(np.abs(f.values) ** self.p)
            acc += running[j] * spec
            recent = recent[-3:] + [spec]
            lo = j + 1 - len(recent)
            ends = _log_quad_weights(j, self.dy)[lo:] * times[lo : j + 1] - running[lo : j + 1]
            total = acc.copy()
            for i, c, sp in zip(range(lo, j + 1), ends, recent):
                if not c:
                    continue
                if i == j:  # e^{0 D}: c times an all-ones multiplier
                    total += c * sp
                else:
                    damp = step if i == j - 1 else np.exp(-(t - times[i]) * xi2)
                    total += c * damp * sp
            out.append(total)
        return out

    def apply(self, u):
        spectra = self.nonlinear_term(u)
        fields = []
        for j in range(len(spectra)):
            spec, spectra[j] = spectra[j], None  # released once on the grid
            spec += self.data_spectrum(j)
            fields.append(self._field(spec))
        return u.replace_fields(fields)

    def free_only(self, delta=math.inf):
        beta = float(beta_rate(self.params, self.q))
        fields = [self._field(self._free_hat(j)) for j in range(self.times.size)]
        return LadderSolution(self.times, fields, self.q, beta, delta)


def _bound_exponents(params, q):
    """Indices and beta-function arguments of the map bound at q.

    Returns (d, k, beta, nonlinear args, forcing args), where the nonlinear
    term's beta function takes (1 - beta p, 1 - N(p-1)/(2q)) and the
    forcing term's takes (sigma + 1, 1 - (N/2)(1/k - 1/q)).
    """
    der = derive(params)
    p, sigma, N = float(params.p), float(params.sigma), params.N
    d, k = float(der.data_index), float(der.forcing_index)
    beta = float(beta_rate(params, q))
    return (d, k, beta, (1.0 - beta * p, 1.0 - N * (p - 1.0) / (2.0 * q)),
            (sigma + 1.0, 1.0 - (N / 2.0) * (1.0 / k - 1.0 / q)))


def _check_q_in_window(params, q, forced=True):
    """q must lie in the window, and a forced map needs w's index k >= 1."""
    der = derive(params)
    if der.q_window is None:
        raise ValueError("no admissible q-window for these parameters")
    if forced and der.forcing_index < 1:
        raise ValueError(
            f"forcing index k = {float(der.forcing_index):.6g} < 1: w in L^k gives no "
            f"smoothing estimate, since p = {float(params.p):g} lies below "
            f"p* = {float(der.critical):.6g}")
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
        return csv_text(("iteration", "distance"), enumerate(self.distances, start=1))


def _fit_ratio(distances):
    pos = [(i, d) for i, d in enumerate(distances) if d > 0]
    if len(pos) < 2:
        return 0.0
    xs = np.array([i for i, _ in pos], dtype=float)
    ys = np.log([d for _, d in pos])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(np.exp(slope))


def sharp_smoothing_constant(N, r, q):
    """Sharp C of ||e^{tD} f||_q <= C t^{-(N/2)(1/r - 1/q)} ||f||_r on R^N; q may be inf.

    Gaussians attain it (Lieb 1990): with a = 1/r - 1/q, g = 1 - 1/q and
    0^0 = 1, C = [(4 pi)^-a q^(-1/q) r^(1/r) a^a (1 - 1/r)^(1 - 1/r) g^-g]^(N/2).
    """
    if not 1.0 <= r <= q:
        raise ValueError(f"need 1 <= r <= q, got r = {r}, q = {q}")
    a, g, h = 1.0 / r - 1.0 / q, 1.0 - 1.0 / q, 1.0 - 1.0 / r
    base = (4.0 * math.pi) ** -a * q ** (-1.0 / q) * r ** (1.0 / r) * a**a * h**h * g**-g
    return base ** (N / 2.0)


def sup_smoothing_ratio(prop, probes, times, r_src, r_dst):
    """sup over probes f and times t of t^e ||e^{tD} f||_{r_dst} / ||f||_{r_src}.

    e = (N/2)(1/r_src - 1/r_dst); over all f on R^N the sup is
    sharp_smoothing_constant.  The audit takes it on the data, to see how far
    they reach above that.  No finite probe set bounds it on the torus: at
    late times the constant function alone exceeds the free-space constant.
    """
    grid = prop.grid
    exponent = (grid.N / 2.0) * (1.0 / r_src - 1.0 / r_dst)
    best = 0.0
    for probe in probes:
        if probe.grid != grid:
            raise ValueError("probe grid does not match propagator grid")
        nsrc = lr_norm(probe, r_src)
        if nsrc == 0.0:
            continue
        spec = prop.to_spectrum(probe.values)
        for t in times:
            heated = Field(grid, prop.from_spectrum(spec * np.exp(-float(t) * prop.xi2)))
            best = max(best, lr_norm(heated, r_dst) * float(t) ** exponent / nsrc)
    return best


def _sharp_constants(params, q, forced=True):
    """Sharp free-space constants of the free, nonlinear and forcing terms at q.

    An unforced map has no forcing term, and its forcing constant is 0.
    """
    d, k, *_ = _bound_exponents(params, q)
    c_free, c_nl = (sharp_smoothing_constant(params.N, r, q) for r in (d, q / float(params.p)))
    return c_free, c_nl, sharp_smoothing_constant(params.N, k, q) if forced else 0.0


def measure_cstar(params, q, forced=True):
    """Constant of the map bound at q: max(C(N,d,q), C(N,q/p,q) B_nl, C(N,k,q) B_frc).

    C are the sharp constants of R^N, B the beta-function factors of the
    nonlinear and forcing terms; an unforced map (forced False) drops the
    last.  No grid enters: the smallness thresholds fed with it are a
    free-space guarantee, not a torus one (see sup_smoothing_ratio).
    """
    _check_q_in_window(params, q, forced)
    q = float(q)
    *_, nl_args, frc_args = _bound_exponents(params, q)
    c_free, c_nl, c_frc = _sharp_constants(params, q, forced)
    b_frc = beta_function(*frc_args) if forced else 0.0
    return max(c_free, c_nl * beta_function(*nl_args), c_frc * b_frc)


def iterate_to_fixed_point(op, delta=None, max_iter=40, tol=1e-9, cstar=None):
    """Iterate the map op from its free term until the ladder distance drops below tol.

    delta defaults to half the largest admissible ball radius.  Returns
    (LadderSolution, ContractionDiagnostics).  Divergence (distance growing
    three times in a row) is reported, not raised.
    """
    params, q = op.params, op.q
    if delta is not None and not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    der = derive(params)
    if cstar is None:
        cstar = measure_cstar(params, q, forced=op.w is not None)
    delta_max, budget = picard_smallness(params, cstar)
    if delta is None:
        delta = 0.5 * delta_max
    data_size = lr_norm(op.u0, float(der.data_index)) + (
        0.0 if op.w is None else lr_norm(op.w, float(der.forcing_index))
    )
    outside = delta > delta_max or data_size > budget

    u = op.free_only(delta=delta)
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
    sharp: tuple  # the sharp free-space constants of the three terms
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
    def probe_lift(self):
        """c1/C - 1 per constant: how far the data lift it above the sharp one.

        Without forcing both forcing constants are 0, and so is its lift.
        """
        c1 = (self.c1_free, self.c1_nonlinear, self.c1_forcing)
        return tuple(c / sharp - 1.0 if sharp else 0.0 for c, sharp in zip(c1, self.sharp))

    @property
    def all_margins_nonnegative(self):
        return bool(
            np.all(self.margins_free >= 0)
            and np.all(self.margins_nonlinear >= 0)
            and np.all(self.margins_forcing >= 0)
        )

    def csv(self):
        return csv_text(
            ("t", "free", "free_bound", "free_margin", "nonlinear", "nonlinear_bound",
             "nonlinear_margin", "forcing", "forcing_bound", "forcing_margin"),
            ((t, self.measured_free[i], self.bound_free, self.margins_free[i],
              self.measured_nonlinear[i], self.bound_nonlinear, self.margins_nonlinear[i],
              self.measured_forcing[i], self.bound_forcing, self.margins_forcing[i])
             for i, t in enumerate(self.times)))


def audit_estimates(u, op):
    """Check the three term-by-term bounds at every rung of a ladder solution of op.

    Each smoothing constant is the sharp free-space one, raised to the ratio
    its data reach on this grid over the ladder's times (u0; |u|^p on every
    eighth rung; w): the bounds hold for these data, but the constants do not
    bound the torus sup over all data (see sup_smoothing_ratio).  Without w
    the forcing bound and constants are 0.
    """
    params, u0, w = op.params, op.u0, op.w
    q = op.q
    p = float(params.p)
    forced = w is not None
    d, k, beta, (a_nl, b_nl), (a_frc, b_frc) = _bound_exponents(params, q)
    if not u.in_ball:
        raise ValueError("ladder solution is outside its ball; bounds need delta")

    args = [("1-beta*p", a_nl), ("1-N(p-1)/(2q)", b_nl)]
    if forced:
        args += [("sigma+1", a_frc), ("1-(N/2)(1/k-1/q)", b_frc)]
    for name, val in args:
        if val <= 0:
            raise ValueError(
                f"admissibility bug: beta-function argument {name} = {val} <= 0 "
                f"inside the q-window"
            )

    # per rung, the nonlinear term and S(u) = nonlinear + free + forcing
    # are each brought to the grid for their norms, one spectrum at a time
    prop = op.prop
    spectra = op.nonlinear_term(u)
    nl_norms, total = np.zeros(len(spectra)), np.zeros(len(spectra))
    for j in range(len(spectra)):
        spec, spectra[j] = spectra[j], None
        nl_norms[j] = lr_norm(Field(u0.grid, prop.from_spectrum(spec)), q)
        spec += op.data_spectrum(j)
        total[j] = lr_norm(Field(u0.grid, prop.from_spectrum(spec)), q)
    tb = u.times**beta
    measured_free = tb * op.free_norms
    measured_nl = tb * nl_norms
    measured_frc = tb * op.forcing_norms

    dense = np.geomspace(u.times[0] / 2.0, u.times[-1], 96)
    probes_nl = [Field(u0.grid, np.abs(u.fields[j].values) ** p)
                 for j in range(0, len(u.fields), max(1, len(u.fields) // 8))]
    sharp = _sharp_constants(params, q, forced)
    data_probes = ([u0], probes_nl, [] if w is None else [w])
    c1_free, c1_nl, c1_frc = (max(c, sup_smoothing_ratio(prop, probes, dense, r, q))
                              for c, probes, r in zip(sharp, data_probes, (d, q / p, k)))

    norm_u0 = lr_norm(u0, d)
    norm_w = 0.0 if w is None else lr_norm(w, k)
    bound_free = c1_free * norm_u0
    bound_nl = c1_nl * beta_function(a_nl, b_nl) * u.delta**p
    bound_frc = c1_frc * beta_function(a_frc, b_frc) * norm_w if forced else 0.0

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
        sharp=sharp,
        beta_args_nonlinear=(a_nl, b_nl),
        beta_args_forcing=(a_frc, b_frc),
        cstar_hat=cstar_hat,
    )
