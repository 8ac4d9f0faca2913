"""Time integration of the forced reaction-diffusion equation.

Only the reaction is split off.  The substep over [a, b] with midpoint m
is L(a -> m) N(h) L(m -> b), whose parts are exact flows.  L is the flow of
the linear forced equation u' = Lap u + s^sigma w, mode by mode on the
half-spectrum: u_hat <- exp(-(b-a)|xi|^2) u_hat + w_hat phi(a, b), with
phi(a, b) = F(b) - exp(-(b-a)|xi|^2) F(a) and F(t) =
t^(sigma+1)/(sigma+1) 1F1(1; sigma+2; -t|xi|^2) (`forcing_multiplier`),
evaluated once per distinct |xi|^2 and cached by the float t.  The zero
mode takes int_a^b s^sigma ds in closed form, which does not cancel when
b - a << a and is exact at s = 0, where s^sigma is singular for sigma < 0.
N is the flow of v' = |v|^p, v (1 - (p-1) h sign(v)|v|^(p-1))^(-1/(p-1));
a base <= 0 means v blows up inside the substep, which raises StepOverflow
before the base is raised to -1/(p-1) (for p = 2 that power of a negative
base would be finite).  Step size is controlled by step doubling; with the
forcing inside the exact flow, only the reaction limits it.  Blow-up is
declared either when the sup norm crosses the configured threshold Umax,
at the time where sup^(1-p), interpolated linearly in t between the last
two accepted steps, reaches Umax^(1-p) (exact for the ODE blow-up
profile), or when the step collapses while the sup norm keeps growing.

The state between steps is the half-spectrum of v.  A step-doubling trial
of length h from t0 forms the full step L N(h) L and the two half steps,
whose inner flows L(q1 -> m) L(m -> q3) merge into L(q1 -> q3), with q1,
m and q3 at a quarter, half and three quarters of the step.  With the two
inverse transforms the error test needs, a trial costs 8 real FFTs, and
the accepted spectrum is the next step's start, so no accepted field is
transformed forward again.  Every flow ends at the float time where the
next one starts, so consecutive flows telescope over the clock's times.

A symmetric composition of exact flows has an error expansion in odd
powers of h only (McLachlan & Quispel, Acta Numerica 2002), so fine - full
is the O(h^3) estimate the step controller uses, and an accepted trial from
t0 > 0 keeps the Richardson value (4 fine - full)/3, a 4th-order step
(local extrapolation), formed from the spectra and fields the trial already
has, so it costs no transform; the estimate is conservative for it.  The
first step, from t0 = 0, keeps fine: there the forcing weight s^sigma is
not smooth.  Hence the default tolerance DEFAULT_TOL_STEP = 1e-6.  On
spatially uniform data the substep is exact and the estimate reads only
roundoff, so steps there are limited by blow-up inside the substep, and a
linear forced run (nonlinear=False) is exact at any step.
"""

from __future__ import annotations

import enum
import functools
import io
import math
from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from .exponents import Params, derive
from .field import Field, ForcingSpec, boundary_shell_fraction, lr_norm, norm_of_abs
from .semigroup import Propagator, forcing_multiplier

_GROW_CAP = 4.0
_SHRINK_FLOOR = 0.2
_SAFETY = 0.9
_BOUNDARY_FLAG_LEVEL = 1e-6
DEFAULT_TOL_STEP = 1e-6


class StepOverflow(RuntimeError):
    """Raised when a reaction substep blows up or produces non-finite values."""


class Verdict(enum.Enum):
    BLEW_UP = "BlewUpAt"
    REACHED_HORIZON = "ReachedHorizon"
    STALLED = "Stalled"


@dataclass
class SolveConfig:
    """Run parameters for the adaptive solver.

    dt_max defaults to max(dt0, Tend/500); record_times are hit exactly and
    snapshotted.  Set nonlinear=False to integrate only the linear forced
    equation (diagnostic mode).  A run that continues a trajectory caps its
    steps by this config's effective_dt_max, the value a fresh run to the
    new Tend would use, and ignores dt0: the step-size proposal carries over.

    tol_step bounds the step-doubling estimate max|full - fine| / (1 +
    max|fine|) of each step.  The estimate is O(h^3), while every accepted
    step after the first is extrapolated to 4th order; the linear forced
    flow L and the reaction flow N are exact, so only the error of splitting
    N from L is left for the extrapolation to cancel, and a linear forced
    run takes steps of dt_max (see the module docstring).  A run that ends
    at Umax reports t_star where sup^(1-p), linear in t between the last two
    accepted steps, reaches Umax^(1-p).
    """

    params: Params
    Tend: float
    dt0: float = 1e-4
    dt_min: float = 1e-12
    dt_max: float | None = None
    Umax: float = 1e8
    tol_step: float = DEFAULT_TOL_STEP
    snapshot_every: int = 0
    record_times: tuple = ()
    nonlinear: bool = True

    def __post_init__(self):
        if not (self.Tend > 0):
            raise ValueError("Tend must be positive")
        if not (0 < self.dt_min <= self.dt0):
            raise ValueError("need 0 < dt_min <= dt0")
        if not (self.Umax > 0):
            raise ValueError("Umax must be positive")
        if not (self.tol_step > 0):
            raise ValueError("tol_step must be positive")
        if self.dt_max is not None and not (self.dt_max > 0):
            raise ValueError("dt_max must be positive")

    @property
    def effective_dt_max(self):
        if self.dt_max is not None:
            return self.dt_max
        return max(self.dt0, self.Tend / 500.0)


class Stepper:
    """Split stepper bound to one grid and parameter set.

    It works on half-spectra (`Propagator.to_spectrum`), where the linear
    forced flow L is exact mode by mode and consecutive flows merge.
    """

    def __init__(self, grid, params, w_values=None, nonlinear=True):
        self.grid = grid
        self.prop = Propagator(grid)
        self.p = float(params.p)
        self.sigma = float(params.sigma)
        self.nl = bool(nonlinear)
        self.w_hat = None
        if w_values is not None:
            self.w_hat = self.prop.to_spectrum(np.reshape(w_values, grid.shape))
            # F(t) = int_0^t s^sigma e^{-(t-s)|xi|^2} ds per mode, with 1F1
            # evaluated once per distinct |xi|^2; a trial needs F at five
            # times and the next trial at its start again
            xi2 = self.prop.xi2
            levels, where = np.unique(xi2.ravel(), return_inverse=True)
            where = where.reshape(xi2.shape)
            self._forced_at = functools.lru_cache(maxsize=8)(
                lambda t: forcing_multiplier(t, levels, self.sigma)[where])

    def _phi(self, a, b):
        """int_a^b s^sigma e^{-(b-s)|xi|^2} ds per mode: F(b) - e^{-(b-a)|xi|^2} F(a).

        The zero mode, where that difference cancels when b - a << a, is
        int_a^b s^sigma ds in closed form, exact at a = 0 too.
        """
        phi = self._forced_at(b) - self.prop.multiplier(b - a) * self._forced_at(a)
        s1 = self.sigma + 1.0
        if a == 0.0:
            phi.flat[0] = b**s1 / s1
        else:
            phi.flat[0] = a**s1 * math.expm1(s1 * math.log1p((b - a) / a)) / s1
        return phi

    def _linear(self, spec, a, b):
        """L(a -> b), the exact flow of u' = Lap u + s^sigma w, in a new array."""
        out = spec * self.prop.multiplier(b - a)
        if self.w_hat is not None:
            out += self.w_hat * self._phi(a, b)
        return out

    def _flow(self, v, dt):
        """Exact flow of v' = |v|^p over dt, in a new array.

        v (1 - (p-1) dt sign(v)|v|^(p-1))^(-1/(p-1)); a base <= 0 (or NaN)
        is blow-up inside the step and raises StepOverflow before the base
        is raised to -1/(p-1), since for some p that power is finite.
        """
        pm1 = self.p - 1.0
        with np.errstate(over="ignore"):  # step_values rejects non-finite output
            base = np.abs(v)
            base **= pm1
            np.copysign(base, v, out=base)
            base *= -pm1 * dt
            base += 1.0
            if not base.min() > 0.0:
                raise StepOverflow(f"blow-up inside a step of length {dt}")
            base **= -1.0 / pm1
            base *= v
        return base

    def step_values(self, spec, pre, h, post):
        """L(post) F N(h) I L(pre) spec: the reaction flow between two linear flows.

        pre and post are the (a, b) times of the flows L; pre None is the
        identity.  N is skipped when the nonlinearity is off.  Raises
        StepOverflow when the reaction blows up inside the step or its output
        is not finite.
        """
        values = self.prop.from_spectrum(spec if pre is None else self._linear(spec, *pre))
        if self.nl:
            values = self._flow(values, h)
        if not np.all(np.isfinite(values)):
            raise StepOverflow(f"non-finite values at t = {post[0]}")
        return self._linear(self.prop.to_spectrum(values), *post)

    def trial(self, spec, t0, dt):
        """One step-doubling trial from spec: full and fine fields, then spectra."""
        mid, end = t0 + 0.5 * dt, t0 + dt
        q1, q3 = t0 + 0.25 * dt, t0 + 0.75 * dt
        full = self.step_values(spec, (t0, mid), dt, (mid, end))
        half = self.step_values(spec, (t0, q1), 0.5 * dt, (q1, q3))
        fine = self.step_values(half, None, 0.5 * dt, (q3, end))
        return self.prop.from_spectrum(full), self.prop.from_spectrum(fine), full, fine


def accepted_state(t0, full, fine):
    """What an accepted trial from t0 keeps: fields or spectra alike.

    (4 fine - full)/3 for t0 > 0, the fine value for the first step.
    """
    if t0 > 0.0:
        return fine + (fine - full) / 3.0
    return fine


def step(u, t, dt, params, w=None, nonlinear=True):
    """One split step L N L of length dt starting at time t."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    wv = None if w is None else w.profile.values
    if w is not None and w.profile.grid != u.grid:
        raise ValueError("forcing grid does not match field grid")
    stepper = Stepper(u.grid, params, wv, nonlinear)
    t, dt = float(t), float(dt)
    mid = t + 0.5 * dt
    spec = stepper.step_values(stepper.prop.to_spectrum(u.values), (t, mid), dt,
                               (mid, t + dt))
    return Field(u.grid, stepper.prop.from_spectrum(spec))


@dataclass
class EndState:
    """Where a run that reached its horizon stopped: enough to continue it.

    spec is the half-spectrum of v that the next step starts from; it is
    carried because transforming v again would not return it bitwise.
    """

    t: float
    v: Field
    spec: np.ndarray
    dt: float
    hist: deque
    accepted: int
    w: ForcingSpec | None


@dataclass
class Trajectory:
    """Recorded norms, snapshots and the termination verdict of one run.

    A run that reached its horizon also carries its end state, from which
    `run` can continue it to a later horizon.
    """

    params: Params
    q: float
    beta: float
    d: float
    times: np.ndarray
    linf: np.ndarray
    lq: np.ndarray
    ld: np.ndarray
    weighted: np.ndarray
    lq_fluct: np.ndarray
    snapshots: list = dc_field(default_factory=list)
    verdict: Verdict = Verdict.STALLED
    t_star: float | None = None
    boundary_frac_max: float = 0.0
    end: EndState | None = None

    @property
    def boundary_flagged(self):
        return self.boundary_frac_max > _BOUNDARY_FLAG_LEVEL

    def snapshot_at(self, t):
        for ts, f in self.snapshots:
            if ts == t:
                return f
        raise KeyError(f"no snapshot recorded at t = {t}")

    def norms_csv(self):
        out = io.StringIO()
        out.write("t,Linf,Lq,Ld,weighted\n")
        for i in range(self.times.size):
            out.write(
                f"{self.times[i]:.17g},{self.linf[i]:.17g},{self.lq[i]:.17g},"
                f"{self.ld[i]:.17g},{self.weighted[i]:.17g}\n"
            )
        return out.getvalue()


def recording_norms(params):
    """The (q, beta, d) triple recorded along a trajectory.

    Uses the admissible-window midpoint when the window exists; otherwise a
    bookkeeping fallback q = max(2, p) with beta clipped at zero.
    """
    der = derive(params)
    if der.q_default is not None:
        q = float(der.q_default)
        beta = float(der.beta)
    else:
        p = float(params.p)
        q = max(2.0, p)
        beta = max(0.0, 1.0 / (p - 1.0) - params.N / (2.0 * q))
    return q, beta, float(der.data_index)


def _same_forcing(a, b):
    if a is None or b is None:
        return a is b
    return a.profile.grid == b.profile.grid and np.array_equal(a.profile.values,
                                                               b.profile.values)


def _end_state(traj, w, cfg):
    """The end state of traj, after checking that cfg may continue it."""
    end = traj.end
    if end is None:
        raise ValueError(f"cannot continue a run that ended in {traj.verdict.value}")
    if not (cfg.Tend > end.t):
        raise ValueError(f"Tend = {cfg.Tend} does not lie beyond the stored t = {end.t}")
    if cfg.params != traj.params:
        raise ValueError("params differ from those of the run being continued")
    if not _same_forcing(w, end.w):
        raise ValueError("forcing or grid differs from that of the run being continued")
    return end


def run(start, w, cfg):
    """Advance with adaptive step doubling until blow-up or cfg.Tend.

    start is either initial data (a Field at t = 0) or a Trajectory that
    reached its horizon.  A trajectory is continued from its end state, and
    its recorded series and snapshots run on from t = 0.  With one dt_max
    for both segments the result is bitwise that of a single run to
    cfg.Tend that records at the earlier horizon.
    """
    end = _end_state(start, w, cfg) if isinstance(start, Trajectory) else None
    grid = start.grid if end is None else end.v.grid
    if w is not None and w.profile.grid != grid:
        raise ValueError("forcing grid does not match initial-data grid")
    q, beta, d = recording_norms(cfg.params)
    stepper = Stepper(grid, cfg.params, None if w is None else w.profile.values,
                      cfg.nonlinear)
    vol = grid.cell_volume

    t = 0.0 if end is None else end.t
    record_set = {float(s) for s in cfg.record_times if t < s <= cfg.Tend}
    targets = sorted(record_set | {float(cfg.Tend)})

    if end is None:
        times, linf_s, lq_s, ld_s, weighted_s, fluct_s = [], [], [], [], [], []
        snapshots = []
        boundary_max = 0.0
    else:
        times, linf_s, lq_s, ld_s, weighted_s, fluct_s = (
            a.tolist() for a in (start.times, start.linf, start.lq, start.ld,
                                 start.weighted, start.lq_fluct))
        snapshots = list(start.snapshots)
        boundary_max = start.boundary_frac_max
    mean_weight = 1.0 / grid.size

    def record(t, values):
        nonlocal boundary_max
        absu = np.abs(values)
        linf = norm_of_abs(absu, math.inf, vol)
        lqv = norm_of_abs(absu, q, vol)
        ldv = norm_of_abs(absu, d, vol) if d >= 1.0 else math.nan
        mean = float(np.sum(values)) * mean_weight
        fl = norm_of_abs(np.abs(values - mean), q, vol)
        times.append(t)
        linf_s.append(linf)
        lq_s.append(lqv)
        ld_s.append(ldv)
        weighted_s.append(t**beta * lqv if t > 0 else (lqv if beta == 0.0 else 0.0))
        fluct_s.append(t**beta * fl if t > 0 else (fl if beta == 0.0 else 0.0))
        boundary_max = max(boundary_max, boundary_shell_fraction((grid, values), 0.125, absu))
        return linf

    dt_max = cfg.effective_dt_max
    if end is None:
        v = np.array(start.values, dtype=np.float64)
        spec = stepper.prop.to_spectrum(v)
        record(0.0, v)
        if cfg.snapshot_every > 0 or 0.0 in record_set:
            snapshots.append((0.0, start))
        dt = min(cfg.dt0, dt_max, targets[0])
        hist = deque(maxlen=10)
        hist.append(linf_s[-1])
        accepted = 0
    else:
        v = end.v.values
        spec = end.spec
        dt = end.dt
        hist = deque(end.hist, maxlen=end.hist.maxlen)
        accepted = end.accepted
    ti = 0
    verdict, t_star = None, None

    def umax_crossing():
        """Where sup^(1-p), linear in t between the last two records, is Umax^(1-p).

        Exact for the ODE blow-up profile, along which sup^(1-p) falls
        linearly in t.
        """
        (t0, t1), (s0, s1) = times[-2:], linf_s[-2:]
        if not s0 > 0.0:
            return t1
        e = 1.0 - stepper.p
        y0, y1 = s0**e, s1**e
        return t1 - (t1 - t0) * (cfg.Umax**e - y1) / (y0 - y1)

    def growth_verdict():
        grew = len(hist) >= 2 and hist[-1] > hist[0]
        return (Verdict.BLEW_UP, t) if grew else (Verdict.STALLED, None)

    while verdict is None:
        target = targets[ti]
        gap = target - t
        if gap <= cfg.dt_min:
            t = target
        else:
            dt_try = min(dt, dt_max, gap)
            try:
                full, fine, full_spec, fine_spec = stepper.trial(spec, t, dt_try)
                err = float(np.max(np.abs(full - fine))) / (
                    1.0 + float(np.max(np.abs(fine)))
                )
            except StepOverflow:
                err = math.inf
            if math.isnan(err):  # a transform overflowed after a finite reaction
                err = math.inf
            if err > cfg.tol_step:
                if err == math.inf:
                    dt = max(dt_try * _SHRINK_FLOOR, 0.0)
                else:
                    dt = dt_try * min(
                        1.0, max(_SHRINK_FLOOR, _SAFETY * (cfg.tol_step / err) ** (1.0 / 3.0))
                    )
                if dt < cfg.dt_min:
                    verdict, t_star = growth_verdict()
                continue
            v = accepted_state(t, full, fine)
            spec = accepted_state(t, full_spec, fine_spec)
            t = t + dt_try
            accepted += 1
            linf = record(t, v)
            hist.append(linf)
            if cfg.snapshot_every > 0 and accepted % cfg.snapshot_every == 0:
                snapshots.append((t, Field(grid, v.copy())))
            if err == 0.0:
                dt = dt_try * _GROW_CAP
            else:
                dt = dt_try * min(
                    _GROW_CAP, max(_SHRINK_FLOOR, _SAFETY * (cfg.tol_step / err) ** (1.0 / 3.0))
                )
            if linf >= cfg.Umax:
                verdict, t_star = Verdict.BLEW_UP, umax_crossing()
                break
        if verdict is None and t >= target:
            if target in record_set:
                if times[-1] != t:
                    record(t, v)
                if not snapshots or snapshots[-1][0] != t:
                    snapshots.append((t, Field(grid, v.copy())))
            if target >= cfg.Tend:
                verdict = Verdict.REACHED_HORIZON
                break
            ti += 1

    return Trajectory(
        params=cfg.params,
        q=q,
        beta=beta,
        d=d,
        times=np.array(times),
        linf=np.array(linf_s),
        lq=np.array(lq_s),
        ld=np.array(ld_s),
        weighted=np.array(weighted_s),
        lq_fluct=np.array(fluct_s),
        snapshots=snapshots,
        verdict=verdict,
        t_star=t_star,
        boundary_frac_max=boundary_max,
        end=(EndState(t, Field(grid, v), spec, dt, hist, accepted, w)
             if verdict is Verdict.REACHED_HORIZON else None),
    )


def weighted_norm_series(traj, beta, q):
    """The series (t, t^beta * ||u(t)||_q) and its running supremum.

    Reuses the recorded q-norms when q matches the trajectory's recorded
    index; otherwise recomputes from snapshots (error if none exist).
    """
    if q == traj.q:
        times = traj.times
        base = traj.lq
    else:
        if not traj.snapshots:
            raise ValueError(
                f"q = {q} was not recorded and no snapshots are available"
            )
        times = np.array([ts for ts, _ in traj.snapshots])
        base = np.array([lr_norm(f, q) for _, f in traj.snapshots])
    weighted = np.where(times > 0, times**beta * base, base if beta == 0.0 else 0.0)
    return times, weighted, np.maximum.accumulate(weighted)
