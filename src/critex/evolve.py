"""Time integration of the forced reaction-diffusion equation.

Strang splitting: exact spectral diffusion half-steps around a pointwise
Runge-Kutta step of v' = |v|^p + s^sigma * w(x).  Steps that touch s = 0
with sigma < 0 integrate the reaction in the variable tau = s^(sigma+1), so
the singular-in-time forcing enters through its exact antiderivative.  Step
size is controlled by step doubling, and blow-up is declared either when the
sup norm crosses the configured threshold or when the step collapses while
the sup norm keeps growing.

The state between steps is the half-spectrum of v.  A step-doubling trial
of length h from that spectrum, with m(s) = exp(-s|xi|^2), forms the full
step m(h/2) F R_h I m(h/2) and the two half steps, whose inner quarter-step
diffusions merge into one m(h/2): m(h/4) F R_{h/2} I m(h/2) F R_{h/2} I
m(h/4).  With the two inverse transforms the error test needs, a trial
costs 8 real FFTs, and the accepted spectrum is the next step's start, so
no accepted field is transformed forward again.

Strang splitting is symmetric, so the errors of the full step S(h) and of
the fine pair S(h/2)^2 have odd powers of h only, and fine - full is the
O(h^3) estimate the step controller uses.  An accepted trial from t0 > 0
keeps the Richardson value (4 fine - full)/3, a 4th-order step (local
extrapolation), formed from the spectra and fields the trial already has,
so it costs no transform; the estimate is conservative for it.  The first
step, from t0 = 0, keeps fine: there the forcing weight s^sigma is not
smooth.  Hence the default tolerance DEFAULT_TOL_STEP = 1e-6, where plain
Strang steps needed 1e-7 for the same blow-up-time accuracy.  The RK4
reaction error has every power of h from h^5 on, which the extrapolation
does not cancel: where the reaction dominates (spatially uniform data), the
extrapolated value is less accurate than fine.
"""

from __future__ import annotations

import enum
import io
import math
from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import kernels
from .exponents import Params, derive
from .field import Field, ForcingSpec, boundary_shell_fraction, lr_norm, norm_of_abs
from .semigroup import Propagator

_GROW_CAP = 4.0
_SHRINK_FLOOR = 0.2
_SAFETY = 0.9
_BOUNDARY_FLAG_LEVEL = 1e-6
DEFAULT_TOL_STEP = 1e-6


class StepOverflow(RuntimeError):
    """Raised when a reaction substep produces non-finite values."""


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
    step after the first is extrapolated to 4th order, so the default
    DEFAULT_TOL_STEP = 1e-6 gives blow-up times about as accurate as 1e-7
    gave plain Strang steps, in about half the trials (less accurate where
    the reaction dominates; see the module docstring).
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
    """Strang-split stepper bound to one grid and parameter set.

    It works on half-spectra (`Propagator.to_spectrum`), so that the
    diffusion substeps are multipliers and consecutive ones merge.
    """

    def __init__(self, grid, params, w_values=None, nonlinear=True):
        self.grid = grid
        self.prop = Propagator(grid)
        self.p = float(params.p)
        self.sigma = float(params.sigma)
        self.w = None if w_values is None else np.ascontiguousarray(w_values).ravel()
        self.nl = 1.0 if nonlinear else 0.0

    def _react(self, flat, t0, dt):
        if self.w is None:
            return kernels.reaction_rk4_plain(flat, dt, self.p, self.nl)
        if t0 == 0.0 and self.sigma < 0.0:
            return kernels.reaction_rk4_tau(flat, self.w, dt, self.p, self.sigma, self.nl)
        return kernels.reaction_rk4_forced(flat, self.w, t0, dt, self.p, self.sigma, self.nl)

    def step_values(self, spec, t0, dt, pre, post):
        """post * F(R(I(pre * spec))) with R the reaction over [t0, t0 + dt].

        pre and post are diffusion multipliers; pre None is the identity.
        Raises StepOverflow when the reaction output is not finite.
        """
        values = self.prop.from_spectrum(spec if pre is None else spec * pre)
        react = self._react(values.ravel(), t0, dt)
        if not np.all(np.isfinite(react)):
            raise StepOverflow(f"non-finite values at t = {t0}")
        out = self.prop.to_spectrum(react.reshape(self.grid.shape))
        out *= post
        return out

    def trial(self, spec, t0, dt):
        """One step-doubling trial from spec: full and fine fields, then spectra."""
        half, quarter = self.prop.multiplier(0.5 * dt), self.prop.multiplier(0.25 * dt)
        full = self.step_values(spec, t0, dt, half, half)
        mid = self.step_values(spec, t0, 0.5 * dt, quarter, half)
        fine = self.step_values(mid, t0 + 0.5 * dt, 0.5 * dt, None, quarter)
        return self.prop.from_spectrum(full), self.prop.from_spectrum(fine), full, fine


def accepted_state(t0, full, fine):
    """What an accepted trial from t0 keeps: fields or spectra alike.

    (4 fine - full)/3 for t0 > 0, the fine value for the first step.
    """
    if t0 > 0.0:
        return fine + (fine - full) / 3.0
    return fine


def step(u, t, dt, params, w=None, nonlinear=True):
    """One Strang-split step of length dt starting at time t."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    wv = None if w is None else w.profile.values
    if w is not None and w.profile.grid != u.grid:
        raise ValueError("forcing grid does not match field grid")
    stepper = Stepper(u.grid, params, wv, nonlinear)
    half = stepper.prop.multiplier(0.5 * float(dt))
    spec = stepper.step_values(stepper.prop.to_spectrum(u.values), float(t), float(dt),
                               half, half)
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
                verdict, t_star = Verdict.BLEW_UP, t
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
