"""Phase-diagram sweeps: classify blow-up vs global behavior over (p, sigma).

Each lattice point runs the evolver on scaled bump data.  A run that blows
up is conclusive.  A run that reaches the horizon is promoted to
GlobalCandidate only if the weighted norm of the mean-free part is
non-increasing over the last time decade and the spatial mean is far from
triggering the reaction ODE within a safety factor of the horizon; on the
periodic box the mean accumulates the injected forcing mass instead of
dispersing, so the raw weighted norm grows slowly for every forced run and
only the fluctuation part carries the dispersive decay.  Ambiguous runs are
continued to a tenfold horizon before reporting Undetermined.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import csv_text
from .evolve import SolveConfig, StepOverflow, Verdict, run
from .exponents import (
    Params,
    Regime,
    classify_regime,
    critical_exponent,
    derive,
    picard_smallness,
)
from .field import BumpSpec, Field, Grid, data_profile, integral, lr_norm

BLOWUP = "BlowUp"
GLOBAL_CANDIDATE = "GlobalCandidate"
UNDETERMINED = "Undetermined"

# A run that reaches its horizon is a global candidate when the tail slope of
# its mean-free weighted norm is at most TAIL_SLOPE_TOL and the mean's ODE
# does not blow up within PROJECTION_MARGIN horizons.
TAIL_SLOPE_TOL = 0.05
PROJECTION_MARGIN = 10.0


@dataclass(frozen=True)
class SweepPlan:
    """Job lattice and shared solver settings for one sweep."""

    N: int
    L: float
    n: int
    p_values: tuple
    sigma_values: tuple
    data_scales: tuple = (1.0,)
    u0_spec: BumpSpec = BumpSpec()
    w_spec: BumpSpec = BumpSpec()
    tend: float = 100.0
    tend_max: float = 1e4
    umax: float = SolveConfig.Umax
    tol_step: float = SolveConfig.tol_step
    dt0: float = SolveConfig.dt0
    budget_cstar: float = 1.0

    def __post_init__(self):
        if not self.p_values or not self.sigma_values or not self.data_scales:
            raise ValueError("sweep lattice must be nonempty")
        # the grid, every (p, sigma) and the solver settings are checked here,
        # so that a bad value fails once instead of inside every job
        self.grid()
        params = [Params(N=self.N, p=p, sigma=s)
                  for s in self.sigma_values for p in self.p_values]
        SolveConfig(params=params[0], Tend=self.tend, dt0=self.dt0, Umax=self.umax,
                    tol_step=self.tol_step)
        if not self.tend_max >= self.tend:
            raise ValueError(f"tend_max must be >= tend, got {self.tend_max} < {self.tend}")
        if not self.budget_cstar > 0:
            raise ValueError(f"budget_cstar must be positive, got {self.budget_cstar}")

    def grid(self):
        return Grid(N=self.N, L=self.L, n=self.n)

    def jobs(self):
        return sorted(
            (float(s), float(p), float(a))
            for s in self.sigma_values
            for p in self.p_values
            for a in self.data_scales
        )


@dataclass(frozen=True)
class PhasePoint:
    """Classification outcome of one (p, sigma, scale) job."""

    p: float
    sigma: float
    scale: float
    verdict: str
    t_star: float | None
    reason: str
    theory: str
    tend_used: float


def _theory_label(params):
    if params.sigma == 0:
        return ""
    return classify_regime(params).value


def _job_data(plan, params, scale):
    """Build (u0, w) for one job; supercritical data are shrunk into the smallness budget.

    u0 kind "none" is zero data; w is None for an unforced sweep (w kind "none").
    """
    grid = plan.grid()
    u0 = data_profile(grid, **asdict(plan.u0_spec))
    if u0 is None:
        u0 = Field(grid, np.zeros(grid.shape))
    w = data_profile(grid, **asdict(plan.w_spec))
    if params.sigma != 0 and classify_regime(params) is Regime.SUPERCRITICAL_GLOBAL:
        der = derive(params)
        _, budget = picard_smallness(params, plan.budget_cstar)
        nd = lr_norm(u0, float(der.data_index))
        if nd > 0:
            u0 = u0.scaled(0.25 * budget / nd)
        if w is not None:
            nk = lr_norm(w, float(der.forcing_index))
            if nk > 0:
                w = w.scaled(0.25 * budget / nk)
    return u0.scaled(scale), None if w is None else w.scaled(scale)


def _tail_slope(times, series, t_lo):
    mask = (times >= t_lo) & (series > 1e-300)
    if np.count_nonzero(mask) < 4:
        return 0.0
    return float(np.polyfit(np.log(times[mask]), np.log(series[mask]), 1)[0])


def _mean_ode_blowup(m0, wbar, sigma, p, t0, t_cap):
    """Blow-up time of m' = |m|^p + wbar * t^sigma from (t0, m0), capped.

    Cheap adaptive midpoint integration; the constant Fourier mode of the
    periodic box obeys exactly this ODE with Jensen's inequality in the
    blow-up direction, so this projects how far the horizon-reaching run
    really is from the torus mean-growth blow-up.
    """
    m, t = abs(float(m0)), float(t0)
    for _ in range(100000):
        if m >= 1e8:
            return t
        rate = m**p + wbar * t**sigma
        if rate <= 0.0:
            return math.inf
        dt = min(0.05 * t, 0.2 * (m + 1e-9) / rate, t_cap - t)
        mid = m + 0.5 * dt * rate
        rate_mid = mid**p + wbar * (t + 0.5 * dt) ** sigma
        m += dt * rate_mid
        t += dt
        if t >= t_cap:
            return t_cap
    return t


def classify_run(traj, params, tend, wbar=0.0):
    """Map one trajectory to (verdict, t_star, reason); may request escalation."""
    if traj.verdict is Verdict.BLEW_UP:
        return BLOWUP, traj.t_star, "sup-norm threshold"
    if traj.verdict is Verdict.STALLED:
        return UNDETERMINED, None, "stalled"
    slope = _tail_slope(traj.times, traj.lq_fluct, tend / 10.0)
    final = traj.snapshot_at(traj.times[-1])
    mean = float(np.mean(final.values))
    horizon = PROJECTION_MARGIN * tend
    proj = _mean_ode_blowup(mean, max(wbar, 0.0), float(params.sigma),
                            float(params.p), tend, horizon)
    if slope <= TAIL_SLOPE_TOL and proj >= horizon:
        return GLOBAL_CANDIDATE, None, f"tail slope {slope:.3g}"
    return None, None, f"tail slope {slope:.3g}, projected blow-up {proj:.3g}"


# What a job may raise for numerical reasons; anything else is a bug and
# fails the sweep instead of being reported as an Undetermined point.
_JOB_FAILURES = (ValueError, ArithmeticError, StepOverflow)


def _run_job(plan, job):
    sigma, p, scale = job
    params = Params(N=plan.N, p=p, sigma=sigma)
    theory = _theory_label(params)
    try:
        u0, w = _job_data(plan, params, scale)
        wbar = 0.0 if w is None else integral(w) / (2.0 * plan.L) ** plan.N
        start, tend = u0, plan.tend
        while True:
            cfg = SolveConfig(
                params=params,
                Tend=tend,
                dt0=plan.dt0,
                Umax=plan.umax,
                tol_step=plan.tol_step,
                record_times=(tend,),
            )
            traj = run(start, w, cfg)
            verdict, t_star, reason = classify_run(traj, params, tend, wbar)
            if verdict is not None:
                return PhasePoint(p, sigma, scale, verdict, t_star, reason,
                                  theory, tend)
            if tend >= plan.tend_max:
                return PhasePoint(p, sigma, scale, UNDETERMINED, None,
                                  f"horizon: {reason}", theory, tend)
            start, tend = traj, min(tend * 10.0, plan.tend_max)
    except _JOB_FAILURES as exc:  # numerical failures must not abort the sweep
        return PhasePoint(p, sigma, scale, UNDETERMINED, None,
                          f"error: {exc}", theory, plan.tend)


def execute(plan, workers=1):
    """Run every job; results are sorted by key and independent of scheduling."""
    jobs = plan.jobs()
    if workers <= 1:
        results = [_run_job(plan, job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, [plan] * len(jobs), jobs))
    results = _repair_p_monotonicity(plan, results)
    return sorted(results, key=lambda pt: (pt.sigma, pt.p, pt.scale))


def _repair_p_monotonicity(plan, points):
    """Re-examine global candidates sitting below a blow-up in the same column.

    At fixed sigma < 0 and data scale, blow-ups must occupy the low-p end.  A
    GlobalCandidate below some BlowUp is the suspect (a slow burner): re-run
    it with doubled horizon; if it still looks global, demote to Undetermined
    with the violation recorded.
    """
    out = list(points)
    by_col = {}
    for i, pt in enumerate(out):
        by_col.setdefault((pt.sigma, pt.scale), []).append(i)
    for (sigma, scale), idxs in sorted(by_col.items()):
        if sigma >= 0:
            continue
        blow_ps = [out[i].p for i in idxs if out[i].verdict == BLOWUP]
        if not blow_ps:
            continue
        top_blow = max(blow_ps)
        for i in idxs:
            pt = out[i]
            if pt.verdict != GLOBAL_CANDIDATE or pt.p >= top_blow:
                continue
            retry = _run_job(
                replace(plan, tend=min(2.0 * pt.tend_used, plan.tend_max)),
                (pt.sigma, pt.p, pt.scale),
            )
            if retry.verdict == BLOWUP:
                out[i] = retry
            else:
                out[i] = PhasePoint(
                    pt.p, pt.sigma, pt.scale, UNDETERMINED, None,
                    f"ordering violation vs blow-up at p={top_blow:g}; "
                    f"retried to Tend={retry.tend_used:g}",
                    pt.theory, retry.tend_used)
    return out


@dataclass(frozen=True)
class BoundaryEstimate:
    """Empirical critical power at one sigma, bracketed from both sides."""

    sigma: float
    p_hat: float | None
    p_star_theory: float
    bracket: tuple | None
    note: str


def estimate_boundary(points, sigma, N):
    """Smallest p classified global at the smallest data scale for this sigma."""
    rows = [pt for pt in points if pt.sigma == sigma]
    if not rows:
        raise ValueError(f"no points at sigma = {sigma}")
    smallest = min(pt.scale for pt in rows)
    rows = [pt for pt in rows if pt.scale == smallest]
    glob = sorted(pt.p for pt in rows if pt.verdict == GLOBAL_CANDIDATE)
    blow = sorted(pt.p for pt in rows if pt.verdict == BLOWUP)
    crit = float(critical_exponent(N, sigma))
    if not glob:
        note = "Unbracketed: no global candidate"
        if sigma > 0:
            note += " (critical power is infinite)"
        return BoundaryEstimate(sigma, None, crit, None, note)
    p_hat = glob[0]
    below = [p for p in blow if p < p_hat]
    bracket = (max(below), p_hat) if below else None
    note = "" if below else "Unbracketed: no blow-up below p_hat"
    return BoundaryEstimate(sigma, p_hat, crit, bracket, note)


def boundaries_csv(points, N):
    """boundaries.csv: theory and observed critical power per sigma (p_hat is
    never forced), closed by the limit of p* as sigma -> 0-.
    """
    ests = [estimate_boundary(points, sigma, N) for sigma in sorted({pt.sigma for pt in points})]
    return csv_text(("sigma", "p_star_theory", "p_hat", "note"),
                    ((e.sigma, e.p_star_theory, e.p_hat, e.note) for e in ests),
                    # the sigma <= 0 formula at sigma = 0 is the limit from below
                    [("limit_from_below", float(critical_exponent(N, 0)))])


def phase_csv(points):
    return csv_text(("p", "sigma", "scale", "verdict", "tstar", "theory"),
                    ((pt.p, pt.sigma, pt.scale, pt.verdict, pt.t_star, pt.theory)
                     for pt in points))


_VERDICT_COLORS = {
    BLOWUP: "#c0392b",
    GLOBAL_CANDIDATE: "#2980b9",
    UNDETERMINED: "#95a5a6",
}


def phase_svg(points, N, width=640, height=480):
    """Verdict-colored lattice with the theoretical critical curve overlaid.

    One cell per (sigma, p) at the smallest data scale.
    """
    smallest = {}
    for pt in points:
        key = (pt.sigma, pt.p)
        if key not in smallest or pt.scale < smallest[key].scale:
            smallest[key] = pt
    pts = sorted(smallest.values(), key=lambda v: (v.sigma, v.p))
    sigmas = sorted({pt.sigma for pt in pts})
    ps = sorted({pt.p for pt in pts})
    pad = 60.0
    cw = (width - 2 * pad) / max(len(sigmas), 1)
    chh = (height - 2 * pad) / max(len(ps), 1)

    def x_of(sig):
        return pad + sigmas.index(sig) * cw

    def y_of(p):
        return height - pad - (ps.index(p) + 1) * chh

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15">'
        f"phase diagram (N={N})</text>",
    ]
    for pt in pts:
        color = _VERDICT_COLORS.get(pt.verdict, "#000000")
        lines.append(
            f'<rect x="{x_of(pt.sigma):.2f}" y="{y_of(pt.p):.2f}" '
            f'width="{cw:.2f}" height="{chh:.2f}" fill="{color}" '
            f'stroke="white" stroke-width="1"><title>sigma={pt.sigma:.6g} '
            f"p={pt.p:.6g} {pt.verdict}</title></rect>"
        )
    # theoretical critical curve, drawn through cell centers where finite
    curve = []
    for sig in sigmas:
        crit = float(critical_exponent(N, sig))  # inf lies outside every lattice
        lo, hi = min(ps), max(ps)
        if lo <= crit <= hi:
            # interpolate a vertical position inside the lattice
            below = max((p for p in ps if p <= crit), default=lo)
            above = min((p for p in ps if p >= crit), default=hi)
            frac = 0.0 if above == below else (crit - below) / (above - below)
            ycell = y_of(below) + chh / 2 - frac * (
                (y_of(below) - y_of(above)) if above != below else 0.0
            )
            curve.append((x_of(sig) + cw / 2, ycell))
    if len(curve) >= 2:
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in curve)
        lines.append(
            f'<polyline points="{path}" fill="none" stroke="black" '
            f'stroke-width="2" stroke-dasharray="6,3"/>'
        )
    for i, sig in enumerate(sigmas):
        lines.append(
            f'<text x="{pad + (i + 0.5) * cw:.1f}" y="{height - pad + 18:.1f}" '
            f'text-anchor="middle" font-size="11">{sig:.4g}</text>'
        )
    for j, p in enumerate(ps):
        lines.append(
            f'<text x="{pad - 8:.1f}" y="{height - pad - (j + 0.5) * chh + 4:.1f}" '
            f'text-anchor="end" font-size="11">{p:.4g}</text>'
        )
    lines.append(
        f'<text x="{width / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" '
        f'font-size="12">sigma</text>'
    )
    lines.append(
        f'<text x="16" y="{height / 2:.1f}" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})" text-anchor="middle">p</text>'
    )
    x0 = pad
    for verdict, color in _VERDICT_COLORS.items():
        lines.append(f'<rect x="{x0:.1f}" y="34" width="12" height="12" fill="{color}"/>')
        lines.append(f'<text x="{x0 + 16:.1f}" y="44" font-size="11">{verdict}</text>')
        x0 += 150
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
