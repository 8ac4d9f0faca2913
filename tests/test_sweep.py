import math

import pytest

from critex import evolve, sweep
from critex.exponents import Params
from critex.field import BumpSpec
from critex.sweep import (
    BLOWUP,
    GLOBAL_CANDIDATE,
    UNDETERMINED,
    PhasePoint,
    SweepPlan,
    boundaries_csv,
    estimate_boundary,
    execute,
    phase_csv,
    phase_svg,
)

from _oracles import mean_ode_blowup_time

UNIT_AMP = (4.0 * math.pi * 0.5) ** -1  # mass-1 gaussian, a=0.5, N=2


def tiny_plan(**kw):
    base = dict(
        N=2, L=8.0, n=64,
        p_values=(1.5,), sigma_values=(-0.5,), data_scales=(1.0,),
        u0_spec=BumpSpec("gaussian", 0.5, UNIT_AMP),
        w_spec=BumpSpec("gaussian", 0.5, UNIT_AMP),
        tend=100.0,
    )
    base.update(kw)
    return SweepPlan(**base)


def test_plan_validation():
    with pytest.raises(ValueError):
        tiny_plan(p_values=())
    with pytest.raises(ValueError):
        tiny_plan(sigma_values=(-2.0,))
    with pytest.raises(ValueError, match="tend_max"):
        tiny_plan(tend_max=10.0)
    with pytest.raises(ValueError, match="budget_cstar"):
        tiny_plan(budget_cstar=0.0)
    plan = tiny_plan(p_values=(2.0, 1.5), sigma_values=(-0.5,), data_scales=(1.0, 0.5))
    jobs = plan.jobs()
    assert jobs == sorted(jobs)
    assert len(jobs) == 4


def test_subcritical_point_blows_up():
    pts = execute(tiny_plan())
    assert len(pts) == 1
    pt = pts[0]
    assert pt.verdict == BLOWUP
    assert pt.theory == "SubcriticalBlowUp"
    assert pt.t_star is not None and pt.t_star < 100.0


def test_zero_data_is_global():
    plan = tiny_plan(
        p_values=(2.0,),
        u0_spec=BumpSpec("gaussian", 0.5, 0.0),
        w_spec=BumpSpec("gaussian", 0.5, 0.0),
        tend=10.0,
    )
    pts = execute(plan)
    assert pts[0].verdict == GLOBAL_CANDIDATE


def test_forced_blowup_positive_sigma():
    plan = tiny_plan(p_values=(4.0,), sigma_values=(0.5,), tend=1000.0)
    pts = execute(plan)
    assert pts[0].verdict == BLOWUP
    assert pts[0].theory == "ForcedBlowUp"


def test_supercritical_small_data_global():
    plan = tiny_plan(p_values=(4.0,))
    pts = execute(plan)
    assert pts[0].verdict == GLOBAL_CANDIDATE
    assert pts[0].theory == "SupercriticalGlobal"


def test_unforced_sweep_runs():
    # w_spec "none" is w = 0: the job runs unforced and the mean projector
    # gets wbar = 0; supercritical data are still shrunk into the budget
    (pt,) = execute(tiny_plan(p_values=(4.0,), w_spec=BumpSpec("none")))
    assert not pt.reason.startswith("error:"), pt.reason
    assert pt.verdict == GLOBAL_CANDIDATE


def test_zero_initial_data_sweep_runs():
    # u0_spec "none" is u0 = 0, a forced baseline; the budget rescale skips it
    for p, verdict in ((1.5, BLOWUP), (4.0, GLOBAL_CANDIDATE)):
        (pt,) = execute(tiny_plan(p_values=(p,), u0_spec=BumpSpec("none"), tend=10.0))
        assert isinstance(pt, PhasePoint)
        assert pt.verdict == verdict, pt.reason


def test_failures_become_undetermined():
    # L chosen so the grid constructor rejects it inside the job
    plan = tiny_plan()
    object.__setattr__(plan, "n", 48)  # not a power of two
    pts = execute(plan)
    assert pts[0].verdict == UNDETERMINED
    assert pts[0].reason.startswith("error:")


def test_programming_errors_fail_the_sweep(monkeypatch):
    # only numerical failures become Undetermined; a bug propagates
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(sweep, "run", broken)
    with pytest.raises(TypeError, match="bug"):
        execute(tiny_plan())


def test_escalation_continues_the_first_run(monkeypatch):
    # N = 1, sigma = -1/2: every p blows up; this one only after the first
    # horizon, so the job is continued once, from t = 10 to t = 100
    plan = tiny_plan(N=1, n=32, p_values=(2.0,), data_scales=(0.3,), tend=10.0)
    starts = []

    def counting(start, w, cfg):
        starts.append(start)
        return evolve.run(start, w, cfg)

    monkeypatch.setattr(sweep, "run", counting)
    (pt,) = execute(plan)
    assert (pt.verdict, pt.tend_used) == (BLOWUP, 100.0)
    assert len(starts) == 2
    assert isinstance(starts[1], evolve.Trajectory) and starts[1].end.t == 10.0
    params = Params(N=1, p=2.0, sigma=-0.5)
    u0, w = sweep._job_data(plan, params, 0.3)
    fresh = evolve.run(u0, w, evolve.SolveConfig(params=params, Tend=100.0,
                                                 record_times=(100.0,)))
    assert fresh.verdict is evolve.Verdict.BLEW_UP
    assert pt.t_star == pytest.approx(fresh.t_star, rel=1e-3)
    assert pt.t_star > 10.0


def test_worker_independence():
    plan = tiny_plan(p_values=(1.5, 4.0))
    seq = execute(plan, workers=1)
    par = execute(plan, workers=2)
    assert seq == par
    assert phase_csv(seq) == phase_csv(par)


def synthetic_points():
    mk = lambda p, v: PhasePoint(p, -0.5, 0.5, v, 3.0 if v == BLOWUP else None,
                                 "", "x", 100.0)
    return [mk(1.5, BLOWUP), mk(2.0, BLOWUP), mk(2.5, UNDETERMINED),
            mk(3.0, GLOBAL_CANDIDATE), mk(3.5, GLOBAL_CANDIDATE)]


def test_estimate_boundary_bracketing():
    pts = synthetic_points()
    est = estimate_boundary(pts, -0.5, 2)
    assert est.p_hat == 3.0
    assert est.bracket == (2.0, 3.0)
    assert est.p_star_theory == 3.0  # N=2, sigma=-1/2
    with pytest.raises(ValueError):
        estimate_boundary(pts, -0.9, 2)


def test_estimate_boundary_unbracketed():
    pts = [PhasePoint(p, 0.5, 1.0, BLOWUP, 1.0, "", "ForcedBlowUp", 100.0)
           for p in (2.0, 3.0)]
    est = estimate_boundary(pts, 0.5, 2)
    assert est.p_hat is None
    assert "Unbracketed" in est.note and "infinite" in est.note


def test_verdict_monotone_in_p():
    # at fixed sigma < 0 and the smallest scale no blow-up may sit above a
    # global candidate
    pts = synthetic_points()
    glob = [pt.p for pt in pts if pt.verdict == GLOBAL_CANDIDATE]
    blow = [pt.p for pt in pts if pt.verdict == BLOWUP]
    assert max(blow) < min(glob)


def test_phase_csv_and_svg():
    pts = synthetic_points()
    text = phase_csv(pts)
    lines = text.splitlines()
    assert lines[0] == "p,sigma,scale,verdict,tstar,theory"
    assert len(lines) == 6
    # add a second sigma column so the theory curve has two vertices
    # (p* = 2.8/0.8 = 3.5 at sigma = -0.4 and 3.0 at sigma = -0.5, both inside)
    pts2 = pts + [PhasePoint(p, -0.4, 0.5, BLOWUP, 1.0, "", "x", 100.0)
                  for p in (1.5, 2.0, 2.5, 3.0, 3.5)]
    svg = phase_svg(pts2, 2)
    assert svg.startswith("<svg")
    assert svg.count("<rect") >= len(pts2)
    assert "polyline" in svg
    # deterministic
    assert phase_svg(pts2, 2) == svg


def test_monotonicity_repair_rescues_slow_blowup():
    from critex.sweep import _repair_p_monotonicity

    plan = tiny_plan(p_values=(1.5, 2.0), tend=100.0)
    fake = [
        PhasePoint(1.5, -0.5, 1.0, GLOBAL_CANDIDATE, None, "fake", "SubcriticalBlowUp", 100.0),
        PhasePoint(2.0, -0.5, 1.0, BLOWUP, 20.0, "", "SubcriticalBlowUp", 100.0),
    ]
    fixed = _repair_p_monotonicity(plan, fake)
    low = [pt for pt in fixed if pt.p == 1.5][0]
    assert low.verdict == BLOWUP  # the re-run discovers the true blow-up


def test_monotonicity_repair_demotes_stubborn_global():
    from critex.sweep import _repair_p_monotonicity

    plan = tiny_plan(p_values=(4.0, 5.0), tend=50.0)
    fake = [
        PhasePoint(4.0, -0.5, 1.0, GLOBAL_CANDIDATE, None, "", "SupercriticalGlobal", 50.0),
        PhasePoint(5.0, -0.5, 1.0, BLOWUP, 20.0, "spurious", "SupercriticalGlobal", 50.0),
    ]
    fixed = _repair_p_monotonicity(plan, fake)
    low = [pt for pt in fixed if pt.p == 4.0][0]
    assert low.verdict == UNDETERMINED
    assert "ordering violation" in low.reason


def test_boundaries_csv_with_precomputed_points():
    pts = synthetic_points() + [
        PhasePoint(2.0, 0.5, 0.5, BLOWUP, 1.0, "", "ForcedBlowUp", 100.0)
    ]
    lines = boundaries_csv(pts, 2).splitlines()
    assert lines[0] == "sigma,p_star_theory,p_hat,note"
    assert [row.split(",")[0] for row in lines[1:-1]] == ["-0.5", "0.5"]
    assert lines[1] == "-0.5,3,3,"  # p* = 3 at N = 2, sigma = -1/2; bracketed
    assert lines[2].split(",")[1:3] == ["inf", ""]  # sigma > 0: p* = inf
    # the limit of p* as sigma -> 0-: N/(N-2) for N >= 3, inf for N = 2
    assert lines[-1] == "# limit_from_below,inf"
    assert boundaries_csv(pts, 3).splitlines()[-1] == "# limit_from_below,3"
    assert boundaries_csv(pts, 4).splitlines()[-1] == "# limit_from_below,2"


def test_sigma_zero_column_takes_the_formula():
    # at N = 3 the sigma = 0 critical power is N/(N-2) = 3 (Bandle, Levine &
    # Zhang 2000), the limit of p* as sigma -> 0-; at N = 2 it is inf
    pts = [PhasePoint(p, sigma, 1.0, BLOWUP if p < 3.5 else GLOBAL_CANDIDATE,
                      1.0 if p < 3.5 else None, "", "x", 100.0)
           for sigma in (-0.5, 0.0) for p in (2.0, 3.0, 4.0)]
    assert estimate_boundary(pts, 0.0, 3).p_star_theory == 3.0
    assert estimate_boundary(pts, 0.0, 2).p_star_theory == math.inf
    lines = boundaries_csv(pts, 3).splitlines()
    assert lines[1:] == ["-0.5,2,4,", "0,3,4,", "# limit_from_below,3"]
    # the theory curve passes through p* = 2 at sigma = -1/2 and 3 at sigma = 0
    assert "polyline" in phase_svg(pts, 3)


@pytest.mark.parametrize("m0, c, sigma, p, t0", [
    (0.05, 0.0, -0.4, 2.8, 100.0),
    (0.05, 1e-3, -0.4, 2.8, 100.0),
    (0.02, 5e-3, -0.4, 2.8, 100.0),
    (0.1, 1e-2, 0.5, 2.0, 10.0),
    (0.05, 2e-3, -0.4, 4.6, 100.0),
    (0.3, 0.1, -0.6, 3.0, 1.0),
])
def test_mean_projector_matches_dop853(m0, c, sigma, p, t0):
    # the projected blow-up of the box mean, m' = |m|^p + c t^sigma from
    # (t0, m0), decides every GlobalCandidate.  The midpoint projector is
    # late by 0.5-1.4% here (1.0% on the unforced case), so 1.5% is its
    # bound until the projector runs on the evolver's exact flows (ROADMAP
    # item 4), which should tighten it.  The oracle meets the c = 0 closed
    # form t0 + m0^(1-p)/(p-1) to roundoff.
    ref = mean_ode_blowup_time(m0, c, sigma, p, t0)
    if c == 0.0:
        assert ref == pytest.approx(t0 + m0 ** (1.0 - p) / (p - 1.0), rel=1e-12)
    got = sweep._mean_ode_blowup(m0, c, sigma, p, t0, 1e12)
    assert abs(got - ref) <= 0.015 * ref, (got, ref)
