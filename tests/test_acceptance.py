"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavier criteria share module-scoped fixtures so the expensive sweeps and
fixed-point solves run once.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from critex import certificate as cert
from critex import picard
from critex.evolve import SolveConfig, Verdict, run
from critex.exponents import (
    Params,
    critical_exponent,
    derive,
    picard_smallness,
    q_window_discriminant,
    verify_scaling_identities,
)
from critex.field import BumpSpec, Field, Grid, data_profile, integral, lr_norm
from critex.semigroup import Propagator
from critex.sweep import (
    BLOWUP,
    GLOBAL_CANDIDATE,
    SweepPlan,
    estimate_boundary,
    execute,
    phase_csv,
)

from conftest import record_criterion
from _oracles import (
    BLOWUP_TIME_FORCED_SQRT,
    certify,
    heat,
    ode_blowup_time,
    weighted_norm_series,
)

HALF = Fraction(-1, 2)
UNIT_AMP_2D = (4.0 * math.pi * 0.5) ** -1  # mass-1 gaussian, a = 0.5, N = 2


def unit_gaussian(grid, a):
    amp = (4.0 * math.pi * a) ** (-grid.N / 2.0)
    return data_profile(grid, kind="gaussian", scale=a, amplitude=amp)


def budget_data(grid, params, cstar, fraction=0.25):
    der = derive(params)
    _, budget = picard_smallness(params, cstar)
    u0 = data_profile(grid, kind="gaussian", scale=0.25, amplitude=1.0)
    wp = data_profile(grid, kind="gaussian", scale=0.25, amplitude=1.0)
    u0 = u0.scaled(fraction * budget / lr_norm(u0, float(der.data_index)))
    wp = wp.scaled(fraction * budget / lr_norm(wp, float(der.forcing_index)))
    return u0, wp


# shared supercritical configuration for criteria 6 and 9
SUPER_PARAMS = Params(2, 4, HALF)
SUPER_Q = 6.0


@pytest.fixture(scope="module")
def super_setup():
    grid = Grid(2, 8.0, 64)
    cstar = picard.measure_cstar(SUPER_PARAMS, SUPER_Q)
    delta_max, budget = picard_smallness(SUPER_PARAMS, cstar)
    u0, w = budget_data(grid, SUPER_PARAMS, cstar)
    return {"grid": grid, "cstar": cstar, "delta_max": delta_max,
            "budget": budget, "u0": u0, "w": w}


def test_criterion_01_semigroup_exactness():
    start = time.perf_counter()
    g = Grid(2, 16.0, 128)
    f = unit_gaussian(g, 0.25)
    prop = Propagator(g)
    out = heat(prop, f, 1.0)
    exact = unit_gaussian(g, 1.25)
    rel = float(np.max(np.abs(out.values - exact.values)) /
                np.max(np.abs(exact.values)))

    rng = np.random.default_rng(11)
    h = Field(g, rng.standard_normal(g.shape))
    law = float(np.max(np.abs(
        heat(prop, heat(prop, h, 0.35), 0.4).values - heat(prop, h, 0.75).values
    )))
    mass = abs(integral(heat(prop, h, 1.3)) - integral(h))
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-6 and law <= 1e-12 and mass <= 1e-12 and elapsed < 5.0
    record_criterion(1, ok,
                     f"gaussian rel {rel:.2e}, law {law:.2e}, mass {mass:.2e}, "
                     f"{elapsed:.2f}s")


def test_criterion_02_norm_contraction():
    g = Grid(2, 4.0, 32)
    prop = Propagator(g)
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(100):
        f = Field(g, rng.standard_normal(g.shape))
        t = float(rng.uniform(0.01, 2.0))
        out = heat(prop, f, t)
        for q in (1, 2, math.inf):
            growth = lr_norm(out, q) / lr_norm(f, q) - 1.0
            worst = max(worst, growth)
    ok = worst <= 1e-12
    record_criterion(2, ok, f"worst relative norm growth {worst:.2e}")


def test_criterion_03_exponent_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    checked = 0
    ok = True
    while checked < 1000 and ok:
        N = int(rng.integers(2, 5))
        sigma = -Fraction(int(rng.integers(1, 99)), 100)
        crit = critical_exponent(N, sigma)
        p = crit if rng.random() < 0.15 else crit + Fraction(
            int(rng.integers(1, 400)), 100)
        params = Params(N, p, sigma)
        der = derive(params)
        rep = verify_scaling_identities(params, der.q_default)
        ok = (
            q_window_discriminant(params) < 0
            and der.q_window is not None
            and rep.residuals == (0, 0, 0)
            and rep.beta > 0
            and rep.beta * p < 1
            and der.q_default > der.data_index > der.forcing_index >= 1
            and ((der.forcing_index == 1) == (p == crit))
        )
        checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked == 1000 and elapsed < 1.0
    record_criterion(3, ok, f"{checked} samples, {elapsed:.3f}s")


def test_criterion_04_ode_oracle_equivalence():
    start = time.perf_counter()
    g = Grid(1, 1.0, 16)
    cfg = SolveConfig(params=Params(1, 2, HALF), Tend=2.0)
    traj = run(Field(g, np.ones(16)), None, cfg)
    err_a = abs(traj.t_star - 1.0)
    ok_a = traj.verdict is Verdict.BLEW_UP and err_a <= 0.02

    w = Field(g, np.ones(16))
    traj2 = run(Field(g, np.zeros(16)), w, cfg)
    err_b = abs(traj2.t_star - BLOWUP_TIME_FORCED_SQRT) / BLOWUP_TIME_FORCED_SQRT
    ok_b = traj2.verdict is Verdict.BLEW_UP and err_b <= 0.02
    # the frozen constant still matches a fresh oracle run
    ok_c = abs(ode_blowup_time(0.0, 1.0, -0.5) - BLOWUP_TIME_FORCED_SQRT) < 1e-6
    elapsed = time.perf_counter() - start
    ok = ok_a and ok_b and ok_c and elapsed < 30.0
    record_criterion(4, ok,
                     f"unforced t*={traj.t_star:.6f}, forced t*={traj2.t_star:.6f} "
                     f"(ref {BLOWUP_TIME_FORCED_SQRT}), {elapsed:.1f}s")


def test_criterion_05_fujita_baseline():
    start = time.perf_counter()
    g = Grid(2, 8.0, 64)
    below = run(
        data_profile(g, kind="gaussian", scale=0.5, amplitude=2.0),
        None,
        SolveConfig(params=Params(2, Fraction(3, 2), HALF), Tend=100.0),
    )
    ok_blow = below.verdict is Verdict.BLEW_UP

    above = run(
        data_profile(g, kind="gaussian", scale=0.25, amplitude=1e-3),
        None,
        SolveConfig(params=Params(2, 3, HALF), Tend=100.0),
    )
    ok_global = (above.verdict is Verdict.REACHED_HORIZON
                 and above.linf[-1] < above.linf[0])
    elapsed = time.perf_counter() - start
    ok = ok_blow and ok_global and elapsed < 300.0
    record_criterion(5, ok,
                     f"p=1.5 t*={below.t_star and round(below.t_star, 2)}, "
                     f"p=3 final sup {above.linf[-1]:.2e}, {elapsed:.0f}s")


def test_criterion_06_dichotomy_desk_scale(super_setup):
    start = time.perf_counter()
    g = super_setup["grid"]
    params2 = Params(2, 2, HALF)
    blow_ok = True
    tstars = []
    for scale in (1.0, 0.2, 0.05):
        u0 = data_profile(g, kind="gaussian", scale=0.5, amplitude=UNIT_AMP_2D * scale)
        w = data_profile(g, kind="gaussian", scale=0.5, amplitude=UNIT_AMP_2D * scale)
        traj = run(u0, w, SolveConfig(params=params2, Tend=500.0))
        blow_ok = blow_ok and traj.verdict is Verdict.BLEW_UP
        tstars.append(traj.t_star)

    der = derive(SUPER_PARAMS)
    beta = float(der.beta)
    delta_ball = 0.5 * super_setup["delta_max"]
    traj4 = run(super_setup["u0"], super_setup["w"],
                SolveConfig(params=SUPER_PARAMS, Tend=100.0))
    _, _, sup = weighted_norm_series(traj4, beta, SUPER_Q)
    global_ok = traj4.verdict is Verdict.REACHED_HORIZON and sup[-1] <= delta_ball
    elapsed = time.perf_counter() - start
    ok = blow_ok and global_ok and elapsed < 600.0
    record_criterion(6, ok,
                     f"p=2 blow-ups at t*={[round(t, 1) for t in tstars]}, "
                     f"p=4 sup {sup[-1]:.3g} <= delta {delta_ball:.3g}, {elapsed:.0f}s")


def test_criterion_07_forced_blowup_positive_sigma():
    start = time.perf_counter()
    g = Grid(2, 8.0, 64)
    w = data_profile(g, kind="gaussian", scale=0.5, amplitude=0.05 * UNIT_AMP_2D)
    u0 = data_profile(g, kind="gaussian", scale=0.5, amplitude=0.0)
    traj = run(u0, w, SolveConfig(params=Params(2, 4, 1), Tend=1000.0))
    elapsed = time.perf_counter() - start
    ok = traj.verdict is Verdict.BLEW_UP and elapsed < 600.0
    record_criterion(7, ok, f"t*={traj.t_star and round(traj.t_star, 2)}, {elapsed:.0f}s")


def test_criterion_08_certificate_scaling():
    start = time.perf_counter()
    cut = cert.default_cutoffs()
    details = []
    ok = True

    g2 = Grid(2, 16.0, 256)
    w2 = unit_gaussian(g2, 0.25)
    ladder2 = [8.0, 16.0, 32.0, 64.0, 128.0]
    g3 = Grid(3, 16.0, 128)
    w3 = unit_gaussian(g3, 0.25)
    ladder3 = [32.0, 48.0, 64.0, 96.0, 128.0]

    for N, p, w, ladder in (
        (2, 2.0, w2, ladder2),
        (3, 2.0, w3, ladder3),
        (3, 3.0, w3, ladder3),
    ):
        rep = certify(w, Params(N, p, HALF), cut, ladder)
        exp = rep.expected_slopes
        f_err = abs(rep.slopes["forcing"] - exp["forcing"]) / abs(exp["forcing"])
        i1_err = abs(rep.slopes["I1"] - exp["I1"]) / max(1.0, abs(exp["I1"]))
        i2_err = abs(rep.slopes["I2"] - exp["I2"]) / max(1.0, abs(exp["I2"]))
        ok = ok and f_err <= 0.02 and i1_err <= 0.05 and i2_err <= 0.05
        details.append(f"({N},{p:g}): forcing {f_err:.1%}, I1 {i1_err:.1%}, "
                       f"I2 {i2_err:.1%}")

    # contradiction flips exactly where N/2 - sigma - p/(p-1) changes sign
    flips_ok = True
    for p in (2.0, 2.5, 3.5, 4.0):
        rep = certify(w2, Params(2, p, HALF), cut, ladder2)
        expect_contra = (1.0 + 0.5 - p / (p - 1.0)) < 0
        flips_ok = flips_ok and (rep.verdict == "CONTRADICTION") == expect_contra
    elapsed = time.perf_counter() - start
    ok = ok and flips_ok and elapsed < 60.0
    record_criterion(8, ok, "; ".join(details) + f"; flips {flips_ok}, {elapsed:.0f}s")


def test_criterion_09_picard_audit(super_setup):
    start = time.perf_counter()
    u0, w = super_setup["u0"], super_setup["w"]
    op = picard.SolutionMap(u0, w, SUPER_PARAMS, SUPER_Q, picard.geometric_ladder(10.0, 64))
    sol, diag = picard.iterate_to_fixed_point(op, cstar=super_setup["cstar"])
    residual = picard.ladder_distance(op.apply(sol), sol)
    audit = picard.audit_estimates(sol, op)

    check_times = tuple(float(t) for t in sol.times[::9]) + (float(sol.times[-1]),)
    traj = run(u0, w, SolveConfig(params=SUPER_PARAMS, Tend=10.0,
                                  record_times=check_times, tol_step=1e-8))
    worst = 0.0
    for t in check_times:
        j = int(np.argmin(np.abs(sol.times - t)))
        ev = lr_norm(traj.snapshot_at(t), SUPER_Q)
        worst = max(worst, abs(lr_norm(sol.fields[j], SUPER_Q) - ev) / ev)
    elapsed = time.perf_counter() - start
    ok = (diag.converged and residual <= 1e-8 and diag.ratio_estimate < 1.0
          and audit.all_margins_nonnegative and worst <= 0.01
          and elapsed < 300.0)
    record_criterion(9, ok,
                     f"residual {residual:.1e}, ratio {diag.ratio_estimate:.1e}, "
                     f"margins>=0 {audit.all_margins_nonnegative}, "
                     f"evolver match {worst:.1e}, {elapsed:.0f}s")


def test_criterion_10_beta_function():
    from _oracles import beta_quadrature

    b11 = picard.beta_function(1.0, 1.0)
    bhh = picard.beta_function(0.5, 0.5)
    cross = abs(picard.beta_function(0.25, 0.5) - beta_quadrature(0.25, 0.5))
    ok = (abs(b11 - 1.0) <= 1e-12 and abs(bhh - math.pi) <= 1e-12 * math.pi
          and cross <= 1e-9)
    record_criterion(10, ok,
                     f"B(1,1)-1 = {b11 - 1.0:.1e}, B(.5,.5)-pi = {bhh - math.pi:.1e}, "
                     f"quadrature diff {cross:.1e}")


@pytest.fixture(scope="module")
def discontinuity_sweeps():
    lattices = {-0.6: (2.2, 3.0, 3.6), -0.4: (2.8, 4.0, 4.6), -0.2: (4.6, 6.5, 7.0)}
    points = {}
    for sigma, ps in lattices.items():
        plan = SweepPlan(
            N=2, L=8.0, n=64, p_values=ps, sigma_values=(sigma,),
            data_scales=(1.0, 0.5),
            u0_spec=BumpSpec("gaussian", 0.5, UNIT_AMP_2D),
            w_spec=BumpSpec("gaussian", 0.5, UNIT_AMP_2D),
            tend=100.0, tend_max=1e4)
        points[sigma] = execute(plan, workers=2)
    return points


def test_criterion_11_discontinuity_probe(discontinuity_sweeps):
    start = time.perf_counter()
    # formula side, exact
    formula_ok = True
    for k in range(1, 10):
        s = -Fraction(1, 10**k)
        gap = 3 - critical_exponent(3, s)
        formula_ok = formula_ok and 0 < gap < Fraction(5, 10**k)
    for s in (Fraction(1, 100), Fraction(1, 2), Fraction(5, 1)):
        formula_ok = formula_ok and critical_exponent(3, s) is math.inf

    # empirical side, soft
    hats = {}
    consistency_ok = True
    for sigma, pts in discontinuity_sweeps.items():
        est = estimate_boundary(pts, sigma, 2)
        hats[sigma] = est.p_hat
        theory = est.p_star_theory
        consistency_ok = (consistency_ok and est.p_hat is not None
                          and est.p_hat >= theory - 0.5)
        # hard invariant: no subcritical point may look global
        for pt in pts:
            if pt.theory == "SubcriticalBlowUp" and pt.verdict == GLOBAL_CANDIDATE:
                consistency_ok = False
    ordered = [hats[s] for s in sorted(hats)]
    monotone_ok = all(a <= b for a, b in zip(ordered, ordered[1:]))
    elapsed = time.perf_counter() - start
    ok = formula_ok and consistency_ok and monotone_ok
    record_criterion(11, ok,
                     f"pHat {[(s, hats[s]) for s in sorted(hats)]}, "
                     f"formula {formula_ok}, {elapsed:.0f}s (+sweep fixture)")


def test_criterion_12_determinism(tmp_path):
    cfg_text = (
        "[params]\nN = 1\np = 2\nsigma = -0.5\n\n"
        "[grid]\nL_length = 1.0\nn = 16\n\n"
        "[data]\nu0_kind = gaussian\nu0_scale_length2 = 1e8\n"
        "u0_amplitude_value = 1.0\nw_kind = none\n\n"
        "[solve]\nTend_time = 2.0\n"
    )
    cfg = tmp_path / "run.ini"
    cfg.write_text(cfg_text)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "critex", "simulate", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True)
        assert res.returncode == 3, res.stderr
        outs.append((out / "norms.csv").read_bytes())
    csv_ok = outs[0] == outs[1]
    # manifest re-run reproduces the CSV too
    out_c = tmp_path / "c"
    res = subprocess.run(
        [sys.executable, "-m", "critex", "simulate",
         str(tmp_path / "a" / "manifest.ini"), "--out", str(out_c)],
        capture_output=True, text=True)
    manifest_ok = (res.returncode == 3
                   and (out_c / "norms.csv").read_bytes() == outs[0])

    plan = SweepPlan(
        N=2, L=8.0, n=64, p_values=(1.5, 4.0), sigma_values=(-0.5,),
        data_scales=(1.0,),
        u0_spec=BumpSpec("gaussian", 0.5, UNIT_AMP_2D),
        w_spec=BumpSpec("gaussian", 0.5, UNIT_AMP_2D),
        tend=50.0)
    seq = execute(plan, workers=1)
    par = execute(plan, workers=2)
    sweep_ok = phase_csv(seq) == phase_csv(par)
    ok = csv_ok and manifest_ok and sweep_ok
    record_criterion(12, ok,
                     f"csv identical {csv_ok}, manifest rerun {manifest_ok}, "
                     f"worker-count independent {sweep_ok}")
