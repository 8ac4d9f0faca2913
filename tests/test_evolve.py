import math
from fractions import Fraction

import numpy as np
import pytest

from critex.evolve import (
    SolveConfig,
    Stepper,
    StepOverflow,
    Verdict,
    accepted_state,
    run,
    step,
    weighted_norm_series,
)
from critex.exponents import Params
from critex.field import (
    Field,
    ForcingSpec,
    Grid,
    boundary_shell_fraction,
    lr_norm,
    make_bump,
)
from critex.semigroup import Propagator

from _oracles import (
    BLOWUP_TIME_FORCED_SQRT,
    duhamel_forced_linear,
    ode_blowup_time,
    ode_value,
    strang_trial_by_propagation,
)

HALF = Fraction(-1, 2)


def small_grid():
    return Grid(1, 1.0, 16)


def const_field(grid, c):
    return Field(grid, np.full(grid.shape, float(c)))


def test_zero_stays_zero():
    g = small_grid()
    u = const_field(g, 0.0)
    out = step(u, 0.0, 0.1, Params(1, 2, HALF), None)
    assert np.all(out.values == 0.0)
    traj = run(u, None, SolveConfig(params=Params(1, 2, HALF), Tend=1.0))
    assert traj.verdict is Verdict.REACHED_HORIZON
    assert np.all(traj.linf == 0.0)


def test_single_step_matches_ode_to_fifth_order():
    # constant field, no forcing: diffusion is the identity, so one step is
    # exactly one RK4 step of v' = v^p; check the local order by halving dt
    g = small_grid()
    params = Params(1, 2, HALF)
    u = const_field(g, 1.0)
    errs = []
    for dt in (0.01, 0.005):
        out = step(u, 0.0, dt, params, None)
        exact = 1.0 / (1.0 - dt)
        errs.append(abs(float(out.values[0]) - exact))
    order = math.log2(errs[0] / errs[1])
    assert errs[0] < 1e-10
    assert order >= 4.5  # local truncation ~ dt^5


def test_step_requires_positive_dt():
    g = small_grid()
    with pytest.raises(ValueError):
        step(const_field(g, 1.0), 0.0, 0.0, Params(1, 2, HALF), None)


def test_nonlinearity_is_sign_free():
    # |u|^p, not u|u|^(p-1): a negative constant with p = 3 must relax toward
    # zero along u' = |u|^3 (the odd version would blow down in finite time)
    g = small_grid()
    cfg = SolveConfig(params=Params(1, 3, HALF), Tend=1.5, record_times=(1.5,))
    traj = run(const_field(g, -1.0), None, cfg)
    assert traj.verdict is Verdict.REACHED_HORIZON
    final = float(traj.snapshot_at(1.5).values[0])
    assert final == pytest.approx(-0.5, rel=1e-6)  # -1/sqrt(1 + 2t)


def test_constant_blowup_time_unforced():
    g = small_grid()
    cfg = SolveConfig(params=Params(1, 2, HALF), Tend=2.0)
    traj = run(const_field(g, 1.0), None, cfg)
    assert traj.verdict is Verdict.BLEW_UP
    assert traj.t_star == pytest.approx(1.0, rel=0.02)


def test_constant_blowup_time_forced_singular():
    # u0 = 0, w = 1, sigma = -1/2, p = 2: frozen oracle value
    g = small_grid()
    w = ForcingSpec.from_profile(const_field(g, 1.0))
    cfg = SolveConfig(params=Params(1, 2, HALF), Tend=2.0)
    traj = run(const_field(g, 0.0), w, cfg)
    assert traj.verdict is Verdict.BLEW_UP
    assert traj.t_star == pytest.approx(BLOWUP_TIME_FORCED_SQRT, rel=0.02)
    # the frozen constant agrees with a fresh run of the oracle
    assert ode_blowup_time(0.0, 1.0, -0.5) == pytest.approx(
        BLOWUP_TIME_FORCED_SQRT, rel=1e-6
    )


def test_spatially_uniform_reduction_matches_ode():
    # constant data stays constant in space and tracks the reference ODE
    g = Grid(2, 2.0, 16)
    params = Params(2, 3, Fraction(1, 2))
    w = ForcingSpec.from_profile(const_field(g, 0.3))
    cfg = SolveConfig(params=params, Tend=0.5, record_times=(0.25, 0.5))
    traj = run(const_field(g, 0.2), w, cfg)
    assert traj.verdict is Verdict.REACHED_HORIZON
    for t in (0.25, 0.5):
        f = traj.snapshot_at(t)
        spread = float(np.max(f.values) - np.min(f.values))
        assert spread <= 1e-10
        ref = ode_value(0.2, 0.3, 0.5, 3.0, t)
        assert float(np.max(f.values)) == pytest.approx(ref, rel=1e-6)


def test_pure_forcing_linear_mode():
    # nonlinearity off: u(t) = int_0^t s^sigma e^{(t-s)D} w ds
    g = Grid(1, 4.0, 64)
    params = Params(1, 2, HALF)
    w_field = make_bump(g, "gaussian", scale=0.2, amplitude=1.0)
    w = ForcingSpec.from_profile(w_field)
    t_end = 0.5
    cfg = SolveConfig(params=params, Tend=t_end, nonlinear=False,
                      record_times=(t_end,), tol_step=1e-9)
    traj = run(Field(g, np.zeros(g.shape)), w, cfg)
    got = traj.snapshot_at(t_end).values
    ref = duhamel_forced_linear(Propagator(g), w_field.values, t_end, -0.5)
    assert np.max(np.abs(got - ref)) <= 1e-6


def test_heat_domination_comparison():
    # with u0, w >= 0 the solution dominates pure heat flow while it exists
    g = Grid(2, 6.0, 64)
    params = Params(2, 2, HALF)
    u0 = make_bump(g, "gaussian", scale=0.5, amplitude=0.1)
    w = ForcingSpec.from_profile(make_bump(g, "gaussian", scale=0.5, amplitude=0.05))
    t_end = 1.0
    cfg = SolveConfig(params=params, Tend=t_end, record_times=(t_end,))
    traj = run(u0, w, cfg)
    heat = Propagator(g).apply(u0, t_end)
    assert np.min(traj.snapshot_at(t_end).values - heat.values) >= -1e-9


def test_self_convergence_on_global_run():
    g = Grid(2, 6.0, 32)
    params = Params(2, 3, HALF)
    u0 = make_bump(g, "gaussian", scale=0.5, amplitude=1e-3)
    final = {}
    for tol in (1e-6, 5e-7):
        cfg = SolveConfig(params=params, Tend=2.0, tol_step=tol,
                          record_times=(2.0,))
        final[tol] = run(u0, None, cfg).snapshot_at(2.0).values
    diff = np.max(np.abs(final[1e-6] - final[5e-7]))
    assert diff <= 10 * 1e-6


def test_determinism_bitwise():
    g = Grid(2, 4.0, 32)
    params = Params(2, 2, HALF)
    u0 = make_bump(g, "gaussian", scale=0.3, amplitude=0.5)
    w = ForcingSpec.from_profile(make_bump(g, "gaussian", scale=0.3, amplitude=0.2))
    cfg = SolveConfig(params=params, Tend=1.0)
    t1 = run(u0, w, cfg)
    t2 = run(u0, w, cfg)
    assert np.array_equal(t1.times, t2.times)
    assert np.array_equal(t1.linf, t2.linf)
    assert t1.norms_csv() == t2.norms_csv()


def _split_run_case():
    g = Grid(1, 4.0, 32)
    params = Params(1, 2, HALF)
    # u0 touches the box face, so the boundary fraction peaks before T1
    u0 = make_bump(g, "compact_bump", center=(3.0,), scale=1.0, amplitude=1.0)
    w = ForcingSpec.from_profile(make_bump(g, "gaussian", scale=0.3, amplitude=0.5))
    return params, u0, w


def test_continued_run_equals_one_run():
    # stopping at T1 and continuing to T2 is bitwise the run to T2 that
    # records at T1; the continued segment blows up
    params, u0, w = _split_run_case()
    T1, T2 = 0.5, 3.0
    same = dict(params=params, dt_max=0.05, snapshot_every=20)
    first = run(u0, w, SolveConfig(Tend=T1, record_times=(T1,), **same))
    assert first.verdict is Verdict.REACHED_HORIZON and first.end.t == T1
    cfg2 = SolveConfig(Tend=T2, record_times=(T2,), **same)
    split = run(first, w, cfg2)
    whole = run(u0, w, SolveConfig(Tend=T2, record_times=(T1, T2), **same))
    assert len(whole.snapshots) > 10
    assert whole.verdict is Verdict.BLEW_UP and whole.t_star > T1
    for traj in (split, run(first, w, cfg2)):  # continuing leaves `first` intact
        for name in ("times", "linf", "lq", "ld", "weighted", "lq_fluct"):
            assert np.array_equal(getattr(traj, name), getattr(whole, name),
                                  equal_nan=True), name
        assert [t for t, _ in traj.snapshots] == [t for t, _ in whole.snapshots]
        for (_, a), (_, b) in zip(traj.snapshots, whole.snapshots):
            assert np.array_equal(a.values, b.values)
        assert traj.verdict is whole.verdict and traj.t_star == whole.t_star
        assert traj.boundary_frac_max == whole.boundary_frac_max
        assert traj.end is None


def test_continuation_rejects_bad_input():
    params, u0, w = _split_run_case()
    first = run(u0, w, SolveConfig(params=params, Tend=0.5, record_times=(0.5,)))
    later = SolveConfig(params=params, Tend=1.0)
    with pytest.raises(ValueError, match="beyond"):
        run(first, w, SolveConfig(params=params, Tend=0.5))
    with pytest.raises(ValueError, match="params"):
        run(first, w, SolveConfig(params=Params(1, 3, HALF), Tend=1.0))
    with pytest.raises(ValueError, match="forcing"):
        run(first, w.scaled(2.0), later)
    with pytest.raises(ValueError, match="forcing"):
        run(first, None, later)
    other = make_bump(Grid(1, 4.0, 64), "gaussian", scale=0.3, amplitude=0.5)
    with pytest.raises(ValueError, match="grid"):
        run(first, ForcingSpec.from_profile(other), later)
    blown = run(u0, w, SolveConfig(params=params, Tend=3.0))
    assert blown.verdict is Verdict.BLEW_UP
    with pytest.raises(ValueError, match="BlewUpAt"):
        run(blown, w, SolveConfig(params=params, Tend=4.0))
    # steps of dt_min already fail tol_step: the run stalls at once
    stalled = run(u0, w, SolveConfig(params=params, Tend=1.0, dt0=0.1, dt_min=0.1,
                                     tol_step=1e-15))
    assert stalled.verdict is Verdict.STALLED
    with pytest.raises(ValueError, match="Stalled"):
        run(stalled, w, SolveConfig(params=params, Tend=2.0))


def _rough_data():
    g = Grid(2, 4.0, 32)
    u0 = make_bump(g, "compact_bump", center=(0.5, -0.25), scale=1.5, amplitude=1.0)
    w = make_bump(g, "compact_bump", center=(-0.5, 0.0), scale=1.0, amplitude=0.5)
    return g, u0, w


@pytest.mark.parametrize("sigma, t0, forced, nonlinear", [
    (HALF, 0.0, True, True),  # the tau-variable first step
    (HALF, 0.3, True, True),
    (Fraction(1, 2), 0.0, True, True),
    (Fraction(1, 2), 0.3, True, True),
    (HALF, 0.3, False, True),
    (HALF, 0.0, True, False),
    (HALF, 0.3, True, False),
])
def test_spectral_trial_matches_propagation_oracle(sigma, t0, forced, nonlinear):
    g, u0, w = _rough_data()
    stepper = Stepper(g, Params(2, 3, sigma), w.values if forced else None, nonlinear)
    spec = stepper.prop.to_spectrum(u0.values)
    for dt in (0.05, 0.2):
        full, fine, full_spec, fine_spec = stepper.trial(spec, t0, dt)
        ref_full, ref_fine = strang_trial_by_propagation(stepper, u0.values, t0, dt)
        scale = 1.0 + float(np.max(np.abs(ref_fine)))
        assert np.max(np.abs(full - ref_full)) <= 1e-13 * scale
        assert np.max(np.abs(fine - ref_fine)) <= 1e-13 * scale
        assert np.array_equal(stepper.prop.from_spectrum(full_spec), full)
        assert np.array_equal(stepper.prop.from_spectrum(fine_spec), fine)
        # the accepted state: extrapolated after the first step, fine at t0 = 0
        ref_kept = (4.0 * ref_fine - ref_full) / 3.0 if t0 > 0.0 else ref_fine
        kept = accepted_state(t0, full, fine)
        kept_from_spec = stepper.prop.from_spectrum(accepted_state(t0, full_spec, fine_spec))
        assert np.max(np.abs(kept - ref_kept)) <= 1e-13 * scale
        assert np.max(np.abs(kept_from_spec - ref_kept)) <= 1e-13 * scale


def test_extrapolated_step_is_fourth_order():
    # fixed steps h from t0 = 0.3 on rough forced data, against steps 16x
    # finer: the accepted (extrapolated) value loses about 2^4 per halving
    # of h, the fine value of the same trials alone about 2^2
    g, u0, w = _rough_data()
    params = Params(2, 3, HALF)
    forcing = ForcingSpec.from_profile(w)
    T1, T2 = 0.3, 0.5
    loose = dict(params=params, tol_step=1e3)
    first = run(u0, forcing, SolveConfig(Tend=T1, dt0=T1, **loose))
    stepper = Stepper(g, params, w.values)

    def extrapolated(h):
        traj = run(first, forcing, SolveConfig(Tend=T2, dt0=h, dt_max=h,
                                              record_times=(T2,), **loose))
        steps = np.diff(traj.times[traj.times >= T1])
        assert steps.size == round((T2 - T1) / h) and np.allclose(steps, h)
        return traj.snapshot_at(T2).values

    def fine_only(h):
        spec, t = first.end.spec, T1
        for _ in range(round((T2 - T1) / h)):
            _, fine, _, spec = stepper.trial(spec, t, h)
            t += h
        return fine

    hs = (0.01, 0.005, 0.0025)
    ref = extrapolated(hs[-1] / 16)
    for scheme, order in ((extrapolated, 4.0), (fine_only, 2.0)):
        errs = [np.max(np.abs(scheme(h) - ref)) for h in hs]
        for coarse, finer in zip(errs, errs[1:]):
            assert math.log2(coarse / finer) == pytest.approx(order, abs=0.3), errs


def test_spectral_trial_overflow_raises():
    g, u0, w = _rough_data()
    stepper = Stepper(g, Params(2, 3, HALF), w.values)
    big = u0.values * 1e120
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepOverflow):
            strang_trial_by_propagation(stepper, big, 0.3, 1.0)
        with pytest.raises(StepOverflow):
            stepper.trial(stepper.prop.to_spectrum(big), 0.3, 1.0)


@pytest.mark.parametrize("t0", [0.0, 0.3])
def test_step_is_one_propagated_strang_step(t0):
    # step() is the oracle's full step, bit for bit
    g, u0, w = _rough_data()
    params = Params(2, 3, HALF)
    got = step(u0, t0, 0.1, params, ForcingSpec.from_profile(w))
    ref_full, _ = strang_trial_by_propagation(Stepper(g, params, w.values), u0.values,
                                              t0, 0.1)
    assert np.array_equal(got.values, ref_full)


def test_recorded_norms_are_field_norms():
    # the recorded series are the field-level norms of the accepted fields
    g, u0, w = _rough_data()
    params = Params(2, 3, HALF)
    traj = run(u0, ForcingSpec.from_profile(w),
               SolveConfig(params=params, Tend=0.2, snapshot_every=1))
    assert traj.d >= 1.0 and len(traj.snapshots) == traj.times.size > 10
    boundary = []
    for i, (t, f) in enumerate(traj.snapshots):
        assert t == traj.times[i]
        assert traj.linf[i] == lr_norm(f, math.inf)
        assert traj.lq[i] == lr_norm(f, traj.q)
        assert traj.ld[i] == lr_norm(f, traj.d)
        mean = float(np.sum(f.values)) / g.size
        fl = lr_norm(Field(g, f.values - mean), traj.q)
        assert traj.lq_fluct[i] == (t**traj.beta * fl if t > 0 else 0.0)
        boundary.append(boundary_shell_fraction(f, 0.125))
    assert traj.boundary_frac_max == max(boundary) > 0.0


@pytest.mark.parametrize("c", [1.0, 0.3])
def test_constant_data_not_boundary_flagged(c):
    # spatially constant data are exact on the torus: no truncation alarm
    g = Grid(2, 2.0, 16)
    w = ForcingSpec.from_profile(const_field(g, 0.3))
    traj = run(const_field(g, c), w,
               SolveConfig(params=Params(2, 2, Fraction(1, 2)), Tend=0.5))
    assert traj.verdict is Verdict.REACHED_HORIZON and traj.linf[-1] > c
    assert traj.boundary_frac_max == 0.0
    assert not traj.boundary_flagged


def test_record_times_hit_exactly():
    g = small_grid()
    cfg = SolveConfig(params=Params(1, 2, HALF), Tend=1.0,
                      record_times=(0.1, 0.25, 0.7))
    traj = run(const_field(g, 0.1), None, cfg)
    recorded = {t for t, _ in traj.snapshots}
    assert {0.1, 0.25, 0.7}.issubset(recorded)
    assert traj.verdict is Verdict.REACHED_HORIZON
    assert np.all(np.diff(traj.times) > 0)


def test_weighted_norm_series():
    g = small_grid()
    params = Params(1, 2, HALF)
    cfg = SolveConfig(params=params, Tend=0.5, record_times=(0.1, 0.3, 0.5))
    traj = run(const_field(g, 0.05), None, cfg)
    times, weighted, sup = weighted_norm_series(traj, traj.beta, traj.q)
    assert np.all(np.diff(sup) >= 0)
    assert weighted[0] == 0.0  # t = 0 with beta > 0
    # recompute at a different q from snapshots
    times2, weighted2, _ = weighted_norm_series(traj, 0.25, 3.0)
    assert times2.size == len(traj.snapshots)
    zero_traj = run(const_field(g, 0.0), None, cfg)
    t0, w0, s0 = weighted_norm_series(zero_traj, zero_traj.beta, zero_traj.q)
    assert np.all(w0 == 0.0)
    with pytest.raises(ValueError, match="snapshot"):
        weighted_norm_series(
            run(const_field(g, 0.0), None, SolveConfig(params=params, Tend=0.1)),
            0.25, 3.0,
        )


def test_heat_only_weighted_series_bounded():
    # w = 0, nonlinearity off: t^beta ||u||_q stays below the measured
    # smoothing constant times the initial d-norm
    from critex.picard import sup_smoothing_ratio

    g = Grid(2, 8.0, 64)
    params = Params(2, 4, HALF)
    u0 = make_bump(g, "gaussian", scale=0.25, amplitude=0.5)
    cfg = SolveConfig(params=params, Tend=5.0, nonlinear=False)
    traj = run(u0, None, cfg)
    _, _, sup = weighted_norm_series(traj, traj.beta, traj.q)
    prop = Propagator(g)
    times = np.geomspace(1e-4, 5.0, 48)
    c1 = sup_smoothing_ratio(prop, [u0], times, traj.d, traj.q)
    bound = c1 * lr_norm(u0, traj.d)
    assert sup[-1] <= bound * (1 + 1e-9)


def test_blowup_weighted_norm_exceeds_any_ball():
    g = small_grid()
    cfg = SolveConfig(params=Params(1, 2, HALF), Tend=2.0)
    traj = run(const_field(g, 1.0), None, cfg)
    assert traj.verdict is Verdict.BLEW_UP
    _, _, sup = weighted_norm_series(traj, traj.beta, traj.q)
    assert sup[-1] > 1e6


def test_fujita_small_data_decays():
    g = Grid(2, 8.0, 64)
    params = Params(2, 3, HALF)  # above the unforced threshold 2
    u0 = make_bump(g, "gaussian", scale=0.25, amplitude=1e-3)
    cfg = SolveConfig(params=params, Tend=20.0)
    traj = run(u0, None, cfg)
    assert traj.verdict is Verdict.REACHED_HORIZON
    assert traj.linf[-1] < 0.5 * traj.linf[0]
    # by t = 20 the spread reaches the box edge; the truncation diagnostic
    # must report that honestly
    assert traj.boundary_flagged
    short = run(u0, None, SolveConfig(params=params, Tend=0.5))
    assert not short.boundary_flagged


def test_invalid_inputs():
    g = small_grid()
    with pytest.raises(ValueError):
        SolveConfig(params=Params(1, 2, HALF), Tend=-1.0)
    with pytest.raises(ValueError):
        SolveConfig(params=Params(1, 2, HALF), Tend=1.0, dt_min=1.0, dt0=0.1)
    with pytest.raises(ValueError, match="dt_max"):
        SolveConfig(params=Params(1, 2, HALF), Tend=1.0, dt_max=0.0)
    other = Grid(1, 2.0, 16)
    w = ForcingSpec.from_profile(const_field(other, 1.0))
    with pytest.raises(ValueError, match="grid"):
        run(const_field(g, 1.0), w, SolveConfig(params=Params(1, 2, HALF), Tend=1.0))
