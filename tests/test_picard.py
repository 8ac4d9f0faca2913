import math
from fractions import Fraction

import numpy as np
import pytest

from critex.evolve import SolveConfig, run
from critex.exponents import Params, derive, picard_smallness
from critex.field import Field, ForcingSpec, Grid, lr_norm, make_bump
from critex.picard import (
    SolutionMap,
    audit_estimates,
    beta_function,
    geometric_ladder,
    iterate_to_fixed_point,
    ladder_distance,
    measure_cstar,
    sup_smoothing_ratio,
)
from critex.semigroup import Propagator, forcing_multiplier

from _oracles import (
    beta_quadrature,
    duhamel_forced_linear,
    forcing_field_quad,
    forcing_multiplier_quad,
    nonlinear_by_propagation,
    smoothing_ratio_by_propagation,
)

HALF = Fraction(-1, 2)
PARAMS = Params(2, 4, HALF)  # supercritical: p_star = 3
Q = 6.0


def budget_data(grid, params=PARAMS, q=Q, cstar=None, fraction=0.25):
    der = derive(params)
    cstar = cstar if cstar is not None else measure_cstar(grid, params, q)
    _, budget = picard_smallness(params, q, cstar)
    u0 = make_bump(grid, "gaussian", scale=0.25, amplitude=1.0)
    w_prof = make_bump(grid, "gaussian", scale=0.25, amplitude=1.0)
    u0 = u0.scaled(fraction * budget / lr_norm(u0, float(der.data_index)))
    w_prof = w_prof.scaled(fraction * budget / lr_norm(w_prof, float(der.forcing_index)))
    return u0, ForcingSpec.from_profile(w_prof), cstar


def test_beta_function_values():
    assert beta_function(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert beta_function(0.5, 0.5) == pytest.approx(math.pi, abs=1e-12 * math.pi)
    assert beta_function(0.25, 0.5) == pytest.approx(
        beta_quadrature(0.25, 0.5), rel=1e-9
    )
    with pytest.raises(ValueError):
        beta_function(0.0, 1.0)
    with pytest.raises(ValueError):
        beta_function(1.0, -2.0)


def test_ladder_shape():
    t = geometric_ladder(10.0, 64)
    assert t.size == 64
    assert t[0] == pytest.approx(1e-5)
    assert t[-1] == pytest.approx(10.0)
    ratios = t[1:] / t[:-1]
    assert np.allclose(ratios, ratios[0])
    with pytest.raises(ValueError):
        geometric_ladder(10.0, 1)


def test_zero_is_fixed_point():
    g = Grid(2, 8.0, 32)
    times = geometric_ladder(5.0, 16)
    zero = Field(g, np.zeros(g.shape))
    op = SolutionMap(zero, None, PARAMS, Q, times)
    u = op.free_only()
    out = op.apply(u)
    assert ladder_distance(out, u) == 0.0
    assert all(np.all(f.values == 0.0) for f in out.fields)


def test_zero_data_converges_immediately():
    g = Grid(2, 8.0, 32)
    zero = Field(g, np.zeros(g.shape))
    op = SolutionMap(zero, None, PARAMS, Q, geometric_ladder(2.0, 8))
    sol, diag = iterate_to_fixed_point(op, delta=0.1, cstar=1.0)
    assert diag.converged
    assert diag.iterates == 1
    assert all(np.all(f.values == 0.0) for f in sol.fields)


def test_forcing_term_matches_duhamel_oracle():
    # u = 0, u0 = 0: S(u) is the pure forcing integral
    g = Grid(2, 8.0, 32)
    times = geometric_ladder(2.0, 12)
    zero = Field(g, np.zeros(g.shape))
    w = ForcingSpec.from_profile(make_bump(g, "gaussian", scale=0.3, amplitude=0.5))
    op = SolutionMap(zero, w, PARAMS, Q, times)
    u = op.free_only()
    out = op.apply(u)
    prop = Propagator(g)
    for j in (5, 11):
        ref = duhamel_forced_linear(prop, w.profile.values, times[j], -0.5)
        assert np.max(np.abs(out.fields[j].values - ref)) <= 1e-6 * max(
            1.0, np.max(np.abs(ref))
        )


def test_nonlinear_term_matches_propagation_oracle():
    # rough data, 128 rungs: the Fourier-space sum against one heat
    # application per node; j = 4, 5 are the first rungs whose sum is carried
    # from the rung below with the running weights (even and odd rule)
    g = Grid(2, 8.0, 64)
    u0 = make_bump(g, "compact_bump", scale=0.5, amplitude=1.0)
    w = ForcingSpec.from_profile(make_bump(g, "compact_bump", scale=0.2, amplitude=1.0))
    times = geometric_ladder(10.0, 128)
    op = SolutionMap(u0, w, PARAMS, Q, times)
    u = op.apply(op.free_only())
    nl = op.nonlinear_term(u)
    fields = [f.values for f in u.fields]
    for j in (0, 1, 4, 5, 64, 127):
        ref = nonlinear_by_propagation(op.prop, times, 4.0, u0.values, fields, j)
        assert np.max(np.abs(nl[j] - ref)) <= 1e-13 * np.max(np.abs(ref)), j


@pytest.mark.parametrize("sigma", [-0.5, 0.5])
def test_forcing_multiplier_matches_mpmath(sigma):
    for t in (1e-3, 2.0):
        txi2 = np.geomspace(1e-6, 3e3, 10)
        got = forcing_multiplier(t, txi2 / t, sigma)
        for g_val, x in zip(got, txi2):
            ref = forcing_multiplier_quad(t, x / t, sigma)
            assert g_val == pytest.approx(ref, rel=1e-13, abs=0.0), (t, x)


@pytest.mark.parametrize("scale", [0.5, 0.2])
def test_forcing_term_exact_on_rough_data(scale):
    # compact support makes the spectrum decay slowly, so modes with t|xi|^2
    # in the thousands carry weight; the q = 6 norm of the error is taken
    # relative to the term's own norm at each checked rung
    g = Grid(2, 8.0, 64)
    times = geometric_ladder(10.0, 64)
    zero = Field(g, np.zeros(g.shape))
    w = ForcingSpec.from_profile(make_bump(g, "compact_bump", scale=scale, amplitude=1.0))
    op = SolutionMap(zero, w, PARAMS, Q, times)
    out = op.apply(op.free_only())
    prop = Propagator(g)
    for j in range(0, 64, 9):
        ref = forcing_field_quad(prop, w.profile.values, times[j], -0.5)
        err = lr_norm(Field(g, out.fields[j].values - ref), Q)
        assert err <= 1e-10 * lr_norm(Field(g, ref), Q), j


def test_sup_smoothing_ratio_matches_per_time_propagation():
    # one forward transform per probe gives the constant of the per-time
    # heat applications bit for bit, on rough data and every index pair used
    g = Grid(2, 8.0, 64)
    probes = [make_bump(g, "compact_bump", scale=s, amplitude=1.0) for s in (0.2, 0.5, 2.0)]
    probes.append(Field(g, np.zeros(g.shape)))
    times = np.geomspace(1e-5, 10.0, 48)
    prop = Propagator(g)
    for r_src, r_dst in ((3.0, 6.0), (1.5, 6.0), (1.2, 6.0), (2.0, math.inf)):
        got = sup_smoothing_ratio(prop, probes, times, r_src, r_dst)
        assert got == smoothing_ratio_by_propagation(prop, probes, times, r_src, r_dst)
        assert got > 0.0
    with pytest.raises(ValueError, match="grid"):
        sup_smoothing_ratio(prop, [make_bump(Grid(2, 8.0, 32), "compact_bump")], times, 3.0, 6.0)


def test_solution_map_validates_q_and_ladder():
    g = Grid(2, 8.0, 32)
    times = geometric_ladder(2.0, 8)
    zero = Field(g, np.zeros(g.shape))
    op = SolutionMap(zero, None, PARAMS, Q, times)
    u = op.free_only()
    with pytest.raises(ValueError, match="window"):
        SolutionMap(zero, None, PARAMS, 100.0, times)
    with pytest.raises(ValueError, match="delta"):
        iterate_to_fixed_point(op, delta=0.0, cstar=1.0)
    other = u.replace_fields(u.fields)
    other.times = geometric_ladder(3.0, 8)
    with pytest.raises(ValueError, match="ladder"):
        op.apply(other)


def test_fixed_point_converges_and_matches_evolver():
    g = Grid(2, 8.0, 64)
    u0, w, cstar = budget_data(g)
    op = SolutionMap(u0, w, PARAMS, Q, geometric_ladder(5.0, 32))
    sol, diag = iterate_to_fixed_point(op, cstar=cstar)
    assert diag.converged
    assert not diag.non_contractive
    assert diag.stayed_in_ball
    assert not diag.outside_guarantee
    assert diag.ratio_estimate < 1.0
    # residual below the declared threshold after one more application
    res = ladder_distance(op.apply(sol), sol)
    assert res <= 1e-8
    # distances decrease geometrically once the iteration settles
    d = diag.distances
    assert all(d[i + 1] <= d[i] for i in range(1, len(d) - 1))

    # cross-check the q-norms against the time stepper at ladder times
    check_times = tuple(sol.times[::8]) + (float(sol.times[-1]),)
    cfg = SolveConfig(params=PARAMS, Tend=5.0, record_times=check_times,
                      tol_step=1e-8)
    traj = run(u0, w, cfg)
    for t in check_times:
        evolved = lr_norm(traj.snapshot_at(t), Q)
        fixed = lr_norm(sol.fields[int(np.argmin(np.abs(sol.times - t)))], Q)
        assert fixed == pytest.approx(evolved, rel=0.01)


def test_ladder_refinement_stability():
    g = Grid(2, 8.0, 32)
    u0, w, cstar = budget_data(g)
    sols = {}
    for rungs in (64, 127):  # 127 = 2*64 - 1 keeps the endpoints aligned
        op = SolutionMap(u0, w, PARAMS, Q, geometric_ladder(5.0, rungs))
        sol, diag = iterate_to_fixed_point(op, cstar=cstar)
        assert diag.converged
        sols[rungs] = float(np.max(sol.weighted_norms()))
    rel = abs(sols[64] - sols[127]) / sols[127]
    assert rel < 1e-4


def test_audit_margins_nonnegative():
    g = Grid(2, 8.0, 64)
    u0, w, cstar = budget_data(g)
    op = SolutionMap(u0, w, PARAMS, Q, geometric_ladder(5.0, 32))
    sol, diag = iterate_to_fixed_point(op, cstar=cstar)
    audit = audit_estimates(sol, op)
    assert audit.all_margins_nonnegative
    assert audit.beta_args_nonlinear[0] > 0 and audit.beta_args_nonlinear[1] > 0
    assert audit.cstar_hat > 0
    # beta-function arguments for the reference config (N=3, p=3, q=6)
    params3 = Params(3, 3, HALF)
    der3 = derive(params3)
    beta3 = 1.0 / 2.0 - 3.0 / 12.0
    assert 1.0 - beta3 * 3.0 == pytest.approx(0.25)
    assert 1.0 - (3.0 / 12.0) * 2.0 == pytest.approx(0.5)
    csv = audit.csv()
    assert csv.splitlines()[0].startswith("t,free,free_bound")


def test_oversized_data_flagged():
    g = Grid(2, 8.0, 32)
    u0, w, cstar = budget_data(g)
    big_u0 = u0.scaled(100.0)
    big_w = ForcingSpec.from_profile(w.profile.scaled(100.0))
    op = SolutionMap(big_u0, big_w, PARAMS, Q, geometric_ladder(5.0, 24))
    sol, diag = iterate_to_fixed_point(op, cstar=cstar, max_iter=12)
    assert diag.outside_guarantee
    # no assertion on convergence: documented as outside the guarantee


def test_audit_rejects_out_of_ball():
    g = Grid(2, 8.0, 32)
    u0, w, cstar = budget_data(g)
    times = geometric_ladder(5.0, 16)
    op = SolutionMap(u0, w, PARAMS, Q, times)
    u = op.free_only()
    cramped = u.replace_fields(u.fields)
    cramped.delta = 1e-300
    with pytest.raises(ValueError, match="ball"):
        audit_estimates(cramped, op)
