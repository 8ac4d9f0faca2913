import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from _oracles import certificate_space_factors_on_grid, grid_r2
from critex.certificate import (
    _MU_FLOOR,
    Shells,
    _xi_power,
    blowup_certificate,
    build_phi,
    build_mu_fixed,
    default_cutoffs,
    steep_cutoffs,
    time_factor_forcing,
    young_constant,
)
from critex.exponents import Params
from critex.field import Field, ForcingSpec, Grid, make_bump

HALF = Fraction(-1, 2)
CUT = default_cutoffs()


def unit_mass_forcing(grid, a=0.25):
    amp = (4.0 * math.pi * a) ** (-grid.N / 2.0)
    return ForcingSpec.from_profile(make_bump(grid, "gaussian", scale=a, amplitude=amp))


def test_cutoff_shapes():
    xi, eta = CUT.xi, CUT.eta
    r = np.linspace(0.0, 3.0, 301)
    vals = xi(r)
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    assert np.all(vals[r <= 1.0] == 1.0)
    assert np.all(vals[r >= 2.0] == 0.0)
    assert np.all(np.diff(vals) <= 1e-12)  # nonincreasing
    s = np.linspace(-0.5, 1.5, 401)
    ev = eta(s)
    assert np.all(ev >= 0.0)
    assert ev[s <= 0.0].max() == 0.0 and ev[s >= 1.0].max() == 0.0
    assert ev.max() > 0.0
    assert eta(0.0) == 0.0 and eta(1.0) == 0.0
    # derivative consistent with finite differences at interior points
    h = 1e-6
    for s0 in (0.2, 0.5, 0.8):
        fd = (eta(s0 + h) - eta(s0 - h)) / (2 * h)
        assert CUT.eta_d(s0) == pytest.approx(fd, rel=1e-6)


def test_phi_vanishes_at_time_zero():
    shells = Shells.of(Grid(2, 16.0, 128))
    phi = build_phi(16.0, Params(2, 2, HALF), CUT, shells)
    assert phi.time_profile(0.0) == 0.0
    assert phi.time_profile(16.0) == 0.0
    # spatial factor is exactly 1 on |x|^2 <= T
    inside = shells.r2 <= 16.0
    assert np.all(phi.mu.values[inside] == 1.0)


def test_box_too_small_rejected():
    shells = Shells.of(Grid(2, 4.0, 64))
    with pytest.raises(ValueError, match="box too small"):
        build_phi(16.0, Params(2, 2, HALF), CUT, shells)
    with pytest.raises(ValueError, match="box too small"):
        build_mu_fixed(4.0, Params(2, 2, HALF), CUT, shells)


def test_mu_integral_scales_as_half_dimension():
    shells = Shells.of(Grid(2, 16.0, 512))
    params = Params(2, 2, HALF)
    c16 = build_phi(16.0, params, CUT, shells).mu.integral() / 16.0
    c64 = build_phi(64.0, params, CUT, shells).mu.integral() / 64.0
    assert abs(c16 - c64) / c64 < 1e-6


def test_forcing_functional_scaling_and_threshold():
    g = Grid(2, 16.0, 256)
    w = unit_mass_forcing(g)
    params = Params(2, 2, HALF)
    rep = blowup_certificate(w, params, CUT, [32.0, 128.0])
    # normalized by T^(sigma+1) the functional is T-independent
    n32 = rep.forcing[0] / 32.0**0.5
    n128 = rep.forcing[1] / 128.0**0.5
    assert abs(n32 - n128) / n128 < 1e-3
    # the space factor passes the half-mass threshold at large T
    space = rep.forcing[1] / (128.0**0.5 * time_factor_forcing(params, CUT))
    assert space >= 0.5 * w.mass
    assert rep.threshold_ok[1]
    # odd (mass-zero) forcing: space factor vanishes as T covers the support
    x = g.axis()
    odd_vals = np.sin(math.pi * x / g.L)[:, None] * np.exp(
        -grid_r2(g) / 4.0
    ) / (4.0 * math.pi)
    odd = ForcingSpec.from_profile(Field(g, odd_vals))
    assert abs(odd.mass) < 1e-12
    f_odd = blowup_certificate(odd, params, CUT, [32.0, 128.0]).forcing[1]
    assert abs(f_odd) <= 1e-10 * rep.forcing[1]


def test_dissipation_slopes():
    g = Grid(2, 16.0, 256)
    params = Params(2, 2, HALF)
    Ts = [8.0, 16.0, 32.0, 64.0, 128.0]
    rep = blowup_certificate(unit_mass_forcing(g), params, CUT, Ts)
    i1s, i2s = list(rep.I1), list(rep.I2)
    s1 = np.polyfit(np.log(Ts), np.log(i1s), 1)[0]
    s2 = np.polyfit(np.log(Ts), np.log(i2s), 1)[0]
    expect = 1.0 + 2.0 / 2.0 - 2.0  # 1 + N/2 - p/(p-1)
    assert abs(s1 - expect) <= 0.05
    assert abs(s2 - expect) <= 0.05
    assert all(math.isfinite(v) and v > 0 for v in i1s + i2s)


def test_dissipation_slope_value_n3_p2():
    g = Grid(3, 16.0, 128)
    params = Params(3, 2, HALF)
    Ts = [32.0, 64.0, 128.0]
    i1s = blowup_certificate(unit_mass_forcing(g), params, CUT, Ts).I1
    slope = np.polyfit(np.log(Ts), np.log(i1s), 1)[0]
    assert abs(slope - 0.5) <= 0.05  # 1 + 3/2 - 2


CUTOFF_SHARPNESS = [(default_cutoffs(), 1), (steep_cutoffs(), 2)]


def _xi_power_mp(s, k, a):
    """xi(s)^a at working precision; xi = A/(A+B), A = e^{-k/(2-s)}, B = e^{-k/(s-1)}."""
    A = mpmath.exp(-k / (2 - s))
    B = mpmath.exp(-k / (s - 1))
    return (A / (A + B)) ** a


@pytest.mark.parametrize("cut, k", CUTOFF_SHARPNESS, ids=["default", "steep"])
def test_closed_form_xi_power_derivatives_match_mpmath(cut, k):
    # 1 - xi ~ e^{-k/(s-1)} is 4e-44 at s = 1.02, k = 2: hence 120 digits
    for p in (1.5, 2.5):
        a = 2.0 * p / (p - 1.0)
        s = np.linspace(1.02, 1.98, 17)
        g, g_d, g_dd = _xi_power(s, a, cut)
        with mpmath.workdps(120):
            for i, si in enumerate(s):
                x = mpmath.mpf(si)
                for order, got in enumerate((g[i], g_d[i], g_dd[i])):
                    ref = mpmath.diff(lambda t: _xi_power_mp(t, k, a), x, order)
                    assert abs(got - ref) <= 1e-10 * abs(ref), (si, order)


@pytest.mark.parametrize("cut, k", CUTOFF_SHARPNESS, ids=["default", "steep"])
@pytest.mark.parametrize("N, n", [(2, 64), (3, 32)])
def test_radial_laplacian_matches_mpmath(cut, k, N, n):
    shells = Shells.of(Grid(N, 16.0, n))
    T = 32.0
    shoulder = np.flatnonzero((shells.r2 > T) & (shells.r2 < 2.0 * T))
    assert shoulder.size > 20
    for p in (Fraction(3, 2), Fraction(5, 2)):
        a = 2.0 * float(p / (p - 1))
        mu = build_phi(T, Params(N, p, HALF), cut, shells).mu
        with mpmath.workdps(120):
            def radial(r):
                return _xi_power_mp(r * r / T, k, a)

            for i in shoulder:
                r = mpmath.sqrt(mpmath.mpf(shells.r2[i]))
                ref = mpmath.diff(radial, r, 2) + (N - 1) / r * mpmath.diff(radial, r, 1)
                assert abs(mu.laplacian[i] - ref) <= 1e-10 * abs(ref), shells.r2[i]


@pytest.mark.parametrize("cut", [default_cutoffs(), steep_cutoffs()],
                         ids=lambda c: c.label)
def test_space_factors_match_grid_oracle(cut):
    # resolved case: the spectral Laplacian of the grid path is accurate here
    g = Grid(2, 16.0, 512)
    shells = Shells.of(g)
    params = Params(2, Fraction(5, 2), HALF)
    T = 128.0
    mu = build_phi(T, params, cut, shells).mu
    for w in (make_bump(g, "gaussian", scale=0.25),
              make_bump(g, "compact_bump", scale=3.0)):
        mu_int, forcing, diss = certificate_space_factors_on_grid(
            w.values, g, T, 5.0 / 3.0, cut.xi, _MU_FLOOR)
        assert mu.integral() == pytest.approx(mu_int, rel=1e-13, abs=0.0)
        assert mu.against(shells.sum(w.values)) == pytest.approx(forcing, rel=1e-13,
                                                                 abs=0.0)
        assert mu.dissipation(params) == pytest.approx(diss, rel=1e-4, abs=0.0)


@pytest.mark.parametrize("cut", [default_cutoffs(), steep_cutoffs()],
                         ids=lambda c: c.label)
@pytest.mark.parametrize("p", [Fraction(3, 2), Fraction(5, 2)], ids=str)
def test_fitted_slopes_on_coarse_3d_grid(cut, p):
    # 128^3 puts the cutoff shoulder on 9-19 grid spacings; a spectral
    # Laplacian of mu read slope errors up to -4.6 here
    g = Grid(3, 16.0, 128)
    ladder = [32.0 * 2.0 ** (k / 2.0) for k in range(5)]
    rep = blowup_certificate(unit_mass_forcing(g), Params(3, p, HALF), cut, ladder)
    for key, expected in rep.expected_slopes.items():
        assert abs(rep.slopes[key] - expected) <= 0.01, key


def test_certificate_verdicts_by_regime():
    g = Grid(2, 16.0, 256)
    w = unit_mass_forcing(g)
    ladder = [8.0, 16.0, 32.0, 64.0, 128.0]
    # subcritical: bound ~ T^(-1/2), contradiction
    rep = blowup_certificate(w, Params(2, 2, HALF), CUT, ladder)
    assert rep.verdict == "CONTRADICTION"
    assert rep.slopes["bound"] == pytest.approx(-0.5, abs=0.05)
    # per-T flags fire exactly where the decaying bound undercuts the mass
    # (the bound does not depend on w, so a heavy forcing crosses on-ladder)
    heavy = ForcingSpec.from_profile(w.profile.scaled(2.0 * rep.bound[-1]))
    rep_heavy = blowup_certificate(heavy, Params(2, 2, HALF), CUT, ladder)
    assert bool(rep_heavy.contradiction_at[-1])
    assert np.array_equal(rep_heavy.contradiction_at,
                          rep_heavy.bound < heavy.mass)
    # supercritical in 3-D: exponent +1/2, no contradiction at any T
    g3 = Grid(3, 16.0, 128)
    w3 = unit_mass_forcing(g3)
    rep3 = blowup_certificate(w3, Params(3, 3, HALF), CUT,
                              [32.0, 64.0, 128.0])
    assert rep3.verdict == "NO_CONTRADICTION"
    assert not rep3.contradiction_at.any()
    assert rep3.slopes["bound"] == pytest.approx(0.5, abs=0.05)
    # positive sigma: fixed spatial scale, bound sinks below the mass
    rep_pos = blowup_certificate(w, Params(2, 3, Fraction(1, 1)), CUT,
                                 [10.0, 100.0, 1000.0, 10000.0])
    assert rep_pos.mode == "fixed-space"
    assert rep_pos.verdict == "CONTRADICTION"
    assert bool(rep_pos.contradiction_at[-1])


def test_verdict_independent_of_cutoffs():
    g = Grid(2, 16.0, 256)
    w = unit_mass_forcing(g)
    ladder = [8.0, 16.0, 32.0, 64.0, 128.0]
    for p in (2.0, 2.5, 3.5, 4.0):
        reps = [
            blowup_certificate(w, Params(2, p, HALF), cut, ladder)
            for cut in (default_cutoffs(), steep_cutoffs())
        ]
        assert reps[0].verdict == reps[1].verdict


def test_verdict_flips_with_exponent_sign():
    # N=2, sigma=-1/2: exponent 3/2 - p/(p-1) changes sign at p = 3
    g = Grid(2, 16.0, 256)
    w = unit_mass_forcing(g)
    ladder = [8.0, 16.0, 32.0, 64.0, 128.0]
    for p in (2.0, 2.5, 3.5, 4.0):
        rep = blowup_certificate(w, Params(2, p, HALF), CUT, ladder)
        expect = 1.0 + 0.5 - p / (p - 1.0)
        assert (rep.verdict == "CONTRADICTION") == (expect < 0)


def test_csv_layout():
    g = Grid(2, 16.0, 128)
    w = unit_mass_forcing(g)
    rep = blowup_certificate(w, Params(2, 2, HALF), CUT, [8.0, 16.0, 32.0])
    text = rep.csv()
    lines = text.splitlines()
    assert lines[0] == "T,forcing,I1,I2,bound,verdict"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 4
    assert any(ln.startswith("# slope,forcing") for ln in lines)


def test_young_constant_and_time_factor():
    # p = 2: C = (1/2) * 1 = 1/2... the split ab <= a^2/2 + C b^2 needs C = 1/2
    assert young_constant(Params(2, 2, HALF)) == pytest.approx(0.5)
    assert time_factor_forcing(Params(2, 2, HALF), CUT) > 0
    zero_cut = default_cutoffs()
    g = Grid(2, 16.0, 128)
    with pytest.raises(ValueError, match="degenerate"):
        bad = dataclasses.replace(
            zero_cut, eta=lambda s: np.zeros_like(np.asarray(s, dtype=float)), label="zero")
        blowup_certificate(unit_mass_forcing(g), Params(2, 2, HALF), bad, [16.0])
