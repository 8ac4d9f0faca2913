import dataclasses
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from _oracles import (
    certificate_space_factors_on_grid,
    certify,
    field_slabs,
    grid_r2,
    shells_by_full_index,
)
from critex.certificate import (
    _MU_FLOOR,
    Shells,
    _xi_power,
    blowup_certificate,
    build_phi,
    build_mu_fixed,
    default_cutoffs,
    steep_cutoffs,
    time_factor_dissipation,
    time_factor_forcing,
    time_factor_plain,
    stream_forcing,
    young_constant,
)
from critex.exponents import Params
from critex.field import (
    Field,
    Grid,
    data_profile,
    field_fingerprint,
    integral,
    profile_slabs,
    write_snapshot,
)

HALF = Fraction(-1, 2)
CUT = default_cutoffs()


def unit_mass_forcing(grid, a=0.25):
    amp = (4.0 * math.pi * a) ** (-grid.N / 2.0)
    return data_profile(grid, kind="gaussian", scale=a, amplitude=amp)


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
    assert np.all(eta(np.array([0.0, 1.0])) == 0.0)
    # derivative consistent with finite differences at interior points
    h = 1e-6
    s0 = np.array([0.2, 0.5, 0.8])
    fd = (eta(s0 + h) - eta(s0 - h)) / (2 * h)
    assert CUT.eta_d(s0) == pytest.approx(fd, rel=1e-6)


def test_phi_vanishes_at_time_zero():
    # phi(t, x) = eta(t/T)^{p'} mu(x): the time profile vanishes at t = 0 and T
    assert np.all(CUT.eta(np.array([0.0, 16.0]) / 16.0) == 0.0)
    shells = Shells.of(Grid(2, 16.0, 128))
    mu = build_phi(16.0, Params(2, 2, HALF), CUT, shells)
    # spatial factor is exactly 1 on |x|^2 <= T
    inside = shells.r2 <= 16.0
    assert np.all(mu.values[inside] == 1.0)


def test_box_too_small_rejected():
    shells = Shells.of(Grid(2, 4.0, 64))
    with pytest.raises(ValueError, match="box too small for T = 16.0"):
        build_phi(16.0, Params(2, 2, HALF), CUT, shells)
    with pytest.raises(ValueError, match=r"box too small for R = 4.0 \(scale R\^2\)"):
        build_mu_fixed(4.0, Params(2, 2, HALF), CUT, shells)


def test_fixed_scale_rejected_when_cutoff_rescales():
    # sigma <= 0 rescales the cutoff with T, so a given R would go unused
    w = unit_mass_forcing(Grid(2, 16.0, 64))
    for sigma in (HALF, Fraction(0)):
        with pytest.raises(ValueError, match="R_length"):
            certify(w, Params(2, 2, sigma), CUT, [8.0, 16.0], R=3.0)
    rep = certify(w, Params(2, 3, Fraction(1)), CUT, [8.0, 16.0], R=3.0)
    assert rep.mode == "fixed-space"


def _shell_test_data(grid, kind):
    if kind == "random":
        return np.random.default_rng(7).standard_normal(grid.shape)
    scale = {"gaussian": 0.25, "compact_bump": 3.0}[kind]
    return data_profile(grid, kind=kind, scale=scale).values


@pytest.mark.parametrize("kind", ["gaussian", "compact_bump", "random"])
@pytest.mark.parametrize("N, n", [(N, n) for N in (1, 2, 3) for n in (8, 32, 128)])
def test_shells_match_full_index(N, n, kind):
    # slab-by-slab shells against the grid-sized index and np.bincount: exact
    grid = Grid(N, 16.0, n)
    values = _shell_test_data(grid, kind)
    occupied, count, sums = shells_by_full_index(grid, values)
    shells = Shells.of(grid)
    assert np.array_equal(shells.occupied, occupied)
    assert np.array_equal(shells.count, count)
    slabs = [values[rows] for rows in grid.slab_rows()]
    assert np.array_equal(stream_forcing(shells, slabs)[0], sums)


STREAM_CASES = {
    "gaussian": dict(kind="gaussian", scale=0.3, amplitude=0.7, center=(0.6, -1.1, 0.35)),
    "compact_bump": dict(kind="compact_bump", scale=2.5, center=(-0.4, 0.8, 0.15)),
    "constant": dict(kind="constant", amplitude=0.3),
    "snapshot": dict(path=True),
    "snapshot_half": dict(path=True, factor=0.5),
    "gaussian_half": dict(kind="gaussian", scale=0.3, factor=0.5),
}


@pytest.mark.parametrize("case", STREAM_CASES)
@pytest.mark.parametrize("N, n", [(N, n) for N in (1, 2, 3) for n in (8, 64, 128)])
def test_streamed_forcing_matches_the_whole_field(tmp_path, N, n, case):
    # one pass over the slabs gives the shell sums, mass and fingerprint of
    # the Field that data_profile makes, bit for bit
    g = Grid(N, 4.0, n)
    args = dict(STREAM_CASES[case])
    if "center" in args:
        args["center"] = args["center"][:N]
    if args.get("path"):
        args["path"] = tmp_path / "w.field"
        write_snapshot(Field(g, np.random.default_rng(n).standard_normal(g.shape)),
                       args["path"])
    w = data_profile(g, **args)
    shells = Shells.of(g)
    w_shells, mass, fingerprint = stream_forcing(shells, profile_slabs(g, **args))
    assert np.array_equal(w_shells, shells_by_full_index(g, w.values)[2])
    assert mass == integral(w)
    assert fingerprint == field_fingerprint(w)


def test_shells_sum_rejects_wrong_shape():
    grid = Grid(2, 16.0, 32)
    shells = Shells.of(grid)
    # same size, or a size divisible by n: a reshape alone would accept both
    for shape in ((32 * 32,), (16, 64), (32, 64), (32, 32, 1)):
        slabs = [np.ones(shape)[rows] for rows in grid.slab_rows()]
        threads = threading.active_count()
        with pytest.raises(ValueError, match="shape"):
            stream_forcing(shells, slabs)
        assert threading.active_count() == threads  # the hashing thread is joined
    # also once slabs have been handed to that thread
    good = np.ones(grid.slab_shape)
    with pytest.raises(ValueError, match="shape"):
        stream_forcing(shells, [good, good, good[:1]])
    assert threading.active_count() == threads


def test_stream_fingerprint_keeps_slab_order_under_fast_thread_switches():
    # 64 slabs of 32 KiB, hashed on the worker thread (hashlib releases the
    # GIL on them) while this one sums them, with a switch every microsecond
    g = Grid(3, 16.0, 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fingerprint = stream_forcing(Shells.of(g), profile_slabs(g, kind="gaussian"))[2]
    finally:
        sys.setswitchinterval(interval)
    assert fingerprint == field_fingerprint(data_profile(g, kind="gaussian"))


def test_stream_reraises_a_failure_of_the_hashing_thread(monkeypatch):
    # the worker keeps draining after its failure, so the 64 slabs still pass
    # the queue of two, and the failure is raised here once it is joined
    class Failing:
        calls = 0

        def update(self, data):
            Failing.calls += 1
            if Failing.calls == 3:
                raise MemoryError("hash failed")

    monkeypatch.setattr("critex.certificate.fingerprint_hash", lambda grid: Failing())
    g = Grid(3, 16.0, 64)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="hash failed"):
        stream_forcing(Shells.of(g), profile_slabs(g, kind="gaussian"))
    assert threading.active_count() == threads
    assert Failing.calls == 3


@pytest.mark.parametrize("sigma", [HALF, -HALF], ids=str)
def test_certificate_peak_memory_below_half_the_field(sigma):
    # no grid-sized index or weighted copy: the traced peak stays far below w
    g = Grid(3, 16.0, 128)
    w = unit_mass_forcing(g)
    shells = Shells.of(g)
    w_shells, mass, _ = stream_forcing(shells, field_slabs(w))
    tracemalloc.start()
    try:
        blowup_certificate(shells, w_shells, mass, Params(3, 2, sigma), CUT,
                           [32.0, 64.0, 128.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field_bytes = w.values.nbytes
    assert peak < 0.5 * field_bytes, peak / field_bytes


def test_mu_integral_scales_as_half_dimension():
    shells = Shells.of(Grid(2, 16.0, 512))
    params = Params(2, 2, HALF)
    c16 = build_phi(16.0, params, CUT, shells).integral() / 16.0
    c64 = build_phi(64.0, params, CUT, shells).integral() / 64.0
    assert abs(c16 - c64) / c64 < 1e-6


def test_forcing_functional_scaling_and_threshold():
    g = Grid(2, 16.0, 256)
    w = unit_mass_forcing(g)
    params = Params(2, 2, HALF)
    rep = certify(w, params, CUT, [32.0, 128.0])
    # normalized by T^(sigma+1) the functional is T-independent
    n32 = rep.forcing[0] / 32.0**0.5
    n128 = rep.forcing[1] / 128.0**0.5
    assert abs(n32 - n128) / n128 < 1e-3
    # the space factor passes the half-mass threshold at large T
    space = rep.forcing[1] / (128.0**0.5 * time_factor_forcing(params, CUT))
    assert space >= 0.5 * integral(w)
    assert rep.threshold_ok[1]
    # odd (mass-zero) forcing: space factor vanishes as T covers the support
    x = g.axis()
    odd_vals = np.sin(math.pi * x / g.L)[:, None] * np.exp(
        -grid_r2(g) / 4.0
    ) / (4.0 * math.pi)
    odd = Field(g, odd_vals)
    assert abs(integral(odd)) < 1e-12
    f_odd = certify(odd, params, CUT, [32.0, 128.0]).forcing[1]
    assert abs(f_odd) <= 1e-10 * rep.forcing[1]


def test_dissipation_slopes():
    g = Grid(2, 16.0, 256)
    params = Params(2, 2, HALF)
    Ts = [8.0, 16.0, 32.0, 64.0, 128.0]
    rep = certify(unit_mass_forcing(g), params, CUT, Ts)
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
    i1s = certify(unit_mass_forcing(g), params, CUT, Ts).I1
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
        mu = build_phi(T, Params(N, p, HALF), cut, shells)
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
    mu = build_phi(T, params, cut, shells)
    for w in (data_profile(g, kind="gaussian", scale=0.25),
              data_profile(g, kind="compact_bump", scale=3.0)):
        mu_int, forcing, diss = certificate_space_factors_on_grid(
            w.values, g, T, 5.0 / 3.0, cut.xi, _MU_FLOOR)
        assert mu.integral() == pytest.approx(mu_int, rel=1e-13, abs=0.0)
        assert mu.against(stream_forcing(shells, field_slabs(w))[0]) == pytest.approx(forcing, rel=1e-13,
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
    rep = certify(unit_mass_forcing(g), Params(3, p, HALF), cut, ladder)
    for key, expected in rep.expected_slopes.items():
        assert abs(rep.slopes[key] - expected) <= 0.01, key


def test_certificate_verdicts_by_regime():
    g = Grid(2, 16.0, 256)
    w = unit_mass_forcing(g)
    ladder = [8.0, 16.0, 32.0, 64.0, 128.0]
    # subcritical: bound ~ T^(-1/2), contradiction
    rep = certify(w, Params(2, 2, HALF), CUT, ladder)
    assert rep.verdict == "CONTRADICTION"
    assert rep.slopes["bound"] == pytest.approx(-0.5, abs=0.05)
    # per-T flags fire exactly where the decaying bound undercuts the mass
    # (the bound does not depend on w, so a heavy forcing crosses on-ladder)
    heavy = w.scaled(2.0 * rep.bound[-1])
    rep_heavy = certify(heavy, Params(2, 2, HALF), CUT, ladder)
    assert bool(rep_heavy.contradiction_at[-1])
    assert np.array_equal(rep_heavy.contradiction_at,
                          rep_heavy.bound < integral(heavy))
    # supercritical in 3-D: exponent +1/2, no contradiction at any T
    g3 = Grid(3, 16.0, 128)
    w3 = unit_mass_forcing(g3)
    rep3 = certify(w3, Params(3, 3, HALF), CUT,
                              [32.0, 64.0, 128.0])
    assert rep3.verdict == "NO_CONTRADICTION"
    assert not rep3.contradiction_at.any()
    assert rep3.slopes["bound"] == pytest.approx(0.5, abs=0.05)
    # positive sigma: fixed spatial scale, bound sinks below the mass
    rep_pos = certify(w, Params(2, 3, Fraction(1, 1)), CUT,
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
            certify(w, Params(2, p, HALF), cut, ladder)
            for cut in (default_cutoffs(), steep_cutoffs())
        ]
        assert reps[0].verdict == reps[1].verdict


def test_verdict_flips_with_exponent_sign():
    # N=2, sigma=-1/2: exponent 3/2 - p/(p-1) changes sign at p = 3
    g = Grid(2, 16.0, 256)
    w = unit_mass_forcing(g)
    ladder = [8.0, 16.0, 32.0, 64.0, 128.0]
    for p in (2.0, 2.5, 3.5, 4.0):
        rep = certify(w, Params(2, p, HALF), CUT, ladder)
        expect = 1.0 + 0.5 - p / (p - 1.0)
        assert (rep.verdict == "CONTRADICTION") == (expect < 0)


def test_csv_layout():
    g = Grid(2, 16.0, 128)
    w = unit_mass_forcing(g)
    rep = certify(w, Params(2, 2, HALF), CUT, [8.0, 16.0, 32.0])
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
        certify(unit_mass_forcing(g), Params(2, 2, HALF), bad, [16.0, 32.0])


def _time_factor_mp(factor, power, p, sigma):
    """A time factor at 40 digits, tanh-sinh on 256 subintervals of (0, 1).

    With g = s(1-s): eta^{p'} = exp(-p'/g^power) and
    |eta'|^{p'} = eta^{p'} (power |1-2s| / g^(power+1))^{p'}.  On 64
    subintervals the steep p = 1.05 dissipation factor (3.8e-99) is itself
    off by 9.4e-10.
    """
    with mpmath.workdps(40):
        p = mpmath.mpf(p.numerator) / p.denominator
        sigma = mpmath.mpf(sigma.numerator) / sigma.denominator
        pp = p / (p - 1)
        scale = pp**pp

        def integrand(s):
            g = s * (1 - s)
            eta_pp = mpmath.exp(-pp / g**power)
            if factor == "dissipation":
                return scale * eta_pp * (power * abs(1 - 2 * s) / g ** (power + 1)) ** pp
            return s**sigma * eta_pp if factor == "forcing" else eta_pp

        return mpmath.quad(integrand, mpmath.linspace(0, 1, 257))


TIME_FACTORS = {"forcing": time_factor_forcing, "plain": time_factor_plain,
                "dissipation": time_factor_dissipation}


# p = 3 (p' = 3/2) puts the kink of |eta'|^{p'} at s = 1/2 in the dissipation
# factor, p = 2 gives p' = 2, and p = 1.05 gives the tiniest factors
@pytest.mark.parametrize("factor, cut, power, p, sigma", [
    ("dissipation", steep_cutoffs(), 2, Fraction(21, 20), HALF),
    ("dissipation", steep_cutoffs(), 2, Fraction(2), HALF),
    ("dissipation", default_cutoffs(), 1, Fraction(3), HALF),
    ("dissipation", steep_cutoffs(), 2, Fraction(3), HALF),
    ("forcing", steep_cutoffs(), 2, Fraction(21, 20), Fraction(-9, 10)),
    ("forcing", default_cutoffs(), 1, Fraction(3, 2), Fraction(-9, 10)),
    ("forcing", default_cutoffs(), 1, Fraction(21, 20), Fraction(1, 2)),
    ("plain", default_cutoffs(), 1, Fraction(21, 20), HALF),
    ("plain", steep_cutoffs(), 2, Fraction(3, 2), HALF),
], ids=lambda v: getattr(v, "label", str(v)))
def test_time_factors_match_mpmath(factor, cut, power, p, sigma):
    got = TIME_FACTORS[factor](Params(2, p, sigma), cut)
    ref = _time_factor_mp(factor, power, p, sigma)
    assert abs(got - ref) <= 1e-12 * abs(ref), (got, float(ref))
