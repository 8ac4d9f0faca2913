from fractions import Fraction

import numpy as np
import pytest

from critex.exponents import (
    INF,
    Params,
    Regime,
    classify_regime,
    critical_exponent,
    derive,
    picard_smallness,
    q_window_discriminant,
    verify_scaling_identities,
)

HALF = Fraction(-1, 2)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(3, 1, HALF)
    with pytest.raises(ValueError):
        Params(3, Fraction(1, 2), HALF)
    with pytest.raises(ValueError):
        Params(3, 2, -1)
    with pytest.raises(ValueError):
        Params(0, 2, HALF)
    with pytest.raises(TypeError):
        Params(3, 2, object())
    # baseline values are accepted but flagged
    assert not Params(3, 2, 0).in_classification_scope
    assert not Params(1, 2, HALF).in_classification_scope
    assert Params(3, 2, HALF).in_classification_scope


def test_critical_exponent_values():
    # N=3, sigma=-1/2: (3+1)/(3-2+1) = 2, independent of p
    assert critical_exponent(3, HALF) == 2
    assert critical_exponent(3, Fraction(1, 4)) is INF
    # negative sigma with nonpositive denominator reports +inf
    assert critical_exponent(1, Fraction(-1, 4)) is INF
    # sigma = 0 recovers the unforced-with-source threshold N/(N-2)
    assert critical_exponent(3, 0) == 3
    assert critical_exponent(2, 0) is INF


def test_derive_examples():
    der = derive(Params(2, 2, HALF))
    assert der.fujita == 2
    der = derive(Params(3, 3, HALF))
    assert der.data_index == 3
    assert der.forcing_index == Fraction(3, 2)
    assert der.q_window == (3, 9)
    rep = verify_scaling_identities(Params(3, 3, HALF), 6)
    assert rep.beta == Fraction(1, 4)
    assert rep.beta * 3 == Fraction(3, 4)
    # k = 1 exactly at the critical power
    der = derive(Params(3, 2, HALF))
    assert der.forcing_index == 1
    assert der.critical == 2


def test_derive_is_pure():
    a = derive(Params(3, 3, HALF))
    b = derive(Params(3, 3, HALF))
    assert a == b


def test_classify_regime():
    assert classify_regime(Params(3, Fraction(3, 2), HALF)) is Regime.SUBCRITICAL_BLOWUP
    # the boundary p = p_star falls on the global side
    assert classify_regime(Params(3, 2, HALF)) is Regime.SUPERCRITICAL_GLOBAL
    assert classify_regime(Params(2, 10, Fraction(1, 2))) is Regime.FORCED_BLOWUP
    with pytest.raises(ValueError):
        classify_regime(Params(3, 2, 0))


def test_window_discriminant_values():
    assert q_window_discriminant(Params(3, 2, HALF)) == -1
    # p = 1 boundary: the quadratic is positive there, consistent with p > 1
    # being required ((-1) - 0 + 3 = 2)
    N, p, sigma = 3, Fraction(1), HALF
    val = 2 * sigma * p * p - (N + 2 * sigma - 2) * p + N
    assert val == 2
    assert q_window_discriminant(Params(4, Fraction(5, 3), HALF)) == Fraction(-4, 9)


def test_scaling_identities_exact():
    rep = verify_scaling_identities(Params(3, 3, HALF), 6)
    assert rep.residuals == (0, 0, 0)
    assert rep.beta_positive and rep.beta_p_below_one and rep.ok
    # mid-window q at N=2
    der = derive(Params(2, 3, HALF))
    rep = verify_scaling_identities(Params(2, 3, HALF), der.q_default)
    assert rep.residuals == (0, 0, 0)


def test_scaling_identities_window_edges():
    params = Params(3, 3, HALF)
    lo, hi = derive(params).q_window
    with pytest.raises(ValueError, match="bound"):
        verify_scaling_identities(params, lo)  # 1/q at the upper edge
    with pytest.raises(ValueError, match="bound"):
        verify_scaling_identities(params, hi)
    with pytest.raises(ValueError):
        verify_scaling_identities(params, 100)


def test_picard_smallness():
    assert picard_smallness(Params(2, 2, HALF), 0.5) == (1.0, 1.0)
    dmax, budget = picard_smallness(Params(2, 3, HALF), 2.0)
    assert dmax == pytest.approx(0.5)
    assert budget == pytest.approx(0.125)
    d1, b1 = picard_smallness(Params(2, 2, HALF), 1e8)
    assert d1 < 1e-7 and b1 < 1e-15
    with pytest.raises(ValueError):
        picard_smallness(Params(2, 2, HALF), 0.0)


def sample_admissible(rng, count):
    """Random (N, p, sigma) with sigma in (-1,0) on or above the critical power."""
    out = []
    while len(out) < count:
        N = int(rng.integers(2, 5))
        sigma = -Fraction(int(rng.integers(1, 99)), 100)
        crit = critical_exponent(N, sigma)
        if crit is INF:
            continue
        if rng.random() < 0.15:
            p = crit  # exactly critical
        else:
            p = crit + Fraction(int(rng.integers(1, 400)), 100)
        out.append(Params(N, p, sigma))
    return out


def test_admissible_sample_properties(rng):
    for params in sample_admissible(rng, 300):
        der = derive(params)
        assert q_window_discriminant(params) < 0
        assert der.q_window is not None
        q = der.q_default
        rep = verify_scaling_identities(params, q)
        assert rep.residuals == (0, 0, 0)
        assert rep.beta > 0 and rep.beta * params.p < 1
        assert q > params.p
        assert q > der.data_index > der.forcing_index >= 1
        assert (der.forcing_index == 1) == (params.p == der.critical)


def test_critical_monotone_and_limits():
    # strictly increasing in sigma on (-1, 0): the formula's derivative is
    # 4/(N-2-2*sigma)^2 > 0, so the limit N/(N-2) is approached from below
    sigmas = [Fraction(-9, 10), Fraction(-1, 2), Fraction(-1, 10), Fraction(-1, 100)]
    vals = [critical_exponent(3, s) for s in sigmas]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # formula limit toward 0-: N/(N-2)
    for k in range(1, 12):
        s = -Fraction(1, 10**k)
        gap = 3 - critical_exponent(3, s)
        assert 0 < gap < Fraction(5, 10**k)
    # N = 2 from below: diverges
    assert critical_exponent(2, Fraction(-1, 10**6)) > 10**5
    # sigma > 0: infinite
    assert critical_exponent(3, Fraction(1, 10**6)) is INF
