"""Checks of the retired RK4 reaction kernels, which the benchmark still resolves."""

import numpy as np
import pytest

from critex import kernels

from _oracles import reaction_rk4_by_expression


def test_reaction_kernels_reduce_to_quadrature(rng):
    # nonlinearity off: the forced kernel integrates s^sigma exactly enough
    v = np.zeros(32)
    c = np.ones(32)
    t0, dt, sigma = 0.5, 0.01, -0.5
    out = kernels.reaction_rk4_forced(v, c, t0, dt, 2.0, sigma, nl=0.0)
    exact = ((t0 + dt) ** (sigma + 1) - t0 ** (sigma + 1)) / (sigma + 1)
    assert np.allclose(out, exact, rtol=1e-12)
    # the singular first step integrates the forcing weight exactly
    out0 = kernels.reaction_rk4_tau(v, c, dt, 2.0, sigma, nl=0.0)
    assert np.allclose(out0, dt ** (sigma + 1) / (sigma + 1), rtol=1e-14)


@pytest.mark.parametrize("p", [2.0, 3, 2.8, 1.5])
@pytest.mark.parametrize("nl", [1.0, 0.0])
def test_reaction_kernels_match_array_expressions(rng, p, nl):
    # the kernels reuse work arrays; the values are those of the expressions
    v = rng.standard_normal(4096)
    c = rng.standard_normal(4096)
    v_in = v.copy()
    dt = 0.013
    assert np.array_equal(kernels.reaction_rk4_plain(v, dt, p, nl),
                          reaction_rk4_by_expression("plain", v, dt, p, nl=nl))
    for t0, sigma in ((0.3, -0.4), (0.3, 0.5), (0.0, 0.5), (0.0, 0.0)):
        assert np.array_equal(
            kernels.reaction_rk4_forced(v, c, t0, dt, p, sigma, nl),
            reaction_rk4_by_expression("forced", v, dt, p, c, t0, sigma, nl))
    for sigma in (-0.5, -0.4):
        assert np.array_equal(kernels.reaction_rk4_tau(v, c, dt, p, sigma, nl),
                              reaction_rk4_by_expression("tau", v, dt, p, c, 0.0, sigma, nl))
    assert np.array_equal(v, v_in)


def test_plain_kernel_is_rk4(rng):
    v = np.array([1.0])
    dt = 0.02
    out = kernels.reaction_rk4_plain(v, dt, 2.0)
    assert abs(out[0] - 1.0 / (1.0 - dt)) < dt**5
