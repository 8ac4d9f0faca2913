import math

import numpy as np
import pytest

from critex.field import Field, Grid, data_profile, integral, lr_norm
from critex.semigroup import Propagator

from _oracles import (
    convolve_periodic,
    estimate_smoothing_constant,
    heat,
    oracle_convolve,
    periodized_kernel_axis,
    presaturation_limit,
    spectral_laplacian,
    verify_contraction,
)


def unit_gaussian(grid, a, center=None):
    amp = (4.0 * math.pi * a) ** (-grid.N / 2.0)
    return data_profile(grid, kind="gaussian", center=center, scale=a, amplitude=amp)


def test_gaussian_to_gaussian():
    g = Grid(2, 16.0, 128)
    a, t = 0.25, 1.0
    f = unit_gaussian(g, a)
    out = heat(Propagator(g), f, t)
    exact = unit_gaussian(g, a + t)
    rel = np.max(np.abs(out.values - exact.values)) / np.max(np.abs(exact.values))
    assert rel <= 1e-6


def test_constants_are_fixed_points():
    g = Grid(1, 2.0, 32)
    f = Field(g, np.full(32, 1.7))
    prop = Propagator(g)
    for t in (0.0, 0.3, 5.0):
        assert np.allclose(heat(prop, f, t).values, 1.7, atol=1e-13)


def test_identity_at_zero_and_errors(rng):
    g = Grid(2, 4.0, 16)
    f = Field(g, rng.standard_normal(g.shape))
    prop = Propagator(g)
    assert heat(prop, f, 0.0) is f
    with pytest.raises(ValueError):
        heat(prop, f, -1.0)
    other = Field(Grid(2, 5.0, 16), f.values)
    with pytest.raises(ValueError):
        heat(prop, other, 1.0)


def test_semigroup_law_and_mass(rng):
    g = Grid(2, 4.0, 32)
    f = Field(g, rng.standard_normal(g.shape))
    prop = Propagator(g)
    two_step = heat(prop, heat(prop, f, 0.3), 0.45)
    one_step = heat(prop, f, 0.75)
    assert np.max(np.abs(two_step.values - one_step.values)) <= 1e-12 * max(
        1.0, lr_norm(f, math.inf)
    )
    assert integral(heat(prop, f, 2.0)) == pytest.approx(integral(f), abs=1e-12)


def test_positivity_preserved(rng):
    g = Grid(2, 6.0, 64)
    f = Field(g, np.abs(rng.standard_normal(g.shape)))
    out = heat(Propagator(g), f, 0.8)
    assert out.values.min() >= -1e-12 * lr_norm(f, math.inf)


def test_contraction_random_fields(rng):
    g = Grid(2, 4.0, 32)
    prop = Propagator(g)
    for _ in range(20):
        f = Field(g, rng.standard_normal(g.shape))
        for q in (1, 2, math.inf):
            for t in (0.01, 0.5, 2.0):
                assert verify_contraction(prop, f, t, q)
    assert verify_contraction(prop, f, 0.0, 2)  # equality at t = 0


def test_smoothing_report_q_equals_r(rng):
    g = Grid(2, 8.0, 64)
    probes = [Field(g, rng.standard_normal(g.shape)) for _ in range(3)]
    rep = estimate_smoothing_constant(g, 2, 2, probes, [0.05, 0.2, 0.8])
    assert rep.c1_hat <= 1.0 + 1e-12
    assert all(r > 0 and math.isfinite(r) for _, r in rep.samples)


def test_smoothing_constant_matches_free_space():
    # q=1 -> r=inf: the free-space constant is (4 pi)^{-N/2}
    g = Grid(2, 16.0, 256)
    probe = unit_gaussian(g, a=0.05)
    tmax = presaturation_limit(g)
    times = np.geomspace(tmax / 8.0, tmax, 8)
    rep = estimate_smoothing_constant(g, 1, math.inf, [probe], times)
    target = (4.0 * math.pi) ** -1.0
    assert rep.c1_hat <= target * (1 + 1e-9)
    assert abs(rep.c1_hat - target) <= 0.05 * target


def test_smoothing_errors(rng):
    g = Grid(1, 8.0, 32)
    f = Field(g, rng.standard_normal(32))
    with pytest.raises(ValueError):
        estimate_smoothing_constant(g, 2, 1, [f], [0.1])
    with pytest.raises(ValueError, match="zero probe"):
        estimate_smoothing_constant(g, 1, 2, [Field(g, np.zeros(32))], [0.1])
    with pytest.raises(ValueError, match="pre-saturation"):
        estimate_smoothing_constant(g, 1, 2, [f], [presaturation_limit(g) * 10])
    with pytest.raises(ValueError):
        estimate_smoothing_constant(g, 1, 2, [f], [0.0])


@pytest.mark.parametrize(
    "N,n,t", [(1, 16, 0.1), (1, 32, 0.02), (2, 16, 0.05), (2, 32, 0.05), (3, 8, 0.2)]
)
def test_oracle_convolve_matches_spectral(rng, N, n, t):
    g = Grid(N, 1.0, n)
    f = Field(g, rng.standard_normal(g.shape))
    direct = oracle_convolve(f, t)
    spectral = heat(Propagator(g), f, t)
    assert np.max(np.abs(direct.values - spectral.values)) <= 1e-10


def test_oracle_convolve_zero_and_point_mass():
    g = Grid(1, 1.0, 64)
    assert np.all(oracle_convolve(Field(g, np.zeros(64)), 0.2).values == 0.0)
    # discrete point mass at the center turns into the sampled kernel
    vals = np.zeros(64)
    center = 32
    vals[center] = 1.0 / g.h
    out = oracle_convolve(Field(g, vals), 0.05)
    kern = periodized_kernel_axis(g, 0.05)
    expected = np.roll(kern, center)
    assert np.max(np.abs(out.values - expected)) <= 1e-12 * np.max(kern)
    with pytest.raises(ValueError):
        oracle_convolve(Field(g, vals), 0.0)


def test_oracle_convolve_on_criteria_grid():
    # rough data on the 64^2 grid the acceptance criteria use, at times where
    # the sampled kernel is resolved (sqrt(t) above the spacing h = 0.25)
    g = Grid(2, 8.0, 64)
    f = data_profile(g, kind="compact_bump", center=(1.0, -2.0), scale=2.0, amplitude=1.0)
    for t in (0.2, 1.0, 5.0):
        direct = oracle_convolve(f, t)
        spectral = heat(Propagator(g), f, t)
        assert np.max(np.abs(direct.values - spectral.values)) <= 1e-12


@pytest.mark.parametrize("shape", [(8, 8), (4, 4, 4)])
def test_axis_products_equal_dense_circulant(rng, shape):
    # one circulant per axis is the dense Kronecker-product sum, axis by axis
    n = shape[0]
    values = rng.standard_normal(shape)
    kerns = [rng.standard_normal(n) for _ in shape]
    diff = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    mat = kerns[0][diff]
    for k in kerns[1:]:
        mat = np.kron(mat, k[diff])
    dense = 0.5 * (mat @ values.ravel()).reshape(shape)
    assert np.allclose(convolve_periodic(values, kerns, 0.5), dense, rtol=0, atol=1e-13)


def test_spectral_laplacian_on_mode():
    g = Grid(1, 2.0, 64)
    x = g.axis()
    k = math.pi / g.L * 3
    f = Field(g, np.sin(k * x))
    lap = spectral_laplacian(f)
    assert np.allclose(lap.values, -(k**2) * f.values, atol=1e-10)
