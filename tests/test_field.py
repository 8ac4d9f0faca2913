import math
import tracemalloc
import warnings

import numpy as np
import pytest

from critex.field import (
    Field,
    Grid,
    boundary_shell_fraction,
    data_profile,
    field_fingerprint,
    integral,
    lr_norm,
    profile_slabs,
    slab_integral,
    write_snapshot,
)

from _oracles import bump_on_full_grid, compact_bump_mass_1d


def unit_gaussian(grid, a=0.5, center=None):
    amp = (4.0 * math.pi * a) ** (-grid.N / 2.0)
    return data_profile(grid, kind="gaussian", center=center, scale=a, amplitude=amp)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 8.0, 64)
    with pytest.raises(ValueError):
        Grid(2, -1.0, 64)
    with pytest.raises(ValueError):
        Grid(2, 8.0, 48)  # not a power of two
    with pytest.raises(ValueError):
        Grid(2, 8.0, 4)  # too small
    g = Grid(2, 8.0, 64)
    assert g.h == 0.25
    assert g.cell_volume == 0.0625
    assert g.axis()[0] == -8.0 and g.axis()[-1] == 8.0 - 0.25


def test_field_rejects_nonfinite():
    g = Grid(1, 1.0, 8)
    with pytest.raises(ValueError):
        Field(g, np.array([0.0, 1.0, np.inf, 0, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        Field(g, np.full(8, np.nan))
    f = Field(g, np.zeros(8))
    with pytest.raises(ValueError):
        f.values[0] = 1.0  # read-only storage


def test_gaussian_mass_and_norms():
    g = Grid(2, 12.0, 128)
    f = unit_gaussian(g, a=1.0)
    assert integral(f) == pytest.approx(1.0, abs=1e-8)
    assert lr_norm(f, 1) == pytest.approx(1.0, abs=1e-8)
    # closed form: ||(4 pi)^-1 exp(-|x|^2/4)||_2 = (8 pi)^(-1/2) in 2-D
    assert lr_norm(f, 2) == pytest.approx((8.0 * math.pi) ** -0.5, rel=1e-10)
    const = Field(g, np.full(g.shape, -3.5))
    assert lr_norm(const, math.inf) == 3.5
    with pytest.raises(ValueError):
        lr_norm(f, 0.5)


def test_integral_symmetry_and_linearity():
    g = Grid(1, 8.0, 512)
    x = g.axis()
    # grid is [-L, L): zero the unpaired leftmost point so the function is odd
    vals = x * np.exp(-(x**2))
    vals[0] = 0.0
    assert abs(integral(Field(g, vals))) < 1e-12
    a = unit_gaussian(g, a=0.25, center=(-1.0,))
    b = unit_gaussian(g, a=0.25, center=(1.0,))
    diff = Field(g, a.values - 0.25 * b.values)
    assert integral(diff) == pytest.approx(0.75, abs=1e-8)


def test_l2_norm_exact_for_trig_mode():
    # rectangle rule integrates periodic trigonometric polynomials exactly
    g = Grid(1, 3.0, 64)
    x = g.axis()
    f = Field(g, np.sin(2.0 * math.pi * x / (2.0 * g.L) * 5))
    exact = math.sqrt(g.L)  # integral of sin^2 over one period = L
    assert lr_norm(f, 2) == pytest.approx(exact, rel=1e-14)


def test_norm_homogeneity_and_bounds(rng):
    g = Grid(2, 3.0, 32)
    f = Field(g, rng.standard_normal(g.shape))
    for r in (1, 2, 3.5, math.inf):
        n1 = lr_norm(Field(g, 4.5 * f.values), r)
        assert n1 == pytest.approx(4.5 * lr_norm(f, r), rel=1e-12)
        # box-volume bound against the sup norm
        vol_pow = (2 * g.L) ** (g.N / r) if r != math.inf else 1.0
        assert lr_norm(f, r) <= vol_pow * lr_norm(f, math.inf) * (1 + 1e-12)
    assert integral(f) <= lr_norm(f, 1) + 1e-12
    pos = Field(g, np.abs(f.values))
    assert integral(pos) == pytest.approx(lr_norm(pos, 1), rel=1e-12)


def test_make_bump_gaussian_and_compact():
    g = Grid(2, 8.0, 128)
    assert integral(unit_gaussian(g, a=0.5)) == pytest.approx(1.0, abs=1e-8)
    zero = data_profile(g, kind="compact_bump", scale=1.0, amplitude=0.0)
    assert np.all(zero.values == 0.0)
    with pytest.raises(ValueError):
        data_profile(g, kind="gaussian", scale=-1.0)
    with pytest.raises(ValueError):
        data_profile(g, kind="nope")


@pytest.mark.parametrize("N, L, n, center, scale", [
    (1, 8.0, 64, (0.3,), 0.2),
    (2, 8.0, 64, (0.5, -1.25), 0.3),
    (3, 6.0, 32, (1.0, -0.5, 0.25), 0.05),
    (3, 8.0, 32, (0.0, 0.0, 0.0), 1.0),
])
def test_gaussian_bump_matches_full_grid_formula(N, L, n, center, scale):
    # the per-axis product against exp of the full |x - c|^2 grid; both round
    # the exponent a = |x - c|^2 / (4 scale), which moves the value by a
    # relative a * eps, so the bound grows with a in the tails
    g = Grid(N, L, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # wide bumps touch the box face
        got = data_profile(g, kind="gaussian", center=center, scale=scale, amplitude=0.7).values
    ax = g.axis()
    r2 = np.zeros(g.shape)
    for a in range(N):
        shp = [1] * N
        shp[a] = n
        r2 = r2 + ((ax - center[a]) ** 2).reshape(shp)
    arg = r2 / (4.0 * scale)
    ref = 0.7 * np.exp(-arg)
    keep = ref > 1e-300
    assert np.count_nonzero(keep) > g.size // 2
    rel = np.abs(got - ref)[keep] / ref[keep]
    assert np.all(rel <= 1e-15 * (1.0 + arg[keep]))
    assert np.all(got[~keep] <= 1e-300)


def test_compact_bump_against_quadrature_oracle():
    g = Grid(1, 4.0, 1024)
    f = data_profile(g, kind="compact_bump", scale=1.0, amplitude=1.0)
    oracle = compact_bump_mass_1d(scale=1.0, amplitude=1.0)
    assert integral(f) == pytest.approx(oracle, rel=1e-8)
    # peak value equals the amplitude at the center
    assert lr_norm(f, math.inf) == pytest.approx(1.0, rel=1e-12)


def test_bump_boundary_warning():
    g = Grid(1, 4.0, 64)
    with pytest.warns(UserWarning, match="boundary"):
        data_profile(g, kind="gaussian", center=(3.5,), scale=1.0, amplitude=1.0)
    with pytest.warns(UserWarning, match="boundary"):
        data_profile(g, kind="compact_bump", center=(0.0,), scale=6.0, amplitude=1.0)


def test_boundary_shell_fraction():
    g = Grid(1, 8.0, 256)
    centered = unit_gaussian(g, a=0.25)
    assert boundary_shell_fraction((g, centered.values)) < 1e-12
    edge = data_profile(g, kind="compact_bump", center=(7.6,), scale=0.3, amplitude=1.0)
    assert boundary_shell_fraction((g, edge.values)) == pytest.approx(1.0)
    assert boundary_shell_fraction((g, np.zeros(256))) == 0.0


def test_boundary_shell_fraction_constant_and_precomputed():
    # constants are exact on the torus; precomputed |values| give the same
    # fraction as |values| taken inside
    g = Grid(2, 1.0, 16)
    for c in (1.0, 0.3, -2.0):
        assert boundary_shell_fraction((g, np.full(g.shape, c))) == 0.0
    f = data_profile(g, kind="compact_bump", center=(0.3, 0.0), scale=0.6, amplitude=1.0)
    frac = boundary_shell_fraction((g, f.values), 0.25, np.abs(f.values))
    assert frac == boundary_shell_fraction((g, f.values), 0.25) > 0.0


def test_face_mask_built_once_per_grid_and_depth():
    g = Grid(2, 8.0, 32)
    mask = g.face_mask(0.125)
    assert g.face_mask(0.125) is mask and not mask.flags.writeable
    ax = np.abs(g.axis())
    near = ax >= 7.0
    assert np.array_equal(mask, near[:, None] | near[None, :])
    assert np.count_nonzero(g.face_mask(0.25)) > np.count_nonzero(mask)


def test_snapshot_roundtrip(tmp_path, rng):
    g = Grid(2, 5.0, 16)
    f = Field(g, rng.standard_normal(g.shape))
    path = tmp_path / "f.field"
    write_snapshot(f, path)
    head = path.read_bytes().split(b"\n", 1)[0]
    assert head.startswith(b"CRITEX-FIELD v1 N=2 L=5 n=16")
    g2 = data_profile(g, path=path)
    assert g2.grid == g
    assert np.array_equal(g2.values, f.values)
    assert field_fingerprint(g2) == field_fingerprint(f)
    # corrupting the payload is detected
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        data_profile(g, path=path)


def test_data_profile_scales_without_a_second_copy(tmp_path):
    # a snapshot read at factor 0.5 is scaled slab by slab into the one
    # array of the Field: no full-size copy besides it is ever held
    g = Grid(3, 4.0, 64)
    f = Field(g, np.random.default_rng(3).standard_normal(g.shape))
    path = tmp_path / "f.field"
    write_snapshot(f, path)
    assert np.array_equal(data_profile(g, path=path).values, f.values)
    tracemalloc.start()
    try:
        half = data_profile(g, path=path, factor=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(half.values, f.scaled(0.5).values)
    assert peak < 1.5 * f.values.nbytes, peak / f.values.nbytes
    assert data_profile(g, kind="none") is None


@pytest.mark.parametrize("N, n", [(1, 16), (2, 16), (3, 8)])
def test_snapshot_and_fingerprint_bytes(tmp_path, rng, N, n):
    # the payload is the row-major little-endian float64 samples, no more
    import hashlib

    g = Grid(N, 3.0, n)
    f = Field(g, rng.standard_normal(g.shape))
    header = f"CRITEX-FIELD v1 N={N} L=3 n={n}\n".encode("ascii")
    payload = f.values.astype("<f8").tobytes(order="C")
    path = tmp_path / "f.field"
    write_snapshot(f, path)
    assert path.read_bytes() == header + payload
    assert field_fingerprint(f) == hashlib.sha256(header + payload).hexdigest()


SLAB_GRIDS = [(N, n) for N in (1, 2, 3) for n in (8, 64, 128)]
SLAB_BUMPS = {
    "gaussian": dict(kind="gaussian", scale=0.3, amplitude=0.7, center=(0.6, -1.1, 0.35)),
    "compact_bump": dict(kind="compact_bump", scale=2.5, amplitude=1.3,
                         center=(-0.4, 0.8, 0.15)),
}


@pytest.mark.parametrize("kind", ["gaussian", "compact_bump", "constant"])
@pytest.mark.parametrize("N, n", SLAB_GRIDS)
def test_profile_slabs_match_the_whole_grid(N, n, kind):
    # slab by slab, every bump takes the products and sums of the whole grid
    g = Grid(N, 4.0, n)
    if kind == "constant":
        args, ref = dict(kind="constant", amplitude=-2.5), np.full(g.shape, -2.5)
    else:
        args = dict(SLAB_BUMPS[kind], center=SLAB_BUMPS[kind]["center"][:N])
        ref = bump_on_full_grid(g, args["kind"], args["center"], args["scale"],
                                args["amplitude"])
    slabs = list(profile_slabs(g, **args))
    assert all(slab.shape == g.slab_shape for slab in slabs)
    assert len(slabs) * g.slab_shape[0] == n
    assert np.array_equal(np.concatenate(slabs), ref)
    assert np.array_equal(data_profile(g, **args).values, ref)
    half = np.concatenate(list(profile_slabs(g, factor=0.5, **args)))
    assert np.array_equal(half, Field(g, ref).scaled(0.5).values)


@pytest.mark.parametrize("N, n", [(N, n) for N in (1, 2, 3) for n in (8, 16, 64, 128, 512)
                                  if N < 3 or n <= 128])
def test_slab_integral_is_numpys_sum(N, n):
    """slab_integral rests on how numpy sums a contiguous float64 array.

    numpy (2.4 here) adds blocks of at most 128 elements in an unrolled loop
    and halves longer ranges recursively, which a pairwise sum of slab sums
    retraces as long as each slab holds 128 * 2^k points.  If a numpy release
    changes that block scheme, the certificate's ``# forcing_mass`` digits
    move and this test fails first.
    """
    g = Grid(N, 4.0, n)
    fields = [np.random.default_rng(n + N).standard_normal(g.shape)]
    for args in SLAB_BUMPS.values():
        fields.append(data_profile(g, **dict(args, center=args["center"][:N])).values)
    for values in fields:
        sums = [np.sum(values[rows]) for rows in g.slab_rows()]
        assert slab_integral(g, sums) == integral(Field(g, values))
