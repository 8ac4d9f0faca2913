"""Independent reference computations used to freeze expected test values.

These deliberately avoid the code paths they check: the ODE oracle uses
scipy's DOP853 on a desingularized formulation, quadrature oracles use
QUADPACK with algebraic endpoint weights, and the Gaussian facts are closed
forms.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp


def ode_blowup_time(u0, c, sigma, p=2.0, big=1e12, rtol=1e-12):
    """Blow-up time of v' = |v|^p + c*t^sigma, v(0) = u0.

    Integrates in tau = t^(sigma+1) when sigma < 0 so the right side is
    continuous at 0, runs to a large threshold, and adds the analytic
    remainder of the dominant v' = v^p tail.
    """
    s1 = sigma + 1.0

    def rhs(tau, y):
        if sigma == 0.0 or tau <= 0.0:
            dtd = 1.0 if sigma == 0.0 else 0.0
        else:
            dtd = (1.0 / s1) * tau ** (1.0 / s1 - 1.0)
        return [abs(y[0]) ** p * dtd + c / s1]

    if sigma >= 0.0:
        def rhs(t, y):  # noqa: F811 - plain-time form is fine here
            return [abs(y[0]) ** p + c * t**sigma if t > 0 else abs(y[0]) ** p]

    def hit(t, y):
        return y[0] - big

    hit.terminal = True
    hit.direction = 1
    sol = solve_ivp(rhs, (0.0, 1e9), [float(u0)], method="DOP853",
                    rtol=rtol, atol=1e-14, events=hit)
    if sol.t_events[0].size != 1:
        raise RuntimeError(f"no blow-up detected: {sol.message}")
    t_event = sol.t_events[0][0]
    if sigma < 0.0:
        t_event = t_event ** (1.0 / s1)
    remainder = big ** (1.0 - p) / (p - 1.0)
    return float(t_event + remainder)


def mean_ode_blowup_time(m0, c, sigma, p, t0, rtol=1e-12):
    """Blow-up time of m' = |m|^p + c*t^sigma from m(t0) = m0 > 0, t0 > 0.

    Integrates y = m^(1-p), which falls to 0 at the blow-up time along the
    smooth y' = -(p-1) (1 + c t^sigma y^(p/(p-1))), and stops on the event
    y = 0, so no threshold or remainder is needed.
    """
    pm1 = p - 1.0

    def rhs(t, y):
        return [-pm1 * (1.0 + c * t**sigma * max(y[0], 0.0) ** (p / pm1))]

    def hit(t, y):
        return y[0]

    hit.terminal = True
    hit.direction = -1
    sol = solve_ivp(rhs, (t0, t0 + 2.0 * m0**-pm1 / pm1), [m0**-pm1], method="DOP853",
                    rtol=rtol, atol=1e-14 * m0**-pm1, events=hit)
    if sol.t_events[0].size != 1:
        raise RuntimeError(f"no blow-up detected: {sol.message}")
    return float(sol.t_events[0][0])


def ode_value(u0, c, sigma, p, t_end, rtol=1e-12):
    """Value at t_end of v' = |v|^p + c*t^sigma, v(0) = u0 (pre-blow-up)."""
    s1 = sigma + 1.0

    def rhs(tau, y):
        if tau <= 0.0:
            dtd = 0.0 if s1 > 1.0 else 1.0
        else:
            dtd = (1.0 / s1) * tau ** (1.0 / s1 - 1.0)
        return [abs(y[0]) ** p * dtd + c / s1]

    if sigma >= 0.0:
        def rhs(t, y):  # noqa: F811
            w = t**sigma if t > 0 else (1.0 if sigma == 0.0 else 0.0)
            return [abs(y[0]) ** p + c * w]
        span = (0.0, t_end)
    else:
        span = (0.0, t_end**s1)
    sol = solve_ivp(rhs, span, [float(u0)], method="DOP853", rtol=rtol, atol=1e-14)
    return float(sol.y[0, -1])


@dataclass(frozen=True)
class MolSolution:
    """What `mol_solution` found: the field at T, or the blow-up time before T."""

    values: np.ndarray | None
    t_star: float | None


def mol_solution(u0, w, params, T, big=1e6, rtol=1e-11):
    """The PDE u' = Lap u + |u|^p + t^sigma w by the method of lines and DOP853.

    The semi-discretisation is the evolver's: Lap is -|xi|^2 on the real
    FFT half-spectrum of u0's grid (the wavenumbers are the only thing taken
    from `src/`).  The whole right-hand side goes to scipy's DOP853, with no
    splitting, no 1F1 and no step control of our own.  For sigma in (-1, 0]
    it integrates in tau = t^(sigma+1), where
    du/dtau = (tau^(-sigma/(sigma+1)) (Lap u + |u|^p) + w)/(sigma+1) is
    continuous at tau = 0; for sigma > 0 it integrates in t.  A run whose
    sup reaches big stops there, and t_star adds the remaining time
    big^(1-p)/(p-1) of the ODE v' = v^p.
    """
    from critex.semigroup import Propagator

    grid = u0.grid
    xi2 = np.asarray(Propagator(grid).xi2)
    shape, axes = grid.shape, tuple(range(grid.N))
    p, sigma = float(params.p), float(params.sigma)
    s1 = sigma + 1.0
    wv = np.zeros(grid.size) if w is None else np.ravel(w.values)

    def diffuse_react(y):
        lap = np.fft.irfftn(-xi2 * np.fft.rfftn(y.reshape(shape)), s=shape, axes=axes)
        return np.ravel(lap) + np.abs(y) ** p

    if sigma <= 0.0:
        def rhs(tau, y):
            return (tau ** (-sigma / s1) * diffuse_react(y) + wv) / s1

        end, to_time = T**s1, (lambda tau: tau ** (1.0 / s1))
    else:
        def rhs(t, y):
            return diffuse_react(y) + t**sigma * wv

        end, to_time = T, (lambda t: t)

    def hit(s, y):
        return np.max(np.abs(y)) - big

    hit.terminal = True
    hit.direction = 1
    y0 = np.ravel(np.asarray(u0.values, dtype=np.float64))
    atol = 1e-3 * rtol * max(float(np.max(np.abs(y0))), float(np.max(np.abs(wv))), 1e-300)
    sol = solve_ivp(rhs, (0.0, end), y0, method="DOP853", rtol=rtol, atol=atol, events=hit)
    if sol.status < 0:
        raise RuntimeError(f"DOP853 failed: {sol.message}")
    if sol.t_events[0].size:
        return MolSolution(None, float(to_time(sol.t_events[0][0]) + big ** (1.0 - p) / (p - 1.0)))
    return MolSolution(sol.y[:, -1].reshape(shape), None)


def beta_quadrature(a, b):
    """B(a, b) by QUADPACK with the algebraic endpoint weight."""
    val, _ = quad(lambda s: 1.0, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0))
    return val


def compact_bump_mass_1d(scale=1.0, amplitude=1.0):
    """Integral of amplitude*exp(1 - 1/(1 - (x/scale)^2)) over the line."""
    val, _ = quad(lambda x: math.exp(1.0 - 1.0 / (1.0 - x * x)), -1.0, 1.0,
                  epsabs=1e-13, epsrel=1e-12, limit=200)
    return amplitude * scale * val


def periodized_kernel_axis(grid, t):
    """1-D periodized heat kernel sampled at the grid displacements.

    K(x) = sum_m (4 pi t)^(-1/2) exp(-(x - 2Lm)^2 / (4t)), truncated once the
    images fall below machine level.  The N-dimensional kernel is the product
    over axes.
    """
    L, n, h = grid.L, grid.n, grid.h
    x = ((h * np.arange(n) + L) % (2.0 * L)) - L
    images = int(math.ceil(math.sqrt(4.0 * t * 40.0) / (2.0 * L))) + 1
    k = np.zeros(n)
    norm = (4.0 * math.pi * t) ** -0.5
    for m in range(-images, images + 1):
        k += norm * np.exp(-((x - 2.0 * L * m) ** 2) / (4.0 * t))
    return k


def convolve_periodic(values, kernel_axes, volume):
    """volume * sum_j prod_a kern_a[(i_a - j_a) mod n] values[j], no FFT.

    The kernel is separable, so the sum is one dense n x n circulant matrix
    applied along each axis in turn: O(n^(N+1)) work.
    """
    n = values.shape[0]
    diff = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    out = values
    for a, kern in enumerate(kernel_axes):
        out = np.moveaxis(np.tensordot(kern[diff], out, axes=([1], [a])), 0, a)
    return volume * out


def oracle_convolve(f, t):
    """Heat evolution of a Field by direct summation against the periodized
    kernel: an FFT-free cross-check of the spectral heat flow (`heat`)."""
    from critex.field import Field

    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    g = f.grid
    k1 = periodized_kernel_axis(g, t)
    return Field(g, convolve_periodic(f.values, [k1] * g.N, g.cell_volume))


def nonlinear_by_propagation(prop, times, p, u0_values, fields, j):
    """int_0^{t_j} e^{(t_j - s)D} |u(s)|^p ds by one propagation per ladder node.

    The same quadrature as the Picard map (midpoint slice below the first
    rung, 4th-order composite rule in log s), summed on the grid: rung j
    costs j + 1 heat applications and no spectral bookkeeping.
    """
    from critex.picard import _log_quad_weights

    t = times[j]
    t0 = times[0]
    half = prop.apply_values(u0_values, 0.5 * t0)
    acc = t0 * prop.apply_values(np.abs(half) ** p, t - 0.5 * t0)
    if j >= 1:
        wts = _log_quad_weights(j, math.log(times[1] / times[0])) * times[: j + 1]
        for i in range(j):
            acc += wts[i] * prop.apply_values(np.abs(fields[i]) ** p, t - times[i])
        acc += wts[j] * np.abs(fields[j]) ** p
    return acc


def strang_trial_by_propagation(stepper, w_values, values, t0, dt):
    """One step-doubling trial of three physical split steps L N L: (full, fine).

    L(a -> b) diffuses by b - a through `Propagator.apply_values` (forward
    and inverse transform) and adds the forcing integral over [a, b] from
    QUADPACK (`forcing_field_quad`), so no 1F1 is evaluated; N is the
    stepper's reaction flow.  The steps use the trial's float times, the
    inner flows of the half steps are not merged, and nothing stays in
    Fourier space.  Non-finite output raises StepOverflow.
    """
    from critex.evolve import StepOverflow

    def linear(v, a, b):
        out = stepper.prop.apply_values(v, b - a)
        if w_values is not None:
            out = out + forcing_field_quad(stepper.prop, w_values, b, stepper.sigma, start=a)
        return out

    def split(v, a, m, b, h):
        react = linear(v, a, m)
        if stepper.nl:
            react = stepper._flow(react, h)
        out = linear(react, m, b)
        if not np.all(np.isfinite(out)):
            raise StepOverflow(f"non-finite values at t = {a}")
        return out

    mid, end = t0 + 0.5 * dt, t0 + dt
    full = split(values, t0, mid, end, dt)
    half = split(values, t0, t0 + 0.25 * dt, mid, 0.5 * dt)
    return full, split(half, mid, t0 + 0.75 * dt, end, 0.5 * dt)


def reaction_rk4_by_expression(kind, v, dt, p, c=None, t0=0.0, sigma=0.0, nl=1.0):
    """One RK4 reaction step written as whole-array expressions.

    kind is "plain" (v' = nl|v|^p), "forced" (plus s^sigma c) or "tau" (the
    first step from s = 0 for sigma < 0, in tau = s^(sigma+1)).
    """
    def weight(s):
        return s**sigma if s > 0.0 else (1.0 if sigma == 0.0 else 0.0)

    if kind == "tau":
        a = 1.0 / (sigma + 1.0)
        h = dt ** (sigma + 1.0)
        g2 = a * (0.5 * h) ** (a - 1.0)
        g4 = a * h ** (a - 1.0)
        ac = a * c
        k1 = ac
        k2 = nl * g2 * np.abs(v + (0.5 * h) * k1) ** p + ac
        k3 = nl * g2 * np.abs(v + (0.5 * h) * k2) ** p + ac
        k4 = nl * g4 * np.abs(v + h * k3) ** p + ac
        return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if kind == "plain":
        f1 = f2 = f4 = 0.0
        c = 0.0
        rate = lambda x, fc: nl * np.abs(x) ** p  # noqa: E731
    else:
        f1, f2, f4 = weight(t0), weight(t0 + 0.5 * dt), weight(t0 + dt)
        rate = lambda x, fc: nl * np.abs(x) ** p + fc  # noqa: E731
    k1 = rate(v, f1 * c)
    k2 = rate(v + (0.5 * dt) * k1, f2 * c)
    k3 = rate(v + (0.5 * dt) * k2, f2 * c)
    k4 = rate(v + dt * k3, f4 * c)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def smoothing_ratio_by_propagation(prop, probes, times, r_src, r_dst):
    """sup over probes and times of the q -> r smoothing ratio, one heat
    application (forward and inverse transform) per probe and time."""
    from critex.field import lr_norm

    exponent = (prop.grid.N / 2.0) * (
        1.0 / r_src - (0.0 if r_dst == math.inf else 1.0 / r_dst)
    )
    best = 0.0
    for probe in probes:
        nsrc = lr_norm(probe, r_src)
        if nsrc == 0.0:
            continue
        for t in times:
            val = lr_norm(heat(prop, probe, float(t)), r_dst)
            best = max(best, val * float(t) ** exponent / nsrc)
    return best


def gaussian_smoothing_sup(N, r, q, dps=30):
    """sup over the width of t^{(N/2)(1/r - 1/q)} ||e^{tD} g||_q / ||g||_r on R^N.

    g = exp(-|x|^2/(4a)) heats to (a/(a+t))^{N/2} exp(-|x|^2/(4(a+t))), and
    the q-norm of exp(-x^2/(4b)) on the line is its mpmath quadrature at
    b = 1 times b^(1/(2q)); each norm is the N-th power of that.  The ratio
    depends on s = t/a alone and its log is concave in log s, so it is
    maximised by golden-section search over log s in [-40, 40].  At r = 1 the
    sup is the limit s -> inf, at r = q the limit s -> 0: the search ends at
    the bracket's edge, within e^-40 of it.
    """
    import mpmath

    with mpmath.workdps(dps):
        r, q = mpmath.mpf(r), mpmath.mpf(q)

        def unit_norm(power):
            if power == mpmath.inf:
                return mpmath.mpf(1)
            mass = mpmath.quad(lambda x: mpmath.exp(-power * x**2 / 4),
                               [-mpmath.inf, 0, mpmath.inf])
            return mass ** (1 / power)

        const = mpmath.log(unit_norm(q)) - mpmath.log(unit_norm(r))
        alpha, gamma = 1 / r - 1 / q, 1 - 1 / q

        def log_ratio(y):  # one dimension, a = 1, t = s = e^y
            return alpha * y / 2 - gamma * mpmath.log1p(mpmath.exp(y)) / 2 + const

        lo, hi = mpmath.mpf(-40), mpmath.mpf(40)
        phi = (mpmath.sqrt(5) - 1) / 2
        x1, x2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
        f1, f2 = log_ratio(x1), log_ratio(x2)
        for _ in range(200):
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + phi * (hi - lo)
                f2 = log_ratio(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - phi * (hi - lo)
                f1 = log_ratio(x1)
        return float(mpmath.exp(N * max(f1, f2)))


def forcing_multiplier_quad(t, xi2, sigma):
    """int_0^t s^sigma exp(-(t - s) xi2) ds by mpmath quadrature.

    The interval is split where the exponential has decayed by e^-1, e^-10
    and e^-40 from its peak at s = t, so the boundary layer of width 1/xi2
    is resolved however large t xi2 is.
    """
    import mpmath

    with mpmath.workdps(30):
        t, xi2, sigma = mpmath.mpf(t), mpmath.mpf(xi2), mpmath.mpf(sigma)
        cuts = [t - c / xi2 for c in (40, 10, 1) if xi2 > 0 and c / xi2 < t]
        pts = [mpmath.mpf(0)] + cuts + [t]
        return float(mpmath.quad(lambda s: s**sigma * mpmath.exp(-(t - s) * xi2), pts))


def forcing_field_quad(prop, w_values, t, sigma, start=0.0):
    """int_start^t s^sigma e^{(t-s)D} w ds with one QUADPACK integral per |xi|^2.

    Each distinct |xi|^2 = a gets int_0^{t-start} (t - r)^sigma e^{-a r} dr,
    with the algebraic endpoint weight when start = 0, independent of any
    closed form.
    """
    xi2 = prop.xi2
    levels, where = np.unique(xi2, return_inverse=True)

    def one(a):
        if start == 0.0:
            return quad(lambda r: math.exp(-a * r), 0.0, t, weight="alg", wvar=(0.0, sigma),
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return quad(lambda r: (t - r) ** sigma * math.exp(-a * r), 0.0, t - start,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]

    mult = np.array([one(a) for a in levels])
    spec = np.fft.rfftn(w_values) * mult[where].reshape(xi2.shape)
    return np.fft.irfftn(spec, s=w_values.shape, axes=tuple(range(w_values.ndim)))


def certificate_space_factors_on_grid(w_values, grid, scale, pp, xi, mu_floor):
    """Space factors of the certificate by full-grid sampling.

    mu = xi(|x|^2/scale)^{2p'} is sampled at every grid point, its
    Laplacian is taken spectrally (``Propagator.laplacian_values``) and the
    three integrals are rectangle-rule sums over the grid: int mu,
    int w mu and int mu^{-1/(p-1)} |Lap mu|^{p'} (zero where mu <= mu_floor).
    """
    from critex.semigroup import Propagator

    p = pp / (pp - 1.0)
    mu = xi(grid_r2(grid) / scale) ** (2.0 * pp)
    lap = Propagator(grid).laplacian_values(mu)
    quot = np.zeros_like(mu)
    mask = mu > mu_floor
    quot[mask] = mu[mask] ** (-1.0 / (p - 1.0)) * np.abs(lap[mask]) ** pp
    dv = grid.cell_volume
    return (dv * float(np.sum(mu)), dv * float(np.sum(w_values * mu)),
            dv * float(np.sum(quot)))


def shells_by_full_index(grid, values):
    """Shells of equal |x|^2 from the shell index of every grid point.

    Builds the grid-sized index m = i^2 + j^2 + ... (integer offsets from
    the origin, flattened in C order) and returns the occupied shells, the
    points in each and ``values`` summed over each by ``np.bincount``.
    """
    k2 = (np.arange(grid.n) - grid.n // 2) ** 2
    m = k2
    for _ in range(grid.N - 1):
        m = np.add.outer(m, k2)
    m = m.ravel()
    count = np.bincount(m)
    occupied = np.flatnonzero(count)
    sums = np.bincount(m, weights=np.ravel(values))
    return occupied, count[occupied], sums[occupied]


def field_slabs(f):
    """The slabs of a Field held whole, as ``field.profile_slabs`` would stream them."""
    return [f.values[rows] for rows in f.grid.slab_rows()]


def certify(w, params, cutoffs, T_ladder, R=None):
    """``blowup_certificate`` for a forcing held as a Field.

    Its shell sums come from the full shell index (``shells_by_full_index``)
    and its mass from ``field.integral``, both over the whole array.
    """
    from critex.certificate import Shells, blowup_certificate
    from critex.field import integral

    shells = Shells.of(w.grid)
    w_shells = shells_by_full_index(w.grid, w.values)[2]
    return blowup_certificate(shells, w_shells, integral(w), params, cutoffs, T_ladder, R)


def heat(prop, f, t):
    """e^{tD} f for a Field: forward transform, damping multiplier, inverse.

    t = 0 is the identity; a negative t or a field on another grid raises.
    """
    from critex.field import Field

    if f.grid != prop.grid:
        raise ValueError("field grid does not match propagator grid")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return f
    return Field(prop.grid, prop.from_spectrum(prop.to_spectrum(f.values) * prop.multiplier(t)))


def bump_on_full_grid(grid, kind, center, scale, amplitude):
    """A gaussian or compact_bump profile built on the whole grid at once.

    The gaussian is the outer product of the N 1-D exponentials, the first
    one times the amplitude; the compact bump is evaluated on |x - c|^2
    summed into a zero array axis by axis.  Slab by slab, the same products
    and sums must give the same bits.
    """
    ax = grid.axis()
    if kind == "gaussian":
        vals = amplitude * np.exp(-((ax - center[0]) ** 2) / (4.0 * scale))
        for c in center[1:]:
            vals = np.multiply.outer(vals, np.exp(-((ax - c) ** 2) / (4.0 * scale)))
        return vals
    r2 = np.zeros(grid.shape)
    for a in range(grid.N):
        shp = [1] * grid.N
        shp[a] = grid.n
        r2 = r2 + ((ax - center[a]) ** 2).reshape(shp)
    s = r2 / (scale * scale)
    vals = np.zeros(grid.shape)
    inside = s < 1.0
    vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s[inside]))
    return vals


def grid_r2(grid):
    """|x|^2 sampled on every grid point."""
    ax2 = grid.axis() ** 2
    total = np.zeros(grid.shape)
    for a in range(grid.N):
        shp = [1] * grid.N
        shp[a] = grid.n
        total = total + ax2.reshape(shp)
    return total


def step(u, t, dt, params, w=None, nonlinear=True):
    """One split step L N L of length dt from time t: a trial's full step."""
    from critex.evolve import Stepper
    from critex.field import Field

    if dt <= 0:
        raise ValueError("dt must be positive")
    stepper = Stepper(u.grid, params, w, nonlinear)
    t, dt = float(t), float(dt)
    mid = t + 0.5 * dt
    spec = stepper.step_values(stepper.prop.to_spectrum(u.values), (t, mid), dt,
                               (mid, t + dt))
    return Field(u.grid, stepper.prop.from_spectrum(spec))


def weighted_norm_series(traj, beta, q):
    """The series (t, t^beta * ||u(t)||_q) of a trajectory and its running sup.

    Reuses the recorded q-norms when q is the recorded index; otherwise
    recomputes them from the snapshots (error if there are none).
    """
    from critex.field import lr_norm

    if q == traj.q:
        times, base = traj.times, traj.lq
    else:
        if not traj.snapshots:
            raise ValueError(f"q = {q} was not recorded and no snapshots are available")
        times = np.array([ts for ts, _ in traj.snapshots])
        base = np.array([lr_norm(f, q) for _, f in traj.snapshots])
    weighted = np.where(times > 0, times**beta * base, base if beta == 0.0 else 0.0)
    return times, weighted, np.maximum.accumulate(weighted)


def spectral_laplacian(f):
    """Laplacian of a field by Fourier differentiation."""
    from critex.field import Field
    from critex.semigroup import Propagator

    return Field(f.grid, Propagator(f.grid).laplacian_values(f.values))


def verify_contraction(prop, f, t, q):
    """True iff the q-norm did not grow beyond roundoff under propagation."""
    from critex.field import lr_norm

    return lr_norm(heat(prop, f, t), q) <= lr_norm(f, q) * (1.0 + 1e-12)


def presaturation_limit(grid):
    """Largest time for which torus smoothing still mimics free space.

    Beyond (L/8)^2 the kernel wraps around the box and the q -> r decay
    ratios drift away from their free-space behavior.
    """
    return (grid.L / 8.0) ** 2


@dataclass(frozen=True)
class SmoothingReport:
    """Observed q -> r smoothing ratios and their sup (the empirical constant).

    Each sample is (t, ratio) with
    ratio = ||e^{tD} phi||_r * t^{(N/2)(1/q - 1/r)} / ||phi||_q.
    """

    q: float
    r: float
    samples: tuple
    c1_hat: float


def estimate_smoothing_constant(grid, q, r, probes, times):
    """Measure the smoothing ratio over probes and pre-saturation times."""
    from critex.field import lr_norm
    from critex.semigroup import Propagator

    if not (1 <= q <= r):
        raise ValueError(f"need 1 <= q <= r, got q={q}, r={r}")
    tmax = presaturation_limit(grid)
    times = [float(t) for t in times]
    if any(t <= 0 for t in times):
        raise ValueError("times must be positive")
    if any(t > tmax * (1 + 1e-12) for t in times):
        raise ValueError(
            f"times beyond the pre-saturation range t <= (L/8)^2 = {tmax:.6g}"
        )
    prop = Propagator(grid)
    exponent = (grid.N / 2.0) * (1.0 / q - (0.0 if r == math.inf else 1.0 / r))
    samples = []
    for probe in probes:
        nq = lr_norm(probe, q)
        if nq == 0.0:
            raise ValueError("zero probe")
        for t in times:
            ratio = lr_norm(heat(prop, probe, t), r) * t**exponent / nq
            samples.append((t, ratio))
    c1_hat = max(s[1] for s in samples)
    return SmoothingReport(q=float(q), r=float(r), samples=tuple(samples), c1_hat=c1_hat)


# Frozen reference values (computed with the oracles above at build time and
# cross-checked against an independent linearization; see the tests that
# assert agreement).
BLOWUP_TIME_FORCED_SQRT = 0.9107476780  # v' = v^2 + t^(-1/2), v(0) = 0
