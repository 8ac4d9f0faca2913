"""Rescaled test-function functionals certifying blow-up by scaling.

A hypothetical global solution forces the inequality

    (time integral of t^sigma eta(t/T)^{p'}) * (space integral of w mu)
        <= C_young * (I1(T) + I2(T)),

with mu a rescaled spatial cutoff and I1, I2 the dissipation functionals of
the test function.  All ingredients are computable: the time factors are 1-D
adaptive quadratures with the singular weight absorbed into the rule, the
space factors are grid quadratures with a spectral Laplacian.  Tracking the
implied upper bound on the forcing mass along a T-ladder turns the scaling
argument into a numerical verdict: if the bound decays, a positive-mass
forcing is contradicted and no global solution can exist.

The functionals never consume a simulated solution; only the inequality
structure matters.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .field import Field, integral
from .semigroup import Propagator

# Quotient guard: where mu is this small the spectrally computed Laplacian is
# dominated by truncation/roundoff noise that the negative mu power then
# amplifies without bound.  The discarded region is fixed in the rescaled
# coordinate |x|^2/T, so the T-scaling of the integrals is unaffected and the
# value changes at the 0.1% level.
_MU_FLOOR = 1e-6


def _vectorized(fn):
    def wrapper(s):
        arr = np.asarray(s, dtype=np.float64)
        out = fn(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    return wrapper


def _smoothstep_pair(sharpness=1.0):
    """xi: 1 on [0,1], 0 on [2,inf), smooth exp(-1/s) transition on (1,2)."""

    @_vectorized
    def xi(r):
        out = np.zeros_like(r)
        out[r <= 1.0] = 1.0
        mid = (r > 1.0) & (r < 2.0)
        rm = r[mid]
        a = np.exp(-sharpness / (2.0 - rm))
        b = np.exp(-sharpness / (rm - 1.0))
        out[mid] = a / (a + b)
        return out

    return xi


def _eta_bump(power=1.0):
    """eta = exp(-1/(s(1-s))^power) on (0,1), with its derivative."""

    @_vectorized
    def eta(s):
        out = np.zeros_like(s)
        inside = (s > 0.0) & (s < 1.0)
        g = s[inside] * (1.0 - s[inside])
        with np.errstate(divide="ignore"):
            out[inside] = np.exp(-1.0 / g**power)
        return out

    @_vectorized
    def eta_d(s):
        out = np.zeros_like(s)
        inside = (s > 0.0) & (s < 1.0)
        si = s[inside]
        g = si * (1.0 - si)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            val = np.exp(-1.0 / g**power)
            raw = val * power * (1.0 - 2.0 * si) / g ** (power + 1.0)
        out[inside] = np.where(val > 0.0, raw, 0.0)
        return out

    return eta, eta_d


@dataclass(frozen=True)
class Cutoffs:
    """A spatial shoulder profile xi and a temporal bump eta (with eta')."""

    xi: object
    eta: object
    eta_d: object
    label: str


def default_cutoffs():
    eta, eta_d = _eta_bump(power=1.0)
    return Cutoffs(xi=_smoothstep_pair(1.0), eta=eta, eta_d=eta_d, label="default")


def steep_cutoffs():
    """A second valid pair; verdicts must not depend on the choice."""
    eta, eta_d = _eta_bump(power=2.0)
    return Cutoffs(xi=_smoothstep_pair(2.0), eta=eta, eta_d=eta_d, label="steep")


def _pp(params):
    p = float(params.p)
    return p / (p - 1.0)


def _quad(fn, weight=None, wvar=None):
    val, err = quad(fn, 0.0, 1.0, weight=weight, wvar=wvar, epsabs=1e-13,
                    epsrel=1e-11, limit=200)
    return val


def time_factor_forcing(params, cutoffs):
    """int_0^1 s^sigma eta(s)^{p'} ds with the algebraic weight in the rule."""
    pp = _pp(params)
    sigma = float(params.sigma)
    if sigma == 0.0:
        return _quad(lambda s: cutoffs.eta(s) ** pp)
    return _quad(lambda s: cutoffs.eta(s) ** pp, weight="alg", wvar=(sigma, 0.0))


def time_factor_plain(params, cutoffs):
    """int_0^1 eta(s)^{p'} ds."""
    pp = _pp(params)
    return _quad(lambda s: cutoffs.eta(s) ** pp)


def time_factor_dissipation(params, cutoffs):
    """int_0^1 (p')^{p'} |eta'(s)|^{p'} ds.

    This is the exact reduction of int eta_T^{-1/(p-1)} |eta_T'|^{p'} dt to
    unit scale: with eta_T = eta(t/T)^{p'} the eta powers cancel identically,
    leaving only the chain-rule constant and |eta'|^{p'} (valid since eta > 0
    inside its support and both endpoint limits vanish).
    """
    pp = _pp(params)
    return pp**pp * _quad(lambda s: np.abs(cutoffs.eta_d(s)) ** pp)


@dataclass(frozen=True)
class PhiFactors:
    """Factored space-time test function: phi(t, x) = time_profile(t) * mu(x)."""

    T: float
    time_profile: object
    mu: Field
    mu_integral: float


def build_phi(T, params, cutoffs, grid):
    """Sample the rescaled test-function factors for horizon T.

    The spatial factor xi(|x|^2/T)^{2p'} is supported in |x| <= sqrt(2T), so
    the box must satisfy L^2 >= 2T.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if 2.0 * T > grid.L**2 * (1.0 + 1e-12):
        raise ValueError(
            f"box too small for T = {T}: need L^2 >= 2T, have L^2 = {grid.L**2}"
        )
    pp = _pp(params)
    mu = Field(grid, cutoffs.xi(grid.r2 / T) ** (2.0 * pp))

    def time_profile(t):
        return cutoffs.eta(np.asarray(t) / T) ** pp

    return PhiFactors(T=float(T), time_profile=time_profile, mu=mu,
                      mu_integral=integral(mu))


def build_mu_fixed(R, params, cutoffs, grid):
    """Spatial factor xi(|x|^2/R^2)^{2p'} at a T-independent scale R."""
    if R <= 0:
        raise ValueError("R must be positive")
    if 2.0 * R**2 > grid.L**2 * (1.0 + 1e-12):
        raise ValueError(
            f"box too small for R = {R}: need L^2 >= 2R^2, have L^2 = {grid.L**2}"
        )
    pp = _pp(params)
    return Field(grid, cutoffs.xi(grid.r2 / R**2) ** (2.0 * pp))


def forcing_space_factor(w, mu):
    return float(mu.grid.cell_volume * np.sum(w.profile.values * mu.values))


def forcing_functional(w, T, params, cutoffs):
    """int_0^T int t^sigma w(x) phi_T dx dt, in factored form."""
    phi = build_phi(T, params, cutoffs, w.profile.grid)
    sigma = float(params.sigma)
    return T ** (sigma + 1.0) * time_factor_forcing(params, cutoffs) * \
        forcing_space_factor(w, phi.mu)


def _dissipation_space_integral(mu, params, prop=None):
    """int mu^{-1/(p-1)} |Lap mu|^{p'} dx with the quotient zeroed off-support.

    The exponent structure keeps the true quotient bounded; the floor guards
    against spectral-differentiation roundoff masquerading as signal where mu
    underflows.
    """
    p = float(params.p)
    pp = _pp(params)
    prop = prop or Propagator(mu.grid)
    lap = prop.laplacian_values(mu.values)
    vals = mu.values
    quot = np.zeros_like(vals)
    mask = vals > _MU_FLOOR
    quot[mask] = vals[mask] ** (-1.0 / (p - 1.0)) * np.abs(lap[mask]) ** pp
    if not np.all(np.isfinite(quot)):
        raise FloatingPointError("non-finite dissipation quotient")
    return float(mu.grid.cell_volume * np.sum(quot))


def dissipation_functionals(T, params, cutoffs, grid):
    """The two test-function dissipation integrals I1(T), I2(T)."""
    phi = build_phi(T, params, cutoffs, grid)
    pp = _pp(params)
    c_plain = time_factor_plain(params, cutoffs)
    if c_plain <= 0.0:
        raise ValueError("degenerate cutoff: eta integrates to zero")
    i1 = (T * c_plain) * _dissipation_space_integral(phi.mu, params)
    i2 = (T ** (1.0 - pp) * time_factor_dissipation(params, cutoffs)) * phi.mu_integral
    return i1, i2


def young_constant(params):
    """C with ab <= a^p/2 + C b^{p'}, used to absorb the solution terms."""
    p = float(params.p)
    return ((p - 1.0) / p) * (p / 2.0) ** (-1.0 / (p - 1.0))


def _fit_slope(T, y):
    T = np.asarray(T, dtype=float)
    y = np.asarray(y, dtype=float)
    good = y > 0
    if np.count_nonzero(good) < 2:
        return math.nan
    return float(np.polyfit(np.log(T[good]), np.log(y[good]), 1)[0])


@dataclass
class CertificateReport:
    """Forcing and dissipation functionals along a T-ladder, with verdict."""

    mode: str  # "rescaled-space" (sigma < 0) or "fixed-space" (sigma > 0)
    cutoff_label: str
    R: float | None
    mass: float
    T_ladder: np.ndarray
    forcing: np.ndarray
    I1: np.ndarray
    I2: np.ndarray
    bound: np.ndarray
    contradiction_ratio: np.ndarray
    threshold_ok: np.ndarray
    contradiction_at: np.ndarray
    slopes: dict
    expected_slopes: dict
    verdict: str

    def csv(self):
        out = io.StringIO()
        out.write("T,forcing,I1,I2,bound,verdict\n")
        for i, T in enumerate(self.T_ladder):
            flag = "CONTRADICTION" if self.contradiction_at[i] else "ok"
            out.write(
                f"{T:.17g},{self.forcing[i]:.17g},{self.I1[i]:.17g},"
                f"{self.I2[i]:.17g},{self.bound[i]:.17g},{flag}\n"
            )
        out.write(f"# verdict,{self.verdict}\n")
        out.write(f"# mode,{self.mode}\n")
        out.write(f"# cutoffs,{self.cutoff_label}\n")
        out.write(f"# forcing_mass,{self.mass:.17g}\n")
        for key in sorted(self.slopes):
            out.write(
                f"# slope,{key},{self.slopes[key]:.17g},"
                f"expected,{self.expected_slopes[key]:.17g}\n"
            )
        return out.getvalue()


def expected_slopes(params):
    N = params.N
    p = float(params.p)
    sigma = float(params.sigma)
    pp = p / (p - 1.0)
    return {
        "forcing": sigma + 1.0,
        "I1": 1.0 + N / 2.0 - pp,
        "I2": 1.0 + N / 2.0 - pp,
        "bound": N / 2.0 - sigma - pp,
    }


def blowup_certificate(w, params, cutoffs, T_ladder, R=None):
    """Evaluate the scaling certificate for forcing w over a ladder of T.

    For sigma > 0 the spatial cutoff is held at a fixed scale R (default L/2)
    while T grows; otherwise the cutoff rescales with T.  The verdict is
    CONTRADICTION when the fitted T-slope of the implied mass bound is
    negative and the forcing mass is positive, matching the sign of
    N/2 - sigma - p/(p-1).
    """
    if R is not None and not (R > 0):
        raise ValueError(f"R must be positive, got {R}")
    grid = w.profile.grid
    sigma = float(params.sigma)
    pp = _pp(params)
    T_ladder = np.sort(np.asarray(T_ladder, dtype=float))
    c_forcing = time_factor_forcing(params, cutoffs)
    c_plain = time_factor_plain(params, cutoffs)
    if c_plain <= 0.0 or c_forcing <= 0.0:
        raise ValueError("degenerate cutoff: eta integrates to zero")
    c_diss = time_factor_dissipation(params, cutoffs)
    cy = young_constant(params)
    prop = Propagator(grid)

    mode = "fixed-space" if sigma > 0 else "rescaled-space"
    if mode == "fixed-space":
        R = grid.L / 2.0 if R is None else float(R)
        mu = build_mu_fixed(R, params, cutoffs, grid)
        space_quot = _dissipation_space_integral(mu, params, prop)
        mu_int = integral(mu)
        space_forcing = forcing_space_factor(w, mu)
    else:
        R = None

    forcing = np.empty_like(T_ladder)
    i1 = np.empty_like(T_ladder)
    i2 = np.empty_like(T_ladder)
    space_factors = np.empty_like(T_ladder)
    for idx, T in enumerate(T_ladder):
        if mode == "rescaled-space":
            phi = build_phi(T, params, cutoffs, grid)
            space_quot = _dissipation_space_integral(phi.mu, params, prop)
            mu_int = phi.mu_integral
            space_forcing = forcing_space_factor(w, phi.mu)
        time_forcing = T ** (sigma + 1.0) * c_forcing
        forcing[idx] = time_forcing * space_forcing
        i1[idx] = (T * c_plain) * space_quot
        i2[idx] = (T ** (1.0 - pp) * c_diss) * mu_int
        space_factors[idx] = space_forcing

    time_int = T_ladder ** (sigma + 1.0) * c_forcing
    bound = 2.0 * cy * (i1 + i2) / time_int
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(forcing != 0.0, (i1 + i2) / forcing, math.inf)
    threshold_ok = space_factors >= 0.5 * w.mass
    contradiction_at = threshold_ok & (bound < w.mass) & (w.mass > 0)

    slopes = {
        "forcing": _fit_slope(T_ladder, forcing),
        "I1": _fit_slope(T_ladder, i1),
        "I2": _fit_slope(T_ladder, i2),
        "bound": _fit_slope(T_ladder, bound),
    }
    if w.mass > 0 and slopes["bound"] < 0:
        verdict = "CONTRADICTION"
    elif w.mass <= 0:
        verdict = "INAPPLICABLE"
    else:
        verdict = "NO_CONTRADICTION"

    return CertificateReport(
        mode=mode,
        cutoff_label=cutoffs.label,
        R=R,
        mass=w.mass,
        T_ladder=T_ladder,
        forcing=forcing,
        I1=i1,
        I2=i2,
        bound=bound,
        contradiction_ratio=ratio,
        threshold_ok=threshold_ok,
        contradiction_at=contradiction_at,
        slopes=slopes,
        expected_slopes=expected_slopes(params),
        verdict=verdict,
    )
