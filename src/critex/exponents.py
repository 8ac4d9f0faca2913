"""Exact parameter algebra for the forced semilinear heat equation.

Everything here is computed with ``fractions.Fraction``.  Every finite float
is a rational number, so converting inputs to fractions loses nothing, and
the algebraic identities between the derived exponents then hold exactly
instead of merely to rounding error.  Callers that want exact answers for
values like 5/3 should pass ``Fraction`` (or a string such as ``"5/3"``)
rather than a float.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

INF = math.inf


def as_fraction(value, name="value"):
    """Coerce ints, floats, strings and rationals to an exact Fraction."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        return Fraction(value)
    if isinstance(value, (Rational, int, str)):
        return Fraction(value)
    raise TypeError(f"{name} must be a real number, got {type(value).__name__}")


@dataclass(frozen=True)
class Params:
    """Problem parameters (N, p, sigma) of du/dt = Lap(u) + |u|^p + t^sigma w(x).

    Requires N >= 1, p > 1 and sigma > -1.  The analytical results cover
    N >= 2 and sigma != 0; other admissible values are accepted for baseline
    and diagnostic runs and are reported as outside that scope.
    """

    N: int
    p: Fraction
    sigma: Fraction

    def __post_init__(self):
        if not isinstance(self.N, int) or isinstance(self.N, bool):
            raise TypeError("N must be an integer")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        object.__setattr__(self, "p", as_fraction(self.p, "p"))
        object.__setattr__(self, "sigma", as_fraction(self.sigma, "sigma"))
        if self.p <= 1:
            raise ValueError(f"p must be > 1, got {self.p}")
        if self.sigma <= -1:
            raise ValueError(f"sigma must be > -1, got {self.sigma}")

    @property
    def in_classification_scope(self):
        return self.N >= 2 and self.sigma != 0


class Regime(enum.Enum):
    """Predicted large-time behavior for a parameter choice."""

    SUBCRITICAL_BLOWUP = "SubcriticalBlowUp"
    SUPERCRITICAL_GLOBAL = "SupercriticalGlobal"
    FORCED_BLOWUP = "ForcedBlowUp"


@dataclass(frozen=True)
class DerivedExponents:
    """All exponents derived from (N, p, sigma).

    fujita        critical power 1 + 2/N of the unforced problem
    critical      forcing-dependent critical power; math.inf when every p > 1
                  is in the blow-up range
    data_index    Lebesgue exponent d = N(p-1)/2 for the initial data
    forcing_index Lebesgue exponent k = d / (p(sigma+1) - sigma) for w
    q_window      open interval (q_lo, q_hi) of admissible q, or None when
                  the window is empty
    q_default     midpoint of the window in 1/q coordinates (None if empty)
    beta          weighted-norm decay rate 1/(p-1) - N/(2 q_default)
    """

    params: Params
    fujita: Fraction
    critical: object  # Fraction or math.inf
    data_index: Fraction
    forcing_index: Fraction
    q_window: tuple | None
    q_default: Fraction | None
    beta: Fraction | None


def critical_exponent(N, sigma):
    """Critical power separating forced blow-up from possible global existence.

    (N - 2*sigma) / (N - 2 - 2*sigma) when that denominator is positive and
    sigma <= 0; +inf for sigma > 0 (and when the denominator is nonpositive,
    where the blow-up range already covers all p > 1).
    """
    sigma = as_fraction(sigma, "sigma")
    if sigma > 0:
        return INF
    denom = Fraction(N - 2) - 2 * sigma
    if denom <= 0:
        return INF
    return (Fraction(N) - 2 * sigma) / denom


def beta_rate(params, q):
    """Decay rate 1/(p-1) - N/(2q) of the t^beta weighted q-norm."""
    q = as_fraction(q, "q")
    return 1 / (params.p - 1) - Fraction(params.N) / (2 * q)


def _inv_q_window(params):
    """Admissibility window for 1/q: (lo, hi), possibly empty (lo >= hi)."""
    N, p, sigma = Fraction(params.N), params.p, params.sigma
    lo = Fraction(2, 1) / N * max(1 / (p * (p - 1)), sigma + 1 / (p - 1))
    hi = min(2 / (N * (p - 1)), 1 / p)
    return lo, hi


def derive(params):
    """Compute every derived exponent for valid params.

    The q-window is the open interval of q for which the weighted-norm
    contraction argument closes; it is empty exactly when the window
    discriminant is nonnegative.
    """
    if not isinstance(params, Params):
        params = Params(*params)
    N, p, sigma = params.N, params.p, params.sigma
    fujita = 1 + Fraction(2, N)
    critical = critical_exponent(N, sigma)
    d = Fraction(N) * (p - 1) / 2
    k = d / (p * (sigma + 1) - sigma)
    lo, hi = _inv_q_window(params)
    if lo < hi:
        q_window = (1 / hi, 1 / lo)
        q_default = 2 / (lo + hi)
        beta = beta_rate(params, q_default)
    else:
        q_window = None
        q_default = None
        beta = None
    return DerivedExponents(params, fujita, critical, d, k, q_window, q_default, beta)


def classify_regime(params):
    """Map (N, p, sigma) to its predicted regime; sigma = 0 is out of scope."""
    if params.sigma == 0:
        raise ValueError(
            "sigma = 0 is outside the classification scope; "
            "only sign-definite sigma separates the regimes"
        )
    if params.sigma > 0:
        return Regime.FORCED_BLOWUP
    crit = critical_exponent(params.N, params.sigma)
    if crit is INF or params.p < crit:
        return Regime.SUBCRITICAL_BLOWUP
    return Regime.SUPERCRITICAL_GLOBAL


def q_window_discriminant(params):
    """Value of 2*sigma*p^2 - (N + 2*sigma - 2)*p + N, exactly.

    Negative iff the q-window is nonempty; guaranteed negative whenever
    sigma in (-1, 0) and p is at or above the critical exponent.
    """
    N, p, sigma = Fraction(params.N), params.p, params.sigma
    return 2 * sigma * p * p - (N + 2 * sigma - 2) * p + N


@dataclass(frozen=True)
class IdentityReport:
    """Exact residuals of the three scaling identities at a given q.

    Each residual must be zero:
      free:      beta - (N/2)(1/d - 1/q)
      nonlinear: beta(1-p) + 1 - (N/(2q))(p-1)
      forcing:   beta - (N/2)(1/k - 1/q) + sigma + 1
    beta_positive and beta_p_below_one are the admissibility side conditions.
    """

    q: Fraction
    beta: Fraction
    residual_free: Fraction
    residual_nonlinear: Fraction
    residual_forcing: Fraction
    beta_positive: bool
    beta_p_below_one: bool
    q_above_p: bool

    @property
    def residuals(self):
        return (self.residual_free, self.residual_nonlinear, self.residual_forcing)

    @property
    def ok(self):
        return (
            all(r == 0 for r in self.residuals)
            and self.beta_positive
            and self.beta_p_below_one
            and self.q_above_p
        )


def verify_scaling_identities(params, q):
    """Evaluate the scaling identities at q; q must lie strictly inside the window."""
    q = as_fraction(q, "q")
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    lo, hi = _inv_q_window(params)
    inv_q = 1 / q
    if inv_q >= hi:
        raise ValueError(
            f"q = {q} rejected: 1/q = {inv_q} is not below the upper "
            f"admissibility bound min(2/(N(p-1)), 1/p) = {hi}"
        )
    if inv_q <= lo:
        raise ValueError(
            f"q = {q} rejected: 1/q = {inv_q} is not above the lower "
            f"admissibility bound (2/N)max(1/(p(p-1)), sigma + 1/(p-1)) = {lo}"
        )
    N, p, sigma = Fraction(params.N), params.p, params.sigma
    der = derive(params)
    d, k = der.data_index, der.forcing_index
    beta = beta_rate(params, q)
    res_free = beta - N / 2 * (1 / d - 1 / q)
    res_nonlinear = beta * (1 - p) + 1 - N / (2 * q) * (p - 1)
    res_forcing = beta - N / 2 * (1 / k - 1 / q) + sigma + 1
    return IdentityReport(
        q=q,
        beta=beta,
        residual_free=res_free,
        residual_nonlinear=res_nonlinear,
        residual_forcing=res_forcing,
        beta_positive=beta > 0,
        beta_p_below_one=beta * p < 1,
        q_above_p=q > p,
    )


def picard_smallness(params, cstar):
    """Largest contraction-ball radius and the matching data budget.

    Returns (delta_max, data_budget) with delta_max = (1/(2 cstar))^(1/(p-1))
    and data_budget = delta_max / (2 cstar).
    """
    if cstar <= 0:
        raise ValueError("cstar must be positive")
    p = float(params.p)
    delta_max = (1.0 / (2.0 * cstar)) ** (1.0 / (p - 1.0))
    return delta_max, delta_max / (2.0 * cstar)
