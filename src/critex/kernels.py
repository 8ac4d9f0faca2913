"""Retired Runge-Kutta reaction kernels, in numpy.

The evolver no longer calls anything here: its reaction substep is the
exact flow of v' = |v|^p between exact forcing kicks (`evolve.Stepper`).
These are one RK4 step of the pointwise reaction ODE
v' = nl * |v|^p + s^sigma * c, in plain time or in the regularizing
variable tau = s^(sigma+1) for steps that touch s = 0 with sigma < 0.  They
stay, with `backend_name` and `NUMBA_ENABLED`, only because the benchmark
harness resolves these names; its `kernels.reaction_*` counters read 0.
"""

from __future__ import annotations

import numpy as np

# numpy is the only backend; the name stays for run records that report it.
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# Reaction step: v' = nl*|v|^p + s^sigma * c over [t0, t0 + dt], one RK4 step.
# The forced variant requires t0 > 0 when sigma < 0; the tau variant covers
# the step starting exactly at s = 0 for sigma in (-1, 0), where
#   dv/dtau = nl*a*tau^(a-1)*|v|^p + a*c,   a = 1/(sigma+1) > 1,
# so the forcing weight integrates exactly and the coefficient of the
# nonlinearity vanishes continuously at tau = 0.
# ---------------------------------------------------------------------------


def _rate(x, p, coef, force):
    """coef * |x|^p + force in a new array; None drops a term."""
    if coef is None:
        return force.copy()
    k = np.abs(x)
    k **= p
    k *= coef
    if force is not None:
        k += force
    return k


def _rk4(v, h, p, stages):
    """v + (h/6)(k1 + 2 k2 + 2 k3 + k4) for k_i = coef_i * |x_i|^p + force_i.

    stages holds the four (coef, force) pairs.  The stage points are
    x1 = v, x2 = v + (h/2) k1, x3 = v + (h/2) k2 and x4 = v + h k3.  Work
    arrays are reused, but every element sees the operations of the array
    expression in the same order, so the result is the same bits.
    """
    (c1, f1), (c2, f2), (c3, f3), (c4, f4) = stages
    acc = _rate(v, p, c1, f1)
    x = np.multiply(0.5 * h, acc)
    x += v
    k = _rate(x, p, c2, f2)
    np.multiply(0.5 * h, k, out=x)
    x += v
    k *= 2.0
    acc += k
    k = _rate(x, p, c3, f3)
    np.multiply(h, k, out=x)
    x += v
    k *= 2.0
    acc += k
    acc += _rate(x, p, c4, f4)
    acc *= h / 6.0
    acc += v
    return acc


def reaction_rk4_plain(v, dt, p, nl=1.0):
    return _rk4(v, dt, p, [(nl, None)] * 4)


def _forcing_weight(s, sigma):
    if s > 0.0:
        return s**sigma
    return 1.0 if sigma == 0.0 else 0.0  # sigma > 0 at s = 0


def reaction_rk4_forced(v, c, t0, dt, p, sigma, nl=1.0):
    f1 = _forcing_weight(t0, sigma)
    f2c = _forcing_weight(t0 + 0.5 * dt, sigma) * c
    f4 = _forcing_weight(t0 + dt, sigma)
    return _rk4(v, dt, p, [(nl, f1 * c), (nl, f2c), (nl, f2c), (nl, f4 * c)])


def reaction_rk4_tau(v, c, dt, p, sigma, nl=1.0):
    a = 1.0 / (sigma + 1.0)
    tau = dt ** (sigma + 1.0)
    g2 = nl * (a * (0.5 * tau) ** (a - 1.0))
    g4 = nl * (a * tau ** (a - 1.0))
    ac = a * c
    # tau = 0: the nonlinear coefficient of k1 vanishes (a > 1)
    return _rk4(v, tau, p, [(None, ac), (g2, ac), (g2, ac), (g4, ac)])


def backend_name():
    return "numpy"
