"""Hot numeric kernels, in numpy.

Kernels here are the runtime hot spots:

* one Runge-Kutta step of the pointwise reaction ODE
  v' = nl * |v|^p + s^sigma * c, in plain time or in the regularizing
  variable tau = s^(sigma+1) for steps that touch s = 0 with sigma < 0;
* direct summation of a separable periodic kernel against a field
  (the FFT-free convolution oracle).
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


# ---------------------------------------------------------------------------
# Direct periodic convolution with a separable kernel.
#
# out[i] = volume * sum_j (prod_a kern_a[(i_a - j_a) mod n]) * f[j]
#
# This is the FFT-free oracle; cost is O((n^N)^2), so it is meant for small
# grids only.  It materializes the full circulant matrix and refuses grids
# where that would be unreasonable.
# ---------------------------------------------------------------------------

_DIRECT_LIMIT = 8192  # max n^N for the dense circulant matrix


def convolve_periodic(values, kernel_axes, volume):
    n = values.shape[0]
    ndim = values.ndim
    if values.size > _DIRECT_LIMIT:
        raise ValueError(
            f"grid with {values.size} points is too large for the dense "
            f"direct convolution (limit {_DIRECT_LIMIT})"
        )
    diff = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    mat = kernel_axes[0][diff]
    for a in range(1, ndim):
        mat = np.kron(mat, kernel_axes[a][diff])
    return volume * (mat @ values.ravel()).reshape(values.shape)


def backend_name():
    return "numpy"
