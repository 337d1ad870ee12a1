"""Independent reference values for the benchmark checks.

Everything here is built from scipy.special and scipy.optimize only, never
from thinspec, so a fault in the package's own Bessel routes or eigensolvers
cannot hide in its reference.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import jn_zeros, jv, jvp, mathieu_modcem1, yv, yvp

MODES = range(7)  # angular modes 0..6, as the program scans


def j01():
    """First positive zero of J_0."""
    return float(jn_zeros(0, 1)[0])


def coated_disk_det(m, k, R, delta, n):
    """Cauchy-data matching determinant of mode m at wavenumber k.

    Interior field J_m(k r) on the disk of radius R; coating field the
    combination of J_m and Y_m at k*sqrt(n)*r that vanishes on r = R - delta.
    Works on arrays of k.
    """
    kn = k * math.sqrt(n)
    a, b = kn * R, kn * (R - delta)
    w_val = jv(m, a) * yv(m, b) - yv(m, a) * jv(m, b)
    w_der = kn * (jvp(m, a) * yv(m, b) - yvp(m, a) * jv(m, b))
    return jv(m, k * R) * w_der - k * jvp(m, k * R) * w_val


def coated_disk_first_te(R, delta, n, points=3000):
    """Smallest determinant root lambda = k^2 over modes 0..6 with
    k in [0.05/R, 3*j01/R]: first sign change of each mode on a uniform grid,
    refined by brentq."""
    ks = np.linspace(0.05 / R, 3.0 * j01() / R, points)
    best = math.inf
    for m in MODES:
        vals = coated_disk_det(m, ks, R, delta, n)
        flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if len(flips):
            i = flips[0]
            k = brentq(lambda x: coated_disk_det(m, x, R, delta, n), ks[i], ks[i + 1], xtol=1e-15)
            best = min(best, k)
    if best == math.inf:
        raise ValueError(f"no determinant root for R={R}, delta={delta}, n={n}")
    return best * best


def ellipse_lambda0(a, b):
    """First Dirichlet eigenvalue of the ellipse with semi-axes a > b.

    In elliptic coordinates with focal distance c and boundary xi0
    (cosh xi0 = a/c) the ground mode is ce0 * Ce0; its eigenvalue is
    4*q/c^2 with q the first root of the radial function Ce0(xi0, q).
    """
    c = math.sqrt(a * a - b * b)
    xi0 = math.acosh(a / c)

    def radial(q):
        return mathieu_modcem1(0, q, xi0)[0]

    qs = np.linspace(0.01, 10.0, 400)
    vals = np.array([radial(q) for q in qs])
    i = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0][0]
    q = brentq(radial, qs[i], qs[i + 1], xtol=1e-15)
    return 4.0 * q / (c * c)
