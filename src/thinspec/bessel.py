"""Self-contained cylinder functions and the semi-analytic coated-disk solver.

Everything here is built from two independent evaluation routes (ascending
power series, and normalized backward / seeded forward recurrences) so the
package carries no external special-function dependency and the two routes can
cross-check each other.  Each function keeps one route per argument kind: one
float argument is summed in plain Python floats and its tables of orders are
lists of floats (what Brent's method calls), and the series routes also take
numpy arrays, which is what the root searches scan with.  Both kinds take the
same operations in the same order, so an array element equals the float
value bit for bit.  On top of them sit the disk-specific pieces:
Dirichlet eigenvalues of the disk, the 2x2 Cauchy-data matching determinant
whose zeros are the transmission eigenvalues of a coated disk (sign-scanned
across the Max-Min corridor only, in one series pass over the three Bessel
arguments and over every thickness of a sweep, brackets refined by Brent's
method from the scanned end values; an angular mode m is scanned only if its
Max-Min floor (j_{m,1}/R)^2 lies inside a corridor, so thin coatings scan mode
0 alone), and the expansion coefficients lambda0 = (j01/R)^2,
lambda1 = 2 lambda0/R, lambda2 = 3 lambda0/R^2 with their radial fields, all
in closed form and independent of the refractive index.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .errors import DomainError, MagnitudeWarning, NoRootInBracket

EULER_GAMMA = 0.5772156649015328606065120900824024

# Below this the ascending series is used; beyond it J switches to the
# normalized backward recurrence and Y to asymptotically seeded forward
# recurrence.
_SERIES_CUTOFF = 12.0
# bessel_j_zero takes the recurrence from here on.  The series' cancellation
# costs the zeros between 9 and 12 up to 1e-14 of relative accuracy, and
# j_{3,1} = 6.38 already 8e-16; from 6 every zero below 12 is within 5e-16
_ZERO_SERIES_CUTOFF = 6.0
_MAX_ORDER = 20
_MAX_ARGUMENT = 1.0e4
# the first transmission eigenvalue is sought among angular modes 0.._MODE_MAX
_MODE_MAX = 6
# relative slack of the Max-Min corridor's upper end (`corridor`)
_UPPER_SLACK = 5e-3


# ---------------------------------------------------------------------------
# evaluation routes
# ---------------------------------------------------------------------------

def _is_array(x):
    return isinstance(x, np.ndarray) and x.ndim > 0


def _series_arg(x, name):
    """A series argument as a float, or as a float array if x is an array."""
    array = _is_array(x)
    x = x.astype(float, copy=False) if array else float(x)
    if ((x < 0).any() if array else x < 0):
        raise DomainError(f"{name}: negative argument")
    return x


def _converged(term, total):
    """The series stopping test, required of every element of an array.

    On an ascending scan grid the last element has the largest terms and is,
    as a rule, the last to pass, so callers try it alone first.  A scalar
    series makes the same test inline."""
    return (abs(term) <= 1e-18 * abs(total) + 1e-300).all()


def bessel_j_series(m, x):
    """First-kind cylinder function of integer order by ascending series.

    Accurate route for x below ~12; exposed separately so zeros can be
    confirmed by two independent evaluators.  x may be a scalar (float
    result, summed in plain floats) or an array (elementwise result).
    """
    x = _series_arg(x, "bessel_j_series")
    if _is_array(x):
        return _j_table(x, [m])[0]
    half = 0.5 * x
    step = -(half * half)
    # (x/2)^m by plain products: numpy's power and the C pow round differently,
    # and the series' cancellation would show that beyond 1e-14
    term = 1.0 / math.factorial(m)
    for _ in range(m):
        term = term * half
    total = term
    for k in range(1, 401):
        term = term * (step / (k * (m + k)))
        total = total + term
        if abs(term) <= 1e-18 * abs(total) + 1e-300:
            break
    return total


def bessel_j_recurrence(m, x, mmax=None):
    """First-kind cylinder function by normalized backward recurrence.

    Downward three-term recurrence started far above max(m, x), normalized
    with the even-order sum identity J_0 + 2*sum_k J_{2k} = 1.  Independent of
    the series route for any x > 0.  With mmax, the list of floats
    J_0..J_max(m, mmax).
    """
    if x <= 0:
        raise DomainError("bessel_j_recurrence: argument must be positive")
    top = max(m, mmax or 0)
    start = int(x + 12.0 * x ** (1.0 / 3.0) + 14) + top + 22
    if start % 2:
        start += 1
    jp = 0.0
    j = 1e-300
    wanted = [0.0] * (top + 1)
    even_sum = 0.0
    for mm in range(start, -1, -1):
        jm = (2.0 * (mm + 1) / x) * j - jp
        jp = j
        j = jm
        if abs(j) > 1e250:
            j *= 1e-250
            jp *= 1e-250
            even_sum *= 1e-250
            wanted = [w * 1e-250 for w in wanted]
        if mm <= top:
            wanted[mm] = j
        if mm >= 2 and mm % 2 == 0:
            even_sum += 2.0 * j
    norm = even_sum + j
    wanted = [w / norm for w in wanted]
    if mmax is not None:
        return wanted
    return wanted[m]


def _hankel_pq(m, x):
    # Optimally truncated asymptotic modulus/phase series; adequate to
    # ~1e-12 for m <= 1 once x >= 12, which is all the Y seeding needs.
    mu = 4.0 * m * m
    terms = [1.0]
    t = 1.0
    for k in range(1, 60):
        t *= (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        if abs(t) > abs(terms[-1]):
            break
        terms.append(t)
    p = 0.0
    q = 0.0
    for k, t in enumerate(terms):
        if k % 2 == 0:
            p += t * (-1) ** (k // 2)
        else:
            q += t * (-1) ** ((k - 1) // 2)
    return p, q


def _y01_asymptotic(x):
    out = []
    for m in (0, 1):
        p, q = _hankel_pq(m, x)
        chi = x - (0.5 * m + 0.25) * math.pi
        out.append(math.sqrt(2.0 / (math.pi * x)) * (p * math.sin(chi) + q * math.cos(chi)))
    return out[0], out[1]


def _y01_series(x, jtab=None, top=1):
    """(Y_0(x), Y_1(x)) by ascending series for x > 0, or (Y_0(x),) alone if
    top is 0: floats at one float x, summed in plain floats, or arrays for an
    array x.

    jtab, if given, holds J_0(x) (and J_1(x) unless top is 0) at its keys or
    rows 0 and 1."""
    x = _series_arg(x, "_y01_series")
    array = _is_array(x)
    half = 0.5 * x
    quarter = half * half
    lnt = np.log(half) + EULER_GAMMA
    if jtab is None:
        jtab = [bessel_j_series(m, x) for m in range(top + 1)]
    j0 = jtab[0]
    # order zero
    s0 = 0.0
    term = 1.0
    harmonic = 0.0
    sign = -1.0
    for k in range(1, 400):
        term = term * (quarter / (k * k))
        harmonic += 1.0 / k
        sign = -sign
        contrib = sign * harmonic * term
        s0 = s0 + contrib
        if array:
            if (abs(contrib[-1]) <= 1e-18 * abs(s0[-1]) + 1e-300
                    and _converged(contrib, s0)):
                break
        elif abs(contrib) <= 1e-18 * abs(s0) + 1e-300:
            break
    y0 = (2.0 / math.pi) * (lnt * j0 + s0)
    if top == 0:
        return (y0 if array else float(y0),)
    # order one
    s1 = 0.0
    term = 1.0
    hk = 0.0
    hk1 = 1.0
    sign = -1.0
    for k in range(0, 400):
        sign = -sign
        contrib = sign * (hk + hk1) * term
        s1 = s1 + contrib
        if k > 2:
            if array:
                if (abs(contrib[-1]) <= 1e-18 * abs(s1[-1]) + 1e-300
                        and _converged(contrib, s1)):
                    break
            elif abs(contrib) <= 1e-18 * abs(s1) + 1e-300:
                break
        term = term * (quarter / ((k + 1) * (k + 2)))
        hk += 1.0 / (k + 1)
        hk1 += 1.0 / (k + 2)
    y1 = (2.0 / math.pi) * lnt * jtab[1] - 2.0 / (math.pi * x) - (half / math.pi) * s1
    if array:
        return y0, y1
    return float(y0), float(y1)


def _j_table(x, orders):
    """Rows J_m(x), m in orders, of the float array x by the ascending series,
    summed for all orders in one term loop.  Each row takes the same
    products, in the same order, and stops at the same term as a one-row
    table (a row that has passed the stopping test takes no further terms),
    so the rows do not depend on which other orders are summed with them."""
    half = 0.5 * x
    term = np.empty((len(orders), x.size))
    for i, m in enumerate(orders):
        row = 1.0 / math.factorial(m)
        for _ in range(m):
            row = row * half
        term[i] = row
    total = term.copy()
    step = -(half * half)
    orders = np.asarray(orders)[:, None]
    live = np.ones_like(orders, dtype=bool)  # rows still summing
    for k in range(1, 401):
        term *= step / (k * (orders + k))
        np.add(total, term, out=total, where=live)
        # the last column is tried first, for all rows at once
        near = live & (abs(term[:, -1:]) <= 1e-18 * abs(total[:, -1:]) + 1e-300)
        if near.any():
            for i in np.flatnonzero(near):
                live[i] = not _converged(term[i], total[i])
            if not live.any():
                break
    return total


def _j_values(mmax, x):
    """J_0..J_mmax at x, choosing the route by magnitude of x: a list of
    floats at one float x, one row per order for an array below the series
    cutoff."""
    if _is_array(x):
        return _j_table(_series_arg(x, "_j_values"), range(mmax + 1))
    if x >= _SERIES_CUTOFF:
        return bessel_j_recurrence(0, x, mmax=mmax)
    return [bessel_j_series(m, x) for m in range(mmax + 1)]


def _y_values(mmax, x, jtab=None):
    """Y_0..Y_mmax at x as _j_values gives J: a list of floats at one float
    x, rows of an array below the series cutoff.  Forward recurrence is
    stable upward; jtab is passed on to _y01_series, which sums the order-one
    series only if mmax is at least 1."""
    array = _is_array(x)
    if array or x < _SERIES_CUTOFF:
        vals = list(_y01_series(x, jtab, min(mmax, 1)))
    else:
        vals = list(_y01_asymptotic(x))
    for m in range(2, mmax + 1):
        vals.append((2.0 * (m - 1) / x) * vals[-1] - vals[-2])
    vals = vals[: mmax + 1]
    return np.array(vals) if array else vals


def _with_slopes(table):
    """Split an array table T_0..T_{M+1} of cylinder functions into the
    values and the derivatives of orders 0..M (T_0' = -T_1,
    T_m' = (T_{m-1} - T_{m+1})/2)."""
    slopes = np.empty_like(table[:-1])
    slopes[0] = -table[1]
    slopes[1:] = 0.5 * (table[:-2] - table[2:])
    return table[:-1], slopes


def _value_slope(table, m):
    """(T_m, T_m') from a float table holding T_{m-1}..T_{m+1} (T_0 and T_1
    at m = 0) at those indices or keys, by the rule of _with_slopes."""
    return table[m], (0.5 * (table[m - 1] - table[m + 1]) if m else -table[1])


def _slope_orders(m):
    """The orders _value_slope reads for order m."""
    return (m - 1, m, m + 1) if m else (0, 1)


def _j_checked(m, x, orders=None):
    """{k: J_k(x)} for k in orders (all at most m + 1; default
    _slope_orders(m)), each the value of the table _j_values(m + 1, x),
    under bessel_j's range checks.  Below the series cutoff only the orders
    asked for are summed."""
    if not (0 <= m <= _MAX_ORDER):
        raise DomainError(f"bessel_j: order {m} outside [0, {_MAX_ORDER}]")
    if x < 0 or x > _MAX_ARGUMENT:
        raise DomainError(f"bessel_j: argument {x} outside [0, {_MAX_ARGUMENT}]")
    orders = _slope_orders(m) if orders is None else orders
    if x >= _SERIES_CUTOFF:
        table = bessel_j_recurrence(0, x, mmax=m + 1)
        return {k: table[k] for k in orders}
    return {k: bessel_j_series(k, x) for k in orders}


def _y_checked(top, x, jtab=None):
    """Table Y_0..Y_top at x, under bessel_y's domain check and warning;
    jtab is passed on to _y01_series."""
    if x <= 0:
        raise DomainError("bessel_y: argument must be positive")
    if x < 1e-8:
        warnings.warn("bessel_y: argument below 1e-8, value near the logarithmic "
                      "singularity", MagnitudeWarning)
    return _y_values(top, x, jtab)


def bessel_j(m, x):
    """Return (J_m(x), J_m'(x)).

    Valid for 0 <= m <= 20 and 0 <= x <= 1e4; raises DomainError outside.
    """
    return _value_slope(_j_checked(m, x), m)


def bessel_y(m, x):
    """Return (Y_m(x), Y_m'(x)) for x > 0.

    A MagnitudeWarning is emitted below x = 1e-8 where the logarithmic
    singularity dominates; the returned value is still finite.
    """
    return _value_slope(_y_checked(m + 1, x), m)


def wronskian_defect(m, x):
    """Relative departure of J_m Y_m' - J_m' Y_m from 2/(pi x)."""
    jv, jd = bessel_j(m, x)
    yv, yd = bessel_y(m, x)
    exact = 2.0 / (math.pi * x)
    return abs(jv * yd - jd * yv - exact) / exact


# ---------------------------------------------------------------------------
# zeros and disk Dirichlet spectrum
# ---------------------------------------------------------------------------

def _sign_changes(f):
    """Indices i of a sampled function where f[i] == 0 or f changes sign
    on [i, i + 1]."""
    return np.flatnonzero((f[:-1] == 0.0) | (f[:-1] * f[1:] < 0.0))


def _root_in(f, xs, fs, i, xtol):
    """Root of f in the scan interval [xs[i], xs[i + 1]] that _sign_changes
    flagged, refined by Brent's method to width xtol.  Brent's opening values
    at the two bracket ends are read from the scan values fs, not recomputed."""
    if fs[i] == 0.0:
        return float(xs[i])
    from scipy.optimize import brentq  # deferred: the import costs ~0.3 s
    ends = {xs[i]: fs[i], xs[i + 1]: fs[i + 1]}
    return brentq(lambda x: ends[x] if x in ends else f(x), xs[i], xs[i + 1], xtol=xtol)


@cache
def bessel_j_zero(m, k, method=None):
    """k-th positive zero of J_m: the k-th sign change of a scan at steps of
    about 0.05 from max(m, 0.05) to (k + m/2) pi, refined by Brent's method
    to width 1e-14.

    The window holds the zero: J_m has no zero in (0, m], j_{m,k} lies below
    (k + m/2 - 1/4) pi for m >= 1 and below (k - 1/8) pi for m = 0, and
    consecutive zeros are more than 3 apart, so no step holds two of them.
    method selects the evaluator so the same zero can be produced by two
    independent routes: 'series' scans in one array call but only below the
    series cutoff (DomainError if the zero is not found there),
    'recurrence' works everywhere, and None takes the series below
    _ZERO_SERIES_CUTOFF and the recurrence from there on.  A pure function
    of its arguments, so each zero is computed once per process.
    """
    if k < 1:
        raise DomainError("bessel_j_zero: k_index must be >= 1")
    cutoffs = {None: _ZERO_SERIES_CUTOFF, "series": _SERIES_CUTOFF, "recurrence": 0.0}
    if method not in cutoffs:
        raise ValueError(f"unknown evaluator {method!r}")
    cutoff = cutoffs[method]
    lo, hi = max(m, 0.05), (k + 0.5 * m) * math.pi
    xs = np.linspace(lo, hi, math.ceil((hi - lo) / 0.05) + 1)
    # the series serves the scan below the cutoff in one call, the recurrence the rest
    cut = int(np.searchsorted(xs, cutoff))
    if method == "series":
        xs = xs[:cut]
    fs = np.concatenate([bessel_j_series(m, xs[:cut]),
                         [bessel_j_recurrence(m, x) for x in xs[cut:]]])
    hits = _sign_changes(fs)
    if hits.size < k:
        if method == "series":
            raise DomainError(f"bessel_j_zero: zero #{k} of J_{m} lies past the series cutoff")
        raise NoRootInBracket(f"no sign change of J_{m} for zero #{k}")
    return _root_in(lambda x: bessel_j_series(m, x) if x < cutoff else bessel_j_recurrence(m, x),
                    xs, fs, hits[k - 1], 1e-14)


def disk_dirichlet_eigen(R, m, k_index):
    """Dirichlet eigenvalue (j_{m,k}/R)^2 of the disk of radius R."""
    if R <= 0:
        raise DomainError("disk_dirichlet_eigen: radius must be positive")
    z = bessel_j_zero(m, k_index)
    return (z / R) ** 2


# ---------------------------------------------------------------------------
# coated-disk transmission determinant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiskProblem:
    """Coated disk: outer radius R, coating thickness delta, constant index n,
    angular mode m."""

    R: float
    delta: float
    n: float
    m: int = 0

    def __post_init__(self):
        if not 0 < self.delta < self.R:
            raise DomainError("DiskProblem: need 0 < delta < R")
        if not 0 < self.n < 1:
            raise DomainError("DiskProblem: need 0 < n < 1")
        if self.m < 0:
            raise DomainError("DiskProblem: mode m must be non-negative")


def transmission_determinant(prob, k):
    """Determinant of the Cauchy-data matching system at wavenumber k.

    The interior field is J_m(k r) on the full disk; the coating field is the
    combination of J_m and Y_m at argument k*sqrt(n)*r vanishing on the inner
    boundary r = R - delta.  The determinant vanishes exactly at transmission
    eigenvalues lambda = k^2 of mode m.  Only the series read are summed:
    J_0 and J_1, which also seed the Y series, with m - 1..m + 1 at k*sqrt(n)*R
    and m at k*sqrt(n)*(R - delta), where mode 0 reads Y_0 alone and so sums
    neither J_1 nor the order-one Y series.
    """
    a = k * math.sqrt(prob.n) * prob.R
    b = k * math.sqrt(prob.n) * (prob.R - prob.delta)
    if b <= 0:
        raise DomainError("transmission_determinant: k*sqrt(n)*(R-delta) must be positive")
    m = prob.m
    ja_table = _j_checked(m, a, {0, 1, *_slope_orders(m)})
    jb_table = _j_checked(m, b, {0, 1, m} if m else {0})
    ja, jda = _value_slope(ja_table, m)
    ya, yda = _value_slope(_y_checked(m + 1, a, ja_table), m)
    jb, yb = jb_table[m], _y_checked(m, b, jb_table)[m]
    w_val = ja * yb - ya * jb
    w_der = (k * math.sqrt(prob.n)) * (jda * yb - yda * jb)
    v_val, v_der = bessel_j(m, k * prob.R)
    v_der *= k
    return v_val * w_der - v_der * w_val


def _det_scan(R, deltas, n, ks, mode_max):
    """transmission_determinant of modes 0..mode_max at every k of the
    (len(deltas), K) array ks, whose row i belongs to thickness deltas[i],
    as a (mode_max + 1, len(deltas), K) array from one series pass: one J
    table of orders 0..mode_max + 1 over k*sqrt(n)*R, k*sqrt(n)*(R - delta)
    and k*R laid end to end for all rows (so every k*R must lie below the
    series cutoff), and one Y table over the first two blocks that takes its
    J_0 and J_1 from the J table."""
    ks = np.asarray(ks, dtype=float)
    if ks.min() <= 0 or ks.max() * R >= _SERIES_CUTOFF:
        raise DomainError("_det_scan: need 0 < k and k*R below the series cutoff")
    sn = math.sqrt(n)
    inner = R - np.asarray(deltas, dtype=float)[:, None]
    args = np.concatenate([ks * sn * R, ks * sn * inner, ks * R]).ravel()
    shape, ks = ks.shape, ks.ravel()
    jtab = _j_values(mode_max + 1, args)
    coated = slice(0, 2 * ks.size)
    ja_table, jb_table, jc_table = np.split(jtab, 3, axis=1)
    ya_table, yb_table = np.split(_y_values(mode_max + 1, args[coated], jtab[:, coated]), 2, axis=1)
    ja, jda = _with_slopes(ja_table)
    ya, yda = _with_slopes(ya_table)
    jb, yb = jb_table[:-1], yb_table[:-1]
    w_val = ja * yb - ya * jb
    w_der = (ks * sn) * (jda * yb - yda * jb)
    v_val, v_der = _with_slopes(jc_table)
    return (v_val * w_der - (v_der * ks) * w_val).reshape(mode_max + 1, *shape)


def corridor(lambda0, lambda_eroded):
    """Max-Min search window [lambda0*(1-1e-6), lambda_eroded*(1+_UPPER_SLACK)].

    For 0 < n < 1 the first transmission eigenvalue lies between lambda0 of
    the domain and lambda_eroded of the domain inside the coating, up to 4e-8
    of the corridor's width below lambda_eroded as n nears 1; the upper slack
    keeps it off the edge.  The disk and the FEM pencil solvers search it.
    """
    return lambda0 * (1.0 - 1e-6), lambda_eroded * (1.0 + _UPPER_SLACK)


def disk_first_tes(R, deltas, n):
    """Smallest real transmission eigenvalue lambda = k^2 of the disk of
    radius R coated with index n, for every thickness of deltas.

    One array sign scan (`_det_scan`, one series pass for all thicknesses)
    at 17 wavenumbers across each thickness's Max-Min corridor (see
    `corridor`) of lambda0 = (j01/R)^2 and lambda_eroded = (j01/(R - delta))^2.
    The Max-Min principle in the mode-m subspace puts mode m's first
    eigenvalue at or above its Dirichlet floor (j_{m,1}/R)^2, so the scan
    takes mode 0 and each mode 1.._MODE_MAX whose floor k = j_{m,1}/R is at
    most the largest scanned wavenumber: mode 0 alone while every delta/R
    is below 1 - sqrt(1 + _UPPER_SLACK) j01/j11 = 0.3708 (0.372 less the
    fixed slack 5e-3), and the modes a thicker coating reaches beyond that.
    Each mode's first bracket is refined by Brent's method to width 1e-14
    from the scanned values at its ends (`_root_in`), in increasing order,
    until the next bracket starts above the best root.  Raises
    NoRootInBracket if no mode changes sign in a corridor; for delta/R above
    about 0.8 the corridor passes the series cutoff k*R = 12 and _det_scan
    raises DomainError.
    """
    probs = [DiskProblem(R, delta, n) for delta in deltas]
    if not probs:
        return []
    j01 = bessel_j_zero(0, 1)
    windows = [corridor((j01 / R) ** 2, (j01 / (R - p.delta)) ** 2) for p in probs]
    ks = np.array([np.linspace(math.sqrt(lo), math.sqrt(hi), 17) for lo, hi in windows])
    # mode m's first root lies at or above its floor j_{m,1}/R
    mode_max = 0
    while mode_max < _MODE_MAX and bessel_j_zero(mode_max + 1, 1) <= ks.max() * R:
        mode_max += 1
    tables = _det_scan(R, [p.delta for p in probs], n, ks, mode_max)
    lams = []
    for prob, row, table, (lo, hi) in zip(probs, ks, tables.swapaxes(0, 1), windows):
        firsts = sorted((hits[0], m) for m, hits in enumerate(map(_sign_changes, table))
                        if hits.size)
        best = None
        for i, m in firsts:
            if best is not None and row[i] >= best:
                break
            det = partial(transmission_determinant, DiskProblem(R, prob.delta, n, m))
            root = _root_in(det, row, table[m], i, 1e-14)
            best = root if best is None else min(best, root)
        if best is None:
            raise NoRootInBracket(f"disk_first_tes: no determinant sign change in the "
                                  f"corridor [{lo:.10g}, {hi:.10g}] of delta = {prob.delta!r}")
        lams.append(best**2)
    return lams


def disk_first_te(prob):
    """`disk_first_tes` at prob's one thickness; its mode m does not restrict the search."""
    return disk_first_tes(prob.R, [prob.delta], prob.n)[0]


# ---------------------------------------------------------------------------
# expansion coefficients in closed form
# ---------------------------------------------------------------------------

def _ground_mode(k, amp, r):
    """amp * J_0(k|r|)."""
    return amp * bessel_j_series(0, k * np.abs(r))


def _corrector(k, amp, R, r):
    """(amp/R) * (J_0(k|r|) - k|r| J_1(k|r|))."""
    kr = k * np.abs(r)
    return (amp / R) * (bessel_j_series(0, kr) - kr * bessel_j_series(1, kr))


@dataclass(frozen=True)
class DiskCoefficients:
    """Expansion coefficients of the coated disk of radius R with unit
    thickness profile (g == 1), and the two radial fields behind them.

    With k = j01/R and A = 1/(sqrt(pi) R J_1(j01)), v0(r) = A J_0(kr) is the
    L2-normalized ground mode and v1(r) = (A/R)(J_0(kr) - kr J_1(kr)) the
    corrector: (Delta + lambda0) v1 = -lambda1 v0, v1(R) = -flux0, and v1 is
    orthogonal to v0.  Both are callables of the radius r (scalar or array).
    No value depends on the refractive index.
    """

    radius: float
    lambda0: float
    lambda1: float
    lambda2: float
    flux0: float
    flux1: float
    v0: Callable
    v1: Callable


def disk_asymptotic_coeffs(R, n=None):
    """Expansion coefficients of the coated disk with unit thickness profile,
    in closed form:

        lambda0 = (j01/R)^2,  lambda1 = 2 lambda0/R,  lambda2 = 3 lambda0/R^2,
        flux0 = j01/(sqrt(pi) R^2),  flux1 = flux0/R.

    lambda2 is 2 pi R (kappa flux0^2/2 + flux0 flux1) with curvature
    kappa = 1/R, so lambda0 + delta lambda1 + delta^2 lambda2 is the
    second-order Taylor expansion of the eroded disk's (j01/(R - delta))^2.
    The refractive index n is accepted for interface symmetry; it enters none
    of the coefficients.
    """
    del n  # the first three coefficients are index-independent
    if R <= 0:
        raise DomainError("disk_asymptotic_coeffs: radius must be positive")
    j01 = bessel_j_zero(0, 1)
    lam0 = (j01 / R) ** 2
    flux0 = j01 / (math.sqrt(math.pi) * R * R)
    k = j01 / R
    amp = 1.0 / (math.sqrt(math.pi) * bessel_j_series(1, j01) * R)
    v0 = partial(_ground_mode, k, amp)
    v1 = partial(_corrector, k, amp, R)
    return DiskCoefficients(R, lam0, 2.0 * lam0 / R, 3.0 * lam0 / R**2,
                            flux0, flux0 / R, v0, v1)
