"""Smooth closed boundary curves and coating descriptions.

Curves are arclength-parameterized at construction (composite Gauss
quadrature of the parametric speed) and must run counterclockwise: a
generator that runs clockwise raises DomainError.  So the signed curvature
of a convex domain is positive and the unit circle has curvature exactly +1.
With the inward unit normal nu and unit tangent tau this fixes the frame
convention used around the package:

    d tau / ds = +kappa(s) * nu(s),      d nu / ds = -kappa(s) * tau(s).

A coating of thickness delta0*g(s) lies between the boundary and its inner
offset x(s) + delta0*g(s)*nu(s), which must stay inside the curvature reach
eta0 = inf_s 1/|kappa(s)|; `LayerConfig.validate_against` rejects it otherwise.
A curve answers what meshing and the expansion read: its length s0,
`position`, `position_normal` (the point and nu), `curvature`, `reach` and
`describe`, and its class declares `mirrors`, the coordinate axes it
reflects onto itself across: "x" for (x, y) -> (x, -y), which takes
arclength s to s0 - s, and "y" for (x, y) -> (-x, y), which takes s to
s0/2 - s (modulo s0).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, OffsetTooDeep

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


# panels per block of `_panel_quad`, which bounds its panels x nodes scratch
_QUAD_BLOCK = 2048


def _panel_quad(fun, a, b):
    """Composite 8-point Gauss value of fun over [a, b] (vectorized in b),
    taken _QUAD_BLOCK panels at a time; each panel's value is the same bits
    in any block."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if b.ndim == 1 and len(b) > _QUAD_BLOCK:
        return np.concatenate([_panel_quad(fun, a[i:i + _QUAD_BLOCK], b[i:i + _QUAD_BLOCK])
                               for i in range(0, len(b), _QUAD_BLOCK)])
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid[..., None] + half[..., None] * _GL_NODES
    vals = fun(nodes)
    return half * (vals * _GL_WEIGHTS).sum(axis=-1)


class BoundaryCurve:
    """Closed C^2 curve queried by arclength.

    Subclasses provide the parametric generator (_xy, _d1, _d2 over one
    period of the raw parameter), which must run counterclockwise; this base
    class checks that, owns the arclength reparameterization, and answers
    the arclength-domain queries position / position_normal / curvature.
    """

    kind = "generic"
    mirrors = ()

    def __init__(self, t_period):
        self._T = float(t_period)
        if self._signed_area() < 0.0:
            raise DomainError(f"{type(self).__name__}: the generator runs clockwise; "
                              "curves must run counterclockwise")
        tg = np.linspace(0.0, self._T, 2049)  # 2048 arclength panels
        seg = _panel_quad(self._speed, tg[:-1], tg[1:])
        self._t_nodes = tg
        self._s_nodes = np.concatenate([[0.0], np.cumsum(seg)])
        self.s0 = float(self._s_nodes[-1])

    # -- generator interface (raw parameter t) ------------------------------
    def _xy(self, t):
        raise NotImplementedError

    def _d1(self, t):
        raise NotImplementedError

    def _d2(self, t):
        raise NotImplementedError

    # -- raw-parameter helpers ----------------------------------------------
    def _speed(self, t):
        d = self._d1(np.asarray(t))
        return np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)

    def _signed_area(self):
        def integrand(t):
            p = self._xy(np.asarray(t))
            d = self._d1(np.asarray(t))
            return 0.5 * (p[..., 0] * d[..., 1] - p[..., 1] * d[..., 0])

        tg = np.linspace(0.0, self._T, 513)
        return float(np.sum(_panel_quad(integrand, tg[:-1], tg[1:])))

    def _s_of_t(self, t):
        k = np.clip(np.searchsorted(self._t_nodes, t, side="right") - 1, 0,
                    len(self._t_nodes) - 2)
        return self._s_nodes[k] + _panel_quad(self._speed, self._t_nodes[k], t)

    def _t_of_s(self, s):
        s = np.asarray(s, dtype=float) % self.s0
        t = np.interp(s, self._s_nodes, self._t_nodes)
        for _ in range(6):
            resid = self._s_of_t(t) - s
            t = t - resid / self._speed(t)
            if np.max(np.abs(resid)) < 1e-14 * max(self.s0, 1.0):
                break
        return t

    # -- arclength-domain queries -------------------------------------------
    def position(self, s):
        return self._xy(self._t_of_s(s))

    def position_normal(self, s):
        """(position, inward unit normal) at the arclengths s, from one
        inversion; the normal is the unit tangent turned a quarter left."""
        t = self._t_of_s(s)
        d = self._d1(t)
        tau = d / np.linalg.norm(d, axis=-1, keepdims=True)
        return self._xy(t), np.stack([-tau[..., 1], tau[..., 0]], axis=-1)

    def curvature(self, s):
        t = self._t_of_s(s)
        d1 = self._d1(t)
        d2 = self._d2(t)
        speed2 = d1[..., 0] ** 2 + d1[..., 1] ** 2
        num = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
        return num / speed2**1.5

    def reach(self):
        """eta0 = inf_s 1/|kappa(s)| over 4096 equally spaced arclengths,
        sampled on the first call and kept on the curve: the sampling
        inverts 4096 arclengths, most of a coarse mesh's time."""
        return self._sampled_reach

    @cached_property
    def _sampled_reach(self):
        s = np.linspace(0.0, self.s0, 4096, endpoint=False)
        kmax = np.max(np.abs(self.curvature(s)))
        return math.inf if kmax == 0.0 else 1.0 / kmax

    def describe(self):
        """Canonical parameter dict, used for geometry hashing."""
        return {"kind": self.kind}


class Circle(BoundaryCurve):
    """Circle of radius R about the origin; all queries exact closed forms."""

    kind = "circle"
    mirrors = ("x", "y")

    def __init__(self, radius):
        if radius <= 0:
            raise DomainError("Circle: radius must be positive")
        self.radius = float(radius)
        self.s0 = 2.0 * math.pi * self.radius

    def position(self, s):
        th = np.asarray(s, dtype=float) / self.radius
        return self.radius * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def position_normal(self, s):
        th = np.asarray(s, dtype=float) / self.radius
        outward = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return self.radius * outward, -outward

    def curvature(self, s):
        return np.full(np.shape(np.asarray(s, dtype=float)), 1.0 / self.radius)[()]

    def reach(self):
        return self.radius

    def describe(self):
        return {"kind": "circle", "radius": self.radius}


class Ellipse(BoundaryCurve):
    """Axis-aligned ellipse with semi-axes a (x) and b (y)."""

    kind = "ellipse"
    mirrors = ("x", "y")

    def __init__(self, a, b):
        if a <= 0 or b <= 0:
            raise DomainError("Ellipse: semi-axes must be positive")
        self.a = float(a)
        self.b = float(b)
        super().__init__(2.0 * math.pi)

    def reach(self):
        """eta0 = min(a, b)^2 / max(a, b), the radius of curvature at the ends
        of the major axis."""
        return min(self.a, self.b) ** 2 / max(self.a, self.b)

    def _xy(self, t):
        return np.stack([self.a * np.cos(t), self.b * np.sin(t)], axis=-1)

    def _d1(self, t):
        return np.stack([-self.a * np.sin(t), self.b * np.cos(t)], axis=-1)

    def _d2(self, t):
        return np.stack([-self.a * np.cos(t), -self.b * np.sin(t)], axis=-1)

    def describe(self):
        return {"kind": "ellipse", "a": self.a, "b": self.b}


class FourierCurve(BoundaryCurve):
    """Perturbed circle r(theta) = 1 + sum_m modes[m-1]*cos(m*theta); the
    cosines make it even in theta, so it mirrors across the x-axis."""

    kind = "fourier"
    mirrors = ("x",)

    def __init__(self, modes):
        self.modes = [float(c) for c in modes]
        if 1.0 - sum(abs(c) for c in self.modes) <= 0.0:
            raise DomainError("FourierCurve: radius perturbation reaches zero")
        super().__init__(2.0 * math.pi)

    def _radius(self, t, order):
        r = np.ones_like(t) if order == 0 else np.zeros_like(t)
        for m, c in enumerate(self.modes, start=1):
            ph = m * t
            if order == 0:
                r = r + c * np.cos(ph)
            elif order == 1:
                r = r - c * m * np.sin(ph)
            else:
                r = r - c * m * m * np.cos(ph)
        return r

    def _xy(self, t):
        t = np.asarray(t, dtype=float)
        r = self._radius(t, 0)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def _d1(self, t):
        t = np.asarray(t, dtype=float)
        r, r1 = self._radius(t, 0), self._radius(t, 1)
        c, s = np.cos(t), np.sin(t)
        return np.stack([r1 * c - r * s, r1 * s + r * c], axis=-1)

    def _d2(self, t):
        t = np.asarray(t, dtype=float)
        r, r1, r2 = (self._radius(t, k) for k in (0, 1, 2))
        c, s = np.cos(t), np.sin(t)
        return np.stack(
            [(r2 - r) * c - 2 * r1 * s, (r2 - r) * s + 2 * r1 * c], axis=-1
        )

    def describe(self):
        return {"kind": "fourier", "modes": self.modes}


# ---------------------------------------------------------------------------
# coating description
# ---------------------------------------------------------------------------

@dataclass
class LayerConfig:
    """Coating of base thickness delta0 with profile g(s) and index n.

    g is a strictly positive constant or callable of arclength; n is a
    constant in (0, 1) or a callable of position (bounds must then be given
    as n_bounds and still lie in (0, 1)).
    """

    delta0: float
    g: object = 1.0
    n: object = 0.5
    n_bounds: tuple = None

    def __post_init__(self):
        if self.delta0 <= 0:
            raise DomainError("LayerConfig: delta0 must be positive")
        if callable(self.n):
            if self.n_bounds is None:
                raise DomainError("LayerConfig: callable index needs n_bounds")
            lo, hi = self.n_bounds
        else:
            lo = hi = float(self.n)
        if not (0.0 < lo <= hi < 1.0):
            raise DomainError("LayerConfig: index must satisfy 0 < n < 1")
        # g == 0 is admitted as the degenerate no-coating limit; meshing,
        # which needs actual depth, rejects it there
        if not callable(self.g) and float(self.g) < 0.0:
            raise DomainError("LayerConfig: thickness profile must be non-negative")

    def g_at(self, s):
        if callable(self.g):
            return np.asarray(self.g(np.asarray(s, dtype=float)), dtype=float)
        return np.full(np.shape(np.asarray(s, dtype=float)), float(self.g))[()]

    def thickness(self, s):
        return self.delta0 * self.g_at(s)

    def g_samples(self, curve):
        """g at 2048 equally spaced arclengths of curve, the samples that
        bound the coating depth and key the profile in a geometry hash."""
        s = np.linspace(0.0, curve.s0, 2048, endpoint=False)
        return np.broadcast_to(self.g_at(s), s.shape)

    def max_thickness(self, curve):
        g = self.g_samples(curve)
        if np.min(g) < 0.0:
            raise DomainError("LayerConfig: thickness profile must stay non-negative")
        return float(self.delta0 * np.max(g))

    def validate_against(self, curve, eta0):
        """Reject coatings that reach eta0, the curvature reach curve.reach()
        that the caller has already evaluated."""
        if self.max_thickness(curve) >= eta0:
            raise OffsetTooDeep(
                f"coating depth {self.max_thickness(curve):.6g} reaches eta0={eta0:.6g}"
            )


# ---------------------------------------------------------------------------
# run-config parsing
# ---------------------------------------------------------------------------

def config_number(value, where):
    """A run-config value as a float; ConfigError naming `where` unless it
    is a finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}", field=where)
    return float(value)


def curve_from_config(block):
    """Build a curve from its run-config block."""
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("geometry block must be a dict with a 'kind' field", field="geometry")
    kind = block["kind"]

    def num(key):
        return config_number(block[key], f"geometry.{key}")

    def modes():
        if not isinstance(block["modes"], list):
            raise ConfigError("geometry.modes must be a list of numbers", field="geometry.modes")
        return [config_number(c, "geometry.modes") for c in block["modes"]]

    known = {
        "circle": ({"kind", "radius"}, lambda: Circle(num("radius"))),
        "ellipse": ({"kind", "a", "b"}, lambda: Ellipse(num("a"), num("b"))),
        "fourier": ({"kind", "modes"}, lambda: FourierCurve(modes())),
    }
    if not isinstance(kind, str) or kind not in known:
        raise ConfigError(f"unknown geometry kind {kind!r}", field="geometry.kind")
    allowed, build = known[kind]
    extra = set(block) - allowed
    if extra:
        raise ConfigError(f"unknown geometry keys {sorted(extra)}", field="geometry")
    missing = allowed - set(block)
    if missing:
        raise ConfigError(f"missing geometry keys {sorted(missing)}", field="geometry")
    try:
        return build()
    except DomainError as exc:
        raise ConfigError(str(exc), field="geometry") from exc
