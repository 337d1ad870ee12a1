import math

import numpy as np
import pytest

from thinspec.errors import ConfigError, DomainError, OffsetTooDeep
from thinspec.geometry import (
    BoundaryCurve,
    Circle,
    Ellipse,
    FourierCurve,
    LayerConfig,
    curve_from_config,
)
from thinspec.mesh import generate_mesh

from _meshes import CURVES


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: f"{c.kind}")
def test_frame_is_unit(curve):
    s = np.linspace(0.0, curve.s0, 57, endpoint=False)
    _, nu = curve.position_normal(s)
    assert np.max(np.abs(np.linalg.norm(nu, axis=-1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: f"{c.kind}")
def test_position_normal_is_position_and_normal(curve):
    """The point is `position`'s, bit for bit, and the normal is the unit
    tangent of central differences of `position` turned a quarter left."""
    s = np.linspace(0.0, curve.s0, 57, endpoint=False)
    x, nu = curve.position_normal(s)
    assert np.array_equal(x, curve.position(s))
    h = 1e-5 * curve.s0
    d = curve.position(s + h) - curve.position(s - h)
    tau = d / np.linalg.norm(d, axis=-1, keepdims=True)
    assert np.max(np.abs(nu - np.stack([-tau[..., 1], tau[..., 0]], axis=-1))) <= 1e-8


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: f"{c.kind}")
def test_periodicity(curve):
    s = np.linspace(0.0, curve.s0, 23, endpoint=False)
    gap = curve.position(s + curve.s0) - curve.position(s)
    assert np.max(np.abs(gap)) <= 1e-12


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: f"{c.kind}")
def test_frenet_relation(curve):
    # d tau/ds = d^2 x/ds^2 = +kappa * nu under the convex-positive
    # convention, checked against second differences of the position
    s = np.linspace(0.05, curve.s0, 40, endpoint=False)
    h = 2e-5 * curve.s0
    x, nu = curve.position_normal(s)
    dtau = (curve.position(s + h) - 2.0 * x + curve.position(s - h)) / h**2
    pred = curve.curvature(s)[..., None] * nu
    scale = np.max(np.abs(pred))
    assert np.max(np.abs(dtau - pred)) / scale <= 1e-6


def test_circle_curvature_exact():
    assert Circle(1.0).curvature(0.37) == 1.0
    assert Circle(2.0).curvature(5.0) == 0.5


def test_ellipse_curvature_closed_form():
    # at the point (2, 0): kappa = a*b / (a^2 sin^2 + b^2 cos^2)^(3/2) at t=0
    ell = Ellipse(2.0, 1.0)
    assert float(ell.curvature(0.0)) == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(ell.position(0.0), [2.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: f"{c.kind}")
def test_curvature_against_fd_formula(curve):
    """kappa = (x'y'' - y'x'')/|x'|^3 rebuilt from position differences."""
    rng = np.random.default_rng(7)
    s = rng.uniform(0.0, curve.s0, 100)
    h = 1e-5 * curve.s0
    d1 = (curve.position(s + h) - curve.position(s - h)) / (2.0 * h)
    d2 = (curve.position(s + h) - 2.0 * curve.position(s) + curve.position(s - h)) / h**2
    speed = np.linalg.norm(d1, axis=-1)
    kap_fd = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed**3
    kap = curve.curvature(s)
    assert np.max(np.abs(kap_fd - kap)) / np.max(np.abs(kap)) <= 1e-6


class _ClockwiseEllipse(BoundaryCurve):
    """The ellipse with semi-axes a and b traced clockwise, t -> -t."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        super().__init__(2.0 * math.pi)

    def _xy(self, t):
        return np.stack([self.a * np.cos(-t), self.b * np.sin(-t)], axis=-1)

    def _d1(self, t):
        return np.stack([self.a * np.sin(-t), -self.b * np.cos(-t)], axis=-1)

    def _d2(self, t):
        return np.stack([-self.a * np.cos(-t), -self.b * np.sin(-t)], axis=-1)


@pytest.mark.parametrize("a, b", [(1.3, 1.0), (1.0, 1.0)], ids=["cw-ellipse", "cw-circle"])
def test_clockwise_generator_raises(a, b):
    """Curves must run counterclockwise: a clockwise generator is rejected
    at construction, not turned around."""
    with pytest.raises(DomainError, match="counterclockwise"):
        _ClockwiseEllipse(a, b)


def test_offset_too_deep():
    with pytest.raises(OffsetTooDeep):
        generate_mesh(Circle(1.0), LayerConfig(1.2, 1.0, 0.5), 0.1)
    # the reach of this ellipse is b^2/a = 1/1.3
    with pytest.raises(OffsetTooDeep):
        generate_mesh(Ellipse(1.3, 1.0), LayerConfig(0.9, 1.0, 0.5), 0.1)


@pytest.mark.parametrize("a, b", [(1.3, 1.0), (1.0, 1.3), (2.0, 0.7)])
def test_ellipse_reach_closed_form(a, b):
    curve = Ellipse(a, b)
    sampled = BoundaryCurve.reach(curve)
    assert abs(curve.reach() - sampled) <= 1e-14 * sampled


def test_offset_distance_to_parent():
    # the interface vertices of a coated mesh lie at depth delta from the parent
    parent = Ellipse(1.3, 1.0)
    mesh = generate_mesh(parent, LayerConfig(0.05, 1.0, 0.5), 0.1)
    golden = 0.5 * (math.sqrt(5.0) - 1.0)
    # dense scan then golden-section refinement of the nearest parameter
    ts = np.linspace(0.0, parent.s0, 2000, endpoint=False)
    pts = parent.position(ts)
    for q in mesh.vertices[mesh.inner]:

        def dist(t):
            return float(np.linalg.norm(parent.position(t) - q))

        i = int(np.argmin(((pts - q) ** 2).sum(axis=1)))
        a = ts[i] - 2.0 * parent.s0 / 2000
        b = ts[i] + 2.0 * parent.s0 / 2000
        c, d = b - golden * (b - a), a + golden * (b - a)
        fc, fd = dist(c), dist(d)
        while b - a > 1e-13:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - golden * (b - a)
                fc = dist(c)
            else:
                a, c, fc = c, d, fd
                d = a + golden * (b - a)
                fd = dist(d)
        assert abs(dist(0.5 * (a + b)) - 0.05) <= 1e-8


def test_layer_config_validation():
    with pytest.raises(DomainError):
        LayerConfig(-0.1, 1.0, 0.5)
    with pytest.raises(DomainError):
        LayerConfig(0.1, 1.0, 1.5)
    with pytest.raises(DomainError):
        LayerConfig(0.1, 1.0, 0.0)
    with pytest.raises(DomainError):
        LayerConfig(0.1, -1.0, 0.5)
    with pytest.raises(DomainError):
        LayerConfig(0.1, 1.0, lambda x, y: 0.5)  # callable index needs bounds
    with pytest.raises(DomainError):
        LayerConfig(0.1, 1.0, lambda x, y: 0.5, n_bounds=(0.4, 1.0))
    LayerConfig(0.1, 1.0, lambda x, y: 0.5, n_bounds=(0.4, 0.6))


def test_variable_thickness_profile():
    layer = LayerConfig(0.05, lambda s: 1.0 + 0.3 * np.cos(2.0 * s), 0.5)
    mesh = generate_mesh(Circle(1.0), layer, 0.1)
    radii = np.linalg.norm(mesh.vertices[mesh.inner], axis=-1)
    assert np.max(np.abs(radii - (1.0 - 0.05 * layer.g_at(mesh.outer_s)))) <= 1e-12


def test_curve_from_config():
    c = curve_from_config({"kind": "circle", "radius": 2.0})
    assert isinstance(c, Circle) and c.radius == 2.0
    e = curve_from_config({"kind": "ellipse", "a": 1.3, "b": 1.0})
    assert isinstance(e, Ellipse)
    f = curve_from_config({"kind": "fourier", "modes": [0.05, 0.02]})
    assert isinstance(f, FourierCurve)
    with pytest.raises(ConfigError):
        curve_from_config({"kind": "square", "side": 1.0})
    with pytest.raises(ConfigError):
        curve_from_config({"kind": "circle", "radius": 1.0, "extra": 2})
    with pytest.raises(ConfigError):
        curve_from_config({"kind": "circle"})
