"""Conforming triangulations of coated smooth domains.

The core region is meshed with concentric hexagonal rings mapped onto the
(star-shaped) inner boundary; the coating is meshed as structured rows of
tube-coordinate quadrilaterals split into triangles, sharing the interface
ring vertex-for-vertex so the interface is a union of edges.  Boundary
vertices sit on the exact curves, at equally spaced parent arclengths, so
boundary quadrature can use exact arclength weights downstream.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshFailure

CORE = 0
LAYER = 1


@dataclass
class TriMesh:
    """Triangulation with tagged boundary rings and per-triangle regions.

    outer/inner hold vertex indices ordered along the respective curve;
    outer_s/inner_s are the parent-curve arclengths of those vertices (None
    for a mesh not built over a curve, which has no boundary quadrature).
    h is the measured maximum edge length.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    region: np.ndarray
    outer: np.ndarray
    inner: np.ndarray
    outer_s: np.ndarray = None
    inner_s: np.ndarray = None
    curve: object = field(default=None, repr=False)
    layer: object = field(default=None, repr=False)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def h(self):
        e = self.vertices[self.triangles[:, [1, 2, 0]]] - self.vertices[self.triangles]
        return float(np.sqrt((e**2).sum(-1)).max())

    def signed_areas(self):
        p = self.vertices
        t = self.triangles
        a = p[t[:, 1]] - p[t[:, 0]]
        b = p[t[:, 2]] - p[t[:, 0]]
        return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])

    def centroid(self):
        areas = self.signed_areas()
        mids = self.vertices[self.triangles].mean(axis=1)
        return (areas[:, None] * mids).sum(axis=0) / areas.sum()

    def has_layer(self):
        return bool(np.any(self.region == LAYER))


def _orient_ccw(vertices, triangles):
    a = vertices[triangles[:, 1]] - vertices[triangles[:, 0]]
    b = vertices[triangles[:, 2]] - vertices[triangles[:, 0]]
    det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    flip = det < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return triangles


def _hex_core(n_rings, boundary_points_of):
    """Hexagonal-ring triangulation of a star-shaped region.

    boundary_points_of(frac) returns boundary points at parameter fractions;
    interior ring i carries 6i vertices at radial fraction i/N.  It is called
    once per mesh, on the distinct fractions j/(6i) of all rings at once
    (equal fractions of different rings divide to the same double).
    """
    ring = np.repeat(np.arange(1, n_rings + 1), 6 * np.arange(1, n_rings + 1))
    start = 1 + 3 * ring * (ring - 1)  # index of the first vertex of each ring
    j = np.arange(1, len(ring) + 1) - start
    frac, where = np.unique(j / (6.0 * ring), return_inverse=True)
    pts = (ring / n_rings)[:, None] * boundary_points_of(frac)[where]
    verts = np.concatenate([np.zeros((1, 2)), pts])
    # rings i and i+1 are joined by one (a, b, c) per vertex m = sector*(i+1) + k
    # of ring i+1, each followed by (b, d, c) unless k == i; a, b lie on ring
    # i+1 and c, d on ring i
    joined = ring > 1
    i, m, so = ring[joined] - 1, j[joined], start[joined]
    si, ni = 1 + 3 * i * (i - 1), 6 * i
    sector, k = m // (i + 1), m % (i + 1)
    a, b = so + m, so + (m + 1) % (ni + 6)
    c = si + (sector * i + k) % ni
    d = si + (sector * i + k + 1) % ni
    pair = np.stack([np.stack([a, b, c], -1), np.stack([b, d, c], -1)], 1)
    keep = np.stack([np.ones(len(k), dtype=bool), k < i], 1)
    fan = np.stack([np.zeros(6, dtype=np.int64), 1 + np.arange(6), 1 + (np.arange(1, 7) % 6)], -1)
    tris = np.concatenate([fan, pair[keep]])
    boundary = np.arange(len(verts) - 6 * n_rings, len(verts))
    return verts, tris, boundary


def generate_mesh(curve, layer, h):
    """Mesh the domain bounded by `curve`, optionally with a coating.

    With a coating, the interface ring lies exactly on the offset curve and
    the coating is filled with max(2, ceil(depth/h)) structured element rows.
    The boundary is evaluated once for the whole hexagonal core, and once more
    at the coating-row arclengths.  Raises MeshFailure for degenerate
    triangles.
    """
    eta0 = curve.reach()
    if h >= min(0.2 * eta0, curve.s0 / 16.0):
        raise MeshFailure(
            f"mesh size {h} too coarse: need h < min(0.2*eta0, perimeter/16) "
            f"= {min(0.2 * eta0, curve.s0 / 16.0):.6g}"
        )
    if layer is not None:
        layer.validate_against(curve, eta0)

    n_rings = max(2, int(round(curve.s0 / (6.0 * h))))
    nb = 6 * n_rings

    if layer is None:
        def bpoints(frac):
            return curve.position(frac * curve.s0)

        verts, tris, boundary = _hex_core(n_rings, bpoints)
        region = np.full(len(tris), CORE, dtype=np.int64)
        tris = _orient_ccw(verts, tris)
        mesh = TriMesh(
            vertices=verts,
            triangles=tris,
            region=region,
            outer=boundary,
            inner=np.array([], dtype=np.int64),
            outer_s=np.arange(nb) * curve.s0 / nb,
            inner_s=None,
            curve=curve,
            layer=None,
        )
        _check_areas(mesh)
        return mesh

    def bpoints(frac):
        s = frac * curve.s0
        base, nu = curve.position_normal(s)
        return base + np.asarray(layer.thickness(s))[..., None] * nu

    core_verts, core_tris, interface = _hex_core(n_rings, bpoints)

    s_ring = np.arange(nb) * curve.s0 / nb
    depth = np.asarray(layer.thickness(s_ring))
    if float(depth.min()) <= 0.0:
        raise MeshFailure("coating must have positive depth everywhere to be meshed")
    rows = max(2, int(math.ceil(float(depth.max()) / h)))

    # row k sits at the remaining depth fraction 1 - k/rows (0 on the outer boundary)
    base, nu = curve.position_normal(s_ring)
    frac_in = 1.0 - np.arange(1, rows + 1) / rows
    row_verts = base + (frac_in[:, None] * depth)[..., None] * nu
    ring = len(core_verts) + np.arange(rows * nb).reshape(rows, nb)
    prev = np.concatenate([interface[None], ring[:-1]])
    nxt = np.roll(np.arange(nb), -1)
    a, b, c, d = prev, prev[:, nxt], ring, ring[:, nxt]
    layer_tris = np.stack([np.stack([a, b, c], -1), np.stack([b, d, c], -1)], 2)

    verts = np.concatenate([core_verts, row_verts.reshape(-1, 2)])
    tris = np.concatenate([core_tris, layer_tris.reshape(-1, 3)])
    tris = _orient_ccw(verts, tris)
    region = np.repeat(np.array([CORE, LAYER], dtype=np.int64), [len(core_tris), 2 * rows * nb])
    mesh = TriMesh(
        vertices=verts,
        triangles=tris,
        region=region,
        outer=ring[-1],
        inner=interface,
        outer_s=s_ring.copy(),
        inner_s=s_ring.copy(),
        curve=curve,
        layer=layer,
    )
    _check_areas(mesh)
    return mesh


def _check_areas(mesh):
    areas = mesh.signed_areas()
    if np.any(areas <= 1e-15 * float(np.median(np.abs(areas)))):
        raise MeshFailure("degenerate or inverted triangle produced")
