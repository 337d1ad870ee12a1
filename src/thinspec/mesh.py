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

    outer/inner hold vertex indices ordered along the outer boundary and the
    coating interface (empty without a coating); a coated mesh puts them at
    the same parent arclengths.  outer_s holds those arclengths of the outer
    vertices and curve is the parent curve (both None for a mesh not built
    over a curve, which has no boundary quadrature).  h is the measured
    maximum edge length; n_rings is the number of rings of the hexagonal
    core, whose spacing s0/(6 n_rings) is what a mesh refinement changes
    (None for a mesh not built by `generate_mesh`).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    region: np.ndarray
    outer: np.ndarray
    inner: np.ndarray
    outer_s: np.ndarray = None
    curve: object = field(default=None, repr=False)
    n_rings: int = None

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def h(self):
        """Longest edge, from the squared lengths of the three edge arrays
        (the square root is monotone, so it is taken once)."""
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        t = self.triangles
        longest = 0.0
        for i, j in ((0, 1), (1, 2), (2, 0)):
            dx = x[t[:, j]] - x[t[:, i]]
            dy = y[t[:, j]] - y[t[:, i]]
            longest = max(longest, float((dx * dx + dy * dy).max(initial=0.0)))
        return math.sqrt(longest)

    def signed_areas(self):
        return 0.5 * _cross(self.vertices, self.triangles)

    def centroid(self):
        areas = self.signed_areas()
        mids = self.vertices[self.triangles].mean(axis=1)
        return (areas[:, None] * mids).sum(axis=0) / areas.sum()

    def has_layer(self):
        return bool(np.any(self.region == LAYER))


def _cross(p, t):
    """Twice the signed area of each triangle, one coordinate array at a time."""
    x, y = p[:, 0], p[:, 1]
    x0, y0 = x[t[:, 0]], y[t[:, 0]]
    return (x[t[:, 1]] - x0) * (y[t[:, 2]] - y0) - (y[t[:, 1]] - y0) * (x[t[:, 2]] - x0)


def _orient_ccw(vertices, triangles):
    flip = _cross(vertices, triangles) < 0
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
    verts = np.zeros((len(ring) + 1, 2))  # the centre, then the rings
    np.multiply((ring / n_rings)[:, None], boundary_points_of(frac)[where], out=verts[1:])
    del frac, where
    # rings i and i+1 are joined by one (a, b, c) per vertex m = sector*(i+1) + k
    # of ring i+1, each followed by (b, d, c) unless k == i; a, b lie on ring
    # i+1 and c, d on ring i.  Ring 1 is the first 6 entries; the columns are
    # written straight into their rows of the triangle array.
    i, m, so = ring[6:] - 1, j[6:], start[6:]
    si, ni = 1 + 3 * i * (i - 1), 6 * i
    sector, k = m // (i + 1), m % (i + 1)
    second = k < i
    at = 6 + np.arange(len(m)) + np.cumsum(second) - second  # row of each (a, b, c)
    tris = np.empty((6 + len(m) + int(second.sum()), 3), dtype=np.int64)
    tris[:6] = np.stack([np.zeros(6, dtype=np.int64), 1 + np.arange(6),
                         1 + (np.arange(1, 7) % 6)], -1)
    tris[at, 0] = so + m
    tris[at, 1] = so + (m + 1) % (ni + 6)
    tris[at, 2] = si + (sector * i + k) % ni
    at_bdc = at[second]
    tris[at_bdc + 1, 0] = tris[at_bdc, 1]
    tris[at_bdc + 1, 1] = (si + (sector * i + k + 1) % ni)[second]
    tris[at_bdc + 1, 2] = tris[at_bdc, 2]
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
    s_ring = np.arange(nb) * curve.s0 / nb

    if layer is None:
        verts, tris, outer = _hex_core(n_rings, lambda frac: curve.position(frac * curve.s0))
        region = np.full(len(tris), CORE, dtype=np.int64)
        inner = np.array([], dtype=np.int64)
    else:
        def bpoints(frac):
            s = frac * curve.s0
            base, nu = curve.position_normal(s)
            return base + np.asarray(layer.thickness(s))[..., None] * nu

        core_verts, core_tris, inner = _hex_core(n_rings, bpoints)

        depth = np.asarray(layer.thickness(s_ring))
        if float(depth.min()) <= 0.0:
            raise MeshFailure("coating must have positive depth everywhere to be meshed")
        rows = max(2, int(math.ceil(float(depth.max()) / h)))

        # row k sits at the remaining depth fraction 1 - k/rows (0 on the outer boundary)
        base, nu = curve.position_normal(s_ring)
        frac_in = 1.0 - np.arange(1, rows + 1) / rows
        row_verts = base + (frac_in[:, None] * depth)[..., None] * nu
        ring = len(core_verts) + np.arange(rows * nb).reshape(rows, nb)
        prev = np.concatenate([inner[None], ring[:-1]])
        nxt = np.roll(np.arange(nb), -1)
        a, b, c, d = prev, prev[:, nxt], ring, ring[:, nxt]
        layer_tris = np.stack([np.stack([a, b, c], -1), np.stack([b, d, c], -1)], 2)

        region = np.repeat(np.array([CORE, LAYER], dtype=np.int64),
                           [len(core_tris), 2 * rows * nb])
        verts = np.concatenate([core_verts, row_verts.reshape(-1, 2)])
        tris = np.concatenate([core_tris, layer_tris.reshape(-1, 3)])
        del core_verts, core_tris  # superseded by the copies above
        outer = ring[-1]

    mesh = TriMesh(vertices=verts, triangles=_orient_ccw(verts, tris), region=region,
                   outer=outer, inner=inner, outer_s=s_ring, curve=curve, n_rings=n_rings)
    areas = mesh.signed_areas()
    if np.any(areas <= 1e-15 * float(np.median(np.abs(areas)))):
        raise MeshFailure("degenerate or inverted triangle produced")
    return mesh
