"""Conforming triangulations of coated smooth domains.

The core region is meshed with concentric hexagonal rings mapped onto the
(star-shaped) inner boundary; the coating is meshed as structured rows of
tube-coordinate quadrilaterals split into triangles, sharing the interface
ring vertex-for-vertex so the interface is a union of edges.  Boundary
vertices sit on the exact curves, at equally spaced parent arclengths, so
boundary quadrature can use exact arclength weights downstream.

Both parts are built on equal arclength fractions, so a mesh of a curve
that reflects onto itself (`BoundaryCurve.mirrors`) reflects onto itself
too, vertex for vertex; `generate_mesh` records each such reflection as a
map of vertex indices, found by index arithmetic alone.  Such a mesh
evaluates its boundary only on the fundamental arc of the reflections and
places every other vertex as the exact mirror image of one there, so it
is mirror-symmetric bit for bit.
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
    (None for a mesh not built by `generate_mesh`).  mirrors holds one
    vertex map per reflection the mesh is built to share with its curve:
    mirrors[a][v] is the vertex at v's exact mirror image; each map is its
    own inverse and the maps commute (empty for a mesh not built by
    `generate_mesh`).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    region: np.ndarray
    outer: np.ndarray
    inner: np.ndarray
    outer_s: np.ndarray = None
    curve: object = field(default=None, repr=False)
    n_rings: int = None
    mirrors: tuple = ()

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
    """Turn every triangle counterclockwise, in place, and return twice
    the areas of the turned triangles, the absolute cross products."""
    cross = _cross(vertices, triangles)
    flip = cross < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return np.abs(cross)


def _fold(axes, m, j):
    """Fold vertex j of a ring of m vertices onto the fundamental arc of the
    reflections across `axes`, by `mirror_maps`' arithmetic.

    Returns the vertex f on that arc that j is a mirror image of, and per
    vertex the factors (x, y) that take f's point to j's: -1 on the
    coordinate a reflection negates, and 0 on the one that vanishes on a
    reflection's axis (j = 0 and m/2 lie on the x-axis, m/4 and 3m/4 on the
    y-axis), so that a vertex there is its own exact image.
    """
    fx, fy = np.ones(len(j)), np.ones(len(j))
    if "x" in axes:  # j -> m - j takes the lower half onto the upper one
        flip = 2 * j > m
        j = np.where(flip, m - j, j)
        fy[flip] = -1.0
        fy[(j == 0) | (2 * j == m)] = 0.0
    if "y" in axes:  # j -> m/2 - j takes the left half onto the right one
        flip = (4 * j > m) & (4 * j < 3 * m)
        j = np.where(flip, (m // 2 - j) % m, j)
        fx[flip] = -1.0
        fx[(4 * j == m) | (4 * j == 3 * m)] = 0.0
    return j, np.stack([fx, fy], -1)


def _hex_core(n_rings, boundary_points_of, axes):
    """Hexagonal-ring triangulation of a star-shaped region.

    boundary_points_of(frac) returns boundary points at parameter fractions;
    interior ring i carries 6i vertices at radial fraction i/N.  It is called
    once per mesh, on the distinct fractions j/(6i) of all rings at once
    (equal fractions of different rings divide to the same double), each
    vertex folded onto the fundamental arc of the reflections across `axes`
    (`_fold`) and placed at the exact mirror image of its folded point.
    """
    ring = np.repeat(np.arange(1, n_rings + 1), 6 * np.arange(1, n_rings + 1))
    start = 1 + 3 * ring * (ring - 1)  # index of the first vertex of each ring
    j = np.arange(1, len(ring) + 1) - start
    folded, factor = _fold(axes, 6 * ring, j)
    frac, where = np.unique(folded / (6.0 * ring), return_inverse=True)
    verts = np.zeros((len(ring) + 1, 2))  # the centre, then the rings
    np.multiply((ring / n_rings)[:, None], boundary_points_of(frac)[where] * factor,
                out=verts[1:])
    del folded, factor, frac, where
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


def ring_count(curve, h):
    """Number of hexagonal core rings `generate_mesh` builds for mesh size h."""
    return max(2, int(round(curve.s0 / (6.0 * h))))


def mirror_maps(axes, n_rings, rows):
    """Vertex maps of the reflections across `axes` ("x" or "y",
    `BoundaryCurve.mirrors`) of a mesh with n_rings core rings and `rows`
    coating rows, in `generate_mesh`'s numbering: the centre, the core rings
    outwards, then the coating rows inwards to the outer boundary.

    Ring i of the core holds m = 6i vertices and a coating row m = 6 n_rings;
    vertex j of a ring sits at the boundary fraction j/m, which the
    reflection across the x-axis takes to (m - j)/m and the one across the
    y-axis to (m/2 - j)/m, modulo 1.  So vertex j maps to vertex
    (m - j) mod m or (m/2 - j) mod m of its own ring; the centre maps to
    itself.
    """
    sizes = np.concatenate([6 * np.arange(1, n_rings + 1), np.full(rows, 6 * n_rings)])
    m = np.repeat(sizes, sizes)
    start = np.repeat(1 + np.cumsum(sizes) - sizes, sizes)
    j = np.arange(1, len(m) + 1) - start
    turns = {"x": 2, "y": 1}  # halves of a turn from the reflection's fixed vertex j = 0
    return tuple(np.concatenate([[0], start + (turns[axis] * (m // 2) - j) % m])
                 for axis in axes)


def generate_mesh(curve, layer, h):
    """Mesh the domain bounded by `curve`, optionally with a coating.

    With a coating, the interface ring lies exactly on the offset curve and
    the coating is filled with max(2, ceil(depth/h)) structured element rows.
    The boundary is evaluated once for the whole hexagonal core, and once more
    at the coating-row arclengths.  The mesh records `mirror_maps` for the
    curve's mirrors; a coating with a callable thickness profile, which
    need not be mirror-even, gets none.  A mesh that records maps evaluates
    both only on the fundamental arc of its mirrors (`_fold`): on the
    Ellipse(1.3, 1) core at h = 0.01, 6,745 boundary points instead of
    26,976; every other vertex, and every coating-row normal, is the exact
    mirror image of one there, so the maps are symmetries bit for bit.
    Raises MeshFailure for degenerate triangles, found from the cross
    products `_orient_ccw` returns.
    """
    eta0 = curve.reach()
    if h >= min(0.2 * eta0, curve.s0 / 16.0):
        raise MeshFailure(
            f"mesh size {h} too coarse: need h < min(0.2*eta0, perimeter/16) "
            f"= {min(0.2 * eta0, curve.s0 / 16.0):.6g}"
        )
    if layer is not None:
        layer.validate_against(curve, eta0)

    n_rings = ring_count(curve, h)
    nb = 6 * n_rings
    s_ring = np.arange(nb) * curve.s0 / nb
    axes = curve.mirrors if layer is None or not callable(layer.g) else ()

    rows = 0
    if layer is None:
        verts, tris, outer = _hex_core(n_rings, lambda frac: curve.position(frac * curve.s0),
                                       axes)
        region = np.full(len(tris), CORE, dtype=np.int64)
        inner = np.array([], dtype=np.int64)
    else:
        def bpoints(frac):
            s = frac * curve.s0
            base, nu = curve.position_normal(s)
            return base + np.asarray(layer.thickness(s))[..., None] * nu

        core_verts, core_tris, inner = _hex_core(n_rings, bpoints, axes)

        depth = np.asarray(layer.thickness(s_ring))
        if float(depth.min()) <= 0.0:
            raise MeshFailure("coating must have positive depth everywhere to be meshed")
        rows = max(2, int(math.ceil(float(depth.max()) / h)))

        # row k sits at the remaining depth fraction 1 - k/rows (0 on the outer
        # boundary), over the points and normals of the folded ring
        folded, factor = _fold(axes, nb, np.arange(nb))
        keep, where = np.unique(folded, return_inverse=True)
        base, nu = (a[where] * factor for a in curve.position_normal(s_ring[keep]))
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

    twice_areas = _orient_ccw(verts, tris)
    if np.any(twice_areas <= 1e-15 * float(np.median(twice_areas))):
        raise MeshFailure("degenerate or inverted triangle produced")
    return TriMesh(vertices=verts, triangles=tris, region=region, outer=outer, inner=inner,
                   outer_s=s_ring, curve=curve, n_rings=n_rings,
                   mirrors=mirror_maps(axes, n_rings, rows))
