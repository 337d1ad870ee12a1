import math
from collections import Counter

import numpy as np
import pytest

from thinspec.errors import MeshFailure
from thinspec.geometry import BoundaryCurve, Circle, Ellipse, FourierCurve, LayerConfig
from thinspec.mesh import CORE, LAYER, _orient_ccw, generate_mesh, mirror_maps

from _meshes import core_submesh, square_mesh


def _edge_counts(mesh):
    counts = Counter()
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            counts[(min(a, b), max(a, b))] += 1
    return counts


def test_plain_disk_mesh():
    mesh = generate_mesh(Circle(1.0), None, 0.1)
    radii = np.linalg.norm(mesh.vertices[mesh.outer], axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 1e-10
    assert np.all(mesh.signed_areas() > 0.0)
    assert len(mesh.inner) == 0
    # conforming: no edge shared by more than two triangles
    assert max(_edge_counts(mesh).values()) <= 2


def test_layer_mesh_region_tags():
    mesh = generate_mesh(Circle(1.0), LayerConfig(0.05, 1.0, 0.5), 0.1)
    layer_tris = mesh.triangles[mesh.region == LAYER]
    radii = np.linalg.norm(mesh.vertices[np.unique(layer_tris)], axis=1)
    assert radii.min() >= 0.95 - 1e-10
    assert radii.max() <= 1.0 + 1e-10
    inner_radii = np.linalg.norm(mesh.vertices[mesh.inner], axis=1)
    assert np.max(np.abs(inner_radii - 0.95)) <= 1e-10
    assert max(_edge_counts(mesh).values()) <= 2


def test_layer_mesh_row_resolution():
    mesh = generate_mesh(Circle(1.0), LayerConfig(0.01, 1.0, 0.5), 0.1)
    nb = len(mesh.outer)
    n_layer = int(np.sum(mesh.region == LAYER))
    rows = n_layer // (2 * nb)
    assert rows >= 2
    assert n_layer == rows * 2 * nb  # structured rows, finite and accounted


def test_interface_is_union_of_edges():
    mesh = generate_mesh(Circle(1.0), LayerConfig(0.05, 1.0, 0.5), 0.1)
    counts = _edge_counts(mesh)
    inner = mesh.inner
    for j in range(len(inner)):
        a, b = inner[j], inner[(j + 1) % len(inner)]
        assert counts[(min(a, b), max(a, b))] == 2  # one core, one coating side


def test_mesh_size_guard():
    with pytest.raises(MeshFailure):
        generate_mesh(Circle(1.0), None, 0.5)


def test_zero_depth_coating_rejected():
    with pytest.raises(MeshFailure):
        generate_mesh(Circle(1.0), LayerConfig(0.01, 0.0, 0.5), 0.1)


def test_reported_mesh_size():
    mesh = generate_mesh(Ellipse(1.3, 1.0), None, 0.1)
    assert 0.05 <= mesh.h <= 0.2


def test_square_mesh():
    mesh = square_mesh(10)
    assert mesh.n_vertices == 121
    assert len(mesh.triangles) == 200
    assert len(mesh.outer) == 40
    assert np.all(mesh.signed_areas() > 0.0)


def test_core_submesh():
    mesh = generate_mesh(Circle(1.0), LayerConfig(0.05, 1.0, 0.5), 0.1)
    sub, remap = core_submesh(mesh)
    assert np.all(sub.signed_areas() > 0.0)
    radii = np.linalg.norm(sub.vertices[sub.outer], axis=1)
    assert np.max(np.abs(radii - 0.95)) <= 1e-10
    assert sub.n_vertices == int(np.sum(remap >= 0))


# ---------------------------------------------------------------------------
# mirror maps
# ---------------------------------------------------------------------------

_MIRRORED = [Circle(1.0), Ellipse(1.3, 1.0), FourierCurve([0.08, 0.0, 0.03])]


def _triangle_set(triangles):
    """The triangles as rows of sorted corners, in lexicographic order."""
    t = np.sort(triangles, axis=1)
    return t[np.lexsort(t.T[::-1])]


@pytest.mark.parametrize("h", [0.1, 0.05])
@pytest.mark.parametrize("coated", [False, True], ids=["bare", "coated"])
@pytest.mark.parametrize("curve", _MIRRORED, ids=lambda c: c.kind)
def test_mirror_maps_reflect_the_mesh(curve, coated, h):
    """Each map is an involution of the vertices onto their exact mirror
    images, bit for bit, and takes the core triangles onto themselves; the
    coating rows' diagonals flip, so the triangles of a coated mesh as a
    whole do not map onto themselves."""
    mesh = generate_mesh(curve, LayerConfig(0.04, 1.0, 0.48) if coated else None, h)
    p, n = mesh.vertices, mesh.n_vertices
    core = mesh.triangles[mesh.region == CORE]
    assert len(mesh.mirrors) == len(curve.mirrors) >= 1
    for axis, s in zip(curve.mirrors, mesh.mirrors):
        assert np.array_equal(np.sort(s), np.arange(n))
        assert np.array_equal(s[s], np.arange(n))
        image = p * (np.array([1.0, -1.0]) if axis == "x" else np.array([-1.0, 1.0]))
        assert np.array_equal(p[s], image)
        assert np.array_equal(_triangle_set(s[core]), _triangle_set(core))
        same = np.array_equal(_triangle_set(s[mesh.triangles]), _triangle_set(mesh.triangles))
        assert same == (not coated)


@pytest.mark.parametrize("coated", [False, True], ids=["bare", "coated"])
def test_mirrored_mesh_evaluates_the_fundamental_arc(coated):
    """Under its two mirrors an ellipse mesh inverts the arclength only on
    the first quarter of the curve: the core at its distinct fractions
    j/(6i) up to 1/4, the coating ring at its first nb/4 + 1 vertices."""
    curve = Ellipse(1.3, 1.0)
    calls = []
    inverse = curve._t_of_s

    def recording(s):
        calls.append(np.asarray(s))
        return inverse(s)

    curve._t_of_s = recording
    mesh = generate_mesh(curve, LayerConfig(0.04, 1.0, 0.48) if coated else None, 0.075)
    n = mesh.n_rings
    ring = np.repeat(np.arange(1, n + 1), 6 * np.arange(1, n + 1))
    frac = np.unique((np.arange(len(ring)) - 3 * ring * (ring - 1)) / (6.0 * ring))
    assert len(calls[0]) == np.count_nonzero(frac <= 0.25) < len(frac) / 3
    assert float(calls[0].max()) <= curve.s0 / 4
    assert [len(s) for s in calls[1:]] == ([len(mesh.outer) // 4 + 1] if coated else [])


class _UndeclaredCircle(BoundaryCurve):
    """The unit circle from a raw parameter, in a class that declares no
    mirrors."""

    def __init__(self):
        super().__init__(2.0 * math.pi)

    def _xy(self, t):
        return np.stack([np.cos(t), np.sin(t)], axis=-1)

    def _d1(self, t):
        return np.stack([-np.sin(t), np.cos(t)], axis=-1)

    def _d2(self, t):
        return np.stack([-np.cos(t), -np.sin(t)], axis=-1)


@pytest.mark.parametrize("layer", [None, LayerConfig(0.04, 1.0, 0.48)], ids=["bare", "coated"])
def test_curve_without_mirrors_gets_no_maps(layer):
    assert generate_mesh(_UndeclaredCircle(), layer, 0.1).mirrors == ()


def test_callable_thickness_gets_no_maps():
    """A callable profile need not be mirror-even, so its coated mesh gets no
    maps; a constant one keeps the curve's."""
    uneven = LayerConfig(0.04, lambda s: 1.0 + 0.3 * np.sin(s), 0.48)
    assert generate_mesh(Circle(1.0), uneven, 0.1).mirrors == ()
    assert len(generate_mesh(Circle(1.0), LayerConfig(0.04, 1.0, 0.48), 0.1).mirrors) == 2


def test_mirror_maps_small_case():
    """Two core rings and one coating row: ring 1 (vertices 1-6), ring 2
    (7-18) and the row (19-30), each reflected within itself."""
    x, y = mirror_maps(("x", "y"), 2, 1)
    assert x.tolist() == [0, 1, 6, 5, 4, 3, 2, 7, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8,
                          19, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20]
    assert y.tolist() == [0, 4, 3, 2, 1, 6, 5, 13, 12, 11, 10, 9, 8, 7, 18, 17, 16, 15, 14,
                          25, 24, 23, 22, 21, 20, 19, 30, 29, 28, 27, 26]


# ---------------------------------------------------------------------------
# vectorized construction against the per-ring loop it replaced
# ---------------------------------------------------------------------------

def _loop_fold(axes, m, j):
    """Vertex j of a ring of m vertices as (f, x factor, y factor): its
    vertex on the fundamental arc of the reflections across `axes`, and
    the factors that reflect f's point onto j's (0 on a reflection's axis)."""
    fx = fy = 1.0
    if "x" in axes:
        if 2 * j > m:
            j, fy = m - j, -1.0
        if j == 0 or 2 * j == m:
            fy = 0.0
    if "y" in axes:
        if m < 4 * j < 3 * m:
            j, fx = (m // 2 - j) % m, -1.0
        if 4 * j in (m, 3 * m):
            fx = 0.0
    return j, fx, fy


def _loop_folded_ring(axes, m):
    """Per vertex of a ring of m vertices, its folded vertex and factors."""
    folds = [_loop_fold(axes, m, j) for j in range(m)]
    return np.array([f for f, _, _ in folds]), np.array([(fx, fy) for _, fx, fy in folds])


def _loop_hex_core(n_rings, boundary_points_of, axes):
    """The core as one boundary evaluation and one triangle loop per ring;
    each vertex is the mirror image of its folded vertex's point."""
    verts = [np.zeros(2)]
    ring_start = [0, 1]
    for i in range(1, n_rings + 1):
        folded, factor = _loop_folded_ring(axes, 6 * i)
        pts = (i / n_rings) * (boundary_points_of(folded / (6.0 * i)) * factor)
        verts.extend(pts)
        ring_start.append(ring_start[-1] + 6 * i)
    verts = np.array(verts)
    tris = [(0, 1 + j, 1 + (j + 1) % 6) for j in range(6)]
    for i in range(1, n_rings):
        si, so = ring_start[i], ring_start[i + 1]
        ni, no = 6 * i, 6 * (i + 1)
        for sector in range(6):
            for k in range(i + 1):
                a = so + (sector * (i + 1) + k) % no
                b = so + (sector * (i + 1) + k + 1) % no
                c = si + (sector * i + k) % ni
                tris.append((a, b, c))
                if k < i:
                    d = si + (sector * i + k + 1) % ni
                    tris.append((b, d, c))
    tris = np.array(tris, dtype=np.int64)
    boundary = np.arange(ring_start[n_rings], ring_start[n_rings + 1])
    return verts, tris, boundary


def _loop_mesh(curve, layer, h):
    """Vertices, triangles, region, outer and inner as the per-ring and
    per-row loops built them."""
    n_rings = max(2, int(round(curve.s0 / (6.0 * h))))
    nb = 6 * n_rings
    if layer is None:
        verts, tris, boundary = _loop_hex_core(
            n_rings, lambda frac: curve.position(frac * curve.s0), curve.mirrors)
        _orient_ccw(verts, tris)
        return verts, tris, np.full(len(tris), CORE), boundary, np.array([], dtype=np.int64)

    def bpoints(frac):
        s = frac * curve.s0
        depth = layer.thickness(s)
        base, nu = curve.position_normal(s)
        return base + np.asarray(depth)[..., None] * nu

    verts, tris, interface = _loop_hex_core(n_rings, bpoints, curve.mirrors)
    verts = list(verts)
    tris = [tuple(t) for t in tris]
    region = [CORE] * len(tris)
    s_ring = np.arange(nb) * curve.s0 / nb
    depth = np.asarray(layer.thickness(s_ring))
    rows = max(2, int(math.ceil(float(depth.max()) / h)))
    folded, factor = _loop_folded_ring(curve.mirrors, nb)
    base, nu = (a * factor for a in curve.position_normal(s_ring[folded]))
    ring_prev = list(interface)
    for k in range(1, rows + 1):
        frac_in = 1.0 - k / rows
        start = len(verts)
        verts.extend(base + (depth * frac_in)[:, None] * nu)
        ring_new = list(range(start, start + nb))
        for j in range(nb):
            a, b = ring_prev[j], ring_prev[(j + 1) % nb]
            c, d = ring_new[j], ring_new[(j + 1) % nb]
            tris += [(a, b, c), (b, d, c)]
            region += [LAYER, LAYER]
        ring_prev = ring_new
    verts = np.array(verts)
    tris = np.array(tris, dtype=np.int64)
    _orient_ccw(verts, tris)
    return verts, tris, np.array(region), np.array(ring_prev), interface


_CURVES = {
    "circle": lambda: Circle(1.0),
    "ellipse": lambda: Ellipse(1.3, 1.0),
    "fourier": lambda: FourierCurve([0.0, 0.05, 0.0, 0.02]),
}


@pytest.mark.parametrize("h", [0.075, 0.04])
@pytest.mark.parametrize("delta", [None, 0.04, 0.01, 0.1])
@pytest.mark.parametrize("kind", sorted(_CURVES))
def test_mesh_matches_loop_construction(kind, delta, h):
    # delta = 0.1 at h = 0.04 gives three coating rows, whose depth fractions
    # 2/3 and 1/3 (unlike 1/2 and 0) round, so the row arithmetic is pinned
    curve = _CURVES[kind]()
    layer = None if delta is None else LayerConfig(delta, 1.0, 0.5)
    mesh = generate_mesh(curve, layer, h)
    ref = _loop_mesh(curve, layer, h)
    got = (mesh.vertices, mesh.triangles, mesh.region, mesh.outer, mesh.inner)
    for name, a, b in zip(("vertices", "triangles", "region", "outer", "inner"), got, ref):
        assert np.array_equal(a, b), name
    assert mesh.triangles.dtype == np.int64 and mesh.region.dtype == np.int64


def _t_of_s_calls(curve, layer, h):
    calls = []
    inverse = curve._t_of_s

    def counted(s):
        calls.append(s)
        return inverse(s)

    curve._t_of_s = counted
    generate_mesh(curve, layer, h)
    return len(calls)


def test_one_boundary_evaluation_per_mesh():
    for layer, inversions in ((None, 1), (LayerConfig(0.02, 1.0, 0.5), 2)):
        # the core takes its points (and with a coating their normals) from
        # one inversion; the coating rows take theirs from one more
        counts = [_t_of_s_calls(Ellipse(1.3, 1.0), layer, h) for h in (0.075, 0.02)]
        assert counts == [inversions, inversions]


def test_one_reach_per_coated_mesh():
    # the sampled reach of a general curve serves both the mesh size guard
    # and the coating depth check
    curve = FourierCurve([0.0, 0.05, 0.0, 0.02])
    calls = []
    reach = curve.reach

    def counted():
        calls.append(1)
        return reach()

    curve.reach = counted
    generate_mesh(curve, LayerConfig(0.02, 1.0, 0.5), 0.05)
    assert len(calls) == 1


def test_sampled_reach_is_kept_on_the_curve():
    # the 4096 sampled curvatures behind a general curve's reach are
    # evaluated once per curve object, and the kept value is the bits of a
    # fresh sampling
    curve = FourierCurve([0.08, 0.0, 0.03])
    generate_mesh(curve, None, 0.04)
    sampled = []
    curvature = curve.curvature

    def counted(s):
        sampled.append(np.size(s))
        return curvature(s)

    curve.curvature = counted
    generate_mesh(curve, None, 0.04)
    generate_mesh(curve, LayerConfig(0.02, 1.0, 0.5), 0.04)
    assert sampled == []
    fresh = FourierCurve([0.08, 0.0, 0.03])
    assert float.hex(curve.reach()) == float.hex(fresh.reach())
    s = np.linspace(0.0, fresh.s0, 4096, endpoint=False)
    assert curve.reach() == 1.0 / np.max(np.abs(fresh.curvature(s)))
