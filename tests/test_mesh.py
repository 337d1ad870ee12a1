import math
from collections import Counter

import numpy as np
import pytest

from thinspec.errors import MeshFailure
from thinspec.geometry import Circle, Ellipse, FourierCurve, LayerConfig
from thinspec.mesh import CORE, LAYER, _orient_ccw, generate_mesh

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
# vectorized construction against the per-ring loop it replaced
# ---------------------------------------------------------------------------

def _loop_hex_core(n_rings, boundary_points_of):
    """The core as one boundary evaluation and one triangle loop per ring."""
    verts = [np.zeros(2)]
    ring_start = [0, 1]
    for i in range(1, n_rings + 1):
        frac = np.arange(6 * i) / (6.0 * i)
        pts = (i / n_rings) * boundary_points_of(frac)
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
            n_rings, lambda frac: curve.position(frac * curve.s0))
        return (verts, _orient_ccw(verts, tris), np.full(len(tris), CORE),
                boundary, np.array([], dtype=np.int64))

    def bpoints(frac):
        s = frac * curve.s0
        depth = layer.thickness(s)
        base, nu = curve.position_normal(s)
        return base + np.asarray(depth)[..., None] * nu

    verts, tris, interface = _loop_hex_core(n_rings, bpoints)
    verts = list(verts)
    tris = [tuple(t) for t in tris]
    region = [CORE] * len(tris)
    s_ring = np.arange(nb) * curve.s0 / nb
    depth = np.asarray(layer.thickness(s_ring))
    rows = max(2, int(math.ceil(float(depth.max()) / h)))
    base, nu = curve.position_normal(s_ring)
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
    tris = _orient_ccw(verts, np.array(tris, dtype=np.int64))
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
