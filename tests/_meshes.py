"""Meshes the tests build as references: a structured unit square and the
core of a coated mesh cut out as its own mesh."""

import numpy as np

from thinspec.mesh import CORE, TriMesh, _orient_ccw


def square_mesh(n):
    """Structured right-triangle mesh of the unit square."""
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    verts = np.stack([X.ravel(), Y.ravel()], axis=1)
    idx = np.arange((n + 1) * (n + 1)).reshape(n + 1, n + 1)
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = idx[i, j], idx[i + 1, j]
            c, d = idx[i + 1, j + 1], idx[i, j + 1]
            tris.append((a, b, c))
            tris.append((a, c, d))
    tris = np.array(tris, dtype=np.int64)
    on_bnd = (
        (verts[:, 0] == 0.0) | (verts[:, 0] == 1.0)
        | (verts[:, 1] == 0.0) | (verts[:, 1] == 1.0)
    )
    return TriMesh(
        vertices=verts,
        triangles=_orient_ccw(verts, tris),
        region=np.full(len(tris), CORE, dtype=np.int64),
        outer=np.flatnonzero(on_bnd),
        inner=np.array([], dtype=np.int64),
    )


def core_submesh(mesh):
    """The core region of a coated mesh as its own mesh, Dirichlet boundary
    on the former interface.  Returns (submesh, old_to_new vertex map).

    The submesh carries no curve or boundary arclengths: its boundary is the
    interface, not `mesh.curve`."""
    keep = mesh.region == CORE
    tris = mesh.triangles[keep]
    used = np.unique(tris)
    remap = -np.ones(mesh.n_vertices, dtype=np.int64)
    remap[used] = np.arange(len(used))
    sub = TriMesh(
        vertices=mesh.vertices[used],
        triangles=remap[tris],
        region=np.full(keep.sum(), CORE, dtype=np.int64),
        outer=remap[mesh.inner] if len(mesh.inner) else remap[mesh.outer],
        inner=np.array([], dtype=np.int64),
    )
    return sub, remap
