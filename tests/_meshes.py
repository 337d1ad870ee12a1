"""Inputs and references the tests share: a set of boundary curves, a
structured unit square, the core of a coated mesh cut out as its own mesh,
finite element assembly through triangles x 3 x 3 broadcasts, the
Dirichlet factor of a whole mesh, a factor that counts its solves, the
count of mirror-even unknowns, and a record of the factorizations each
module asks SuperLU for."""

import dataclasses

import numpy as np
from scipy import sparse

from thinspec.fem import dirichlet_factor, triangle_area
from thinspec.geometry import Circle, Ellipse, FourierCurve
from thinspec.mesh import CORE, LAYER, TriMesh, _orient_ccw

CURVES = [
    Circle(1.0),
    Ellipse(2.0, 1.0),
    Ellipse(1.3, 1.0),
    FourierCurve([0.08, 0.0, 0.03]),
]


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
    _orient_ccw(verts, tris)
    return TriMesh(
        vertices=verts,
        triangles=tris,
        region=np.full(len(tris), CORE, dtype=np.int64),
        outer=np.flatnonzero(on_bnd),
        inner=np.array([], dtype=np.int64),
    )


def core_submesh(mesh):
    """The core region of a coated mesh as its own mesh, Dirichlet boundary
    on the former interface.  Returns (submesh, old_to_new vertex map).

    The submesh carries no curve or boundary arclengths: its boundary is the
    interface, not `mesh.curve`.  It keeps the mesh's mirror maps, renumbered:
    the core triangles map onto themselves under them."""
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
        mirrors=tuple(remap[s[used]] for s in mesh.mirrors),
    )
    return sub, remap


def broadcast_assemble(mesh, kind, region=None, coefficient=None):
    """Reference assembly through triangles x 3 x 3 broadcasts: the local
    stiffness as outer products of the gradient components, the local mass
    as the edge-midpoint rule accumulated over the three quadrature points.
    `thinspec.fem.assemble` must return the same bits."""
    tris = mesh.triangles if region is None else mesh.triangles[mesh.region == LAYER]
    p = mesh.vertices
    nv = mesh.n_vertices
    x = p[tris, 0]
    y = p[tris, 1]
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    area = 0.5 * det
    if kind == "stiffness":
        b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
            4.0 * area[:, None, None]
        )
        if coefficient is not None and not callable(coefficient):
            local = local * float(coefficient)
        elif callable(coefficient):
            mid = p[tris].mean(axis=1)
            local = local * np.asarray(coefficient(mid[:, 0], mid[:, 1]))[:, None, None]
    else:
        mids = [0.5 * (p[tris[:, i]] + p[tris[:, j]]) for i, j in ((0, 1), (1, 2), (2, 0))]
        if coefficient is None:
            cvals = [np.ones(len(tris))] * 3
        elif callable(coefficient):
            cvals = [np.asarray(coefficient(m[:, 0], m[:, 1]), dtype=float) for m in mids]
        else:
            cvals = [np.full(len(tris), float(coefficient))] * 3
        # hat values at the edge midpoints: 1/2 on the two adjacent vertices
        phis = [np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.5, 0.5]), np.array([0.5, 0.0, 0.5])]
        local = np.zeros((len(tris), 3, 3))
        for phi, cv in zip(phis, cvals):
            local += (area * cv / 3.0)[:, None, None] * np.outer(phi, phi)[None, :, :]
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    return sparse.csr_matrix((local.ravel(), (rows, cols)), shape=(nv, nv))


class CountingFactor:
    """SuperLU stand-in that counts its solves in counts["solves"]."""

    def __init__(self, lu, counts):
        self.shape, self._lu, self._counts = lu.shape, lu, counts

    def solve(self, rhs):
        self._counts["solves"] += 1
        return self._lu.solve(rhs)


def counting_factor(factor, counts):
    """`factor`, a `fem.DirichletFactor`, with its solves counted in
    counts["solves"]."""
    return dataclasses.replace(factor, lu=CountingFactor(factor.lu, counts))


def domain_factor(mesh, K, M):
    """`fem.dirichlet_factor` off the outer boundary, over every triangle."""
    return dirichlet_factor(K, M, mesh.outer, mesh.vertices, mesh.triangles,
                            triangle_area(mesh.vertices, mesh.triangles))


def even_unknowns(mesh):
    """Number of orbits of mesh's free vertices under its mirror maps, the
    unknowns of the mirror-even subspace, counted vertex by vertex."""
    free = set(np.setdiff1d(np.arange(mesh.n_vertices), mesh.outer).tolist())
    orbits = set()
    for v in free:
        orbit = {v}
        while True:
            grown = orbit | {int(s[w]) for s in mesh.mirrors for w in orbit}
            if grown == orbit:
                break
            orbit = grown
        orbits.add(min(orbit))
    return len(orbits)


def recording_splu(monkeypatch, *modules):
    """Replace `splu` in each module with one that records (module name,
    matrix, keyword arguments) of every call in the returned list."""
    calls = []
    for mod in modules:
        def recording(a, _real=mod.splu, _name=mod.__name__.rsplit(".", 1)[-1], **kwargs):
            calls.append((_name, a, kwargs))
            return _real(a, **kwargs)
        monkeypatch.setattr(mod, "splu", recording)
    return calls
