"""Piecewise-linear finite elements: assembly, eigensolves, the Dirichlet
ground state, constrained source solves, and variational boundary-flux
recovery.

Assembled operators are CSR matrices built from the full element triplets.
They are exactly symmetric: an off-diagonal entry sums the contributions of
at most two triangles, and each local matrix is symmetric bit for bit.  The
triplets are built one element-matrix entry at a time with int32 indices,
so assembly needs no triangles x 3 x 3 scratch: it peaks at about 300 bytes
per triangle beyond its input (24.8 MiB for the 87,846 triangles of an
Ellipse(1.3, 1) at h = 0.01), the triplets and their unmerged CSR copy.  Both
solvers on the free vertices take one SuperLU factor of the free stiffness
block (`stiffness_lu`) as an argument, built once for both: the
Dirichlet eigensolver is ARPACK shift-invert Lanczos at sigma = 0, and the
constrained source solve is conjugate gradients on the M-orthogonal
complement of the ground mode, preconditioned by that factor.
`ground_state` makes that factor together with lambda0 and v0 of the whole
domain, the quantities both the expansion and the direct solve start from.

The ground state is one Lanczos pair, certified by a closed-form floor of
the second eigenvalue instead of a second pair.  With exact stiffness and
an exact mass rule, P1 eigenvalues are Rayleigh-Ritz values of the
Dirichlet Laplacian on the polygon the triangles cover, so each lies above
its continuous counterpart; and by domain monotonicity the polygon's
second eigenvalue lies above that of any box or disk holding its vertices.
A computed eigenvalue that stays clear below that floor is therefore the
lowest discrete eigenvalue, and simple (`floor_clears`).  `lowest_pair`
holds this route for both Max-Min corridor ends, lambda0 and lambda_eroded.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, cg, eigsh, splu

from .errors import ConvergenceFailure, NearDegenerate, SolveSingular
from .mesh import LAYER


@dataclass
class FemField:
    """Vertex-valued P1 field, linear on each triangle."""

    mesh: object
    values: np.ndarray

    def copy(self):
        return FemField(self.mesh, self.values.copy())


# a triangle's vertex pairs (i, j) in the row-major order of its 3 x 3
# element matrix, and its edges in the order of the midpoint quadrature
_PAIRS = [(i, j) for i in range(3) for j in range(3)]
_EDGES = ((0, 1), (1, 2), (2, 0))
# first positive zero of J1 (`bessel.bessel_j_zero(1, 1)`)
_J11 = 3.8317059702075125
# relative rounding margin of the floor test: ARPACK's eigenvalue and the
# floor's own arithmetic are good to far better than this
_FLOOR_MARGIN = 1e-9
# the ground state's least relative gap, the relative residual every
# Dirichlet eigenpair must meet, and ARPACK's restart limit
_GAP = 1e-6
_RESIDUAL_TOL = 1e-10
_RESTARTS = 500


def assemble(mesh, kind, region=None, coefficient=None):
    """Assemble the P1 stiffness or mass operator over the whole mesh
    (region None) or its coating (region "layer") as an exactly symmetric
    CSR matrix on all vertices.

    coefficient may be None (unity), a number, or a callable of (x, y)
    arrays.  The mass matrix uses the 3-point edge-midpoint rule, exact for
    quadratic integrands.

    Each of the nine element-matrix entries is one array over the
    triangles, written into the triplet data in the row-major order of the
    element matrix, so CSR sums duplicates in the same order as for a
    stacked local matrix.  The triplet indices are int32.  The scratch is
    the triplets (9 doubles and 18 int32 per triangle, 144 bytes) and their
    unmerged CSR copy (108 bytes), about 300 bytes per triangle at its peak
    with the merged copy; no triangles x 3 x 3 intermediate is built.
    """
    if region is None:
        tris = mesh.triangles
    elif region == "layer":
        tris = mesh.triangles[mesh.region == LAYER]
    else:
        raise ValueError(f"unknown region {region!r}")
    if kind == "stiffness":
        entries = _stiffness_entries
    elif kind == "mass":
        entries = _mass_entries
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    data = np.empty((len(tris), 9))
    entries(mesh.vertices, tris, coefficient, data)
    t32 = tris.astype(np.int32)
    rows = np.repeat(t32, 3, axis=1).ravel()
    cols = np.tile(t32, (1, 3)).ravel()
    del t32
    nv = mesh.n_vertices
    return sparse.csr_matrix((data.ravel(), (rows, cols)), shape=(nv, nv))


def _corners(p, tris):
    """x and y of each triangle's three corners, as three arrays each."""
    return ([p[tris[:, k], 0] for k in range(3)], [p[tris[:, k], 1] for k in range(3)])


def _area(x, y):
    return 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))


def _stiffness_entries(p, tris, coefficient, data):
    """Fill data[:, 3i + j] with (b_i b_j + c_i c_j)/(4 area), times the
    coefficient at the centroid; entry (j, i) repeats entry (i, j)."""
    x, y = _corners(p, tris)
    four_area = 4.0 * _area(x, y)
    b = [y[1] - y[2], y[2] - y[0], y[0] - y[1]]
    c = [x[2] - x[1], x[0] - x[2], x[1] - x[0]]
    scale = None
    if callable(coefficient):
        scale = np.asarray(coefficient((x[0] + x[1] + x[2]) / 3.0, (y[0] + y[1] + y[2]) / 3.0))
    elif coefficient is not None:
        scale = float(coefficient)
    for i, j in _PAIRS:
        if j < i:
            data[:, 3 * i + j] = data[:, 3 * j + i]
            continue
        entry = (b[i] * b[j] + c[i] * c[j]) / four_area
        data[:, 3 * i + j] = entry if scale is None else entry * scale


def _mass_entries(p, tris, coefficient, data):
    """Fill data[:, 3i + j] with the edge-midpoint rule: midpoint q weighs
    area * coefficient / 3, and the hat functions there are 1/2 on the two
    ends of edge q and 0 elsewhere, so entry (i, j) sums weight/4 over the
    edges holding both i and j, in quadrature order."""
    x, y = _corners(p, tris)
    area = _area(x, y)
    if callable(coefficient):
        cvals = [np.asarray(coefficient(0.5 * (x[i] + x[j]), 0.5 * (y[i] + y[j])), dtype=float)
                 for i, j in _EDGES]
    else:
        cvals = [1.0 if coefficient is None else float(coefficient)] * 3
    quarter = [area * cv / 3.0 * 0.25 for cv in cvals]
    for i, j in _PAIRS:
        terms = [quarter[q] for q, edge in enumerate(_EDGES) if i in edge and j in edge]
        data[:, 3 * i + j] = terms[0] if len(terms) == 1 else terms[0] + terms[1]


def mass_norm(M, u):
    return float(np.sqrt(u @ (M @ u)))


def h1_norm(K, M, u):
    return float(np.sqrt(u @ (K @ u) + u @ (M @ u)))


def _free(n, boundary):
    free = np.ones(n, dtype=bool)
    free[np.asarray(boundary, dtype=np.int64)] = False
    return np.flatnonzero(free)


def stiffness_lu(K, boundary):
    """SuperLU factor of the stiffness block on the vertices off `boundary`.

    The block is symmetric positive definite, so the minimum-degree ordering
    of its (symmetric) pattern fills in less than the default COLAMD.
    """
    free = _free(K.shape[0], boundary)
    try:
        return splu(K[np.ix_(free, free)].tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolveSingular(f"stiffness factorization failed: {exc}") from exc


def dirichlet_eigs(K, M, boundary, count, lu):
    """Smallest `count` eigenpairs of K u = lambda M u with zero essential
    data on `boundary`.

    ARPACK shift-invert Lanczos at sigma = 0 on the free block, applying
    K_ff^-1 through `lu`, the `stiffness_lu` factor off `boundary`, with at
    most _RESTARTS = 500 restarts.  For count 1 it starts from the constant
    vector, since the ground mode is one-signed, in a Krylov space of at
    most 6 vectors (10 to 13 factor solves on the meshes of this package);
    for more pairs from a fixed random vector in ARPACK's default space of
    20 vectors (21 solves for two pairs).  A single pair is not known to be
    the lowest one: `floor_clears` can prove it.  Every returned pair must
    satisfy ||K u - lambda M u|| <= _RESIDUAL_TOL ||K u|| (1e-10), else
    ConvergenceFailure is raised.  Eigenvalues are ascending; eigenvectors
    are returned on the full vertex set (zeros on the boundary),
    M-orthonormal; the first one is sign-normalized to be positive at its
    free vertex of largest magnitude, so a one-signed ground mode is >= 0.
    """
    n = K.shape[0]
    free = _free(n, boundary)
    Kf = K[np.ix_(free, free)]
    Mf = M[np.ix_(free, free)]
    if count == 1:
        start, ncv = np.ones(len(free)), min(6, len(free))
    else:
        start, ncv = np.random.default_rng(0).standard_normal(len(free)), None
    try:
        lams, X = eigsh(Kf, k=count, M=Mf, sigma=0.0,
                        OPinv=LinearOperator(Kf.shape, matvec=lu.solve, dtype=float),
                        v0=start, ncv=ncv, tol=1e-13, maxiter=_RESTARTS)
    except ArpackNoConvergence as exc:
        raise ConvergenceFailure(f"eigensolver: no convergence in {_RESTARTS} restarts") from exc
    order = np.argsort(lams)
    lams, X = lams[order], X[:, order]
    for i in range(count):
        Ku = Kf @ X[:, i]
        if np.linalg.norm(Ku - lams[i] * (Mf @ X[:, i])) > _RESIDUAL_TOL * np.linalg.norm(Ku):
            raise ConvergenceFailure(
                f"eigensolver: pair {i} misses the residual tolerance {_RESIDUAL_TOL:g}")

    vecs = np.zeros((n, count))
    vecs[free] = X
    # deterministic sign for the ground mode
    anchor = free[np.argmax(np.abs(vecs[free, 0]))]
    if vecs[anchor, 0] < 0:
        vecs[:, 0] = -vecs[:, 0]
    return lams, vecs


def second_eigenvalue_floor(vertices):
    """Lower bound of the second P1 Dirichlet eigenvalue on any triangle
    mesh with these vertices (see the module docstring for why).

    The larger of the second eigenvalues of two convex shapes that hold
    every vertex, hence every triangle: the bounding box a x b,
    pi^2 min(4/a^2 + 1/b^2, 1/a^2 + 4/b^2), and the disk about the box
    centre through the farthest vertex, (j11/rho)^2.
    """
    p = np.asarray(vertices, dtype=float)
    lo, hi = p.min(axis=0), p.max(axis=0)
    a, b = hi - lo
    box = math.pi**2 * min(4.0 / a**2 + 1.0 / b**2, 1.0 / a**2 + 4.0 / b**2)
    rho = float(np.sqrt(((p - 0.5 * (lo + hi)) ** 2).sum(axis=1)).max())
    return max(box, (_J11 / rho) ** 2)


def floor_clears(lam, vertices, gap):
    """Whether `second_eigenvalue_floor(vertices)` proves the P1 Dirichlet
    eigenvalue lam, computed on triangles with these vertices, the lowest
    one and simple, with a relative gap above `gap` to the next: floor -
    lam > gap * lam, less a rounding margin.  False proves nothing; the
    floor of a long or bent domain can lie below its first eigenvalue.
    """
    return second_eigenvalue_floor(vertices) * (1.0 - _FLOOR_MARGIN) - lam > gap * lam


def lowest_pair(K, M, boundary, vertices, gap, lu):
    """The lowest Dirichlet eigenpair of K u = lambda M u off `boundary`,
    certified, on triangles with these vertices.

    One Lanczos pair (`dirichlet_eigs`) serves when `floor_clears` it with
    `gap`, and fallback is None.  Otherwise two pairs are solved, fallback
    "two-pair", and NearDegenerate is raised when their gap is at most
    gap * lambda.  Both solves use `lu`, the `stiffness_lu` factor off
    `boundary`.  Returns (lambda, u, fallback), u on the full vertex set
    with `dirichlet_eigs`'s norm and sign.
    """
    lams, vecs = dirichlet_eigs(K, M, boundary, 1, lu)
    fallback = None
    if not floor_clears(lams[0], vertices, gap):
        fallback = "two-pair"
        lams, vecs = dirichlet_eigs(K, M, boundary, 2, lu)
        if lams[1] - lams[0] <= gap * lams[0]:
            raise NearDegenerate(f"leading eigenvalue not simple: gap {lams[1] - lams[0]:.3e}")
    return float(lams[0]), vecs[:, 0], fallback


def ground_state(mesh):
    """Leading Dirichlet eigenpair of the whole domain.

    Returns (lambda0, v0, K, M, lu, fallback): the eigenvalue, its
    eigenfunction as a FemField with unit mass norm and `dirichlet_eigs`'s
    sign, the full-domain stiffness and mass, the free stiffness factor the
    eigensolves used, and `lowest_pair`'s route at the relative gap _GAP
    (1e-6): the expansion assumes a simple leading eigenvalue, so a smaller
    gap raises NearDegenerate.
    """
    K = assemble(mesh, "stiffness")
    M = assemble(mesh, "mass")
    lu = stiffness_lu(K, mesh.outer)
    lam0, u, fallback = lowest_pair(K, M, mesh.outer, mesh.vertices, _GAP, lu)
    return lam0, FemField(mesh, u / mass_norm(M, u)), K, M, lu, fallback


def solve_constrained_source(K, M, lam0, rhs, dirichlet_values, v0, outer, lu):
    """Solve (Laplacian + lam0) u = rhs with essential data on the outer
    boundary and u constrained M-orthogonal to v0.

    rhs and v0 are FemField; v0 must be the discrete ground mode for lam0;
    dirichlet_values is one value per outer vertex in the mesh's outer
    ordering.  On the free vertices, with A = K - lam0 M, q = M v0 and
    b = -(M rhs) - lifted data, this solves

        A u + mu q = b,    q^T u = 0  (q^T over all vertices).

    Since A v0 = 0, mu = v0^T b / v0^T q, and the rest is conjugate
    gradients on the complement {q^T x = 0}, where A is positive definite,
    preconditioned by K_ff^-1 (`lu`, the `stiffness_lu` factor off
    outer).  mu reports the solvability defect of the data (zero in exact
    arithmetic when the compatibility condition holds).  Returns
    (FemField, mu).
    """
    n = K.shape[0]
    rhs_vec, v0_vec = rhs.values, v0.values
    outer = np.asarray(outer, dtype=np.int64)
    data = np.asarray(dirichlet_values, dtype=float)
    free = _free(n, outer)

    A = (K - lam0 * M).tocsr()
    q = M @ v0_vec
    b = -(M @ rhs_vec)[free] - A[np.ix_(free, outer)] @ data
    vf, qf = v0_vec[free], q[free]
    s = float(vf @ qf)
    if not s > 0.0:
        raise SolveSingular("constraint vector has no mass on the free vertices")

    def project(x):  # onto {q^T x = 0} along v0
        return x - vf * (qf @ x) / s

    def project_t(r):  # its transpose: removes the q component
        return r - qf * (vf @ r) / s

    mu = float(vf @ b) / s
    Aff = A[np.ix_(free, free)]
    precond = LinearOperator(Aff.shape, matvec=lambda r: project(lu.solve(project_t(r))), dtype=float)
    x, info = cg(Aff, project_t(b - mu * qf), M=precond, rtol=1e-14, atol=0.0, maxiter=100)
    if info != 0:
        raise SolveSingular(f"projected CG did not converge (info {info})")
    u = np.zeros(n)
    u[outer] = data
    u[free] = project(x) - vf * float(q[outer] @ data) / s
    if not np.all(np.isfinite(u)):
        raise SolveSingular("constrained solve produced non-finite values")
    return FemField(rhs.mesh, u), mu


def boundary_mass_matrix(mesh):
    """Periodic 1D mass matrix of the outer-boundary hat functions in exact
    arclength."""
    nb = len(mesh.outer)
    s = np.asarray(mesh.outer_s, dtype=float)
    ell = np.diff(np.concatenate([s, [s[0] + mesh.curve.s0]]))
    ahead = ell / 6.0
    diag = (ell + np.roll(ell, 1)) / 3.0
    mat = sparse.diags(
        [diag, ahead[:-1], ahead[:-1], [ahead[-1]], [ahead[-1]]],
        [0, 1, -1, nb - 1, -(nb - 1)],
    )
    return mat.tocsc()


def boundary_mass_lu(mesh):
    """SuperLU factor of `boundary_mass_matrix`, for `boundary_flux` to share."""
    return splu(boundary_mass_matrix(mesh))


def boundary_flux(mesh, fld, lam, K, M, lu, rhs=None):
    """Inward-normal derivative of a field on the outer boundary by
    variational recovery.

    The FemField fld is assumed to satisfy (Laplacian + lam) u = rhs (a
    FemField) weakly on the free vertices; testing the residual with
    boundary hat functions isolates the outward conormal, which is negated
    to match the inward-normal convention.  K and M are the mesh's
    full-domain stiffness and mass; `lu` is its `boundary_mass_lu`.
    Returns one value per outer vertex (outer ordering).
    """
    u = fld.values
    r = K @ u - lam * (M @ u)
    if rhs is not None:
        r = r + M @ rhs.values
    return -lu.solve(r[mesh.outer])
