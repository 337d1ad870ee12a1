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
solvers on the free vertices take one SuperLU factor of the shifted free
block K - sigma M (`dirichlet_factor`) as an argument, built once for both:
the Dirichlet eigensolver is ARPACK shift-invert Lanczos at sigma, and the
constrained source solve is conjugate gradients on the M-orthogonal
complement of the ground mode, preconditioned by that factor.  The factor
alone holds the free set and the free block's pattern, so no solver
indexes a sparse matrix.  `ground_state` makes that factor together with
lambda0 and v0 of the whole domain, the quantities both the expansion and
the direct solve start from.

With exact stiffness and an exact mass rule, P1 eigenvalues are
Rayleigh-Ritz values of the Dirichlet Laplacian on the polygon the
triangles cover, so each lies above its continuous counterpart.  Two
certified bounds follow.  By the Faber-Krahn inequality the first
eigenvalue lies above that of the disk of the same area (`faber_krahn`),
so sigma, that bound less a rounding margin, sits strictly below every
discrete eigenvalue: the shifted block stays positive definite, and the
nearer sigma sits below lambda1, the fewer solves Lanczos needs (it
converges with the ratio (lambda1 - sigma)/(lambda2 - sigma)).  By domain
monotonicity the second eigenvalue lies above that of any box or disk
holding the vertices.  The ground state is therefore one Lanczos pair,
certified by that closed-form floor of the second eigenvalue instead of a
second pair: a computed eigenvalue that stays clear below the floor is the
lowest discrete eigenvalue, and simple (`floor_clears`).  `lowest_pair`
holds this route for both Max-Min corridor ends, lambda0 and
lambda_eroded.
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
# first positive zeros of J0 and J1 (`bessel.bessel_j_zero(0, 1)` and (1, 1))
_J01 = 2.404825557695773
_J11 = 3.8317059702075125
# relative rounding margin of the floor test and of the shift below the
# Faber-Krahn bound: ARPACK's eigenvalue and the bounds' own arithmetic are
# good to far better than this
_FLOOR_MARGIN = 1e-9
# the ground state's least relative gap, the relative residual every
# Dirichlet eigenpair must meet, and ARPACK's restart limit
_GAP = 1e-6
_RESIDUAL_TOL = 1e-10
_RESTARTS = 500
# ARPACK's Krylov space for one pair: 3 vectors take the fewest factor
# solves from the shift (5 on Circle(1), 7 on Ellipse(1.3, 1) at h = 0.075)
_NCV_ONE = 3
# SuperLU's supernode relaxation and panel size, scanned in `dirichlet_factor`
_RELAX, _PANEL = 2, 3


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
    """Mask of the n vertices off `boundary`."""
    free = np.ones(n, dtype=bool)
    free[np.asarray(boundary, dtype=np.int64)] = False
    return free


def faber_krahn(area):
    """pi j01^2 / area, the first Dirichlet eigenvalue of the disk of this
    area: by the Faber-Krahn inequality no domain of this area has a lower
    one, so neither has a P1 eigenvalue on triangles of this total area."""
    return math.pi * _J01**2 / area


@dataclass(frozen=True)
class DirichletFactor:
    """SuperLU factor `lu` of the free block of K - sigma M, sigma the
    Faber-Krahn bound of the triangles the free vertices span, less the
    rounding margin (`dirichlet_factor`), with the free vertices `free`,
    the CSR pattern (`indptr`, `indices`, int32) of the free block of K and
    M, and `pos` (int32), the positions of its entries in K.data."""

    lu: object
    sigma: float
    free: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    pos: np.ndarray

    def block(self, data):
        """Free block, as CSR, of the matrix with K's pattern and values data."""
        n = len(self.free)
        return sparse.csr_matrix((data[self.pos], self.indices, self.indptr), shape=(n, n))


def dirichlet_factor(K, M, boundary, vertices, triangles):
    """`DirichletFactor` of the free block of K - sigma M off `boundary`,
    where no P1 Dirichlet eigenvalue on `triangles` (rows of indices into
    `vertices`) lies below sigma = faber_krahn(their area) (1 - margin).

    K and M must be CSR with one sparsity pattern, as `assemble` makes
    them, so the free block's pattern is found once, on K, and the block
    is K.data[pos] - sigma M.data[pos]; a sparse K - sigma M, or corner
    arrays alive during extraction, left the heap of the benchmark's
    `expansion_fine` round about 6 MB larger.  The block is symmetric bit
    for bit, so its CSR arrays read as CSC are the same matrix: SuperLU
    gets them without a `tocsc` copy.  It is positive definite, so the
    minimum-degree ordering of its pattern fills in less than COLAMD.
    SuperLU's supernode relaxation _RELAX and panel size _PANEL, below its
    defaults 10 and 20, change only the blocking of one elimination, not
    perm_c or nnz(L + U) (2,698,330 on Circle(1), 3,763,996 on
    Ellipse(1.3, 1) at h = 0.01).  Factor ms, median of 11 shuffled runs,
    one BLAS thread, 2-core x86_64; "six" sums Circle(1) and Ellipse(1.3, 1)
    at h = 0.04, 0.02, 0.01, the meshes of `expansion_fine`:

        relax:panel     10:20   1:3   2:3   3:3   2:4   3:4   3:5
        Circle 0.01     198.6 141.3 140.7 140.8 141.9 140.6 144.5
        Ellipse 0.01    276.1 210.4 206.9 208.0 211.4 207.6 215.9
        six             542.7 406.6 402.1 403.3 408.4 403.8 416.9
        Ellipse 0.075    2.19  1.55  1.55  1.54  1.56  1.59  1.64
    """
    # the corner arrays die before the pattern is gathered
    area = float(_area(*_corners(vertices, triangles)).sum())
    sigma = faber_krahn(area) * (1.0 - _FLOOR_MARGIN)
    if not (np.array_equal(K.indptr, M.indptr) and np.array_equal(K.indices, M.indices)):
        raise ValueError("dirichlet_factor: K and M must share one sparsity pattern")
    is_free = _free(K.shape[0], boundary)
    free = np.flatnonzero(is_free)
    pos = np.flatnonzero(np.repeat(is_free, np.diff(K.indptr)) & is_free[K.indices])
    # kept entries before each free row's end
    indptr = np.searchsorted(pos, K.indptr[np.r_[0, free + 1]]).astype(np.int32)
    indices = (np.cumsum(is_free) - 1)[K.indices[pos]].astype(np.int32)
    pos, n = pos.astype(np.int32), len(free)
    block = sparse.csc_matrix((K.data[pos] - sigma * M.data[pos], indices, indptr), shape=(n, n))
    try:
        lu = splu(block, permc_spec="MMD_AT_PLUS_A", relax=_RELAX, panel_size=_PANEL)
    except RuntimeError as exc:
        raise SolveSingular(f"shifted factorization failed: {exc}") from exc
    return DirichletFactor(lu, sigma, free, indptr, indices, pos)


def dirichlet_eigs(K, M, count, factor):
    """Smallest `count` eigenpairs of K u = lambda M u with zero essential
    data off factor.free.

    ARPACK shift-invert Lanczos at factor.sigma on the free block, applying
    (K_ff - sigma M_ff)^-1 through `factor`, the `dirichlet_factor` of K
    and M, which gathers K_ff and M_ff too, with at most _RESTARTS = 500
    restarts.  For count 1 it starts from the constant vector, since the
    ground mode is one-signed, in a Krylov space of at most _NCV_ONE = 3
    vectors (5 to 7 factor solves on the meshes of this package); for more
    pairs from a fixed random vector in ARPACK's default space of 20
    vectors.  A single pair is not known to be the lowest one:
    `floor_clears` can prove it.  Every returned pair must satisfy
    ||K u - lambda M u|| <= _RESIDUAL_TOL ||K u|| (1e-10), else
    ConvergenceFailure is raised.  Eigenvalues are ascending; eigenvectors
    are returned on the full vertex set (zeros on the boundary),
    M-orthonormal; the first one is sign-normalized to be positive at its
    free vertex of largest magnitude, so a one-signed ground mode is >= 0.
    """
    n, free = K.shape[0], factor.free
    Kf, Mf = factor.block(K.data), factor.block(M.data)
    if count == 1:
        start, ncv = np.ones(len(free)), min(_NCV_ONE, len(free))
    else:
        start, ncv = np.random.default_rng(0).standard_normal(len(free)), None
    try:
        lams, X = eigsh(Kf, k=count, M=Mf, sigma=factor.sigma,
                        OPinv=LinearOperator(Kf.shape, matvec=factor.lu.solve, dtype=float),
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


def floor_clears(lam, floor, gap):
    """Whether floor, the `second_eigenvalue_floor` of the vertices of some
    triangles, proves the P1 Dirichlet eigenvalue lam computed on them the
    lowest one and simple, with a relative gap above `gap` to the next:
    floor - lam > gap * lam, less a rounding margin.  False proves nothing;
    the floor of a long or bent domain can lie below its first eigenvalue.
    """
    return floor * (1.0 - _FLOOR_MARGIN) - lam > gap * lam


def lowest_pair(K, M, vertices, gap, factor):
    """The lowest Dirichlet eigenpair of K u = lambda M u on factor.free,
    certified, on triangles with these vertices.

    One Lanczos pair (`dirichlet_eigs`) serves when `floor_clears` it with
    the `second_eigenvalue_floor` of `vertices` and `gap`, and fallback is
    None.  Otherwise two pairs are solved, fallback "two-pair", and
    NearDegenerate is raised when their gap is at most gap * lambda.  Every
    eigenvalue lies above factor.sigma, so when the floor does not clear
    sigma itself the one pair is not tried.  Both solves use `factor`, the
    `dirichlet_factor` of K and M.  Returns (lambda, u, fallback), u on
    the full vertex set with `dirichlet_eigs`'s norm and sign.
    """
    floor = second_eigenvalue_floor(vertices)
    if floor_clears(factor.sigma, floor, gap):
        lams, vecs = dirichlet_eigs(K, M, 1, factor)
        if floor_clears(lams[0], floor, gap):
            return float(lams[0]), vecs[:, 0], None
    lams, vecs = dirichlet_eigs(K, M, 2, factor)
    if lams[1] - lams[0] <= gap * lams[0]:
        raise NearDegenerate(f"leading eigenvalue not simple: gap {lams[1] - lams[0]:.3e}")
    return float(lams[0]), vecs[:, 0], "two-pair"


def ground_state(mesh):
    """Leading Dirichlet eigenpair of the whole domain.

    Returns (lambda0, v0, K, M, factor, fallback): the eigenvalue, its
    eigenfunction as a FemField with unit mass norm and `dirichlet_eigs`'s
    sign, the full-domain stiffness and mass, the `dirichlet_factor` the
    eigensolves used, and `lowest_pair`'s route at the relative gap _GAP
    (1e-6): the expansion assumes a simple leading eigenvalue, so a smaller
    gap raises NearDegenerate.
    """
    K = assemble(mesh, "stiffness")
    M = assemble(mesh, "mass")
    factor = dirichlet_factor(K, M, mesh.outer, mesh.vertices, mesh.triangles)
    lam0, u, fallback = lowest_pair(K, M, mesh.vertices, _GAP, factor)
    return lam0, FemField(mesh, u / mass_norm(M, u)), K, M, factor, fallback


def solve_constrained_source(K, M, lam0, rhs, dirichlet_values, v0, outer, factor):
    """Solve (Laplacian + lam0) u = rhs with essential data on the outer
    boundary and u constrained M-orthogonal to v0.

    rhs and v0 are FemField; v0 must be the discrete ground mode for lam0;
    dirichlet_values is one value per outer vertex in the mesh's outer
    ordering.  On the free vertices, with A = K - lam0 M, q = M v0 and
    b = -(M rhs) - lifted data, this solves

        A u + mu q = b,    q^T u = 0  (q^T over all vertices).

    Since A v0 = 0, mu = v0^T b / v0^T q, and the rest is conjugate
    gradients on the complement {q^T x = 0}, where A is positive definite,
    preconditioned by (K_ff - sigma M_ff)^-1 (`factor`, the
    `dirichlet_factor` of K and M off outer; ValueError when `outer` does
    not complement factor.free): with lambda2 the second eigenvalue, the
    preconditioned spectrum lies in [(lambda2 - lam0)/(lambda2 - sigma), 1),
    which narrows as sigma nears lam0.  mu reports the solvability defect
    of the data (zero in exact arithmetic when the compatibility condition
    holds).  No K - lam0 M is built: the factor gathers A_ff from K.data -
    lam0 M.data, and the lifted data is (K lift - lam0 M lift)[free].
    Returns (FemField, mu).
    """
    n, free = K.shape[0], factor.free
    if not np.array_equal(np.flatnonzero(_free(n, outer)), free):
        raise ValueError("solve_constrained_source: outer must complement factor.free")
    rhs_vec, v0_vec = rhs.values, v0.values
    data = np.asarray(dirichlet_values, dtype=float)
    u = np.zeros(n)  # the lift of the data; the free values are set last
    u[outer] = data

    q = M @ v0_vec
    b = -(M @ rhs_vec)[free] - (K @ u - lam0 * (M @ u))[free]
    vf, qf = v0_vec[free], q[free]
    s = float(vf @ qf)
    if not s > 0.0:
        raise SolveSingular("constraint vector has no mass on the free vertices")

    def project(x):  # onto {q^T x = 0} along v0
        return x - vf * (qf @ x) / s

    def project_t(r):  # its transpose: removes the q component
        return r - qf * (vf @ r) / s

    mu = float(vf @ b) / s
    Aff = factor.block(K.data - lam0 * M.data)
    precond = LinearOperator(Aff.shape, matvec=lambda r: project(factor.lu.solve(project_t(r))),
                             dtype=float)
    x, info = cg(Aff, project_t(b - mu * qf), M=precond, rtol=1e-14, atol=0.0, maxiter=100)
    if info != 0:
        raise SolveSingular(f"projected CG did not converge (info {info})")
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
