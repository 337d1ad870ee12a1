"""Piecewise-linear finite elements: assembly, eigensolves, the Dirichlet
ground state, constrained source solves, and variational boundary-flux
recovery.

Assembled operators are CSR matrices built from the full element triplets.
They are exactly symmetric: an off-diagonal entry sums the contributions of
at most two triangles, and each local matrix is symmetric bit for bit.  One
`assemble` call builds every operator it is asked for from one geometry
pass: the corners, the areas and the int32 triplet indices are computed
once, and each operator's triplets are built one element-matrix entry at a
time.  So assembly needs no triangles x 3 x 3 scratch: one operator peaks
at about 300 bytes per triangle beyond its input (24.8 MiB for the 87,846
triangles of an Ellipse(1.3, 1) at h = 0.01), the indices, the triplet
data and their unmerged CSR copy, and K and M from one call at 28.5 MiB.
Both solvers on the free vertices take one SuperLU factor of the shifted
free block K - sigma M (`dirichlet_factor`) as an argument, built once for
both: the Dirichlet eigensolver is ARPACK shift-invert Lanczos at sigma,
and the constrained source solve is conjugate gradients on the
M-orthogonal complement of the ground mode, preconditioned by that factor.
The factor alone holds the free set and K's pattern, from which it
gathers the free block's pattern when a solve first needs it, so no
solver indexes a sparse matrix.  `ground_state` assembles K and M in one
call, passes their total area to `dirichlet_factor`, and makes that factor
together with lambda0 and v0 of the whole domain, the quantities both the
expansion and the direct solve start from.

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

Meshes of curves that reflect onto themselves carry their reflections as
vertex maps (`TriMesh.mirrors`).  When every map takes the triangles being
factored and the free vertices onto themselves, K and M commute with the
maps, and the simple ground mode is even under them: one-signed, it cannot
be odd.  `dirichlet_factor` then factors P^T (K_ff - sigma M_ff) P, P the
0/1 basis of the mirror-even subspace, one function per vertex orbit
(`MirrorOrbits`): about a quarter of the unknowns and a fifth of the fill
under two mirrors, half and two fifths under one (Circle, Ellipse and
FourierCurve meshes at h = 0.04 to 0.01).  It does so only when the floor
clears sigma, so that one pair is asked for: on the bare mesh of the
expansion and on the core of the eroded solve, not on a coated mesh as a
whole, whose coating rows' diagonals flip under a reflection.  The
certificates do not rest on the reduction: the lifted pair must meet the
residual test on the whole free block, and `floor_clears` reads the floor
of every vertex, so a lifted pair below it is the lowest pair of the full
problem; a pair that does not clear it is solved again, as two pairs, on
the full factor.  The corrector's CG solves its Galerkin system on the
even subspace to the same relative tolerance CG_RTOL = 1e-14, and so
serves data that is mirror-even to within that tolerance too.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

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
# relative residual of the constrained source solve's CG; data within this
# of mirror-even (relative to its largest value) solve on a reduced factor
CG_RTOL = 1e-14


def assemble(mesh, kind, region=None, coefficient=None):
    """Assemble the P1 stiffness or mass operator over the whole mesh
    (region None) or its coating (region "layer") as an exactly symmetric
    CSR matrix on all vertices.

    coefficient may be None (unity), a number, or a callable of (x, y)
    arrays.  The mass matrix uses the 3-point edge-midpoint rule, exact for
    quadratic integrands.

    kind may also be a tuple of kinds, with coefficient None or a tuple of
    one coefficient per kind: then the operators come from one pass over
    the triangles, and the return value is the tuple of them in that
    order, followed by the triangles' total area (`triangle_area`, the same
    bits).  A single kind runs the same kernel.

    The pass gathers the corners, computes the areas and builds the int32
    triplet indices once.  Each kind's nine element-matrix entries are
    then one array over the triangles each, written into its triplet data
    in the row-major order of the element matrix, so CSR sums duplicates
    in the same order as for a stacked local matrix, and the data is
    converted COO -> CSR with the shared indices before the next kind is
    filled.  The corners (48 bytes per triangle) die once no later kind
    reads them (a mass with a constant coefficient reads the areas alone),
    and the areas (8 bytes) after the last fill.  So each conversion holds
    the indices (72 bytes), its triplet data (72 bytes) and their unmerged
    CSR copy (108 bytes), about 300 bytes per triangle at its peak with the
    merged copy, next to the operators already finished; no triangles x 3
    x 3 intermediate is built.
    """
    if region is None:
        tris = mesh.triangles
    elif region == "layer":
        tris = mesh.triangles[mesh.region == LAYER]
    else:
        raise ValueError(f"unknown region {region!r}")
    single = isinstance(kind, str)
    kinds = (kind,) if single else tuple(kind)
    coefficients = (coefficient,) if single else (coefficient or (None,) * len(kinds))
    unknown = [k for k in kinds if k not in _ENTRIES]
    if unknown or len(coefficients) != len(kinds):
        raise ValueError(f"unknown operator kind {unknown[0]!r}" if unknown else
                         "assemble: one coefficient per operator kind")
    x, y = _corners(mesh.vertices, tris)
    area = _area(x, y)
    total = float(area.sum())
    t32 = tris.astype(np.int32)
    rows = np.repeat(t32, 3, axis=1).ravel()
    cols = np.tile(t32, (1, 3)).ravel()
    del t32
    # a mass with a constant coefficient reads the areas alone
    reads_corners = [k == "stiffness" or callable(c) for k, c in zip(kinds, coefficients)]
    nv = mesh.n_vertices
    operators = []
    for i, (k, c) in enumerate(zip(kinds, coefficients)):
        data = np.empty((len(tris), 9))
        _ENTRIES[k](x, y, area, c, data)
        if not any(reads_corners[i + 1:]):  # what no later kind reads dies before the conversion
            x = y = None
        if i + 1 == len(kinds):
            area = None
        operators.append(sparse.csr_matrix((data.ravel(), (rows, cols)), shape=(nv, nv)))
        del data
    return operators[0] if single else (*operators, total)


def _corners(p, tris):
    """x and y of each triangle's three corners, as three arrays each."""
    return ([p[tris[:, k], 0] for k in range(3)], [p[tris[:, k], 1] for k in range(3)])


def _area(x, y):
    return 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))


def triangle_area(vertices, triangles):
    """Total signed area of the triangles (rows of indices into vertices),
    the bits `assemble` returns with a tuple of kinds."""
    return float(_area(*_corners(vertices, triangles)).sum())


def _stiffness_entries(x, y, area, coefficient, data):
    """Fill data[:, 3i + j] with (b_i b_j + c_i c_j)/(4 area), times the
    coefficient at the centroid; entry (j, i) repeats entry (i, j)."""
    four_area = 4.0 * area
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


def _mass_entries(x, y, area, coefficient, data):
    """Fill data[:, 3i + j] with the edge-midpoint rule: midpoint q weighs
    area * coefficient / 3, and the hat functions there are 1/2 on the two
    ends of edge q and 0 elsewhere, so entry (i, j) sums weight/4 over the
    edges holding both i and j, in quadrature order."""
    if callable(coefficient):
        cvals = [np.asarray(coefficient(0.5 * (x[i] + x[j]), 0.5 * (y[i] + y[j])), dtype=float)
                 for i, j in _EDGES]
    else:
        cvals = [1.0 if coefficient is None else float(coefficient)] * 3
    quarter = [area * cv / 3.0 * 0.25 for cv in cvals]
    for i, j in _PAIRS:
        terms = [quarter[q] for q, edge in enumerate(_EDGES) if i in edge and j in edge]
        data[:, 3 * i + j] = terms[0] if len(terms) == 1 else terms[0] + terms[1]


_ENTRIES = {"stiffness": _stiffness_entries, "mass": _mass_entries}


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


def _triangle_keys(triangles, n):
    """One integer per triangle of vertex indices below n (n^3 within
    int64), the same for any order of its corners."""
    a, b, c = triangles.T
    lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    return (lo * n + (a + b + c - lo - hi)) * n + hi


def _mirror_orbits(mirrors, is_free, triangles):
    """Per vertex, the least vertex of its orbit under the commuting vertex
    maps `mirrors`, when each map takes the free vertices (mask is_free) and
    the triangles onto themselves; else None."""
    n = len(is_free)
    keys = np.sort(_triangle_keys(triangles, n))
    for s in mirrors:
        if not (np.array_equal(is_free[s], is_free)
                and np.array_equal(np.sort(_triangle_keys(s[triangles], n)), keys)):
            return None
    rep = np.arange(n)
    for s in mirrors:  # the maps commute, so one pass reaches every orbit's least
        rep = np.minimum(rep, rep[s])
    return rep


@dataclass(frozen=True)
class MirrorOrbits:
    """The mirror-even subspace of a free block: one basis function per
    orbit of free vertices under a mesh's reflections, the sum of their hat
    functions.  With P the 0/1 matrix of this basis (free vertices x
    orbits), `block` is P^T A P, `lift` is P and `restrict` is P^T.

    index[i] is the orbit of free vertex i, orbits numbered by their least
    vertex, and first[k] the free vertex that is orbit k's least, so that
    x[first] is the x_r with P x_r = x of a mirror-even x; (indptr,
    indices) is the CSR pattern of P^T A P.  upos holds the positions in
    K.data of the free-block entries whose row orbit is at most
    their column orbit, uslot the upper entry of P^T A P each is summed
    into, and twin, per entry of the pattern, the upper entry holding it or
    its transpose: the reduced block is symmetric bit for bit.  All int32.
    """

    index: np.ndarray
    first: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    upos: np.ndarray
    uslot: np.ndarray
    twin: np.ndarray

    @classmethod
    def build(cls, rep, free, indptr, indices):
        """From each vertex's least orbit vertex rep, the free vertices and
        K's CSR pattern (indptr, indices): every vertex off the free set
        takes the orbit -1, so K's entries whose row orbit is at least 0 and
        at most their column orbit are the free block's upper entries, in
        the order of the free block's own pattern, which is not gathered.

        SciPy's compiled COO -> CSR conversion (a counting sort by row, each
        row's columns then sorted and merged) groups the upper entries into
        their distinct slots and the slots with their transposes into the
        pattern.  Slots travel as the values 1, 2, ..., which no merge can
        drop as zeros.  On Ellipse(1.3, 1) at h = 0.01 this takes 9 ms where
        `np.unique` and an `argsort` of int64 keys took 14, with the same
        bits (2-core x86_64, median of 21).
        """
        first = np.flatnonzero(rep[free] == free)
        n = len(first)
        orbit = np.full(len(rep), -1, dtype=np.int32)
        orbit[free[first]] = np.arange(n)
        orbit[free] = orbit[rep[free]]
        rows = np.repeat(orbit, np.diff(indptr))
        cols = orbit[indices]
        upper = (rows >= 0) & (rows <= cols)
        r, c = rows[upper], cols[upper]
        slots = sparse.csr_array((np.ones(len(r)), (r, c)), shape=(n, n))
        slots.data = np.arange(1.0, slots.nnz + 1)
        ur = np.repeat(np.arange(n, dtype=np.int32), np.diff(slots.indptr))
        uc = slots.indices
        strict = ur != uc
        both = sparse.csr_array((np.concatenate([slots.data, slots.data[strict]]),
                                 (np.concatenate([ur, uc[strict]]),
                                  np.concatenate([uc, ur[strict]]))), shape=(n, n))
        return cls(orbit[free], first.astype(np.int32), both.indptr.astype(np.int32),
                   both.indices.astype(np.int32), np.flatnonzero(upper).astype(np.int32),
                   slots[r, c].astype(np.int32) - 1, both.data.astype(np.int32) - 1)

    @property
    def size(self):
        return len(self.indptr) - 1

    def sums(self, data):
        """The entries of P^T A P, A the matrix with K's pattern and values
        data, in the order of the pattern."""
        return np.bincount(self.uslot, data[self.upos])[self.twin]

    def block(self, data):
        """P^T A P as CSR."""
        return sparse.csr_matrix((self.sums(data), self.indices, self.indptr),
                                 shape=(self.size, self.size))

    def lift(self, x):
        return x[self.index]

    def restrict(self, r):
        return np.bincount(self.index, r, minlength=self.size)


@dataclass(frozen=True)
class DirichletFactor:
    """SuperLU factor `lu` of the shifted free block K - sigma M, sigma the
    Faber-Krahn bound of the triangles the free vertices span, less the
    rounding margin (`dirichlet_factor`), with the free vertices `free` and
    K's CSR arrays `K_indptr` and `K_indices`, the pattern K and M share,
    from which `pattern` gathers the free block's own on first use.  When
    `orbits` is a `MirrorOrbits`, lu factors the reduced block
    P^T (K_ff - sigma M_ff) P instead, on the mirror-even subspace, and
    the free block's pattern is gathered only if `block` or `full` asks."""

    lu: object
    sigma: float
    free: np.ndarray
    K_indptr: np.ndarray = field(repr=False)
    K_indices: np.ndarray = field(repr=False)
    orbits: MirrorOrbits = None

    @cached_property
    def pattern(self):
        """(indptr, indices, pos), all int32: the CSR pattern of the free
        block of K and M and the positions of its entries in K.data,
        gathered on first use and kept."""
        is_free = np.zeros(len(self.K_indptr) - 1, dtype=bool)
        is_free[self.free] = True
        pos = np.flatnonzero(np.repeat(is_free, np.diff(self.K_indptr))
                             & is_free[self.K_indices])
        # kept entries before each free row's end
        indptr = np.searchsorted(pos, self.K_indptr[np.r_[0, self.free + 1]]).astype(np.int32)
        indices = (np.cumsum(is_free) - 1)[self.K_indices[pos]].astype(np.int32)
        return indptr, indices, pos.astype(np.int32)

    def block(self, data):
        """Free block, as CSR, of the matrix with K's pattern and values data."""
        indptr, indices, pos = self.pattern
        n = len(self.free)
        return sparse.csr_matrix((data[pos], indices, indptr), shape=(n, n))

    def full(self, K, M):
        """This factor when it factors the whole free block, else (reduced,
        or lu None as `dirichlet_factor` starts one) the factor of the
        whole free block of K - sigma M at the same shift, which keeps the
        pattern gathered for it."""
        if self.orbits is None and self.lu is not None:
            return self
        indptr, indices, pos = self.pattern
        lu = _factor_spd(K.data[pos] - self.sigma * M.data[pos], indices, indptr)
        full = replace(self, lu=lu, orbits=None)
        vars(full)["pattern"] = self.pattern  # where cached_property keeps its value
        return full


def _factor_spd(data, indices, indptr):
    """SuperLU factor of the shifted block with these CSR arrays: it is
    symmetric bit for bit, so they are read as CSC."""
    n = len(indptr) - 1
    try:
        return splu(sparse.csc_matrix((data, indices, indptr), shape=(n, n)),
                    permc_spec="MMD_AT_PLUS_A", relax=_RELAX, panel_size=_PANEL)
    except RuntimeError as exc:
        raise SolveSingular(f"shifted factorization failed: {exc}") from exc


def dirichlet_factor(K, M, boundary, vertices, triangles, area, mirrors=()):
    """`DirichletFactor` of the free block of K - sigma M off `boundary`,
    where no P1 Dirichlet eigenvalue on `triangles` (rows of indices into
    `vertices`) lies below sigma = faber_krahn(area) (1 - margin), `area`
    their total area (`triangle_area`, or what `assemble` returns with the
    operators).

    It factors P^T (K_ff - sigma M_ff) P on the mirror-even subspace of
    `mirrors` (`TriMesh.mirrors`, `MirrorOrbits`) when each map takes the
    triangles and the free vertices onto themselves and the
    `second_eigenvalue_floor` of `vertices` clears sigma at the gap _GAP,
    so that `lowest_pair` will solve one pair on it.  The orbits are built
    from K's pattern, and the free block's own pattern is then gathered
    only when `DirichletFactor.block` or `DirichletFactor.full` asks for it.

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
    Ellipse(1.3, 1) at h = 0.01, unreduced).  Factor ms of the unreduced
    block, median of 11 shuffled runs, one BLAS thread, 2-core x86_64;
    "six" sums Circle(1) and Ellipse(1.3, 1) at h = 0.04, 0.02, 0.01, the
    meshes of `expansion_fine`:

        relax:panel     10:20   1:3   2:3   3:3   2:4   3:4   3:5
        Circle 0.01     198.6 141.3 140.7 140.8 141.9 140.6 144.5
        Ellipse 0.01    276.1 210.4 206.9 208.0 211.4 207.6 215.9
        six             542.7 406.6 402.1 403.3 408.4 403.8 416.9
        Ellipse 0.075    2.19  1.55  1.55  1.54  1.56  1.59  1.64
    """
    sigma = faber_krahn(area) * (1.0 - _FLOOR_MARGIN)
    if not (np.array_equal(K.indptr, M.indptr) and np.array_equal(K.indices, M.indices)):
        raise ValueError("dirichlet_factor: K and M must share one sparsity pattern")
    is_free = _free(K.shape[0], boundary)
    free = np.flatnonzero(is_free)
    factor = DirichletFactor(None, sigma, free, K.indptr, K.indices)
    rep = None
    if len(mirrors) and floor_clears(sigma, second_eigenvalue_floor(vertices), _GAP):
        rep = _mirror_orbits(mirrors, is_free, triangles)
    if rep is None:
        return factor.full(K, M)
    orbits = MirrorOrbits.build(rep, free, K.indptr, K.indices)
    lu = _factor_spd(orbits.sums(K.data - sigma * M.data), orbits.indices, orbits.indptr)
    return replace(factor, lu=lu, orbits=orbits)


def dirichlet_eigs(K, M, count, factor):
    """Smallest `count` eigenpairs of K u = lambda M u with zero essential
    data off factor.free.

    ARPACK shift-invert Lanczos at factor.sigma on the free block, applying
    (K_ff - sigma M_ff)^-1 through `factor`, the `dirichlet_factor` of K
    and M, with at most _RESTARTS = 500 restarts.  A full factor solves on
    K_ff and M_ff, gathered from its pattern; a reduced factor on its
    mirror-even subspace, on P^T K_ff P and P^T M_ff P (`MirrorOrbits`),
    and only for count 1: the ground mode lies there, but the next pairs
    need not.  For count 1 it starts from the constant vector, since the
    ground mode is one-signed, in a Krylov space of at most _NCV_ONE = 3
    vectors (5 to 7 factor solves on the meshes of this package); for more
    pairs from a fixed random vector in ARPACK's default space of 20
    vectors.  A single pair is not known to be the lowest one:
    `floor_clears` can prove it.  Every returned pair, lifted to the free
    vertices, must satisfy the residual test of the whole free block,
    ||K u - lambda M u|| <= _RESIDUAL_TOL ||K u|| (1e-10), else
    ConvergenceFailure is raised; it reads (K u)[free] and (M u)[free], u
    zero off the free vertices, the free block's sums in the same order.
    Eigenvalues are ascending; eigenvectors are returned on the full vertex
    set (zeros on the boundary), M-orthonormal; the first one is
    sign-normalized to be positive at its free vertex of largest magnitude,
    so a one-signed ground mode is >= 0.
    """
    n, free, orbits = K.shape[0], factor.free, factor.orbits
    if orbits is None:
        Ks, Ms = factor.block(K.data), factor.block(M.data)
    elif count == 1:
        Ks, Ms = orbits.block(K.data), orbits.block(M.data)
    else:
        raise ValueError("dirichlet_eigs: a mirror-reduced factor solves one pair")
    if count == 1:
        start, ncv = np.ones(Ks.shape[0]), min(_NCV_ONE, Ks.shape[0])
    else:
        start, ncv = np.random.default_rng(0).standard_normal(len(free)), None
    try:
        lams, X = eigsh(Ks, k=count, M=Ms, sigma=factor.sigma,
                        OPinv=LinearOperator(Ks.shape, matvec=factor.lu.solve, dtype=float),
                        v0=start, ncv=ncv, tol=1e-13, maxiter=_RESTARTS)
    except ArpackNoConvergence as exc:
        raise ConvergenceFailure(f"eigensolver: no convergence in {_RESTARTS} restarts") from exc
    order = np.argsort(lams)
    lams, X = lams[order], X[:, order]
    vecs = np.zeros((n, count))
    vecs[free] = X if orbits is None else orbits.lift(X)
    for i in range(count):
        Ku = (K @ vecs[:, i])[free]
        if np.linalg.norm(Ku - lams[i] * (M @ vecs[:, i])[free]) > (
                _RESIDUAL_TOL * np.linalg.norm(Ku)):
            raise ConvergenceFailure(
                f"eigensolver: pair {i} misses the residual tolerance {_RESIDUAL_TOL:g}")

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
    # per column: reducing an n x 2 array along axis 0 takes about 10x longer
    x, y = p[:, 0], p[:, 1]
    x0, x1, y0, y1 = float(x.min()), float(x.max()), float(y.min()), float(y.max())
    a, b = x1 - x0, y1 - y0
    box = math.pi**2 * min(4.0 / a**2 + 1.0 / b**2, 1.0 / a**2 + 4.0 / b**2)
    rho = math.sqrt(float(((x - 0.5 * (x0 + x1)) ** 2 + (y - 0.5 * (y0 + y1)) ** 2).max()))
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
    sigma itself the one pair is not tried.  The solves use `factor`, the
    `dirichlet_factor` of K and M; the two pairs use its full version
    (`DirichletFactor.full`), since the second need not be mirror-even.
    Returns (lambda, u, fallback, factor), u on the full vertex set with
    `dirichlet_eigs`'s norm and sign, factor the one the last solve used.
    """
    floor = second_eigenvalue_floor(vertices)
    if floor_clears(factor.sigma, floor, gap):
        lams, vecs = dirichlet_eigs(K, M, 1, factor)
        if floor_clears(lams[0], floor, gap):
            return float(lams[0]), vecs[:, 0], None, factor
    factor = factor.full(K, M)
    lams, vecs = dirichlet_eigs(K, M, 2, factor)
    if lams[1] - lams[0] <= gap * lams[0]:
        raise NearDegenerate(f"leading eigenvalue not simple: gap {lams[1] - lams[0]:.3e}")
    return float(lams[0]), vecs[:, 0], "two-pair", factor


def ground_state(mesh):
    """Leading Dirichlet eigenpair of the whole domain.

    Returns (lambda0, v0, K, M, factor, fallback): the eigenvalue, its
    eigenfunction as a FemField with unit mass norm and `dirichlet_eigs`'s
    sign, the full-domain stiffness and mass, the `dirichlet_factor` the
    eigensolves used, reduced by the mesh's mirrors when they apply, and
    `lowest_pair`'s route at the relative gap _GAP (1e-6): the expansion
    assumes a simple leading eigenvalue, so a smaller gap raises
    NearDegenerate.
    """
    K, M, area = assemble(mesh, ("stiffness", "mass"))
    factor = dirichlet_factor(K, M, mesh.outer, mesh.vertices, mesh.triangles, area,
                              mesh.mirrors)
    lam0, u, fallback, factor = lowest_pair(K, M, mesh.vertices, _GAP, factor)
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
    With a reduced factor (`MirrorOrbits`) v0 must be mirror-even, as
    `ground_state` returns it, and the CG solves the same system on the
    mirror-even subspace, P^T A P u_r + mu P^T q = P^T b, to the same
    tolerance, and returns P u_r: the solution for the mirror-even part of
    the load, so callers whose data is not mirror-even pass the full
    factor (`DirichletFactor.full`).  Returns (FemField, mu).
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
    mu = float(vf @ b) / s
    along = vf * float(q[outer] @ data) / s  # makes q^T u = 0 over all vertices
    orbits = factor.orbits
    if orbits is None:
        A = factor.block(K.data - lam0 * M.data)
    else:  # the same system on the mirror-even subspace, where P v0_r = v0
        A = orbits.block(K.data - lam0 * M.data)
        b, qf, vf = orbits.restrict(b), orbits.restrict(qf), vf[orbits.first]
        s = float(vf @ qf)

    def project(x):  # onto {q^T x = 0} along v0
        return x - vf * (qf @ x) / s

    def project_t(r):  # its transpose: removes the q component
        return r - qf * (vf @ r) / s

    precond = LinearOperator(A.shape, matvec=lambda r: project(factor.lu.solve(project_t(r))),
                             dtype=float)
    x, info = cg(A, project_t(b - mu * qf), M=precond, rtol=CG_RTOL, atol=0.0, maxiter=100)
    if info != 0:
        raise SolveSingular(f"projected CG did not converge (info {info})")
    x = project(x)
    u[free] = (x if orbits is None else orbits.lift(x)) - along
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
