"""Direct computation of the first transmission eigenvalue on general smooth
domains via a coupled two-field pencil.

The interior field v lives on the whole domain, the coating field w on the
coating with zero trace on the inner boundary; their traces on the outer
boundary are identified, which cancels the matched Neumann data weakly.  The
resulting symmetric indefinite pencil (A, B) is singular exactly at discrete
transmission eigenvalues.  The computable Max-Min corridor
lambda0 <= lambda <= lambda_eroded brackets the first one.  It is the only
pencil eigenvalue there and the one nearest the corridor midpoint sigma
(dense QZ on Circle(1) and Ellipse(1.3, 1) pencils at h = 0.15 for
delta from 0.01 to 0.2 and n from 0.05 to 0.95: the next eigenvalue, real or
complex, is 8 to 212 times as far from sigma), so shift-invert Arnoldi on
(A - sigma*B)^-1 B asks for that one pair, from one LU at sigma, and a pair
that is not real in the corridor raises NoRootFound.  Both
corridor ends are Dirichlet eigenvalues on the one coated mesh: lambda0 from
`fem.ground_state` and lambda_eroded from the block of the same K and M off
the coating, each from a `fem.dirichlet_factor` shifted to the Faber-Krahn
bound of its triangles (all of them, or the core's) and certified by
`fem.lowest_pair`: one Lanczos pair when `fem.floor_clears` proves it the
lowest.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs, splu
from scipy.sparse.linalg import norm as spnorm

from .bessel import corridor
from .errors import ConvergenceFailure, MissingLayer, NoRootFound
from .fem import (FemField, assemble, dirichlet_factor, ground_state, h1_norm, lowest_pair,
                  mass_norm)
from .mesh import LAYER, generate_mesh


@dataclass
class CoupledPencil:
    """Symmetric pencil (A, B) of the coupled eigenproblem.

    DOF layout: one v unknown per mesh vertex, then one w unknown per coating
    vertex that is neither on the inner boundary (w = 0 there) nor on the
    outer boundary (where w shares the v trace unknown).  A and B are CSR
    with one sparsity pattern, explicit zeros included.
    """

    A: sparse.csr_matrix
    B: sparse.csr_matrix
    dim: int
    n_vertices: int
    wmap: np.ndarray

    def shifted(self, lam):
        """A - lam*B as CSC: the CSR arrays of a symmetric matrix, read as CSC."""
        A, B = self.A, self.B
        if not (np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)):
            raise ValueError("CoupledPencil: A and B must share one sparsity pattern")
        return sparse.csc_matrix((A.data - lam * B.data, A.indices, A.indptr), shape=A.shape)


def assemble_pencil(mesh, n, K, M):
    """Build the coupled pencil on a coated mesh with index coefficient n
    from the full-domain stiffness K and mass M: A (B) from one triplet set,
    K's (M's) entries and then the coating's negated, mapped through wmap."""
    if not mesh.has_layer():
        raise MissingLayer("assemble_pencil: mesh has no coating region")
    nv = mesh.n_vertices
    K_layer = assemble(mesh, "stiffness", region="layer")
    M_layer_n = assemble(mesh, "mass", region="layer", coefficient=n)

    layer_vertices = np.unique(mesh.triangles[mesh.region == LAYER])
    layer_vertices = layer_vertices[~np.isin(layer_vertices, mesh.inner)]  # w = 0 there
    on_outer = np.isin(layer_vertices, mesh.outer)
    own = layer_vertices[~on_outer]
    dim = nv + own.size
    wmap = -np.ones(nv, dtype=np.int64)
    wmap[layer_vertices[on_outer]] = layer_vertices[on_outer]  # trace identification with v
    wmap[own] = np.arange(nv, dim)

    def csr_rows(mat):
        return np.repeat(np.arange(nv), np.diff(mat.indptr))

    w_rows, w_cols = wmap[csr_rows(K_layer)], wmap[K_layer.indices]
    keep = (w_rows >= 0) & (w_cols >= 0)
    rows = np.concatenate([csr_rows(K), w_rows[keep]])
    cols = np.concatenate([K.indices, w_cols[keep]])

    def operator(full, layer):
        data = np.concatenate([full.data, -layer.data[keep]])
        return sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim))

    return CoupledPencil(A=operator(K, K_layer), B=operator(M, M_layer_n), dim=dim,
                         n_vertices=nv, wmap=wmap)


# largest backward error of the symmetric factor's pair (`first_te`)
_BACKWARD_TOL = 1e-10


def nearest_eig(pencil, sigma, pivoted=False):
    """The pencil eigenvalue nearest sigma with its eigenvector.

    One LU of A - sigma*B drives shift-invert Arnoldi for the one
    eigenvalue mu of (A - sigma*B)^-1 B of largest modulus, in a Krylov
    space of at most 6 vectors; the pencil eigenvalue is sigma + 1/mu.
    Returns (lam, x): lam is complex, x is scaled so that its entry of
    largest modulus is 1 and is real when lam is.

    A - sigma*B is exactly symmetric, so by default it is factored as such:
    minimum-degree ordering of its pattern, diagonal pivots, symmetric
    mode; pivoted=True takes COLAMD with partial pivoting, `first_te`'s
    fallback.  Both use relax 2, panel 3 (`fem.dirichlet_factor`).  Pencil
    at the corridor midpoint, Ellipse(1.3, 1), n = 0.48, delta = 0.02, one
    BLAS thread, 2-core x86_64; factor: medians of 41 shuffled runs (15 at
    h = 0.04, 9 at 0.02); `first_te`: the median of three alternated
    processes' medians of 21 runs (11, 5), COLAMD pivoted -> symmetric:

        h      factor ms       nnz(L+U)                 first_te ms
        0.15    0.76 -> 0.44      13,271 -> 10,054       6.87 -> 6.29
        0.075   2.54 -> 1.41      54,983 -> 42,062      12.95 -> 11.65
        0.04   10.0  -> 5.1      249,112 -> 165,758     36.2  -> 30.1
        0.02   47.9  -> 20.9   1,257,464 -> 755,254    151.0  -> 119.6
    """
    symmetric = {} if pivoted else dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                        options=dict(SymmetricMode=True))
    lu = splu(pencil.shifted(sigma), relax=2, panel_size=3, **symmetric)
    op = LinearOperator(lu.shape, matvec=lambda x: lu.solve(pencil.B @ x), dtype=float)
    # fixed start vector, uneven to avoid accidental orthogonality
    v0 = 1.0 + 0.5 * (np.arange(pencil.dim) % 7 == 0)
    try:
        mu, vecs = eigs(op, k=1, ncv=min(6, pencil.dim), v0=v0, tol=1e-13)
    except ArpackNoConvergence as exc:
        raise ConvergenceFailure(f"shift-invert Arnoldi: {exc}") from exc
    x = vecs[:, 0]
    return complex(sigma + 1.0 / mu[0]), x / x[np.argmax(np.abs(x))]


@dataclass
class FirstTE:
    """First transmission eigenvalue on a coated mesh with its eigenpair and
    the bracketing quantities used to validate it.  residual is the backward
    error ||(A - lam B)x||_1 / ((||A||_1 + lam ||B||_1) ||x||_1); fallback
    names, comma-separated, each fallback the solve took, else it is None:
    "ground two-pair" and "eroded two-pair" when the floor did not clear
    lambda0 or lambda_eroded and two pairs were solved for it, "pivoted
    pencil" when the pencil was factored again with partial pivoting
    (`first_te`).  K and M are the full-domain stiffness and mass on mesh."""

    lam: float
    v: FemField
    w: FemField
    lambda0: float
    v0: FemField
    lambda_eroded: float
    residual: float
    fallback: str = None
    mesh: object = field(repr=False, default=None)
    pencil: object = field(repr=False, default=None)
    K: object = field(repr=False, default=None)
    M: object = field(repr=False, default=None)


def eroded_dirichlet(mesh, K, M):
    """First Dirichlet eigenvalue of the eroded domain (inside the coating).

    Solved on the block of the coated mesh's full-domain K and M on the
    vertices no coating triangle touches: the Dirichlet problem of the core
    triangles alone, with zero data on the interface, factored at the
    Faber-Krahn shift of the core triangles' area.  The corridor needs the
    lowest eigenvalue, not a gap, so `fem.lowest_pair` certifies it at gap 0
    on the core triangles' vertices.  Returns (lambda_eroded,
    fallback), fallback None or "two-pair" for the route.
    """
    coated = np.unique(mesh.triangles[mesh.region == LAYER])
    core_triangles = mesh.triangles[mesh.region != LAYER]
    factor = dirichlet_factor(K, M, coated, mesh.vertices, core_triangles)
    core = np.unique(core_triangles)
    lam, _, fallback = lowest_pair(K, M, mesh.vertices[core], 0.0, factor)
    return lam, fallback


def _rayleigh(pencil, x):
    """(lam, residual): the Rayleigh quotient x^T A x / x^T B x of a real x
    and the backward error of the pair (`FirstTE`)."""
    A, B = pencil.A, pencil.B
    Ax, Bx = A @ x, B @ x
    lam = float(x @ Ax) / float(x @ Bx)
    residual = float(np.abs(Ax - lam * Bx).sum()
                     / ((spnorm(A, 1) + lam * spnorm(B, 1)) * np.abs(x).sum()))
    return lam, residual


def first_te(curve, layer, h):
    """Locate the first transmission eigenvalue of the coated domain.

    The pencil is factored once, at the midpoint of the computable corridor
    [lo, hi] (`corridor`, its upper slack fixed), and `nearest_eig` returns
    the one eigenvalue nearest it.  It is the answer when it is real and in
    [lo, hi], as is the Rayleigh quotient of its eigenvector, which is
    reported: second-order accurate on the symmetric pencil, it restores the
    digits unpivoted elimination costs as n nears 1.  Anything else raises
    NoRootFound.  A zero pivot or a backward error above _BACKWARD_TOL
    refactors the pencil with partial pivoting.  Each fallback taken is
    recorded (see `FirstTE`).  The eigenpair is returned with v normalized
    to unit mass norm and sign-aligned with the Dirichlet ground mode.
    """
    mesh = generate_mesh(curve, layer, h)
    lam0, v0, K, M, factor, ground = ground_state(mesh)
    del factor  # the Dirichlet factor dies before the pencil LU
    lam_eroded, eroded = eroded_dirichlet(mesh, K, M)
    pencil = assemble_pencil(mesh, layer.n, K, M)

    lo, hi = corridor(lam0, lam_eroded)
    sigma = 0.5 * (lo + hi)
    taken = [f"{solve} {route}" for solve, route in (("ground", ground), ("eroded", eroded))
             if route]
    try:
        lam, x = nearest_eig(pencil, sigma)
    except RuntimeError:  # SuperLU met a zero pivot
        residual = math.inf
    else:
        lam_te, residual = _rayleigh(pencil, x.real)
    if not residual <= _BACKWARD_TOL:
        lam, x = nearest_eig(pencil, sigma, pivoted=True)
        lam_te, residual = _rayleigh(pencil, x.real)
        taken.append("pivoted pencil")
    if abs(lam.imag) > 1e-8 * abs(lam) or not (lo <= lam.real <= hi and lo <= lam_te <= hi):
        raise NoRootFound(f"the pencil eigenvalue nearest the corridor midpoint, {lam:.6g}, "
                          "is not real in the corridor")
    x = x.real

    nv = pencil.n_vertices
    v = x[:nv].copy()
    w = np.zeros(nv)
    interior_w = pencil.wmap >= nv
    w[interior_w] = x[pencil.wmap[interior_w]]
    w[mesh.outer] = v[mesh.outer]
    scale = mass_norm(M, v)
    v /= scale
    w /= scale
    if float(v @ (M @ v0.values)) < 0:
        v = -v
        w = -w
    return FirstTE(
        lam=lam_te,
        v=FemField(mesh, v),
        w=FemField(mesh, w),
        lambda0=lam0,
        v0=v0,
        lambda_eroded=lam_eroded,
        residual=residual,
        fallback=", ".join(taken) or None,
        mesh=mesh,
        pencil=pencil,
        K=K,
        M=M,
    )


def rayleigh_identity_residual(lam, v, w, n, mesh, K, M):
    """Relative defect of the energy identity satisfied by an eigenpair.

    v and w are FemField, K and M the full-domain stiffness and mass on mesh
    (a `FirstTE` carries all four).  With u = w - v (w extended by zero outside
    the coating) normalized to unit mass norm, a true eigenpair satisfies

        lam = lam * int_layer (1-n) |w|^2 + int |grad u|^2.

    A discrete eigenpair of the coupled P1 pencil satisfies it exactly, so
    the defect is rounding error (at most 7.2e-15 on disks and ellipses at
    h = 0.1 to 0.025) and anything larger flags a wrong eigenvalue or field.  The identity is
    evaluated after normalizing u, so it is invariant under scaling of the
    eigenpair.
    """
    v_vals, w_vals = v.values, w.values
    one_minus_n = (lambda x, y: 1.0 - n(x, y)) if callable(n) else 1.0 - float(n)
    M_1mn = assemble(mesh, "mass", region="layer", coefficient=one_minus_n).tocsr()
    u = w_vals - v_vals
    scale = math.sqrt(float(u @ (M @ u)))
    u = u / scale
    w_scaled = w_vals / scale
    rhs = lam * float(w_scaled @ (M_1mn @ w_scaled)) + float(u @ (K @ u))
    return abs(lam - rhs) / lam


def eigenfunction_error_rate(curve, deltas, h, n, g=1.0):
    """H1 distance between the coated eigenfunction and the Dirichlet ground
    mode for each coating thickness, with the log-log slope `fit_order`
    fits to them (at least three thicknesses, else InsufficientData).

    Returns (deltas, errors, fallbacks, slope); fallbacks[i] is the
    `FirstTE.fallback` of the solve behind errors[i].
    """
    from .geometry import LayerConfig
    from .report import fit_order  # report imports this module

    errors, fallbacks = [], []
    for delta0 in deltas:
        te = first_te(curve, LayerConfig(delta0, g, n), h)
        errors.append(h1_norm(te.K, te.M, te.v.values - te.v0.values))
        fallbacks.append(te.fallback)
    deltas = np.asarray(deltas, dtype=float)
    errors = np.asarray(errors)
    return deltas, errors, fallbacks, fit_order(deltas, errors).slope
