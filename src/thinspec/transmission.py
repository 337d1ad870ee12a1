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
    outer boundary (where w shares the v trace unknown).
    """

    A: sparse.csr_matrix
    B: sparse.csr_matrix
    dim: int
    n_vertices: int
    wmap: np.ndarray

    def shifted(self, lam):
        return (self.A - lam * self.B).tocsc()


def assemble_pencil(mesh, n, K, M):
    """Build the coupled pencil on a coated mesh with index coefficient n
    from the full-domain stiffness K and mass M."""
    if not mesh.has_layer():
        raise MissingLayer("assemble_pencil: mesh has no coating region")
    nv = mesh.n_vertices
    K_layer = assemble(mesh, "stiffness", region="layer").tocsr()
    M_layer_n = assemble(mesh, "mass", region="layer", coefficient=n).tocsr()

    layer_vertices = np.unique(mesh.triangles[mesh.region == LAYER])
    layer_vertices = layer_vertices[~np.isin(layer_vertices, mesh.inner)]  # w = 0 there
    on_outer = np.isin(layer_vertices, mesh.outer)
    own = layer_vertices[~on_outer]
    dim = nv + own.size
    wmap = -np.ones(nv, dtype=np.int64)
    wmap[layer_vertices[on_outer]] = layer_vertices[on_outer]  # trace identification with v
    wmap[own] = np.arange(nv, dim)

    def embed_v(mat):
        coo = mat.tocoo()
        return sparse.csr_matrix((coo.data, (coo.row, coo.col)), shape=(dim, dim))

    def embed_w(mat, sign):
        coo = mat.tocoo()
        keep = (wmap[coo.row] >= 0) & (wmap[coo.col] >= 0)
        return sparse.csr_matrix(
            (sign * coo.data[keep], (wmap[coo.row[keep]], wmap[coo.col[keep]])),
            shape=(dim, dim),
        )

    A = (embed_v(K) + embed_w(K_layer, -1.0)).tocsr()
    B = (embed_v(M) + embed_w(M_layer_n, -1.0)).tocsr()
    return CoupledPencil(A=A, B=B, dim=dim, n_vertices=nv, wmap=wmap)


def nearest_eig(pencil, sigma):
    """The pencil eigenvalue nearest sigma with its eigenvector.

    One LU of A - sigma*B drives shift-invert Arnoldi for the one
    eigenvalue mu of (A - sigma*B)^-1 B of largest modulus, in a Krylov
    space of at most 6 vectors; the pencil eigenvalue is sigma + 1/mu.
    Returns (lam, x): lam is complex, x is scaled so that its entry of
    largest modulus is 1 and is real when lam is.

    SuperLU's supernode relaxation 2 and panel size 3, below its defaults
    10 and 20, change only the blocking of one elimination: perm_c and
    nnz(L + U) are the same on each pencil below.  Factor ms (columns
    relax:panel) of the pencil at the corridor midpoint, Ellipse(1.3, 1),
    n = 0.48, median of 41 shuffled runs at h = 0.15 and 0.075 and of 11
    at 0.04 and 0.02, one BLAS thread, 2-core x86_64:

        h      delta   nnz(L+U)    10:20    1:3    2:3    3:3    2:4    3:5
        0.15   0.04       13,271    0.747  0.729  0.719  0.741  0.735  0.738
        0.15   0.02       13,271    0.689  0.672  0.677  0.691  0.700  0.697
        0.15   0.01       13,271    0.712  0.686  0.701  0.691  0.707  0.708
        0.075  0.04       54,983    2.493  2.448  2.463  2.458  2.475  2.506
        0.075  0.02       54,983    2.350  2.323  2.334  2.344  2.352  2.392
        0.075  0.01       54,983    2.427  2.392  2.373  2.396  2.397  2.448
        0.04   0.04      249,052    9.606  9.292  9.116  9.345  9.335  9.358
        0.04   0.02      249,112    9.100  8.605  8.726  8.869  8.956  8.976
        0.04   0.01      249,112    8.905  8.614  8.526  8.547  8.502  8.579
        0.02   0.04    1,267,842    44.92  42.75  41.92  44.14  43.58  42.77
        0.02   0.02    1,257,464    43.05  39.35  41.04  40.67  42.25  40.96
        0.02   0.01    1,257,367    46.92  45.45  46.12  45.33  44.59  44.90

    2:3, the setting of `fem.dirichlet_factor`, is faster than the
    defaults on every pencil, by 0.7-4 % on the `ellipse_sweep` meshes and
    2-7 % on the shipped ellipse sweep's; no other column beats it on every
    pencil.
    """
    lu = splu(pencil.shifted(sigma), relax=2, panel_size=3)
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
    lambda0 or lambda_eroded and two pairs were solved for it.  K and M are
    the full-domain stiffness and mass on mesh."""

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


def first_te(curve, layer, h):
    """Locate the first transmission eigenvalue of the coated domain.

    The pencil is factored once, at the midpoint of the computable corridor
    [lo, hi] (`corridor`, its upper slack fixed), and `nearest_eig` returns
    the one eigenvalue nearest it.  That eigenvalue is the answer when it
    is real and in [lo, hi]; anything else raises NoRootFound.  The
    fallbacks of the two Dirichlet eigensolves are recorded (see `FirstTE`).
    The eigenpair is returned with v normalized to unit mass norm and
    sign-aligned with the Dirichlet ground mode.
    """
    mesh = generate_mesh(curve, layer, h)
    lam0, v0, K, M, factor, ground = ground_state(mesh)
    del factor  # the Dirichlet factor dies before the pencil LU
    lam_eroded, eroded = eroded_dirichlet(mesh, K, M)
    pencil = assemble_pencil(mesh, layer.n, K, M)

    lo, hi = corridor(lam0, lam_eroded)
    lam, x = nearest_eig(pencil, 0.5 * (lo + hi))
    lam_te, x = lam.real, x.real
    if abs(lam.imag) > 1e-8 * abs(lam) or not lo <= lam_te <= hi:
        raise NoRootFound(f"the pencil eigenvalue nearest the corridor midpoint, {lam:.6g}, "
                          "is not real in the corridor")
    taken = [f"{solve} {route}" for solve, route in (("ground", ground), ("eroded", eroded))
             if route]
    A, B = pencil.A, pencil.B
    residual = float(np.abs(A @ x - lam_te * (B @ x)).sum()
                     / ((spnorm(A, 1) + lam_te * spnorm(B, 1)) * np.abs(x).sum()))

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
        lam=float(lam_te),
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
