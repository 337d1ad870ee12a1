import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import splu

from thinspec import bessel, fem
from thinspec.errors import SolveSingular
from thinspec.fem import (
    FemField,
    assemble,
    boundary_flux,
    boundary_mass_lu,
    boundary_mass_matrix,
    dirichlet_eigs,
    floor_clears,
    ground_state,
    mass_norm,
    second_eigenvalue_floor,
    solve_constrained_source,
    stiffness_lu,
)
from thinspec.mesh import TriMesh
from thinspec.geometry import Circle, Ellipse, LayerConfig
from thinspec.mesh import generate_mesh

from _meshes import CURVES, CountingFactor, broadcast_assemble, core_submesh, square_mesh

LAM0 = 5.783185962946785  # first Dirichlet eigenvalue of the unit disk
FLUX0 = 1.3567775299013787  # j01/sqrt(pi)


@pytest.fixture(scope="module")
def disk_h02():
    mesh = generate_mesh(Circle(1.0), None, 0.02)
    K = assemble(mesh, "stiffness")
    M = assemble(mesh, "mass")
    lams, vecs = dirichlet_eigs(K, M, mesh.outer, 2, stiffness_lu(K, mesh.outer))
    v0 = vecs[:, 0] / mass_norm(M, vecs[:, 0])
    return mesh, K, M, lams, v0


def test_stiffness_interior_row_sums():
    mesh = generate_mesh(Circle(1.0), None, 0.05)
    K = assemble(mesh, "stiffness").tocsr()
    sums = np.asarray(K.sum(axis=1)).ravel()
    interior = np.setdiff1d(np.arange(mesh.n_vertices), mesh.outer)
    assert np.max(np.abs(sums[interior])) <= 1e-12


def test_total_mass_approximates_area():
    mesh = generate_mesh(Circle(1.0), None, 0.05)
    M = assemble(mesh, "mass")
    assert abs(M.tocsr().sum() - math.pi) <= 0.01


def test_mass_coefficient_linearity():
    mesh = generate_mesh(Circle(1.0), None, 0.1)
    M1 = assemble(mesh, "mass").tocsr()
    Mh = assemble(mesh, "mass", coefficient=0.5).tocsr()
    diff = abs(Mh - 0.5 * M1)
    assert diff.max() <= 1e-14 if diff.nnz else True


def test_symmetry_by_storage():
    mesh = generate_mesh(Circle(1.0), None, 0.1)
    K = assemble(mesh, "stiffness")
    M = assemble(mesh, "mass")
    assert abs(K - K.T).max() == 0.0
    assert abs(M - M.T).max() == 0.0


def test_symmetry_with_coefficients_and_regions():
    mesh = generate_mesh(Circle(1.0), LayerConfig(0.05, 1.0, 0.48), 0.1)
    for region in (None, "layer"):
        for coefficient in (None, 0.48, lambda x, y: 1.0 + x * x + 0.5 * y):
            for kind in ("stiffness", "mass"):
                A = assemble(mesh, kind, region=region, coefficient=coefficient)
                assert abs(A - A.T).max() == 0.0


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.kind)
def test_assembly_keeps_its_bits(curve):
    # per-entry assembly against the triangles x 3 x 3 broadcasts, entry
    # for entry: the same floating-point operations in the same order, and
    # the triplets in the same order, so CSR sums duplicates alike
    def hexes(A):
        return [float.hex(v) for v in A.data], A.indices.tolist(), A.indptr.tolist()

    for layer in (None, LayerConfig(0.05, 1.0, 0.48)):
        mesh = generate_mesh(curve, layer, 0.06)
        for kind in ("stiffness", "mass"):
            for region in (None, "layer"):
                for coefficient in (None, 0.37, lambda x, y: 1.0 + 0.3 * x - 0.2 * y * y):
                    got = assemble(mesh, kind, region=region, coefficient=coefficient)
                    ref = broadcast_assemble(mesh, kind, region=region, coefficient=coefficient)
                    assert hexes(got) == hexes(ref), (layer, kind, region, coefficient)


def _traced_peak_mib(fn):
    """Peak of the memory fn allocates while it runs, by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


def test_scratch_memory_on_a_fine_mesh():
    # bare Ellipse(1.3, 1) at h = 0.01: 44,287 vertices, 87,846 triangles.
    # Measured 24.8, 24.8, 6.8 and 2.7 MiB; with triangles x 3 x 3 (and
    # x 3 x 2) intermediates they were 46.3, 46.9, 12.8 and 10.1 MiB
    curve = Ellipse(1.3, 1.0)
    mesh = generate_mesh(curve, None, 0.01)
    assert len(mesh.triangles) == 87846
    peaks = {
        "stiffness": _traced_peak_mib(lambda: assemble(mesh, "stiffness")),
        "mass": _traced_peak_mib(lambda: assemble(mesh, "mass")),
        "generate_mesh": _traced_peak_mib(lambda: generate_mesh(curve, None, 0.01)),
        "h": _traced_peak_mib(lambda: mesh.h),
    }
    bounds = {"stiffness": 28.0, "mass": 28.0, "generate_mesh": 8.0, "h": 3.5}
    assert all(peaks[k] <= bounds[k] for k in bounds), peaks


def test_assemble_rejects_unknown_region():
    mesh = generate_mesh(Circle(1.0), LayerConfig(0.05, 1.0, 0.48), 0.1)
    for region in ("all", "core", 0, 1):
        with pytest.raises(ValueError):
            assemble(mesh, "mass", region=region)


def test_mass_positive_definite():
    mesh = generate_mesh(Circle(1.0), None, 0.1)
    M = assemble(mesh, "mass").toarray()
    np.linalg.cholesky(M)  # raises if not positive definite


def test_square_eigenvalue():
    mesh = square_mesh(50)  # h = 0.02
    K = assemble(mesh, "stiffness")
    M = assemble(mesh, "mass")
    lams, _ = dirichlet_eigs(K, M, mesh.outer, 1, stiffness_lu(K, mesh.outer))
    exact = 2.0 * math.pi**2
    assert abs(lams[0] - exact) / exact <= 0.005
    assert lams[0] >= exact  # conforming elements approximate from above


def test_disk_eigenvalue(disk_h02):
    _, _, _, lams, _ = disk_h02
    assert abs(lams[0] - LAM0) / LAM0 <= 0.005
    assert lams[0] >= LAM0


def test_eigen_convergence_order():
    errs = []
    for h in (0.08, 0.04, 0.02):
        mesh = generate_mesh(Circle(1.0), None, h)
        K = assemble(mesh, "stiffness")
        M = assemble(mesh, "mass")
        lams, _ = dirichlet_eigs(K, M, mesh.outer, 1, stiffness_lu(K, mesh.outer))
        assert lams[0] >= LAM0
        errs.append(lams[0] - LAM0)
    order = math.log(errs[0] / errs[1], 2.0), math.log(errs[1] / errs[2], 2.0)
    assert all(1.7 <= p <= 2.3 for p in order)


def test_eigenvectors_m_orthonormal(disk_h02):
    mesh, K, M, lams, _ = disk_h02
    lams2, vecs = dirichlet_eigs(K, M, mesh.outer, 2, stiffness_lu(K, mesh.outer))
    G = vecs.T @ (M.tocsr() @ vecs)
    assert np.max(np.abs(G - np.eye(2))) <= 1e-8
    free = np.setdiff1d(np.arange(mesh.n_vertices), mesh.outer)
    for i in range(2):
        r = (K.tocsr() @ vecs[:, i] - lams2[i] * (M.tocsr() @ vecs[:, i]))[free]
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm((K.tocsr() @ vecs[:, i])[free])


def test_iteration_budget_enforced(monkeypatch):
    from thinspec.errors import ConvergenceFailure

    mesh = square_mesh(20)
    K = assemble(mesh, "stiffness")
    M = assemble(mesh, "mass")
    monkeypatch.setattr(fem, "_RESTARTS", 1)
    monkeypatch.setattr(fem, "_RESIDUAL_TOL", 1e-14)
    with pytest.raises(ConvergenceFailure):
        dirichlet_eigs(K, M, mesh.outer, 2, stiffness_lu(K, mesh.outer))


def test_ground_mode_sign_rule(disk_h02):
    mesh, _, _, _, v0 = disk_h02
    cen = mesh.centroid()
    d2 = ((mesh.vertices - cen) ** 2).sum(axis=1)
    free = np.setdiff1d(np.arange(mesh.n_vertices), mesh.outer)
    anchor = free[np.argmin(d2[free])]
    assert v0[anchor] > 0.0


def test_flux_recovery_disk(disk_h02):
    mesh, K, M, lams, v0 = disk_h02
    flux = boundary_flux(mesh, FemField(mesh, v0), lams[0], K, M, boundary_mass_lu(mesh))
    assert np.max(np.abs(flux - FLUX0)) / FLUX0 <= 0.01


def test_flux_of_constant_field():
    mesh = generate_mesh(Circle(1.0), None, 0.1)
    flux = boundary_flux(mesh, FemField(mesh, np.ones(mesh.n_vertices)), 0.0,
                         assemble(mesh, "stiffness"), assemble(mesh, "mass"),
                         boundary_mass_lu(mesh))
    assert np.max(np.abs(flux)) <= 1e-10


def test_flux_superconvergence():
    errs = []
    for h in (0.08, 0.04):
        mesh = generate_mesh(Circle(1.0), None, h)
        K = assemble(mesh, "stiffness")
        M = assemble(mesh, "mass")
        lams, vecs = dirichlet_eigs(K, M, mesh.outer, 1, stiffness_lu(K, mesh.outer))
        v0 = vecs[:, 0] / mass_norm(M, vecs[:, 0])
        flux = boundary_flux(mesh, FemField(mesh, v0), lams[0], K, M, boundary_mass_lu(mesh))
        errs.append(abs(flux.mean() - FLUX0))
    assert errs[0] / errs[1] >= 3.0


def test_constrained_solve_homogeneous(disk_h02):
    mesh, K, M, lams, v0 = disk_h02
    zero = FemField(mesh, np.zeros(mesh.n_vertices))
    sol, mu = solve_constrained_source(
        K, M, lams[0], zero, np.zeros(len(mesh.outer)), FemField(mesh, v0), mesh.outer,
        stiffness_lu(K, mesh.outer)
    )
    assert np.max(np.abs(sol.values)) <= 1e-12
    assert abs(mu) <= 1e-12


def test_constrained_solve_matches_radial_oracle(disk_h02, disk_oracle):
    mesh, K, M, lams, v0 = disk_h02
    flux0 = boundary_flux(mesh, FemField(mesh, v0), lams[0], K, M, boundary_mass_lu(mesh))
    mg = boundary_mass_matrix(mesh)
    lam1 = float(flux0 @ (mg @ flux0))  # discrete compatibility value
    rhs = FemField(mesh, -lam1 * v0)
    sol, mu = solve_constrained_source(K, M, lams[0], rhs, -flux0,
                                       FemField(mesh, v0), mesh.outer, stiffness_lu(K, mesh.outer))
    radii = np.linalg.norm(mesh.vertices, axis=1)
    exact = disk_oracle.v1(radii)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(sol.values - exact)) / scale <= 0.02
    # multiplier is the solvability defect; with the discrete lambda1 it is
    # at solver precision
    assert abs(mu) <= 1e-8 * np.linalg.norm(rhs.values)
    assert abs(float(v0 @ (M.tocsr() @ sol.values))) <= 1e-10
    # essential data is imposed exactly
    assert np.array_equal(sol.values[mesh.outer], -flux0)


def test_constrained_solve_galerkin_residual(disk_h02):
    mesh, K, M, lams, v0 = disk_h02
    flux0 = boundary_flux(mesh, FemField(mesh, v0), lams[0], K, M, boundary_mass_lu(mesh))
    mg = boundary_mass_matrix(mesh)
    lam1 = float(flux0 @ (mg @ flux0))
    rhs = FemField(mesh, -lam1 * v0)
    sol, mu = solve_constrained_source(K, M, lams[0], rhs, -flux0,
                                       FemField(mesh, v0), mesh.outer, stiffness_lu(K, mesh.outer))
    A = K.tocsr() - lams[0] * M.tocsr()
    resid = A @ sol.values + M.tocsr() @ rhs.values + mu * (M.tocsr() @ v0)
    free = np.setdiff1d(np.arange(mesh.n_vertices), mesh.outer)
    scale = np.linalg.norm(M.tocsr() @ rhs.values)
    assert np.linalg.norm(resid[free]) <= 1e-10 * scale


def test_singular_augmented_system_detected(disk_h02):
    mesh, K, M, lams, v0 = disk_h02
    # constraining against the zero vector leaves the shifted operator
    # singular: the augmentation cannot regularize it
    zero_constraint = FemField(mesh, np.zeros(mesh.n_vertices))
    rhs = FemField(mesh, v0)
    with pytest.raises(SolveSingular):
        sol, _ = solve_constrained_source(
            K, M, lams[0], rhs, np.zeros(len(mesh.outer)), zero_constraint, mesh.outer,
            stiffness_lu(K, mesh.outer)
        )
        # some LU implementations factor to garbage instead of raising; make
        # the check explicit
        if not np.all(np.isfinite(sol.values)) or np.max(np.abs(sol.values)) > 1e12:
            raise SolveSingular("non-finite or blown-up solution")


@pytest.mark.parametrize("count", [1, 2, 3])
def test_dirichlet_eigs_matches_dense(count):
    mesh = square_mesh(12)
    K = assemble(mesh, "stiffness")
    M = assemble(mesh, "mass")
    free = np.setdiff1d(np.arange(mesh.n_vertices), mesh.outer)
    ref_lams, ref_vecs = scipy.linalg.eigh(
        K[np.ix_(free, free)].toarray(), M[np.ix_(free, free)].toarray()
    )
    lams, vecs = dirichlet_eigs(K, M, mesh.outer, count, stiffness_lu(K, mesh.outer))
    assert np.max(np.abs(lams - ref_lams[:count]) / ref_lams[:count]) <= 1e-12
    assert np.all(vecs[mesh.outer] == 0.0)
    # the simple ground mode agrees up to the sign rule
    ground = ref_vecs[:, 0] * np.sign(ref_vecs[:, 0] @ vecs[free, 0])
    assert np.max(np.abs(vecs[free, 0] - ground)) <= 1e-10 * np.max(np.abs(ground))


def _saddle_lu_reference(K, M, lam0, rhs, data, v0, outer):
    """The bordered (n+1) x (n+1) LU solve the CG corrector replaced."""
    n = K.shape[0]
    free = np.setdiff1d(np.arange(n), outer)
    A = (K - lam0 * M).tocsr()
    q = M @ v0
    b = -(M @ rhs)[free] - A[np.ix_(free, outer)] @ data
    nf = len(free)
    Aff = A[np.ix_(free, free)].tocoo()
    qf = q[free]
    rows = np.concatenate([Aff.row, np.arange(nf), np.full(nf, nf)])
    cols = np.concatenate([Aff.col, np.full(nf, nf), np.arange(nf)])
    vals = np.concatenate([Aff.data, qf, qf])
    big = sparse.csc_matrix((vals, (rows, cols)), shape=(nf + 1, nf + 1))
    sol = splu(big).solve(np.concatenate([b, [-float(q[outer] @ data)]]))
    u = np.zeros(n)
    u[outer] = data
    u[free] = sol[:nf]
    return u, float(sol[nf])


def test_cg_corrector_matches_saddle_lu(disk_h02):
    mesh, K, M, lams, v0 = disk_h02
    flux0 = boundary_flux(mesh, FemField(mesh, v0), lams[0], K, M, boundary_mass_lu(mesh))
    mg = boundary_mass_matrix(mesh)
    lam1 = float(flux0 @ (mg @ flux0))
    rhs = -lam1 * v0
    sol, mu = solve_constrained_source(K, M, lams[0], FemField(mesh, rhs), -flux0,
                                       FemField(mesh, v0), mesh.outer, stiffness_lu(K, mesh.outer))
    ref, ref_mu = _saddle_lu_reference(K, M, lams[0], rhs, -flux0, v0, mesh.outer)
    assert np.max(np.abs(sol.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert abs(mu - ref_mu) <= 1e-12 * np.linalg.norm(rhs)


def test_second_eigenvalue_floor_closed_forms():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert second_eigenvalue_floor(square) == pytest.approx(5.0 * math.pi**2, rel=1e-15)
    theta = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)
    disk = np.stack([np.cos(theta), np.sin(theta)], axis=1)  # the disk beats the box
    j11 = bessel.bessel_j_zero(1, 1)
    assert second_eigenvalue_floor(disk) == pytest.approx(j11**2, rel=1e-15)


def _floor_meshes():
    cases = [pytest.param(square_mesh(n), id=f"square-{n}") for n in (12, 24)]
    for i, curve in enumerate(CURVES):
        for layer in (None, LayerConfig(0.04, 1.0, 0.48)):
            for h in (0.09, 0.06):
                tag = f"{i}-{curve.kind}-{'coated' if layer else 'bare'}-{h:g}"
                cases.append(pytest.param((curve, layer, h), id=tag))
    return cases


@pytest.mark.parametrize("case", _floor_meshes())
def test_second_eigenvalue_floor_is_below_lambda2(case):
    mesh = case if isinstance(case, TriMesh) else generate_mesh(*case)
    problems = [mesh]
    if mesh.has_layer():  # the eroded problem that first_te certifies too
        problems.append(core_submesh(mesh)[0])
    for sub in problems:
        K, M = assemble(sub, "stiffness"), assemble(sub, "mass")
        two, _ = dirichlet_eigs(K, M, sub.outer, 2, stiffness_lu(K, sub.outer))
        one, _ = dirichlet_eigs(K, M, sub.outer, 1, stiffness_lu(K, sub.outer))
        assert second_eigenvalue_floor(sub.vertices) <= two[1]
        assert floor_clears(one[0], sub.vertices, 1e-6)
        assert abs(one[0] - two[0]) <= 1e-14 * two[0]


def test_ground_state_takes_at_most_14_factor_solves(monkeypatch):
    counts = {"solves": 0}
    monkeypatch.setattr(fem, "stiffness_lu",
                        lambda K, boundary: CountingFactor(stiffness_lu(K, boundary), counts))
    fallback = ground_state(generate_mesh(Ellipse(1.3, 1.0), None, 0.075))[5]
    assert fallback is None
    assert 0 < counts["solves"] <= 14  # two pairs took 21


def _rotated_strip(n, width):
    """The unit square squeezed to a 1 x width strip and turned 45 degrees:
    its bounding box is far wider than it, so the floor is far too low."""
    mesh = square_mesh(n)
    x, y = mesh.vertices[:, 0], width * mesh.vertices[:, 1]
    c = math.sqrt(0.5)
    return TriMesh(vertices=np.stack([c * (x - y), c * (x + y)], axis=1),
                   triangles=mesh.triangles, region=mesh.region, outer=mesh.outer,
                   inner=mesh.inner)


def test_ground_state_falls_back_to_two_pairs_when_the_floor_fails():
    mesh = _rotated_strip(40, 0.2)
    lam0, v0, K, M, _, fallback = ground_state(mesh)
    assert second_eigenvalue_floor(mesh.vertices) < lam0
    assert fallback == "two-pair"
    lams, vecs = dirichlet_eigs(K, M, mesh.outer, 2, stiffness_lu(K, mesh.outer))
    assert lam0 == float(lams[0])
    assert np.array_equal(v0.values, vecs[:, 0] / mass_norm(M, vecs[:, 0]))
