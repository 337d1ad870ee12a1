import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from thinspec import bessel, fem, transmission
from thinspec.errors import InsufficientData, MissingLayer, NoRootFound
from thinspec.fem import assemble, dirichlet_eigs, ground_state, h1_norm, stiffness_lu
from thinspec.geometry import Circle, Ellipse, LayerConfig
from thinspec.mesh import LAYER, generate_mesh
from thinspec.report import fit_order, richardson
from thinspec.transmission import (
    CoupledPencil,
    assemble_pencil,
    corridor,
    eigenfunction_error_rate,
    eroded_dirichlet,
    first_te,
    nearest_eig,
    rayleigh_identity_residual,
)

from _meshes import CountingFactor, core_submesh

LAM0 = 5.783185962946785


def _full_km(mesh):
    """Full-domain stiffness and mass, the operators first_te shares."""
    return assemble(mesh, "stiffness"), assemble(mesh, "mass")


def _toy_pencil(diagonal=(2.0, 3.0, 7.0)):
    return CoupledPencil(
        A=sp.diags(list(diagonal)).tocsr(),
        B=sp.identity(3, format="csr"),
        dim=3,
        n_vertices=3,
        wmap=np.array([], dtype=np.int64),
    )


def _qz_real_eigs(pencil):
    """Every finite real eigenvalue of the pencil, ascending, from the dense
    QZ algorithm; independent of the shift-invert Arnoldi solve."""
    lam = scipy.linalg.eigvals(pencil.A.toarray(), pencil.B.toarray())
    lam = lam[np.isfinite(lam)]
    return np.sort(lam.real[np.abs(lam.imag) <= 1e-8 * np.abs(lam)])


# coarse meshes keep the dense QZ solve near one second (pencil dim 511 and 685)
@pytest.fixture(scope="module")
def disk_coarse():
    te = first_te(Circle(1.0), LayerConfig(0.01, 1.0, 0.48), 0.1)
    return te, _qz_real_eigs(te.pencil)


@pytest.fixture(scope="module")
def ellipse_coarse():
    te = first_te(Ellipse(1.3, 1.0), LayerConfig(0.02, 1.0, 0.48), 0.1)
    return te, _qz_real_eigs(te.pencil)


def test_pencil_bookkeeping():
    mesh = generate_mesh(Circle(1.0), LayerConfig(0.05, 1.0, 0.48), 0.1)
    pencil = assemble_pencil(mesh, 0.48, *_full_km(mesh))
    layer_vertices = np.unique(mesh.triangles[mesh.region == LAYER])
    interior_w = np.setdiff1d(layer_vertices, np.concatenate([mesh.inner, mesh.outer]))
    assert pencil.dim == mesh.n_vertices + len(interior_w)


def test_pencil_symmetry():
    mesh = generate_mesh(Circle(1.0), LayerConfig(0.05, 1.0, 0.48), 0.1)
    pencil = assemble_pencil(mesh, 0.48, *_full_km(mesh))
    assert abs(pencil.A - pencil.A.T).max() == 0.0
    assert abs(pencil.B - pencil.B.T).max() == 0.0


def test_pencil_w_block_scales_with_index():
    mesh = generate_mesh(Circle(1.0), LayerConfig(0.05, 1.0, 0.48), 0.1)
    p_free = assemble_pencil(mesh, 0.48, *_full_km(mesh))
    p_unit = assemble_pencil(mesh, 0.999, *_full_km(mesh))
    nv = mesh.n_vertices
    w_free = p_free.B[nv:, nv:]
    w_unit = p_unit.B[nv:, nv:]
    assert abs(w_free - (0.48 / 0.999) * w_unit).max() <= 1e-14


def test_pencil_requires_layer():
    mesh = generate_mesh(Circle(1.0), None, 0.1)
    with pytest.raises(MissingLayer):
        assemble_pencil(mesh, 0.48, *_full_km(mesh))


def test_no_roots_below_lambda0(disk_coarse):
    _, lams = disk_coarse
    assert not np.any((lams >= 0.3 * LAM0) & (lams <= 0.95 * LAM0))


def test_disk_first_te_matches_oracle(disk_te):
    lam_oracle = bessel.disk_first_te(bessel.DiskProblem(1.0, 0.01, 0.48))
    assert abs(disk_te.lam - lam_oracle) / lam_oracle <= 0.005


def test_disk_first_te_sandwich(disk_te):
    assert disk_te.lambda0 * (1.0 - 1e-9) <= disk_te.lam
    assert disk_te.lam <= disk_te.lambda_eroded * (1.0 + 1e-9)


def test_first_te_eigenvector_contracts(disk_te):
    mesh = disk_te.mesh
    M = assemble(mesh, "mass").tocsr()
    # unit mass norm, sign-aligned with the Dirichlet mode, trace shared with
    # the coating field, coating field zero on the interface
    nrm = math.sqrt(float(disk_te.v.values @ (M @ disk_te.v.values)))
    assert abs(nrm - 1.0) <= 1e-8
    assert float(disk_te.v.values @ (M @ disk_te.v0.values)) > 0.0
    assert np.array_equal(disk_te.w.values[mesh.outer], disk_te.v.values[mesh.outer])
    assert np.max(np.abs(disk_te.w.values[mesh.inner])) == 0.0


@pytest.fixture(scope="module")
def ellipse_te():
    return first_te(Ellipse(1.3, 1.0), LayerConfig(0.02, 1.0, 0.48), 0.06)


def test_ellipse_first_te_sandwich(ellipse_te):
    te = ellipse_te
    slack = 3e-3 * te.lambda0
    assert te.lambda0 - slack <= te.lam <= te.lambda_eroded + slack


def _assert_smallest_corridor_eig(te, lams):
    lo, hi = corridor(te.lambda0, te.lambda_eroded)
    inside = lams[(lams >= lo) & (lams <= hi)]
    assert inside.size
    assert abs(te.lam - inside[0]) / inside[0] <= 1e-9
    assert te.fallback is None


def test_arnoldi_matches_corridor_scan_disk(disk_coarse):
    _assert_smallest_corridor_eig(*disk_coarse)


def test_arnoldi_matches_corridor_scan_ellipse(ellipse_coarse):
    _assert_smallest_corridor_eig(*ellipse_coarse)


@pytest.mark.parametrize("name", ["disk_te", "ellipse_te"])
def test_first_te_backward_error(name, request):
    te = request.getfixturevalue(name)
    assert 0.0 <= te.residual <= 1e-10


def test_first_te_deterministic(disk_te):
    again = first_te(Circle(1.0), LayerConfig(0.01, 1.0, 0.48), 0.05)
    assert again.lam == disk_te.lam


def test_first_te_frees_stiffness_factor_before_pencil_lu(monkeypatch):
    """first_te makes two fem factors, of the free stiffness block and of the
    eroded block, and neither is alive when the pencil is factored, so they
    never add to its peak memory."""
    import gc
    import weakref

    class Factor:  # weak-referenceable stand-in for SuperLU
        def __init__(self, lu):
            self.shape, self._lu = lu.shape, lu

        def solve(self, rhs):
            return self._lu.solve(rhs)

    refs, alive_at_pencil = [], []
    real_fem_splu, real_pencil_splu = fem.splu, transmission.splu

    def fem_splu(a, **kwargs):
        factor = Factor(real_fem_splu(a, **kwargs))
        refs.append(weakref.ref(factor))
        return factor

    def pencil_splu(a, **kwargs):
        gc.collect()
        alive_at_pencil.append([i for i, ref in enumerate(refs) if ref() is not None])
        return real_pencil_splu(a, **kwargs)

    monkeypatch.setattr(fem, "splu", fem_splu)
    monkeypatch.setattr(transmission, "splu", pencil_splu)
    first_te(Circle(1.0), LayerConfig(0.01, 1.0, 0.48), 0.1)
    assert len(refs) == 2
    assert alive_at_pencil == [[]]


def _count_pencil_work(monkeypatch):
    """Patch the pencil's splu to count its factorizations and solves."""
    counts = {"factorizations": 0, "solves": 0}
    real_splu = transmission.splu

    def counting_splu(a, **kwargs):
        counts["factorizations"] += 1
        return CountingFactor(real_splu(a, **kwargs), counts)

    monkeypatch.setattr(transmission, "splu", counting_splu)
    return counts


def test_first_te_solve_counts(monkeypatch):
    """A cell of the ellipse sweep asks ARPACK for one pencil pair and one
    eroded pair, each in a Krylov space of at most 6 vectors."""
    pencil = _count_pencil_work(monkeypatch)
    eroded = {"solves": 0}
    real_lowest_pair = transmission.lowest_pair

    def counting_pair(K, M, boundary, vertices, gap, lu):
        return real_lowest_pair(K, M, boundary, vertices, gap, CountingFactor(lu, eroded))

    # transmission calls lowest_pair for the eroded solve alone
    monkeypatch.setattr(transmission, "lowest_pair", counting_pair)
    te = first_te(Ellipse(1.3, 1.0), LayerConfig(0.04, 1.0, 0.48), 0.15)
    assert te.fallback is None
    assert pencil["factorizations"] == 1
    assert 0 < pencil["solves"] <= 10
    assert 0 < eroded["solves"] <= 15


def test_first_te_records_the_two_pair_routes(monkeypatch):
    """With a floor that clears nothing, both Dirichlet eigensolves take two
    pairs, and the cell names each fallback it took."""
    layer = LayerConfig(0.04, 1.0, 0.48)
    plain = first_te(Circle(1.0), layer, 0.15)
    monkeypatch.setattr(fem, "second_eigenvalue_floor", lambda vertices: 0.0)
    fallen = first_te(Circle(1.0), layer, 0.15)
    assert plain.fallback is None
    assert fallen.fallback == "ground two-pair, eroded two-pair"
    assert abs(fallen.lambda0 - plain.lambda0) <= 1e-14 * plain.lambda0
    assert abs(fallen.lambda_eroded - plain.lambda_eroded) <= 1e-14 * plain.lambda_eroded
    assert abs(fallen.lam - plain.lam) <= 1e-9 * plain.lam


@pytest.mark.parametrize("case, fallback", [
    ("as solved", None),
    ("above the corridor", NoRootFound),
    ("above the window", NoRootFound),
    ("below the corridor", NoRootFound),
    ("complex", NoRootFound),
])
def test_first_te_classifies_the_nearest_eigenvalue(monkeypatch, case, fallback):
    """first_te keeps the eigenvalue nearest the corridor midpoint only when
    it is real and in the corridor."""
    layer = LayerConfig(0.04, 1.0, 0.48)
    lam0 = first_te(Circle(1.0), layer, 0.15).lambda0
    real_nearest = transmission.nearest_eig

    def moved(pencil, sigma):
        lam, x = real_nearest(pencil, sigma)
        return {"as solved": lam, "above the corridor": 1.5 * lam0,
                "above the window": 4.5 * lam0, "below the corridor": 0.9 * lam0,
                "complex": complex(lam.real, 1e-6 * lam.real)}[case], x

    monkeypatch.setattr(transmission, "nearest_eig", moved)
    if fallback is NoRootFound:
        with pytest.raises(NoRootFound):
            first_te(Circle(1.0), layer, 0.15)
    else:
        assert first_te(Circle(1.0), layer, 0.15).fallback == fallback


@pytest.mark.parametrize("curve", [Circle(1.0), Ellipse(1.3, 1.0)])
@pytest.mark.parametrize("delta", [0.01, 0.2])
@pytest.mark.parametrize("n", [0.05, 0.95])
def test_corridor_holds_one_real_eigenvalue_nearest_its_midpoint(curve, delta, n):
    """Why first_te asks for one pair: each corridor holds exactly one real
    pencil eigenvalue, and no eigenvalue, real or complex, is nearer the
    corridor midpoint (dense QZ)."""
    te = first_te(curve, LayerConfig(delta, 1.0, n), 0.15)
    lo, hi = corridor(te.lambda0, te.lambda_eroded)
    real = _qz_real_eigs(te.pencil)
    inside = real[(real >= lo) & (real <= hi)]
    assert inside.size == 1
    every = scipy.linalg.eigvals(te.pencil.A.toarray(), te.pencil.B.toarray())
    every = every[np.isfinite(every)]
    nearest = every[np.argmin(np.abs(every - 0.5 * (lo + hi)))]
    assert abs(nearest - inside[0]) <= 1e-9 * inside[0]
    assert abs(te.lam - inside[0]) / inside[0] <= 1e-9
    assert te.fallback is None


def test_disk_first_te_richardson_over_ring_spacing():
    """Richardson over the ring counts of h = (0.02, 0.01) puts the disk
    pencil eigenvalue within 5e-7 of the Bessel root; the nominal ratio 2
    leaves it about 6e-6 below."""
    layer = LayerConfig(0.01, 1.0, 0.48)
    coarse, fine = (first_te(Circle(1.0), layer, h) for h in (0.02, 0.01))
    lam, _ = richardson(coarse.lam, fine.lam, fine.mesh.n_rings / coarse.mesh.n_rings)
    assert abs(lam - bessel.disk_first_tes(1.0, [0.01], 0.48)[0]) <= 5e-7


def test_nearest_eig_toy_pencils():
    lam, x = nearest_eig(_toy_pencil(), 1.25)
    assert abs(lam - 2.0) <= 1e-12
    assert np.argmax(np.abs(x)) == 0
    # a double eigenvalue, which no determinant sign change would reveal
    lam, _ = nearest_eig(_toy_pencil((2.0, 2.0, 5.0)), 2.55)
    assert abs(lam - 2.0) <= 1e-12
    # a symmetric pencil with an indefinite B has the complex pair +-i
    toy = CoupledPencil(A=sp.csr_matrix([[2.0, 0, 0], [0, 0, 1], [0, 1, 0]]),
                        B=sp.diags([1.0, -1.0, 1.0]).tocsr(), dim=3, n_vertices=3,
                        wmap=np.array([], dtype=np.int64))
    lam, _ = nearest_eig(toy, 0.1)
    assert abs(abs(lam.imag) - 1.0) <= 1e-12


def test_first_te_trend_with_thickness():
    lams = []
    deltas = [0.04, 0.02, 0.01]
    for delta in deltas:
        te = first_te(Circle(1.0), LayerConfig(delta, 1.0, 0.48), 0.06)
        lams.append(te.lam - te.lambda0)
    assert fit_order(deltas, lams).slope >= 0.9


def test_eroded_dirichlet_disk():
    mesh = generate_mesh(Circle(1.0), LayerConfig(0.01, 1.0, 0.48), 0.05)
    lam = eroded_dirichlet(mesh, *_full_km(mesh))[0]
    exact = (bessel.bessel_j_zero(0, 1) / 0.99) ** 2
    assert abs(lam - exact) / exact <= 0.005


@pytest.mark.parametrize("curve", [Circle(1.0), Ellipse(1.3, 1.0)])
def test_eroded_dirichlet_is_the_core_submesh_eigenvalue(curve):
    layer = LayerConfig(0.04, 1.0, 0.48)
    mesh = generate_mesh(curve, layer, 0.1)
    sub, _ = core_submesh(mesh)
    K = assemble(sub, "stiffness")
    lams, _ = dirichlet_eigs(K, assemble(sub, "mass"), sub.outer, 1, stiffness_lu(K, sub.outer))
    assert eroded_dirichlet(mesh, *_full_km(mesh)) == (float(lams[0]), None)


def _wmap_by_loop(mesh):
    """The pencil's w numbering built vertex by vertex: none on the inner
    boundary, the v unknown on the outer one, new unknowns elsewhere."""
    inner, outer = set(mesh.inner.tolist()), set(mesh.outer.tolist())
    wmap = -np.ones(mesh.n_vertices, dtype=np.int64)
    nxt = mesh.n_vertices
    for vtx in np.unique(mesh.triangles[mesh.region == LAYER]):
        if vtx in inner:
            continue
        if vtx in outer:
            wmap[vtx] = vtx
        else:
            wmap[vtx] = nxt
            nxt += 1
    return wmap, nxt


@pytest.mark.parametrize("curve", [Circle(1.0), Ellipse(1.3, 1.0)])
def test_pencil_wmap_matches_vertex_loop(curve):
    mesh = generate_mesh(curve, LayerConfig(0.04, 1.0, 0.48), 0.1)
    pencil = assemble_pencil(mesh, 0.48, *_full_km(mesh))
    wmap, dim = _wmap_by_loop(mesh)
    assert np.array_equal(pencil.wmap, wmap)
    assert pencil.dim == dim


@pytest.mark.parametrize("curve", [Circle(1.0), Ellipse(1.3, 1.0)])
@pytest.mark.parametrize("layer", [None, LayerConfig(0.04, 1.0, 0.48)])
def test_ground_mode_nonnegative_on_free_vertices(curve, layer):
    mesh = generate_mesh(curve, layer, 0.1)
    v0 = ground_state(mesh)[1].values
    free = np.setdiff1d(np.arange(mesh.n_vertices), mesh.outer)
    assert v0[free].min() >= 0.0


def test_eroded_dirichlet_monotone():
    meshes = [generate_mesh(Circle(1.0), LayerConfig(d, 1.0, 0.48), 0.06)
              for d in (0.01, 0.02, 0.04)]
    vals = [eroded_dirichlet(mesh, *_full_km(mesh))[0] for mesh in meshes]
    assert vals[0] < vals[1] < vals[2]


def test_rayleigh_identity_residual(disk_te):
    res = rayleigh_identity_residual(disk_te.lam, disk_te.v, disk_te.w, 0.48,
                                     disk_te.mesh, disk_te.K, disk_te.M)
    assert res <= 5.0 * disk_te.mesh.h
    assert res <= 1e-6  # discrete eigenpairs satisfy the identity exactly


def test_rayleigh_identity_scale_invariant(disk_te):
    res1 = rayleigh_identity_residual(disk_te.lam, disk_te.v, disk_te.w, 0.48,
                                      disk_te.mesh, disk_te.K, disk_te.M)
    v2 = disk_te.v.copy()
    w2 = disk_te.w.copy()
    v2.values = 2.0 * v2.values
    w2.values = 2.0 * w2.values
    res2 = rayleigh_identity_residual(disk_te.lam, v2, w2, 0.48, disk_te.mesh,
                                      disk_te.K, disk_te.M)
    assert abs(res1 - res2) <= 1e-12


def test_rayleigh_dirichlet_trial_is_upper_bound(disk_te):
    """The eroded Dirichlet mode extended by zero is an admissible trial pair
    (w = 0), for which the identity right-hand side reproduces its eigenvalue,
    an upper bound on the transmission eigenvalue."""
    mesh = disk_te.mesh
    sub, remap = core_submesh(mesh)
    K = assemble(sub, "stiffness")
    M = assemble(sub, "mass")
    lams, vecs = dirichlet_eigs(K, M, sub.outer, 1, stiffness_lu(K, sub.outer))
    v_ext = np.zeros(mesh.n_vertices)
    keep = remap >= 0
    v_ext[keep] = vecs[remap[keep], 0]
    Kf = assemble(mesh, "stiffness").tocsr()
    Mf = assemble(mesh, "mass").tocsr()
    u = -v_ext
    u /= math.sqrt(float(u @ (Mf @ u)))
    rhs = float(u @ (Kf @ u))  # w = 0 kills the coating term
    assert rhs >= disk_te.lam - 1e-9


def test_eigenfunction_error_rate():
    deltas, errors, fallbacks, slope = eigenfunction_error_rate(
        Circle(1.0), [0.04, 0.02, 0.01], 0.05, 0.48
    )
    assert slope >= 0.8
    assert np.all(np.diff(errors) < 0.0)
    assert fallbacks == [None, None, None]


def test_eigenfunction_error_rate_reports_fallbacks(monkeypatch):
    # a floor that clears nothing sends both Dirichlet solves of every cell
    # down the two-pair route
    monkeypatch.setattr(fem, "second_eigenvalue_floor", lambda vertices: 0.0)
    _, errors, fallbacks, _ = eigenfunction_error_rate(
        Circle(1.0), [0.04, 0.02, 0.01], 0.15, 0.48)
    assert len(errors) == 3
    assert fallbacks == ["ground two-pair, eroded two-pair"] * 3


def test_eigenfunction_error_rate_assembles_only_in_first_te(monkeypatch):
    calls = []

    def counting(home):
        original = home.assemble

        def wrapper(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)
        monkeypatch.setattr(home, "assemble", wrapper)

    counting(fem)
    counting(transmission)
    te = first_te(Circle(1.0), LayerConfig(0.04, 1.0, 0.48), 0.1)
    per_solve = len(calls)
    calls.clear()
    _, errors, _, _ = eigenfunction_error_rate(Circle(1.0), [0.04, 0.02, 0.01], 0.1, 0.48)
    assert len(calls) == 3 * per_solve
    # the matrices first_te carries are the ones a fresh assembly gives
    K, M = _full_km(te.mesh)
    assert errors[0] == h1_norm(K, M, te.v.values - te.v0.values)


def test_eigenfunction_error_rate_needs_three_thicknesses():
    with pytest.raises(InsufficientData):
        eigenfunction_error_rate(Circle(1.0), [0.04, 0.02], 0.1, 0.48)


def test_eigenfunction_error_mesh_stable():
    # at fixed thickness the H1 distance is dominated by the coating, not by
    # the mesh: refining the mesh moves it by well under its own size
    errs = []
    for h in (0.06, 0.04):
        te = first_te(Circle(1.0), LayerConfig(0.04, 1.0, 0.48), h)
        K = assemble(te.mesh, "stiffness")
        M = assemble(te.mesh, "mass")
        errs.append(h1_norm(K, M, te.v.values - te.v0.values))
    assert abs(errs[0] - errs[1]) <= 0.05 * errs[1]


def test_sign_alignment_guard(disk_te):
    K = assemble(disk_te.mesh, "stiffness")
    M = assemble(disk_te.mesh, "mass")
    aligned = h1_norm(K, M, disk_te.v.values - disk_te.v0.values)
    flipped = h1_norm(K, M, -disk_te.v.values - disk_te.v0.values)
    norm_v0 = h1_norm(K, M, disk_te.v0.values)
    assert aligned < flipped
    assert flipped >= 1.5 * norm_v0  # near 2*||v0|| for the wrong branch
