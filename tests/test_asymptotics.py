import dataclasses
import math

import numpy as np
import pytest

from thinspec.asymptotics import (
    compute_coefficients,
    compute_lambda1,
    compute_lambda2,
    evaluate_expansion,
    format_coefficients,
    geometry_hash,
    layer_profiles,
)
from thinspec import fem
from thinspec.errors import DomainError, NearDegenerate
from thinspec.fem import ground_state, mass_norm
from thinspec.geometry import Circle, Ellipse, LayerConfig
from thinspec.mesh import TriMesh, generate_mesh

from _meshes import square_mesh

LAM0 = 5.783185962946785


def test_lambda0_disk(disk_coeffs_h02):
    coeffs, _ = disk_coeffs_h02
    assert abs(coeffs.lambda0 - LAM0) / LAM0 <= 0.005


def test_lambda0_square():
    lam0 = ground_state(square_mesh(50))[0]
    exact = 2.0 * math.pi**2
    assert abs(lam0 - exact) / exact <= 0.005


def test_lambda0_scaling():
    mesh = generate_mesh(Circle(1.0), None, 0.06)
    small = ground_state(mesh)[0]
    scaled = TriMesh(
        vertices=2.0 * mesh.vertices,
        triangles=mesh.triangles.copy(),
        region=mesh.region.copy(),
        outer=mesh.outer.copy(),
        inner=mesh.inner.copy(),
        outer_s=None,
        curve=None,
    )
    big = ground_state(scaled)[0]
    assert abs(big - small / 4.0) / small <= 1e-6


def test_lambda0_degenerate_guard(monkeypatch, disk_coeffs_h02):
    coeffs, _ = disk_coeffs_h02
    monkeypatch.setattr(fem, "_GAP", 10.0)
    with pytest.raises(NearDegenerate):
        ground_state(coeffs.mesh)


def test_coefficients_record_the_two_pair_route(monkeypatch):
    layer = LayerConfig(0.01, 1.0, 0.48)
    plain = compute_coefficients(Circle(1.0), layer, 0.1)
    monkeypatch.setattr(fem, "second_eigenvalue_floor", lambda vertices: 0.0)
    fallen = compute_coefficients(Circle(1.0), layer, 0.1)
    assert (plain.fallback, fallen.fallback) == (None, "two-pair")
    assert abs(fallen.lambda0 - plain.lambda0) <= 1e-14 * plain.lambda0


def test_coefficients_record_is_complete(monkeypatch):
    # every field is a computed value; fallback is None only on the route
    # that did not fall back, as in FirstTE
    layer = LayerConfig(0.01, 1.0, 0.48)
    plain = compute_coefficients(Circle(1.0), layer, 0.1)
    monkeypatch.setattr(fem, "second_eigenvalue_floor", lambda vertices: 0.0)
    fallen = compute_coefficients(Circle(1.0), layer, 0.1)
    for record, unset in ((plain, ["fallback"]), (fallen, [])):
        assert [f.name for f in dataclasses.fields(record)
                if getattr(record, f.name) is None] == unset


def test_normalization_and_orthogonality(disk_coeffs_h02):
    coeffs, _ = disk_coeffs_h02
    assert abs(mass_norm(coeffs.M, coeffs.v0.values) - 1.0) <= 1e-8
    inner = float(coeffs.v0.values @ (coeffs.M.tocsr() @ coeffs.v1.values))
    assert abs(inner) <= 1e-8


def test_lambda1_disk(disk_coeffs_h02):
    coeffs, _ = disk_coeffs_h02
    assert abs(coeffs.lambda1 - 2.0 * LAM0) / (2.0 * LAM0) <= 0.01


def test_lambda1_degenerate_profile(disk_coeffs_h02):
    coeffs, _ = disk_coeffs_h02
    assert compute_lambda1(coeffs.mesh, coeffs.flux0, LayerConfig(0.01, 0.0, 0.48)) == 0.0


def test_lambda1_linearity_in_profile(disk_coeffs_h02):
    coeffs, _ = disk_coeffs_h02
    base = compute_lambda1(coeffs.mesh, coeffs.flux0, LayerConfig(0.01, 1.0, 0.48))
    tripled = compute_lambda1(coeffs.mesh, coeffs.flux0, LayerConfig(0.01, 3.0, 0.48))
    assert abs(tripled - 3.0 * base) <= 1e-12 * abs(tripled)


def test_lambda1_nonnegative_for_nonnegative_profile(disk_coeffs_h02):
    coeffs, _ = disk_coeffs_h02
    wavy = LayerConfig(0.01, lambda s: 1.0 + np.cos(3.0 * s), 0.48)  # touches 0
    assert compute_lambda1(coeffs.mesh, coeffs.flux0, wavy) >= 0.0


def test_lambda1_sign_flip_invariance(disk_coeffs_h02):
    coeffs, layer = disk_coeffs_h02
    lam1 = compute_lambda1(coeffs.mesh, -coeffs.flux0, layer)
    assert abs(lam1 - coeffs.lambda1) <= 1e-12 * coeffs.lambda1


def test_v1_matches_radial_oracle(disk_coeffs_h02, disk_oracle):
    coeffs, _ = disk_coeffs_h02
    radii = np.linalg.norm(coeffs.mesh.vertices, axis=1)
    exact = disk_oracle.v1(radii)
    err = np.max(np.abs(coeffs.v1.values - exact)) / np.max(np.abs(exact))
    assert err <= 0.02


def test_v1_trace_is_exact(disk_coeffs_h02):
    coeffs, layer = disk_coeffs_h02
    g_b = layer.g_at(coeffs.mesh.outer_s)
    assert np.array_equal(coeffs.v1.values[coeffs.mesh.outer], -g_b * coeffs.flux0)


def test_fredholm_multiplier(disk_coeffs_h02):
    coeffs, _ = disk_coeffs_h02
    assert abs(coeffs.multiplier) <= 1e-6 * coeffs.lambda1


def test_lambda2_disk(disk_coeffs_h02, goldens):
    coeffs, _ = disk_coeffs_h02
    assert abs(coeffs.lambda2 - goldens["lambda2"]) / goldens["lambda2"] <= 0.02


def test_lambda2_degenerate_profile(disk_coeffs_h02):
    coeffs, _ = disk_coeffs_h02
    zero_layer = LayerConfig(0.01, 0.0, 0.48)
    assert compute_lambda2(coeffs.mesh, coeffs.flux0, coeffs.flux1, zero_layer) == 0.0


def test_profiles_boundary_conditions(disk_coeffs_h02):
    coeffs, layer = disk_coeffs_h02
    prof = layer_profiles(coeffs, layer)
    s = np.linspace(0.0, coeffs.mesh.curve.s0, 37)
    g = layer.g_at(s)
    # both profiles vanish on the inner edge
    assert np.max(np.abs(prof.w1(s, g))) == 0.0
    assert np.max(np.abs(prof.w2(s, g))) <= 1e-14
    # the first profile continues the corrector trace on the outer edge
    assert np.max(np.abs(prof.w1(s, 0.0) + g * prof.flux0_of(s))) <= 1e-12
    # transverse slope of the second profile equals the corrector flux
    assert np.max(np.abs(prof.w2_xi(s, 0.0) - prof.flux1_of(s))) == 0.0


def test_evaluate_expansion(disk_oracle):
    lambdas = (disk_oracle.lambda0, disk_oracle.lambda1, disk_oracle.lambda2)
    assert evaluate_expansion(lambdas, 0.0, 2) == disk_oracle.lambda0
    # the disk has lambda1 = 2*lambda0 in closed form
    pred = evaluate_expansion(lambdas, 0.01, 1)
    assert abs(pred - disk_oracle.lambda0 * 1.02) <= 1e-12 * pred
    gap = evaluate_expansion(lambdas, 0.03, 2) - evaluate_expansion(lambdas, 0.03, 1)
    assert abs(gap - 0.03**2 * disk_oracle.lambda2) <= 1e-14 * disk_oracle.lambda0
    with pytest.raises(DomainError):
        evaluate_expansion(lambdas, 0.01, 3)


def test_mesh_convergence_of_coefficients():
    layer = LayerConfig(0.01, 1.0, 0.48)
    values = {0: [], 1: [], 2: []}
    for h in (0.08, 0.04, 0.02):
        co = compute_coefficients(Circle(1.0), layer, h)
        values[0].append(co.lambda0)
        values[1].append(co.lambda1)
        values[2].append(co.lambda2)
    for order in (0, 1, 2):
        v = values[order]
        rate = math.log(abs((v[0] - v[1]) / (v[1] - v[2])), 2.0)
        assert rate >= 1.5


def test_order3_remainder_bounded(disk_oracle, disk_sweep_report):
    for row in disk_sweep_report.rows:
        ratio = row.err2 / row.delta**3
        assert ratio <= 15.0


def test_coefficients_text_record(disk_coeffs_h02):
    coeffs, _ = disk_coeffs_h02
    text = format_coefficients(coeffs)
    back = dict(map(str.split, text.splitlines()))
    assert back["geometry"] == coeffs.geometry_hash
    assert float(back["lambda0"]) == pytest.approx(coeffs.lambda0, rel=1e-14)
    assert float(back["lambda2"]) == pytest.approx(coeffs.lambda2, rel=1e-14)


def test_geometry_hash_keys_a_callable_profile_by_its_values():
    curve = Circle(1.0)
    one, two = (geometry_hash(curve, LayerConfig(0.01, g, 0.48), 0.1)
                for g in (lambda s: 1.0, lambda s: 2.0))
    assert one != two
    # the constant profile of the same values keys alike
    assert one == geometry_hash(curve, LayerConfig(0.01, 1.0, 0.48), 0.1)
    assert one != geometry_hash(curve, LayerConfig(0.01, 1.0, 0.48), 0.05)


def test_geometry_hash_leaves_out_what_coefficients_do_not_read():
    """delta0 and n do not enter the coefficients, so records that differ
    only in them are the same record under the same name."""
    thin, thick = LayerConfig(0.01, 1.0, 0.5), LayerConfig(0.02, 1.0, 0.48)
    assert geometry_hash(Circle(1.0), thin, 0.1) == geometry_hash(Circle(1.0), thick, 0.1)
    assert format_coefficients(compute_coefficients(Circle(1.0), thin, 0.1)) == \
        format_coefficients(compute_coefficients(Circle(1.0), thick, 0.1))


def test_ellipse_pipeline_runs():
    layer = LayerConfig(0.02, 1.0, 0.48)
    co = compute_coefficients(Ellipse(1.3, 1.0), layer, 0.06)
    assert co.lambda1 > 0.0
    assert co.lambda2 > 0.0
    assert abs(co.multiplier) <= 1e-6 * co.lambda1


def test_one_stiffness_factor_per_pipeline(monkeypatch):
    """The eigensolve and the corrector solve share one factor of the free
    stiffness block (no other factor is that large), and the returned record
    keeps no factor alive."""
    import gc
    import weakref

    import thinspec.fem as fem

    class Factor:  # weak-referenceable stand-in for SuperLU
        def __init__(self, lu):
            self.shape, self.solve = lu.shape, lu.solve

    shapes, refs = [], []
    real_splu = fem.splu

    def counting_splu(a, **kwargs):
        factor = Factor(real_splu(a, **kwargs))
        shapes.append(a.shape)
        refs.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(fem, "splu", counting_splu)
    mesh = generate_mesh(Circle(1.0), None, 0.1)
    n_free = mesh.n_vertices - len(mesh.outer)
    coeffs = compute_coefficients(Circle(1.0), LayerConfig(0.01, 1.0, 0.48), 0.1)
    gc.collect()
    assert [s for s in shapes if s[0] >= n_free] == [(n_free, n_free)]
    assert coeffs.v1 is not None and all(ref() is None for ref in refs)


def test_one_boundary_mass_factor_per_pipeline(monkeypatch):
    """flux0 and flux1 share one factor of the boundary mass matrix."""
    import thinspec.fem as fem

    shapes = []
    real_splu = fem.splu

    def recording_splu(a, **kwargs):
        shapes.append(a.shape)
        return real_splu(a, **kwargs)

    monkeypatch.setattr(fem, "splu", recording_splu)
    mesh = generate_mesh(Circle(1.0), None, 0.1)
    nb = len(mesh.outer)
    coeffs = compute_coefficients(Circle(1.0), LayerConfig(0.01, 1.0, 0.48), 0.1)
    assert coeffs.flux1 is not None
    assert shapes.count((nb, nb)) == 1
