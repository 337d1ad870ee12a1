"""Thickness expansion of the first transmission eigenvalue on general
smooth domains.

The expansion lambda(delta) ~ lambda0 + delta*lambda1 + delta^2*lambda2 is
assembled from finite element building blocks: lambda0 and its eigenfunction
from `fem.ground_state`, lambda1 as the boundary quadrature of
g * (dv0/dnu)^2, the corrector field v1 from a constrained source solve whose
solvability condition is exactly the lambda1 quadrature, and lambda2 as

    lambda2 = oint ( kappa/2 * g^2 * dv0/dnu + g * dv1/dnu ) * dv0/dnu ds

under this package's convex-positive curvature convention.  Boundary traces
are carried as periodic arclength tables with linear interpolation; curve
quantities (kappa, g) are evaluated exactly at the quadrature points.

`compute_coefficients` runs the steps compute_lambda1, compute_v1 and
compute_lambda2 as functions of the values they need and builds one
complete `AsymptoticCoefficients` from what they return.
`evaluate_expansion` is the one place the truncated sum is formed.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .fem import (CG_RTOL, FemField, boundary_flux, boundary_mass_lu, ground_state,
                  solve_constrained_source)
from .mesh import generate_mesh

_GAUSS3_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GAUSS3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def geometry_hash(curve, layer=None, h=None):
    """Stable short hash of what expansion coefficients depend on: the
    curve, the thickness profile g of layer and the mesh size h.  g is keyed
    by the little-endian doubles of its `LayerConfig.g_samples`, so profiles
    hash alike exactly when their samples agree, callable or constant;
    delta0 and n, which no coefficient depends on, are left out."""
    payload = {"curve": curve.describe()}
    if layer is not None:
        samples = np.asarray(layer.g_samples(curve), dtype="<f8")
        payload["g"] = hashlib.sha256(samples.tobytes()).hexdigest()
    if h is not None:
        payload["h"] = h
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def periodic_interp(s_table, values, period):
    """Periodic linear interpolant of a boundary-vertex trace table."""
    s_ext = np.concatenate([s_table, [s_table[0] + period]])
    v_ext = np.concatenate([values, [values[0]]])

    def interp(s):
        return np.interp(np.asarray(s, dtype=float) % period, s_ext, v_ext)

    return interp


def _boundary_segments(mesh):
    s = np.asarray(mesh.outer_s, dtype=float)
    period = mesh.curve.s0
    s_next = np.concatenate([s[1:], [s[0] + period]])
    return s, s_next, period


def boundary_quadrature(mesh, integrand):
    """Integrate integrand(s) over the outer boundary with 3-point Gauss per
    vertex segment, in exact arclength."""
    s, s_next, _ = _boundary_segments(mesh)
    half = 0.5 * (s_next - s)
    mid = 0.5 * (s_next + s)
    pts = mid[:, None] + half[:, None] * _GAUSS3_NODES
    vals = integrand(pts)
    return float((half[:, None] * _GAUSS3_WEIGHTS * vals).sum())


@dataclass
class AsymptoticCoefficients:
    """Expansion coefficients of one mesh with the fields and traces that
    produced them, as `compute_coefficients` returns them.

    `lambdas` is the (lambda0, lambda1, lambda2) triple `evaluate_expansion`
    takes.  fallback is `fem.ground_state`'s: "two-pair" when the
    second-eigenvalue floor did not clear lambda0 and two pairs were solved,
    else None.
    """

    lambda0: float
    lambda1: float
    lambda2: float
    v0: FemField
    v1: FemField
    flux0: np.ndarray
    flux1: np.ndarray
    geometry_hash: str
    multiplier: float
    fallback: str
    mesh: object = field(repr=False)
    K: object = field(repr=False)
    M: object = field(repr=False)

    @property
    def lambdas(self):
        return (self.lambda0, self.lambda1, self.lambda2)


def compute_lambda1(mesh, flux0, layer):
    """First-order coefficient: boundary quadrature of g * flux0^2."""
    f0 = periodic_interp(mesh.outer_s, flux0, mesh.curve.s0)

    def integrand(s):
        return layer.g_at(s) * f0(s) ** 2

    return boundary_quadrature(mesh, integrand)


def compute_v1(mesh, K, M, factor, boundary_lu, lambda0, v0, flux0, lambda1, layer):
    """Corrector field of the expansion: (v1, flux1, multiplier).

    Solves (Laplacian + lambda0) v1 = -lambda1 v0 with essential data
    -g * dv0/dnu on the boundary, v1 orthogonal to v0.  lambda1 is the
    quadrature value: it is the solvability condition of this system, and
    the multiplier records the residual defect.  `factor` is the
    `fem.dirichlet_factor` of the eigensolve, `boundary_lu` the boundary
    mass factor of flux0.  A factor reduced by the mesh's mirrors solves
    for the mirror-even part of the load alone, so unless g's values at the
    outer vertices are mirror-equal to within fem.CG_RTOL max|g|, the CG's
    own tolerance, the solve takes the full factor
    (`fem.DirichletFactor.full`).  That costs no digit: flux0, which the
    load carries too, already differs between partner vertices by about
    2e-14 of max|flux0| (Circle(1) and Ellipse(1.3, 1) at h = 0.04).
    """
    g = np.asarray(layer.g_at(mesh.outer_s))
    on_vertices = np.zeros(mesh.n_vertices)
    on_vertices[mesh.outer] = g
    tol = CG_RTOL * float(np.max(np.abs(g), initial=0.0))
    if not all(np.max(np.abs(on_vertices[s] - on_vertices)) <= tol for s in mesh.mirrors):
        factor = factor.full(K, M)
    data = -g * flux0
    rhs = FemField(mesh, -lambda1 * v0.values)
    v1, mu = solve_constrained_source(K, M, lambda0, rhs, data, v0, mesh.outer, factor)
    flux1 = boundary_flux(mesh, v1, lambda0, K, M, boundary_lu, rhs=rhs)
    return v1, flux1, mu


def compute_lambda2(mesh, flux0, flux1, layer):
    """Second-order coefficient from the recovered traces and curvature."""
    curve = mesh.curve
    f0 = periodic_interp(mesh.outer_s, flux0, curve.s0)
    f1 = periodic_interp(mesh.outer_s, flux1, curve.s0)

    def integrand(s):
        g = layer.g_at(s)
        kap = curve.curvature(s)
        return (0.5 * kap * g**2 * f0(s) + g * f1(s)) * f0(s)

    return boundary_quadrature(mesh, integrand)


def compute_coefficients(curve, layer, h):
    """Full expansion pipeline for one (curve, layer, h) triple, on the
    uncoated mesh of the domain.

    Each step takes the values it needs and returns values; the record is
    built once, complete.  One shifted Dirichlet factor serves the
    eigensolve and the corrector solve, one boundary mass factor both
    fluxes; neither is kept on the record.
    """
    mesh = generate_mesh(curve, None, h)
    lam0, v0, K, M, factor, fallback = ground_state(mesh)
    boundary_lu = boundary_mass_lu(mesh)
    flux0 = boundary_flux(mesh, v0, lam0, K, M, boundary_lu)
    lam1 = compute_lambda1(mesh, flux0, layer)
    v1, flux1, mu = compute_v1(mesh, K, M, factor, boundary_lu, lam0, v0, flux0, lam1, layer)
    lam2 = compute_lambda2(mesh, flux0, flux1, layer)
    return AsymptoticCoefficients(
        lambda0=lam0, lambda1=lam1, lambda2=lam2, v0=v0, v1=v1, flux0=flux0, flux1=flux1,
        geometry_hash=geometry_hash(curve, layer, h), multiplier=mu,
        fallback=fallback, mesh=mesh, K=K, M=M)


def evaluate_expansion(lambdas, delta0, order=2):
    """Predicted eigenvalue lambda0 + delta0*lambda1 + ... up to delta0^order
    from the coefficients lambdas = (lambda0, lambda1, lambda2)."""
    if not 0 <= order < len(lambdas):
        raise DomainError(f"expansion order must be 0 to {len(lambdas) - 1}, got {order}")
    out, power = lambdas[0], 1.0
    for lam in lambdas[1:order + 1]:
        power = power * delta0
        out = out + power * lam
    return out


@dataclass
class LayerProfile:
    """Stretched-coordinate correction profiles across the coating.

    Defined on {(s, xi): 0 <= xi <= g(s)}; both profiles vanish identically
    on the inner edge xi = g(s), and the first one equals the corrector trace
    -g * dv0/dnu at xi = 0.

    Higher orders are not implemented, but the recursion that produces them
    is mechanical: each new profile solves a second-derivative-in-xi equation
    whose right side collects curvature-weighted derivatives of the earlier
    profiles, with zero value on the inner edge and its xi-slope at xi = 0
    matched to the normal trace of the previous interior corrector; each new
    interior corrector then solves the shifted Helmholtz problem driven by
    the accumulated coefficient-weighted correctors, takes its boundary value
    from the new profile at xi = 0, and is pinned orthogonal to the ground
    mode, which fixes the next expansion coefficient exactly as compute_v1 /
    compute_lambda2 do at this order.
    """

    curve: object
    layer: object
    flux0_of: object
    flux1_of: object

    def w1(self, s, xi):
        return self.flux0_of(s) * (np.asarray(xi, dtype=float) - self.layer.g_at(s))

    def w2(self, s, xi):
        xi = np.asarray(xi, dtype=float)
        g = self.layer.g_at(s)
        kap = self.curve.curvature(s)
        f0 = self.flux0_of(s)
        f1 = self.flux1_of(s)
        return 0.5 * kap * f0 * xi**2 + f1 * xi - 0.5 * kap * f0 * g**2 - f1 * g

    def w2_xi(self, s, xi):
        """Transverse derivative of the second profile."""
        return self.curve.curvature(s) * self.flux0_of(s) * np.asarray(xi, dtype=float) + self.flux1_of(s)


def layer_profiles(coeffs, layer):
    mesh = coeffs.mesh
    curve = mesh.curve
    f0 = periodic_interp(mesh.outer_s, coeffs.flux0, curve.s0)
    f1 = periodic_interp(mesh.outer_s, coeffs.flux1, curve.s0)
    return LayerProfile(curve, layer, f0, f1)


def format_coefficients(coeffs):
    """15-significant-digit text record keyed by the geometry hash; h is
    the longest edge of the coefficients' mesh."""
    lines = [
        f"geometry {coeffs.geometry_hash}",
        f"h {coeffs.mesh.h:.15g}",
        f"lambda0 {coeffs.lambda0:.15g}",
        f"lambda1 {coeffs.lambda1:.15g}",
        f"lambda2 {coeffs.lambda2:.15g}",
    ]
    return "\n".join(lines) + "\n"

