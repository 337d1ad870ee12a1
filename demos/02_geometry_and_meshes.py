"""Curves, coatings, and conforming meshes.

Boundary curves are arclength-parameterized and normalized so convex domains
have positive curvature; coatings are described by a base thickness and a
profile g(s) and must stay inside the curvature reach.  Meshes resolve the
coating with structured element rows that share the interface ring with the
core triangulation.
"""

import numpy as np

from thinspec.geometry import Circle, Ellipse, FourierCurve, LayerConfig
from thinspec.mesh import generate_mesh

print("== curvature along an ellipse ==")
ell = Ellipse(1.3, 1.0)
for s in np.linspace(0.0, ell.s0, 5, endpoint=False):
    x, y = ell.position(s)
    print(f"s = {s:6.3f}: point ({x:+.3f}, {y:+.3f}), curvature {float(ell.curvature(s)):.4f}")
print(f"perimeter {ell.s0:.6f}, curvature reach eta0 = {ell.reach():.6f}")

wavy = FourierCurve([0.08, 0.0, 0.03])
print(f"perturbed circle perimeter {wavy.s0:.6f}, reach {wavy.reach():.4f}")

print("\n== meshing a coated disk ==")
mesh = generate_mesh(Circle(1.0), LayerConfig(0.05, 1.0, 0.48), 0.1)
print(f"{mesh.n_vertices} vertices, {len(mesh.triangles)} triangles, h = {mesh.h:.4f}")
print(f"core triangles: {int((mesh.region == 0).sum())}, coating: {int((mesh.region == 1).sum())}")
radii = np.linalg.norm(mesh.vertices[mesh.inner], axis=1)
print(f"interface ring radius: {radii.min():.12f} .. {radii.max():.12f}")
