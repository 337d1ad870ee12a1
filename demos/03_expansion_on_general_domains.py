"""Expansion coefficients on a general smooth domain.

On domains without separable structure the pipeline is: leading Dirichlet
eigenpair, boundary-flux recovery, first-order coefficient by boundary
quadrature, corrector solve constrained orthogonal to the ground mode, and
the curvature-weighted second-order coefficient.  The multiplier reported by
the constrained solve measures the solvability defect and should sit at
solver precision.
"""

from thinspec.asymptotics import compute_coefficients, evaluate_expansion, layer_profiles
from thinspec.geometry import Ellipse, LayerConfig

ell = Ellipse(1.3, 1.0)
layer = LayerConfig(0.02, 1.0, 0.48)

print("== coefficients on the 1.3 : 1 ellipse ==")
for h in (0.08, 0.04):
    co = compute_coefficients(ell, layer, h)
    print(f"h = {h}: lambda0 = {co.lambda0:.8f}, lambda1 = {co.lambda1:.8f}, "
          f"lambda2 = {co.lambda2:.8f}, solvability defect {co.multiplier:.1e}")

print("\n== predictions ==")
for delta in (0.04, 0.02, 0.01):
    p1 = evaluate_expansion(co.lambdas, delta, order=1)
    p2 = evaluate_expansion(co.lambdas, delta, order=2)
    print(f"delta = {delta}: order-1 {p1:.8f}, order-2 {p2:.8f}")

print("\n== coating correction profiles ==")
prof = layer_profiles(co, layer)
s = 1.0
for xi in (0.0, 0.5, 1.0):
    print(f"xi = {xi}: w1 = {float(prof.w1(s, xi)):+.6f}, w2 = {float(prof.w2(s, xi)):+.6f}")
print("both profiles vanish at xi = g(s) = 1 by construction;")
print(f"w1 at xi=0 equals the corrector boundary value {-float(prof.flux0_of(s)):.6f}")
