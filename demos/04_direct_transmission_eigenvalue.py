"""Direct eigenvalue of the coupled two-field problem.

The interior field and the coating field are discretized together, with
shared trace unknowns on the outer boundary and the coating field eliminated
on the interface.  The pencil A - lambda*B turns singular exactly at discrete
transmission eigenvalues.  The solver factors A - sigma*B once at the middle
of the computable corridor between the leading Dirichlet eigenvalue and the
eroded-domain Dirichlet eigenvalue, and shift-invert Arnoldi returns the
eigenvalue nearest that point with its eigenvector.
"""

from thinspec import bessel
from thinspec.geometry import Circle, LayerConfig
from thinspec.transmission import first_te, rayleigh_identity_residual

delta, n, h = 0.01, 0.48, 0.05

print("== coated unit disk ==")
te = first_te(Circle(1.0), LayerConfig(delta, 1.0, n), h)
print(f"lambda0 (mesh)        = {te.lambda0:.8f}")
print(f"lambda_eroded (mesh)  = {te.lambda_eroded:.8f}")
print(f"first TE (pencil)     = {te.lam:.8f}")
print(f"pencil backward error = {te.residual:.2e}   fallback: {te.fallback}")
oracle = bessel.disk_first_te(bessel.DiskProblem(1.0, delta, n))
print(f"first TE (oracle)     = {oracle:.8f}   relative gap {abs(te.lam-oracle)/oracle:.2e}")
print(f"corridor holds: {te.lambda0 <= te.lam <= te.lambda_eroded}")

print("\n== energy identity ==")
res = rayleigh_identity_residual(te.lam, te.v, te.w, n, te.mesh, te.K, te.M)
print(f"relative defect of the eigenpair identity: {res:.2e}")
print("(discrete eigenpairs satisfy it to solver accuracy)")
