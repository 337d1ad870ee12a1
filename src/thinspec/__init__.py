"""Thin-coating expansion and direct computation of the first interior
transmission eigenvalue of a Dirichlet obstacle in 2D.

The package has three legs: a semi-analytic coated-disk solver built on
self-contained cylinder functions (`bessel`), a piecewise-linear finite
element leg for general smooth domains (`mesh`, `fem`, `asymptotics`,
`transmission`), and a batch front end that sweeps coating thicknesses and
fits convergence orders (`report`, `cli`).
"""

from .bessel import (
    DiskCoefficients,
    DiskProblem,
    bessel_j,
    bessel_j_zero,
    bessel_y,
    disk_asymptotic_coeffs,
    disk_dirichlet_eigen,
    disk_first_te,
    disk_first_tes,
    transmission_determinant,
)
from .errors import ThinspecError
from .geometry import (
    BoundaryCurve,
    Circle,
    Ellipse,
    FourierCurve,
    LayerConfig,
    curve_from_config,
)
from .mesh import TriMesh, generate_mesh
from .fem import (
    FemField,
    assemble,
    boundary_flux,
    dirichlet_eigs,
    ground_state,
    solve_constrained_source,
)
from .asymptotics import (
    AsymptoticCoefficients,
    LayerProfile,
    compute_coefficients,
    evaluate_expansion,
    layer_profiles,
)
from .transmission import (
    CoupledPencil,
    assemble_pencil,
    eroded_dirichlet,
    first_te,
    rayleigh_identity_residual,
)
from .report import estimate_thickness, fit_order, run_sweep

__version__ = "0.1.0"
