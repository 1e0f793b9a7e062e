"""opradius: numerical radii, rho-radii, and distance to the unitary group
for dense complex matrices, with machine-checked certificates for an extremal
matrix family."""

from .bounds import (BoundCurve, BoundRow, MidpointReport, bound_curve,
                     crossover_radius, lower_witness, midpoint_certificate,
                     psi_rho_upper, psi_upper, x_of_r, x_rho)
from .extremal import (CertificateCheck, CertificateReport, ExtremalFamily,
                       ScalingRow, ScalingTable, build, certificate_31,
                       certificate_32, check_norm, check_real_parts,
                       check_symmetry, family_radii, scaling_experiment)
from .linalg import (as_matrix, inverse, load_matrix, matrix_from_payload,
                     matrix_to_payload, save_matrix, singular_values)
from .radii import (DEFAULT_SEED, RadiusEstimate, SupportPoint,
                    numerical_radius, range_boundary, rho_radii, rho_radius,
                    sphere_maximize, support_points)
from .unitary import UnitaryGap, distance_to_unitaries, stampfli_gap_bound

__version__ = "0.1.0"

__all__ = [
    "BoundCurve", "BoundRow", "MidpointReport", "bound_curve",
    "crossover_radius", "lower_witness", "midpoint_certificate",
    "psi_rho_upper", "psi_upper", "x_of_r", "x_rho",
    "CertificateCheck", "CertificateReport", "ExtremalFamily", "ScalingRow",
    "ScalingTable", "build", "certificate_31", "certificate_32",
    "check_norm", "check_real_parts", "check_symmetry", "family_radii",
    "scaling_experiment",
    "as_matrix", "inverse", "load_matrix", "matrix_from_payload",
    "matrix_to_payload", "save_matrix", "singular_values",
    "DEFAULT_SEED", "RadiusEstimate", "SupportPoint", "numerical_radius",
    "range_boundary", "rho_radii", "rho_radius", "sphere_maximize",
    "support_points",
    "UnitaryGap", "distance_to_unitaries", "stampfli_gap_bound",
    "__version__",
]
