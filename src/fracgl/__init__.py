"""fracgl: boundary-driven long-range Ginzburg-Landau lattice dynamics.

Exact non-equilibrium steady states, stochastic simulation with Girsanov
tilting, fractional-Laplacian operator calculus with Dirichlet boundary,
hydrodynamic (fractional heat) evolution, and the large-deviations layer:
dynamical rate functional, static rate, and quasi-potential.
"""

from .params import ModelParams, as_grid_function
from .kernel import (kernel_constant, kernel_row, DriftSystem, build_drift_system,
                     discrete_fractional_laplacian, discrete_inner_seminorm,
                     dirichlet_energy)
from .operators import (TestFunction, SmoothBump, regional_laplacian_pointwise,
                        continuum_seminorm, dirichlet_spectrum)
from .ness import (StationaryProfile, reservoir_drift, solve_stationary_profile,
                   sample_ness, static_cumulant)
from .simulate import (ExternalField, euler_stability_limit, euler_ensemble,
                       euler_chain_law, propagate_exact, girsanov_log_weight_variance,
                       empirical_pairing, boundary_block_average,
                       martingale_qv_rate)
from .hydro import (DeterministicTrajectory, solve_hydrodynamic,
                    weak_residual, relaxation_rate, l2_distance)
from .ldp import (RateReport, rate_from_field, j_functional, static_rate_w,
                  gamma_identity_defect, clever_path, quasipotential)
from .diagnostics import (PolyObservableBasis, generator_matrix_poly2,
                          adjoint_matrix_poly2, adjoint_defect)

__version__ = "0.1.0"
