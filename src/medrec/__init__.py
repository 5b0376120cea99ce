"""Two-stage coefficient reconstruction for diffuse optical tomography.

A direct sampling pass locates inclusions from boundary Cauchy data; an
alternating total least-squares solver with mixed L1-H1-box
regularization then recovers the diffusion and absorption fields on a
staggered grid over the unit square.
"""

from .grid import (BoundaryData, FluxField, GridError, GridMismatchError,
                   ScalarField, StaggeredGrid, average_to_faces,
                   average_to_faces_adjoint, boundary_inner, boundary_norm,
                   boundary_trace, cell_inner, cell_norm, divergence_to_cells,
                   face_inner, face_norm, gradient_to_faces, neumann_to_source,
                   prolong_cells, restrict_cells)
from .forward import (ForwardProblem, ForwardSolverError, MeasurementSet,
                      check_measurements, default_excitations,
                      generate_measurements, solve_forward)
from .regularization import (RegConfig, bregman_distance, eval_phi,
                             prox_l1_box, smooth_grad_phi)
from .model import (CoefficientPair, Residuals, StatePair, apply_L,
                    coefficient_misfit_gradients, eval_J, full_residuals,
                    state_normal_apply, state_normal_residual,
                    state_normal_rhs, sources_from_measurements)
from .dsm import (IndexResult, SubdomainMask, build_initial_guess,
                  compute_index, homogeneous_reference, scattered_data,
                  threshold_subdomain)
from .optimizer import (AdiConfig, BregmanDiagnostics, ReconstructionReport,
                        SubproblemFailure, adi_reconstruct,
                        bregman_diagnostics, solve_coefficient_subproblem,
                        solve_state_subproblem)
from .experiments import (ExampleSpec, Metrics, RingInclusion, SquareInclusion,
                          add_noise, background_deviation, compute_metrics,
                          deserialize_field, make_example, render_pgm,
                          serialize_field)
from .estimators import (DirectSamplingLocator, TotalLeastSquaresReconstructor,
                         TwoStageReconstructor)

__version__ = "0.1.0"
