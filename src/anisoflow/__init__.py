"""Implicit time stepping and optimal control for anisotropic
Allen-Cahn-type gradient flows, with refinement studies that check the
scheme's stability, uniform-bound, and convergence behavior numerically.
"""

from .anisotropy import (AnisotropyConstants, IsotropicAnisotropy,
                         MatrixFamilyAnisotropy, estimate_constants)
from .control import (AdjointUnavailable, ControlProblem, DistributedTarget,
                      FinalTimeTarget, OptimizeOptions, OptimizeReport,
                      adjoint_solve, control_inner, control_norm, cost,
                      optimize, reduced_gradient, solve_state, write_history)
from .grid import (FieldNorms, Grid, assemble_flux_divergence, build_grid,
                   dual_norm, element_gradients, load_field, norms,
                   write_field)
from .potential import (DoubleWell, MoreauYosida, TruncatedPotential,
                        ZeroPotential)
from .stepper import (EnergyStabilityReport, NonConvergence, StepConfig,
                      StepDiagnostics, TimePartition, Trajectory,
                      UniquenessViolation, check_energy_stability, energy,
                      solve_trajectory, step, step_residual,
                      trajectory_bounds, write_diagnostics)
from .studies import (StudyReport, control_convergence_study, fit_rate,
                      inject_time, lipschitz_study, perturbation_ratio,
                      summary_text, tau_convergence_study, uniform_bound_study,
                      write_study_csv)

__version__ = "0.1.0"
