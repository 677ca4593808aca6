"""Semi-explicit symplectic integrators for nonseparable stochastic
Hamiltonian systems, with a multi-symplectic stochastic Schrodinger lattice
scheme, baseline integrators, benchmark models, and convergence harnesses."""

from .core import (HamiltonianModel, LinearInvariant, PhaseState, QuadraticInvariant,
                   build_noise_grid, eval_linear, eval_quadratic, verify_gradients)
from .splitflow import (CompositionRecipe, FlowId, flow_f1, flow_f2, flow_f3, lie_recipe,
                        strang_recipe, symplectic_residual_phase)
from .project import (NoConvergence, ProjectionConfig, ProjectionReport,
                      Trajectory, lift, project_map, projection_step, restrict,
                      simulate)
from .baseline import midpoint_step, symplectic_euler_step
from .modelzoo import EXAMPLES, ExampleSpec, get_example
from .harness import (SCHEMES, ConvergenceSpec, OrderReport, fit_slope, make_stepper,
                      ms_error, track)
from . import nls

__version__ = "0.1.0"

__all__ = [
    "HamiltonianModel", "LinearInvariant", "PhaseState", "QuadraticInvariant",
    "build_noise_grid", "eval_linear", "eval_quadratic", "verify_gradients",
    "CompositionRecipe", "FlowId", "flow_f1", "flow_f2", "flow_f3",
    "lie_recipe", "strang_recipe", "symplectic_residual_phase",
    "NoConvergence", "ProjectionConfig", "ProjectionReport", "Trajectory",
    "lift", "project_map", "projection_step", "restrict", "simulate",
    "midpoint_step", "symplectic_euler_step",
    "EXAMPLES", "ExampleSpec", "get_example",
    "SCHEMES", "ConvergenceSpec", "OrderReport", "fit_slope", "make_stepper",
    "ms_error", "track",
    "nls",
]
