"""Translation-map auto-Backlund transforms for the reduced
Gross-Pitaevskii amplitude equation."""

from .calculus import SmoothMap, compose, derivative, fd_weights, schwarzian
from .functional import Mobius, PolyG, ShiftMap, conjugate_f, solve_f
from .ode import (DenseSolution, SecondOrderODE, SolutionGrid, ToleranceSpec,
                  integrate, integrate_span, residual, residual_max, sample)
from .backlund import FixedPointResult, is_fixed_point, orbit, transform
from .gp import (ClosedFormSolution, GPParams, closed_form_residual, gp_rhs,
                 linear_coefficient, linear_coefficient_check, phase)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "SmoothMap", "compose", "derivative", "fd_weights", "schwarzian",
    "Mobius", "PolyG", "ShiftMap", "conjugate_f", "solve_f",
    "DenseSolution", "SecondOrderODE", "SolutionGrid", "ToleranceSpec",
    "integrate", "integrate_span", "residual", "residual_max", "sample",
    "FixedPointResult", "is_fixed_point", "orbit", "transform",
    "ClosedFormSolution", "GPParams", "closed_form_residual", "gp_rhs",
    "linear_coefficient", "linear_coefficient_check", "phase",
    "errors",
]
