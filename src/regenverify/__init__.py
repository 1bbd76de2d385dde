"""Simulation and verification toolkit for regenerative processes whose
coordinates share dependent cycles, observed at diverging time schedules.
The package exports what the README's library example uses and the errors
it raises; everything else is importable from its module."""

__version__ = "0.1.0"

from .errors import (ArithmeticCyclesWarning, BudgetExceededError,
                     ConfigurationError, HypothesisError)
from .randomness import DependenceSpec, MarginalSpec
from .models import ClearingCoordinate, ClearingSpec, build_clearing
from .asymptotics import (ScheduleSpec, check_hypotheses, convergence_sweep,
                          final_gap_verdict, quantile_indicator_tuples)

__all__ = [
    "ArithmeticCyclesWarning", "BudgetExceededError", "ClearingCoordinate",
    "ClearingSpec", "ConfigurationError", "DependenceSpec", "HypothesisError",
    "MarginalSpec", "ScheduleSpec", "build_clearing", "check_hypotheses",
    "convergence_sweep", "final_gap_verdict", "quantile_indicator_tuples",
]
