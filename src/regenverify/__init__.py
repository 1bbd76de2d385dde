"""Simulation and verification toolkit for regenerative processes whose
coordinates share dependent cycles, observed at diverging time schedules."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (ArithmeticCyclesWarning, BudgetExceededError,
                     ConfigurationError, HypothesisError)
from .randomness import (DependenceSpec, MarginalSpec, effective_cycle_mean,
                         sample_cycle_vector, sample_cycle_vectors, substream)
from .renewal import equilibrium_cdf, equilibrium_tail, mean_excess
from .engine import (CyclePath, Estimate, RegenModel, StateFunction, constant,
                     cycle_functionals, default_burn_in, exp_neg, identity,
                     indicator_gt, indicator_le, linear_path, path_integral,
                     ratio_estimate, renewal_reward_estimate, run_chunked,
                     sample_states, thread_count, time_average_estimate,
                     updated_indicator)
from .models import (AgeResidualSpec, ClearingCoordinate, ClearingSpec,
                     JacksonSpec, LevyQueueCoordinate, LevyQueueSpec,
                     StatusSource, StatusSpec, build_age_residual,
                     build_clearing, build_jackson, build_levy_queue,
                     build_model, build_status, jackson_cycle_mean,
                     jackson_utilizations, pi_closed_form, traffic_solve)
from .asymptotics import (GapEstimate, HypothesisVerdict, ScheduleCoordinate,
                          ScheduleSpec, SweepResult, check_hypotheses,
                          convergence_sweep, final_gap_verdict,
                          product_form_gap, quantile_indicator_tuples)
from .config import (ScenarioConfig, load_scenario, loads_scenario,
                     parse_scenario, scenario_to_json)

__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
