"""Scheduling analysis for a single server whose service probability
depends on an activity state driven by its own work/rest history.

The package computes stationary rates of the reduced server-only
chain, the infimum-utilization frontier and its LP counterpart,
synthesizes near-optimal stabilizing policies for the full
server-plus-queue chain, certifies them by an exact matrix-geometric
analysis of the uncapped queue, and checks that analysis against an
exact solve on a truncated queue and against seeded simulation.

The names below are the documented API (README.md, Library tour);
every other public name is imported from its module.
"""

from types import ModuleType as _ModuleType

from .chain import (
    decompose_dagger_policy,
    max_service_rate,
    mixing_constants,
    potential_function,
    threshold_rates,
)
from .frontier import NotStabilizableError, frontier, occupation_from_policy, policy_from_occupation, solve_lp
from .model import NumericalFailure, PolicyX, PolicyY, ServerSpec, load_spec, x_transition, ybar_kernel, ybar_matrix
from .sim import SimConfig, hitting_time_stats, qbd_stationary, simulate, truncated_stationary, truncated_stationary_auto
from .synthesis import GapUnachievableError, classify_stability, lift_policy, project_policy, synthesize
from .verify import CheckResult

__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
