"""Simulation and statistical verification of multiplicative stochastic
processes on concrete Banach-Lie groups.

The library builds group-valued independent-increment paths from algebra
drivers (drift + Brownian + compound Poisson) on a truncated Heisenberg
group or small unipotent matrix groups, and verifies their regularity
machinery by Monte Carlo: oscillation bounds, cadlag right-limit behavior,
Poisson jump statistics, and exponential moment bounds for invariant
distances.
"""

__version__ = "0.1.0"

from .additive import (AdditivePath, DiscreteJumps, LevyModel, PiecewiseConstantRate,
                       TimeGrid, UniformBallJumps, driver_paths, sample_additive)
from .errors import (ConfigError, GridMismatchError, HypothesisError,
                     InvalidInputError, ParameterError)
from .geometry import (StepCountResult, bounded_jumps_check, exp_moment_estimate,
                       gauge_distance, gauge_norm, metric_modulus_curve, minimal_jump_power,
                       step_count_upper, step_counts_batch, step_triangle_test,
                       tail_decay_fit)
from .groups import ChartSpec, HeisenbergGroup, LpSpace, UnipotentGroup, sample_norm_ball
from .jumps import JumpSetSpec, detector_fidelity, poisson_battery, restart_probe
from .multiplicative import (MultiplicativePath, batch_prefixes, convergence_study,
                             heisenberg_exact, product_exponential, right_limit_defects,
                             verify_multiplicative)
from .regularity import (exhaustive_count_reference, mc_expectation_bound, mc_largest_step,
                         mc_maximum_oscillation, oscillation_axioms_test,
                         oscillation_counts_from_outside, uniform_continuity_probe)
from .rng import substream
