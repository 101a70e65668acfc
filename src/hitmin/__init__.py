"""Shortcut-edge selection for closing the random-walk gap between two groups.

Given a connected graph whose nodes split into a red and a blue group, the
package selects up to k new red-blue edges to shrink either the mean or
the maximum expected hitting time from red nodes to the blue group.  It
provides exact absorbing-chain solvers, a sampled estimator with proved
error knobs, greedy and center-based optimizers, brute-force oracles,
synthetic instance generators, property checks, and a benchmark CLI.
"""

__version__ = "0.1.0"

from .errors import (CapacityExceeded, DisconnectedGraph, GenerationFailed,
                     HitminError, InstanceTooLarge, InvalidBipartition,
                     InvalidParameter, MalformedInput, SolverFailure)
from .graph import (AugmentedView, BipartiteInstance, ShortcutSet,
                    augmented_view, candidate_endpoints, load_instance,
                    shortcut_counts)
from .exact import HittingProfile, evaluate, hitting_to_blue, hitting_to_target
from .estimator import (Estimate, EstimatorConfig, empirical_hitting,
                        estimate_mean_hitting, expected_bounded_steps,
                        sample_count, spectral_radius, truncation_length)
from .optimize import (GreedyTrace, TraceEntry, brute_force_opt, greedy_exact,
                       greedy_plus, iteration_budget, pure_random,
                       top_hitting_baseline)
from .kcenter import (CenterSolution, QuasiMetric, asym_k_center_fixed,
                      build_quasi_metric, kcenter_shortcuts,
                      lower_bound_check, minmax_via_mean)
from .generators import (gen_lollipop, gen_path, gen_planted_two_community,
                         gen_star_path_clique)
from .verify import CheckResult, has_failure, run_checks, summarize

__all__ = [
    "__version__",
    "HitminError", "MalformedInput", "DisconnectedGraph", "InvalidBipartition",
    "CapacityExceeded", "InvalidParameter", "SolverFailure", "InstanceTooLarge",
    "GenerationFailed",
    "BipartiteInstance", "ShortcutSet", "AugmentedView", "augmented_view",
    "candidate_endpoints", "load_instance", "shortcut_counts",
    "HittingProfile", "evaluate", "hitting_to_blue", "hitting_to_target",
    "Estimate", "EstimatorConfig", "empirical_hitting",
    "estimate_mean_hitting", "expected_bounded_steps", "sample_count",
    "spectral_radius", "truncation_length",
    "GreedyTrace", "TraceEntry", "brute_force_opt", "greedy_exact",
    "greedy_plus", "iteration_budget", "pure_random", "top_hitting_baseline",
    "QuasiMetric", "CenterSolution", "build_quasi_metric",
    "asym_k_center_fixed", "kcenter_shortcuts", "minmax_via_mean",
    "lower_bound_check",
    "gen_path", "gen_star_path_clique", "gen_lollipop",
    "gen_planted_two_community",
    "CheckResult", "run_checks", "summarize", "has_failure",
]
