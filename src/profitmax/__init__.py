"""Profit-driven seed selection for viral marketing on directed graphs.

The pipeline: load a weighted graph, prune the seed search space to a
lattice, select seeds inside it (greedy or modular-modular), and certify the
selection with an a-posteriori approximation guarantee.  Estimates run on
reverse-reachable sample collections; an exact brute-force oracle covers
small graphs and all testing.
"""

from .certify import ProfitCertificate, certify, epsilon_mu, mu_bound
from .errors import (CapacityError, ConfigError, DomainError, InternalError,
                     ParseError, ProfitMaxError)
from .evaluation import MarginalEvaluator
from .graph import (WeightedGraph, WeightTotals, assign_weights, load_edge_list,
                    load_weights, normalize_weights, save_edge_list, save_weights)
from .optimize import (ModularBounds, SelectionResult, baseline, greedy, k_sweep,
                       modmod, sweep_sizes)
from .oracle import ExactEvaluator, exhaustive_optimum, simulate_spread
from .prune import Lattice, PruneStep, iterative_prune, trivial_lattice
from .rrsets import (ProfitEstimator, RRCollection, chernoff_a,
                     confidence_bounds, generate, sampling_error_limit,
                     theta_for_relative_error)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "ConfigError", "DomainError",
    "ExactEvaluator", "InternalError", "Lattice", "MarginalEvaluator",
    "ModularBounds", "ParseError", "ProfitCertificate", "ProfitEstimator",
    "ProfitMaxError", "PruneStep", "RRCollection", "SelectionResult",
    "WeightTotals", "WeightedGraph", "assign_weights", "baseline", "certify",
    "chernoff_a", "confidence_bounds", "epsilon_mu", "exhaustive_optimum",
    "generate", "greedy", "iterative_prune", "k_sweep", "load_edge_list",
    "load_weights", "modmod", "mu_bound", "normalize_weights",
    "sampling_error_limit", "save_edge_list", "save_weights", "simulate_spread",
    "sweep_sizes", "theta_for_relative_error", "trivial_lattice",
]
