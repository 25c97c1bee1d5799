"""Spanning-tree guided ant colony routing for multi-robot coverage.

Partition the task points among a robot team, then optimise one closed tour
per robot with a pheromone colony whose transition rule and deposits are
biased toward minimum-spanning-tree edges, seeded by a Christofides-style
shortcut tour.  Switching the bias off (omega = 1, kappa = 0, no seed)
recovers the plain ant colony on the same code path.
"""

from .aco import AcoParams
from .bench import ExperimentPlan, run_plan
from .instances import Instance, load_instance, random_planar_instance
from .solver import SolveReport, SolverConfig, solve

__version__ = "0.1.0"
