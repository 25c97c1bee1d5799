"""Spanning-tree guided ant colony routing for multi-robot coverage.

Partition the task points among a robot team, then optimise one closed tour
per robot with a pheromone colony whose transition rule and deposits are
biased toward minimum-spanning-tree edges, seeded by a Christofides-style
shortcut tour.  Switching the bias off (omega = 1, kappa = 0, no seed)
recovers the plain ant colony on the same code path.

Each root name below loads its module on first access, so ``import
sinepath`` loads no numpy and ``sinepath.cli`` can configure its process
before numpy starts.
"""

from importlib import import_module

__version__ = "0.1.0"

# Root name -> the module that defines it.
_EXPORTS = {
    "AcoParams": "aco",
    "ExperimentPlan": "bench",
    "run_plan": "bench",
    "Instance": "instances",
    "load_instance": "instances",
    "random_planar_instance": "instances",
    "SolveReport": "solver",
    "SolverConfig": "solver",
    "solve": "solver",
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
