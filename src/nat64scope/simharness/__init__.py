"""Simulation harness: planted worlds with known answers.

``scenario`` describes cohorts of probes, ``generate`` materializes a
dataset plus its ground truth (the ``truth.json`` document), ``oracle``
recomputes aggregate statistics independently.

``oracle`` (numpy) loads on first use of one of its names, so building a
world does not pay for it.
"""

from importlib import import_module

from .scenario import Cohort, Scenario, ScenarioError, parse_scenario
from .generate import (
    ACCEPTANCE_TEMPLATE,
    SIM_ROUNDS,
    SIM_TARGETS,
    SimResult,
    generate,
)

_LAZY = {
    "compare": "oracle",
    "embedded_address": "oracle",
    "oracle_stats": "oracle",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = [
    "ACCEPTANCE_TEMPLATE",
    "Cohort",
    "SIM_ROUNDS",
    "SIM_TARGETS",
    "Scenario",
    "ScenarioError",
    "SimResult",
    "compare",
    "embedded_address",
    "generate",
    "oracle_stats",
    "parse_scenario",
]
