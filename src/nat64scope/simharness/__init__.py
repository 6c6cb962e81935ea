"""Simulation harness: planted worlds with known answers.

``scenario`` describes cohorts of probes, ``generate`` materializes a
dataset plus its ground truth (the ``truth.json`` document), ``oracle``
recomputes aggregate statistics independently.
"""

from .scenario import Cohort, Scenario, ScenarioError, parse_scenario
from .generate import (
    ACCEPTANCE_TEMPLATE,
    SIM_ROUNDS,
    SIM_TARGETS,
    SimResult,
    generate,
)
from .oracle import compare, oracle_stats

__all__ = [
    "ACCEPTANCE_TEMPLATE",
    "Cohort",
    "SIM_ROUNDS",
    "SIM_TARGETS",
    "Scenario",
    "ScenarioError",
    "SimResult",
    "compare",
    "generate",
    "oracle_stats",
    "parse_scenario",
]
