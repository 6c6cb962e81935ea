"""Simulation harness: planted worlds with known answers.

``scenario`` describes cohorts of probes, ``generate`` materializes a
dataset plus its ground-truth sidecar, ``oracle`` recomputes aggregate
statistics independently, and ``mockdns`` serves resolver personalities
over real UDP for the live query path.

``oracle`` (numpy) and ``mockdns`` load on first use of one of their
names, so building a world does not pay for them.
"""

from importlib import import_module

from .scenario import Cohort, Scenario, ScenarioError, parse_scenario
from .generate import (
    ACCEPTANCE_TEMPLATE,
    GroundTruth,
    ProbeTruth,
    SIM_ROUNDS,
    SIM_TARGETS,
    SimResult,
    acceptance_scenarios,
    generate,
    truth_to_doc,
)

_LAZY = {
    "compare": "oracle",
    "embedded_address": "oracle",
    "oracle_stats": "oracle",
    "Dns64Server": "mockdns",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = [
    "ACCEPTANCE_TEMPLATE",
    "Cohort",
    "Dns64Server",
    "GroundTruth",
    "ProbeTruth",
    "SIM_ROUNDS",
    "SIM_TARGETS",
    "Scenario",
    "ScenarioError",
    "SimResult",
    "acceptance_scenarios",
    "compare",
    "embedded_address",
    "generate",
    "oracle_stats",
    "parse_scenario",
    "truth_to_doc",
]
