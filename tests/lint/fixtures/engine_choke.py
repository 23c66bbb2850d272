"""Fixture for the engine-chokepoint rule.

Linted as if it were ``repro.sim.fixture`` — inside the sensitive tree
but NOT one of the engine modules, so scheduler-structure imports and
direct event-core imports here must fire.
"""

import heapq  # finding: scheduler structure outside the engine
from bisect import insort  # finding: scheduler structure outside the engine
from repro.sim import _engine  # finding: pins the pure core
from repro.sim import _compiled  # finding: pins the compiled core
import repro.sim._ccore  # finding: pins the compiled extension
from repro.sim._engine import Timeout  # finding: pins the pure core


# -- fine -----------------------------------------------------------------
from repro.sim.core import Environment  # selector import: the sanctioned path
from repro.sim import Event  # package re-export: also selector-mediated


def uses_selector() -> Environment:
    return Environment()
