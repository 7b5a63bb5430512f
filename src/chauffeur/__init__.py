"""Pursuit-evasion toolkit for the homicidal chauffeur game.

Solution geometry (barrier, characteristic fans, equivocal curve), feedback
equilibrium strategies, closed-loop simulation with event detection, and
deception analysis under asymmetric knowledge of the evader's top speed.

The package root holds the paper's entry points; everything else lives in
``chauffeur.core``, ``solution``, ``sim``, ``strategy`` and ``deception``.
"""

from .core import RelState, validate_params
from .deception import deception_gain, sweep
from .sim import Scenario, run_closed_loop
from .solution import get_geometry
from .strategy import EvaderPolicy

__all__ = [
    "RelState",
    "validate_params",
    "get_geometry",
    "Scenario",
    "EvaderPolicy",
    "run_closed_loop",
    "deception_gain",
    "sweep",
]
