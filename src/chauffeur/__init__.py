"""Pursuit-evasion toolkit for the homicidal chauffeur game.

Solution geometry (barrier, characteristic fans, equivocal curve), feedback
equilibrium strategies, closed-loop simulation with event detection, and
deception analysis under asymmetric knowledge of the evader's top speed.
"""

from .core import Controls, GameParams, RelState, validate_params, wrap_angle
from .deception import AdvantageMap, DeceptionReport, deception_gain, sweep
from .sim import Scenario, Trajectory, detect_events, run_closed_loop, step
from .solution import (
    CharacteristicField,
    EqualCostBracketError,
    Region,
    SampledCurve,
    SolutionGeometry,
    bup_angle,
    bup_point,
    compute_barrier,
    compute_primary_fan,
    compute_secondary_fan_and_equivocal,
    dubins_cs_turn_time,
    get_geometry,
    solve,
)
from .strategy import EvaderPolicy, deceptive_policy

__all__ = [
    "Controls",
    "GameParams",
    "RelState",
    "validate_params",
    "wrap_angle",
    "CharacteristicField",
    "EqualCostBracketError",
    "Region",
    "SampledCurve",
    "SolutionGeometry",
    "bup_angle",
    "bup_point",
    "compute_barrier",
    "compute_primary_fan",
    "compute_secondary_fan_and_equivocal",
    "dubins_cs_turn_time",
    "get_geometry",
    "solve",
    "AdvantageMap",
    "DeceptionReport",
    "deception_gain",
    "sweep",
    "Scenario",
    "Trajectory",
    "detect_events",
    "run_closed_loop",
    "step",
    "EvaderPolicy",
    "deceptive_policy",
]
