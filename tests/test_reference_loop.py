"""The closed loop against its frozen predecessor in ``reference_loop.py``.

``sim.run_closed_loop`` holds its speed estimate as a float, asks the
geometry for region tags on floats and scans for events only where one can
happen.  None of that may change a number: every sample, event and capture
must match the old loop bit for bit.
"""

import itertools
import math

import pytest

from chauffeur.core import RelState
from chauffeur.sim import AXIS_CROSS, BARRIER_CROSS, SWITCH, Scenario, run_closed_loop
from chauffeur.solution import TRIBUTARY, UNIVERSAL_POSITIVE
from chauffeur.strategy import EvaderPolicy
from reference_loop import run_closed_loop_reference

TRUTHFUL = EvaderPolicy(kind="truthful")
DECEPTIVE = EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3)
REFERENCE = (2.152, -0.214)

# (start, policy, pursuer mode, t_max)
CASES = {
    "informed_truthful": (REFERENCE, TRUTHFUL, "informed", 40.0),
    "estimating_deceptive": (REFERENCE, DECEPTIVE, "estimating", 40.0),
    "estimating_truthful": (REFERENCE, TRUTHFUL, "estimating", 40.0),
    "mirrored_deceptive": ((-2.152, -0.214), DECEPTIVE, "estimating", 40.0),
    "pocket_truthful": ((1.0, -0.5), TRUTHFUL, "informed", 40.0),
    "pocket_deceptive": ((1.0, -0.5), DECEPTIVE, "estimating", 40.0),
    "universal_line_estimating": ((-0.8, 1.5), TRUTHFUL, "estimating", 40.0),
    "axis_crossing_deceptive": ((0.0, -0.8), DECEPTIVE, "estimating", 40.0),
    "truncated_deceptive": (REFERENCE, DECEPTIVE, "estimating", 2.0),
    # The loop holds the positive universal line's controls while the tag
    # stays; these leave the line and rejoin it, stay on it mirrored, stop
    # on it at the horizon, and start on it at a signed zero.
    "line_exit_truthful": ((0.004, 3.0), TRUTHFUL, "informed", 40.0),
    "line_mirrored_deceptive": ((-0.004, 3.0), DECEPTIVE, "estimating", 40.0),
    "line_truncated": ((0.0, 4.5), TRUTHFUL, "informed", 2.0),
    "line_signed_zero_estimating": ((-0.0, 2.0), TRUTHFUL, "estimating", 40.0),
}

SERIES = ("t", "x", "y", "u", "psi", "mu_cmd", "mu_hat")


def _bits(values):
    # float.hex tells -0.0 from 0.0, which == does not.
    return [float.hex(v) for v in values]


def _event_bits(tr):
    return [(float.hex(e.t), e.kind, _bits(e.location)) for e in tr.events]


@pytest.fixture(scope="module")
def played(params_03, params_02, geom_03, geom_02):
    """(new, old) trajectories of every case, each loop run once."""
    runs = {}
    for case, (start, policy, mode, t_max) in CASES.items():
        sc = Scenario(
            params_03, params_02, RelState(*start), policy, pursuer_mode=mode, t_max=t_max
        )
        runs[case] = (
            run_closed_loop(sc, geom_03, geom_02),
            run_closed_loop_reference(sc, geom_03, geom_02),
        )
    return runs


@pytest.mark.parametrize("case", sorted(CASES))
def test_loop_matches_the_reference_loop_bitwise(case, played):
    new, old = played[case]
    for name in SERIES:
        assert _bits(getattr(new, name)) == _bits(getattr(old, name)), name
    assert new.region == old.region
    assert _event_bits(new) == _event_bits(old)
    if old.capture_time is None:
        assert new.capture_time is None and new.capture_point is None
    else:
        assert float.hex(new.capture_time) == float.hex(old.capture_time)
        assert _bits(new.capture_point) == _bits(old.capture_point)


def test_cases_cover_what_the_loop_can_do(played, geom_03):
    # The bitwise comparison means something only if the cases reach every
    # branch of the loop: a split step with the switch, a crossing of the
    # y axis, a mirrored and a pocket start, a run cut at the horizon, and
    # held line controls that lapse and resume.
    runs = {case: new for case, (new, _) in played.items()}
    kinds = {case: {e.kind for e in tr.events} for case, tr in runs.items()}
    assert {SWITCH, BARRIER_CROSS} <= kinds["estimating_deceptive"]
    assert AXIS_CROSS in kinds["axis_crossing_deceptive"]
    assert CASES["mirrored_deceptive"][0][0] < 0.0
    assert SWITCH in kinds["mirrored_deceptive"]
    assert geom_03.pocket_contains(*CASES["pocket_truthful"][0])
    cut = runs["truncated_deceptive"]
    # One sample per step up to the horizon's step count, none captured.
    assert cut.capture_time is None and len(cut.t) == 2001
    uncut = [c for c in CASES if c not in ("truncated_deceptive", "line_truncated")]
    assert all(runs[c].capture_time is not None for c in uncut)

    def stretches(tr):
        return [(tag, len(list(run))) for tag, run in itertools.groupby(tr.region)]

    # The band shrinks below x: one Tributary step, then the line again,
    # on either side of the axis and with or without deception.
    for case in ("line_exit_truthful", "line_mirrored_deceptive"):
        tags = stretches(runs[case])
        assert [tag for tag, _ in tags] == [
            UNIVERSAL_POSITIVE, TRIBUTARY, UNIVERSAL_POSITIVE, "Captured"
        ], case
        assert tags[1] == (TRIBUTARY, 1)
    assert runs["line_mirrored_deceptive"].x[0] < 0.0
    assert SWITCH not in kinds["line_mirrored_deceptive"]
    on_line = runs["line_truncated"]
    assert on_line.capture_time is None and len(on_line.t) == 2001
    assert stretches(on_line) == [(UNIVERSAL_POSITIVE, 2001)]
    assert math.copysign(1.0, CASES["line_signed_zero_estimating"][0][0]) < 0.0
