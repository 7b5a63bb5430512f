"""Isaacs' equation on ``value()``, family by family (see ``hji_audit``),
and the feedback's controls against the ones its gradient gives.

The tributary and primary values and the pocket's rear family satisfy it to
the differencing error, and the feedback plays their equilibrium controls:
the heading to the differencing error outside the pocket and to the
sampling error on the rear family.  The pocket's junction family does not:
its anchor heading is not the equilibrium one.
"""

import statistics

import numpy as np
import pytest

from hji_audit import checks

# Difference step h per family: the pocket values are read backwards along
# their characteristic, which rounds coarser than the closed forms outside.
STEPS = {"tributary": 1e-5, "primary": 1e-5, "rear": 1e-4, "junction": 1e-4}
PER_FAMILY = 100
N_SEEDS = 6000
# (median, max) bounds on |H|.  Over 1000 points per family the medians were
# 4.1e-11 and 3.2e-11 (tributary), 1.5e-10 and 1.0e-10 (primary), 9.8e-10
# and 2.8e-9 (rear) on (0.3, 0.5) and (0.2, 0.5); the maxima 3.7e-9, 1.9e-8
# and 5.8e-9.
BOUNDS = {"tributary": (1e-9, 1e-8), "primary": (2e-9, 1e-7), "rear": (3e-8, 1e-7)}
# (median, max) bounds on the gap in radians between the feedback's heading
# and atan2(V_x, V_y).  Over 1000 points per family, seeds 7 and 1, on both
# geometries, the worst medians were 1.9e-11 (tributary), 1.4e-10 (primary)
# and 1.2e-3 (rear), the worst maxima 1.7e-8, 1.7e-8 and 6.5e-3.  The rear
# gap is the pocket feedback's: it follows the nearest sample, not the
# preimage (the preimage-feedback item in ROADMAP).
HEADING_BOUNDS = {"tributary": (1e-9, 5e-8), "primary": (2e-9, 5e-8), "rear": (2e-3, 1e-2)}
MIN_POINTS = 20

JUNCTION_REASON = (
    "the pocket's junction family is not a saddle point: its anchor heading "
    "c = pi - atan(y_ES / x_ES) is the evader's pure-pursuit heading turned by "
    "a quarter turn (the junction-heading item in ROADMAP)"
)


@pytest.fixture(scope="module", params=["geom_03", "geom_02"])
def audit(request):
    geom = request.getfixturevalue(request.param)
    return checks(geom, np.random.default_rng(20240817), STEPS, PER_FAMILY, N_SEEDS)


def assert_within(values, bounds):
    assert len(values) >= MIN_POINTS, len(values)
    median_bound, max_bound = bounds
    assert statistics.median(values) < median_bound, statistics.median(values)
    assert max(values) < max_bound, max(values)


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_residual_at_the_differencing_error(audit, name):
    assert_within([c.residual for c in audit[name]], BOUNDS[name])


@pytest.mark.parametrize("name", sorted(HEADING_BOUNDS))
def test_feedback_heading_is_the_gradient_heading(audit, name):
    assert_within([c.heading_gap for c in audit[name]], HEADING_BOUNDS[name])


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_feedback_u_is_the_minimiser(audit, name):
    assert len(audit[name]) >= MIN_POINTS, len(audit[name])
    assert all(c.u_minimises for c in audit[name])


@pytest.mark.xfail(
    strict=True,
    reason=JUNCTION_REASON + "; at h = 1e-4 its |H| has median / max 0.39 / "
    "0.88 on (0.3, 0.5) and 0.25 / 0.78 on (0.2, 0.5) over the audited points, "
    "and the median stays there for every h from 1e-5 to 3e-2",
)
def test_junction_residual_at_the_differencing_error(audit):
    assert_within([c.residual for c in audit["junction"]], BOUNDS["rear"])


@pytest.mark.xfail(
    strict=True,
    reason=JUNCTION_REASON + "; the feedback's heading lies a median of 1.45 "
    "rad from atan2(V_x, V_y) on (0.3, 0.5) and 1.47 rad on (0.2, 0.5)",
)
def test_junction_feedback_heading_is_the_gradient_heading(audit):
    assert_within([c.heading_gap for c in audit["junction"]], HEADING_BOUNDS["rear"])


@pytest.mark.xfail(
    strict=True,
    reason=JUNCTION_REASON + "; the feedback's u = -1 is not the minimiser at "
    "20 of 100 audited points on (0.3, 0.5) and 18 of 100 on (0.2, 0.5)",
)
def test_junction_feedback_u_is_the_minimiser(audit):
    assert len(audit["junction"]) >= MIN_POINTS, len(audit["junction"])
    assert all(c.u_minimises for c in audit["junction"])
