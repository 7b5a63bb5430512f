"""Isaacs' equation on ``value()``, family by family (see ``hji_audit``).

The tributary and primary values and the pocket's rear family satisfy it to
the differencing error.  The pocket's junction family does not: its anchor
heading is not the equilibrium one.
"""

import statistics

import numpy as np
import pytest

from hji_audit import residuals

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
MIN_POINTS = 20


@pytest.fixture(scope="module", params=["geom_03", "geom_02"])
def audit(request):
    geom = request.getfixturevalue(request.param)
    return residuals(geom, np.random.default_rng(20240817), STEPS, PER_FAMILY, N_SEEDS)


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_residual_at_the_differencing_error(audit, name):
    res = audit[name]
    assert len(res) >= MIN_POINTS, len(res)
    median_bound, max_bound = BOUNDS[name]
    assert statistics.median(res) < median_bound, statistics.median(res)
    assert max(res) < max_bound, max(res)


@pytest.mark.xfail(
    strict=True,
    reason="the pocket's junction family is not a saddle point: at h = 1e-4 "
    "its |H| has median / max 0.38 / 0.91 on (0.3, 0.5) and 0.26 / 0.56 on "
    "(0.2, 0.5), and the median stays there for every h from 1e-5 to 3e-2; "
    "its anchor heading c = pi - atan(y_ES / x_ES) is the evader's "
    "pure-pursuit heading turned by a quarter turn (ROADMAP item 2)",
)
def test_junction_residual_at_the_differencing_error(audit):
    res = audit["junction"]
    assert len(res) >= MIN_POINTS, len(res)
    median_bound, max_bound = BOUNDS["rear"]
    assert statistics.median(res) < median_bound, statistics.median(res)
    assert max(res) < max_bound, max(res)
