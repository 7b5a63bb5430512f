"""The pocket value from the closed-form preimage of its characteristic.

In the pocket, ``value()`` reads the state's secondary characteristic
backwards: the rear family in closed form, the junction family by a Newton
solve on (s, tau).  The value is the anchor value plus tau.  Only a state
with no admissible preimage takes the dive, which these checks use as the
independent reference.  The dive's own endings are counted here too: they
are the baseline for the changes that retire it (the junction-heading and
strip items in ROADMAP).
"""

import math
import re
from collections import Counter

import pytest

from chauffeur import solution
from chauffeur.core import RelState
from chauffeur.deception import _default_horizon
from chauffeur.solution import SECONDARY, DiveStepLimitError, SolutionGeometry

N_POINTS = 300

# Paths that value() takes over the N_POINTS seeded pocket states of each
# pair (rear preimage, junction preimage, dive).
PATHS = {
    "geom_03": {"rear": 73, "junction": 183, "dive": 44},
    "geom_02": {"rear": 9, "junction": 245, "dive": 46},
}
# Largest departure of a preimage value from the dive, per family.
DRIFT = {"rear": 1e-4, "junction": 5e-3}

N_DIVES = 300

# Where the dives from the N_DIVES seeded pocket states without a preimage
# of each pair end: a tributary departure on the pocket wall, the chain
# blend (the departure lies inside the turn disc) or the rear line.
DIVE_ENDINGS = {
    "geom_03": {"departure": 285, "chain": 9, "rear": 6},
    "geom_02": {"departure": 294, "chain": 5, "rear": 1},
}


def _pocket_states(geom, rng, n):
    bx = geom._pocket.bbox
    out = []
    while len(out) < n:
        x, y = float(rng.uniform(bx[0], bx[1])), float(rng.uniform(bx[2], bx[3]))
        if geom.classify(RelState(x, y)).tag == SECONDARY:
            out.append((x, y))
    return out


@pytest.mark.parametrize("which", ["geom_03", "geom_02"])
def test_preimage_coverage(which, request, rng):
    geom = request.getfixturevalue(which)
    fam = geom._families
    paths = Counter()
    drift = {"rear": 0.0, "junction": 0.0}
    for x, y in _pocket_states(geom, rng, N_POINTS):
        pre = geom._preimages(x, y)
        # No state has both a rear and a junction preimage.
        assert len(pre) <= 1, (x, y, pre)
        # A junction solve ends unconverged only pinned at an end anchor,
        # never inside the anchors' range.
        s, tau, converged = geom._junction_solve(x, y)
        assert converged or s in (fam.s[0], fam.s[-1]), (x, y, s, tau)
        v, dive = geom.value(RelState(x, y)), geom._secondary_dive(x, y)
        if not pre:
            paths["dive"] += 1
            assert v == dive, (x, y)
            continue
        family = pre[0][0]
        paths[family] += 1
        assert v == fam.value(*pre[0]), (x, y)
        drift[family] = max(drift[family], abs(v - dive))
    assert dict(paths) == PATHS[which]
    for family, bound in DRIFT.items():
        assert drift[family] <= bound, (family, drift[family])


@pytest.mark.parametrize("x, y", [(0.507, 0.219), (0.477, 0.278)])
def test_the_strip_by_the_capture_arc_takes_the_dive(geom_03, x, y):
    # No admissible rear characteristic reaches the strip between the
    # capture arc and the innermost rear member (the strip item in ROADMAP).
    assert geom_03.classify(RelState(x, y)).tag == SECONDARY
    assert geom_03._preimages(x, y) == []
    assert geom_03.value(RelState(x, y)) == geom_03._secondary_dive(x, y)


@pytest.mark.parametrize("which", ["geom_03", "geom_02"])
def test_how_the_seeded_dives_end(which, request, rng, monkeypatch):
    geom = request.getfixturevalue(which)
    calls = Counter()
    crossing, chain = SolutionGeometry.wall_crossing, SolutionGeometry._secondary_chain_value

    def counted_crossing(self, *args):
        calls["wall"] += 1
        return crossing(self, *args)

    def counted_chain(self, *args):
        calls["chain"] += 1
        return chain(self, *args)

    monkeypatch.setattr(SolutionGeometry, "wall_crossing", counted_crossing)
    monkeypatch.setattr(SolutionGeometry, "_secondary_chain_value", counted_chain)
    endings = Counter()
    bx = geom._pocket.bbox
    while sum(endings.values()) < N_DIVES:
        x, y = float(rng.uniform(bx[0], bx[1])), float(rng.uniform(bx[2], bx[3]))
        if geom.classify(RelState(x, y)).tag != SECONDARY or geom._preimages(x, y):
            continue
        before = calls.copy()
        assert math.isfinite(geom.value(RelState(x, y))), (x, y)
        if calls["chain"] > before["chain"]:
            endings["chain"] += 1
        elif calls["wall"] > before["wall"]:
            endings["departure"] += 1
        else:
            endings["rear"] += 1
    assert dict(endings) == DIVE_ENDINGS[which]


def test_a_stalled_dive_raises_a_named_error(geom_03, monkeypatch):
    # A dive that never leaves the pocket used to fall through to the rear
    # line's formula and price an interior state as if it were on the axis.
    x, y = 0.507, 0.219
    assert geom_03._preimages(x, y) == []
    monkeypatch.setattr(solution, "held_step", lambda x, y, u, psi, mu, dt: (x, y))
    with pytest.raises(DiveStepLimitError, match=re.escape(f"from ({x}, {y})")):
        geom_03.value(RelState(x, y))
    assert issubclass(DiveStepLimitError, RuntimeError)
    # The default horizon still falls back to a value of 10.
    assert _default_horizon(geom_03, RelState(x, y)) == 100.0


@pytest.mark.parametrize("which", ["geom_03", "geom_02"])
def test_stored_samples_invert_to_their_characteristic(which, request):
    # The stored samples are the fans' closed form; read backwards, each
    # must return its own anchor and tau, and the value anchor value plus
    # tau, without the dive.
    geom = request.getfixturevalue(which)
    fam = geom._families
    rear = [ch for ch in geom.secondary_fan.trajectories if ch.terminal == "negative_universal"]
    junction = [ch for ch in geom.secondary_fan.trajectories if ch.terminal == "equivocal"]
    checked = Counter()
    for i, ch in enumerate(rear):
        # Admissible territory: below the end tau of the neighbouring members
        # (at that end, tau can round to either side).
        end = min(fam.y0_end[max(i - 1, 0) : i + 2])
        for k in range(0, len(ch.tau), 25):
            tau = ch.tau.item(k)
            if tau >= end:
                break
            y0, got = fam.rear(*ch.points[k].tolist())
            assert abs(y0 - ch.anchor[1]) <= 1e-9 and abs(got - tau) <= 1e-9, (i, k, y0, got)
            want = ch.anchor_value + tau
            assert abs(fam.value("rear", y0, got) - want) <= 1e-9, (i, k)
            checked["rear"] += 1
    for i, ch in enumerate(junction):
        # Seeded one anchor over, so Newton has work.  Outside the pocket
        # the members run into tributary territory and cross each other, so
        # only the samples in the pocket have to come back to their own.
        seed = fam.s[i + 1] if i + 1 < len(fam.s) else fam.s[i - 1]
        for k in range(0, len(ch.tau), 25):
            x, y = ch.points[k].tolist()
            if geom.classify(RelState(x, y)).tag != SECONDARY:
                continue
            tau = ch.tau.item(k)
            s, got, converged = fam.junction(x, y, float(seed), tau)
            assert converged, (i, k, s, got)
            j = min(int(s), len(fam.e_pts) - 2)
            ax, ay = fam.e_pts[j] + (s - j) * (fam.e_pts[j + 1] - fam.e_pts[j])
            assert math.hypot(ax - ch.anchor[0], ay - ch.anchor[1]) <= 1e-9, (i, k, s)
            assert abs(got - tau) <= 1e-9, (i, k, got, tau)
            want = ch.anchor_value + tau
            assert abs(fam.value("junction", s, got) - want) <= 1e-9, (i, k)
            checked["junction"] += 1
    assert checked["rear"] > 100 and checked["junction"] > 1000, checked
