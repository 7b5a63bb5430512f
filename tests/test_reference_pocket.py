"""The pocket lookups against their frozen predecessor in ``reference_pocket.py``.

``_CurveIndex._scan`` makes one distance pass per ring over the ring's box
on Python scalars, the dive keeps the boxes of its current bucket between
steps, and ``_project`` reads each series at the foot's segment only.  None
of that may change a number: the pocket dive, which makes one lookup per
step, and both reference games must match the old lookup bit for bit.
"""

import dataclasses
from collections import Counter

import pytest

from chauffeur.core import RelState
from chauffeur.sim import Scenario, run_closed_loop
from chauffeur.solution import SECONDARY, _CurveIndex
from chauffeur.strategy import EvaderPolicy
from reference_pocket import ReferencePocketGeometry

N_POINTS = 300


@pytest.fixture(scope="module")
def reference_geoms(geom_03, geom_02):
    return ReferencePocketGeometry.of(geom_03), ReferencePocketGeometry.of(geom_02)


@pytest.mark.parametrize("which", [0, 1])
def test_pocket_values_match_the_reference_bitwise(which, geom_03, geom_02, reference_geoms, rng, monkeypatch):
    # Most pocket values come from a preimage in closed form; the dive is
    # the path that makes the lookups this test freezes.  The reference's
    # ``_secondary_value`` is its frozen dive.
    geom, ref = (geom_03, geom_02)[which], reference_geoms[which]
    rings_before = len(ref._secondary_index.rings)
    # Boxes built per lookup of the package's dives, to show that the
    # compared lookups do take the boxes the dive keeps between steps.
    built = []
    box, scan = _CurveIndex._box, _CurveIndex._scan

    def counted_box(self, *args):
        built[-1] += 1
        return box(self, *args)

    def counted_scan(self, *args):
        built.append(0)
        return scan(self, *args)

    monkeypatch.setattr(_CurveIndex, "_box", counted_box)
    monkeypatch.setattr(_CurveIndex, "_scan", counted_scan)
    bx = geom._pocket.bbox
    n = 0
    while n < N_POINTS:
        x, y = float(rng.uniform(bx[0], bx[1])), float(rng.uniform(bx[2], bx[3]))
        if geom.classify(RelState(x, y)).tag != SECONDARY:
            continue
        got, want = geom._secondary_dive(x, y), ref._secondary_value(x, y)
        assert float.hex(got) == float.hex(want), (x, y)
        n += 1
    # The comparison covers the wider rings, not only the one-bucket scan.
    accepted = ref._secondary_index.rings[rings_before:]
    rings = Counter(accepted)
    assert rings[1] > rings[2] > 0 and rings[3] > 0, rings
    # Lookup for lookup, and answered from kept boxes at rings 2 and 3 too.
    assert len(built) == len(accepted)
    assert sum(built) < len(built), (sum(built), len(built))
    kept = Counter(ring for ring, n in zip(accepted, built) if n == 0)
    assert kept[2] > 0 and kept[3] > 0, kept


def test_reference_games_match_the_reference_bitwise(params_03, params_02, geom_03, geom_02, reference_geoms):
    ref_03, ref_02 = reference_geoms
    s0 = RelState(2.152, -0.214)
    scans = len(ref_03._secondary_index.rings)
    for policy, mode in (
        (EvaderPolicy(kind="truthful"), "informed"),
        (EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3), "estimating"),
    ):
        sc = Scenario(params_03, params_02, s0, policy, pursuer_mode=mode, t_max=40.0)
        new = run_closed_loop(sc, geom_03, geom_02)
        old = run_closed_loop(sc, ref_03, ref_02)
        assert new.capture_time is not None and SECONDARY in new.region
        for f in dataclasses.fields(new):
            assert repr(getattr(new, f.name)) == repr(getattr(old, f.name)), f.name
    assert len(ref_03._secondary_index.rings) - scans > 1000
