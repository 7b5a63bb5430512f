import concurrent.futures
import math
import os
import re

import pytest

import chauffeur.deception as deception
import chauffeur.solution as solution
from chauffeur.core import RelState
from chauffeur.deception import (
    ADVANTAGE_CSV_HEADER,
    AdvantageMap,
    DeceptionReport,
    deception_gain,
    sweep,
)
from chauffeur.solution import SECONDARY, TRIBUTARY


class TestDeceptionGain:
    def test_reference_scenario_structure(self, geom_03, geom_02):
        rep = deception_gain(0.3, 0.2, 0.5, RelState(2.152, -0.214), geom1=geom_03, geom2=geom_02)
        assert rep.region_mu1 == SECONDARY
        assert rep.region_mu2 == TRIBUTARY
        assert not rep.incomplete
        assert rep.gain is not None and rep.gain > 0.0
        assert rep.gain == rep.t_deceptive - rep.t_truthful
        assert rep.switch_point is not None
        # The estimating-pursuer truthful baseline coincides with the
        # informed baseline: the estimate starts at the true bound and never
        # falls, so the estimating pursuer plays the informed one's game.
        assert rep.t_truthful_estimating == rep.t_truthful

    @pytest.mark.parametrize("baseline", [True, False])
    def test_two_runs_per_comparison(self, geom_03, geom_02, monkeypatch, baseline):
        # The estimating baseline equals the informed run, so it is reported
        # without being played.
        real = deception.run_closed_loop
        runs = []

        def counted(sc, *geoms):
            runs.append((sc.evader_policy.kind, sc.pursuer_mode))
            return real(sc, *geoms)

        monkeypatch.setattr(deception, "run_closed_loop", counted)
        rep = deception_gain(
            0.3, 0.2, 0.5, RelState(2.152, -0.214), geom1=geom_03, geom2=geom_02,
            with_estimating_baseline=baseline,
        )
        assert runs == [("truthful", "informed"), ("deceptive", "estimating")]
        if baseline:
            assert rep.t_truthful is not None
            assert rep.t_truthful_estimating == rep.t_truthful
        else:
            assert rep.t_truthful_estimating is None

    def test_swapped_geometries_are_rejected(self, geom_03, geom_02):
        with pytest.raises(ValueError, match="do not match"):
            deception_gain(0.3, 0.2, 0.5, RelState(2.152, -0.214), geom1=geom_02, geom2=geom_03)

    def test_equal_speeds_gain_exactly_zero(self, geom_03):
        rep = deception_gain(0.3, 0.3, 0.5, RelState(1.8, 1.0), geom1=geom_03, geom2=geom_03)
        assert rep.gain == 0.0

    def test_tributary_overlap_never_helps(self, geom_03, geom_02, rng):
        checked = 0
        while checked < 4:
            x = rng.uniform(0.5, 3.0)
            y = rng.uniform(1.0, 3.0)
            s = RelState(x, y)
            if geom_03.classify(s).tag != TRIBUTARY or geom_02.classify(s).tag != TRIBUTARY:
                continue
            rep = deception_gain(0.3, 0.2, 0.5, s, geom1=geom_03, geom2=geom_02)
            assert rep.gain is not None and rep.gain <= 5e-3
            checked += 1

    def test_speed_order_enforced(self):
        with pytest.raises(ValueError, match="mu1"):
            deception_gain(0.2, 0.3, 0.5, RelState(2.0, 0.0))


class TestDefaultHorizon:
    @staticmethod
    def failing_value(monkeypatch, exc):
        def value(self, s):
            raise exc

        monkeypatch.setattr(solution.SolutionGeometry, "value", value)

    def test_value_failure_falls_back(self, geom_03, monkeypatch):
        self.failing_value(monkeypatch, solution.NearestSampleError("nearest-curve query failed"))
        assert deception._default_horizon(geom_03, RelState(2.0, 0.0)) == 100.0

    @pytest.mark.parametrize(
        "exc", [ZeroDivisionError(), RuntimeError("unnamed"), RecursionError()], ids=lambda e: type(e).__name__
    )
    def test_other_errors_propagate(self, geom_03, monkeypatch, exc):
        # Only value()'s named failures (NumericalError) fall back to the
        # fixed horizon; a bare RuntimeError is a fault, not a failed query.
        self.failing_value(monkeypatch, exc)
        with pytest.raises(type(exc)):
            deception._default_horizon(geom_03, RelState(2.0, 0.0))


class TestSweep:
    def test_three_by_three_row_count(self, geom_03, geom_02, tmp_path):
        amap = sweep(0.3, 0.2, 0.5, window=(1.4, 2.0, 0.8, 1.4), spacing=0.3, dt=2e-3)
        # 3 x 3 lattice, no cells inside the capture circle.
        assert len(amap.cells) == 9
        path = tmp_path / "map.csv"
        amap.to_csv(str(path))
        with open(path) as fh:
            assert fh.readline().strip() == ADVANTAGE_CSV_HEADER
            rows = fh.read().strip().split("\n")
        assert len(rows) == 9

    def test_capture_circle_cells_skipped(self):
        amap = sweep(0.3, 0.2, 0.5, window=(-0.3, 0.3, -0.3, 0.3), spacing=0.3, dt=2e-3)
        # Central cells of this lattice fall inside the capture circle.
        assert len(amap.cells) < 9
        for c in amap.cells:
            s = c.initial_rel
            assert s.x * s.x + s.y * s.y > 0.25

    def test_mirror_symmetry_of_gain_map(self):
        amap = sweep(0.3, 0.2, 0.5, window=(-1.8, 1.8, 0.9, 1.5), spacing=0.9, dt=2e-3)
        by_key = {(round(c.initial_rel.x, 6), round(c.initial_rel.y, 6)): c for c in amap.cells}
        for (x, y), c in by_key.items():
            m = by_key.get((round(-x, 6), y))
            assert m is not None
            assert abs((c.gain or 0.0) - (m.gain or 0.0)) < 1e-9

    def test_reproducible(self):
        a = sweep(0.3, 0.2, 0.5, window=(1.4, 2.0, 0.8, 1.4), spacing=0.3, dt=2e-3)
        b = sweep(0.3, 0.2, 0.5, window=(1.4, 2.0, 0.8, 1.4), spacing=0.3, dt=2e-3)
        assert [c.gain for c in a.cells] == [c.gain for c in b.cells]
        assert [c.t_truthful for c in a.cells] == [c.t_truthful for c in b.cells]

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            *(({"spacing": v}, "spacing") for v in (math.nan, math.inf, -math.inf, 0.0, -0.3)),
            *(
                ({"window": w}, "window")
                for w in (
                    (math.nan, 1, 0, 1), (0, math.inf, 0, 1), (0, 1, -math.inf, 1), (0, 1, 0, math.nan)
                )
            ),
            *(({"dt": v}, "dt") for v in (math.nan, math.inf, -math.inf, 0.0, -1e-3)),
            *(({"t_max": v}, "t_max") for v in (math.nan, math.inf, -math.inf, 0.0, -1.0)),
        ],
    )
    def test_bad_argument_rejected_before_any_build(self, monkeypatch, kwargs, name):
        def build(*args, **kw):
            raise AssertionError("a geometry was built before the arguments were checked")

        monkeypatch.setattr(deception, "get_geometry", build)
        args = {"window": (0, 1, 0, 1), "spacing": 0.5, **kwargs}
        value = kwargs[name]
        with pytest.raises(ValueError, match=re.escape(f"{name}={value!r} must be finite")):
            sweep(0.3, 0.2, 0.5, **args)

    @pytest.mark.parametrize("window", [(2.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.5)])
    def test_reversed_window_rejected_before_any_build(self, monkeypatch, window):
        # A reversed range used to give an empty lattice and a zero-cell map.
        def build(*args, **kw):
            raise AssertionError("a geometry was built before the window was checked")

        monkeypatch.setattr(deception, "get_geometry", build)
        with pytest.raises(ValueError, match=re.escape(f"window={window!r} must have x_min <= x_max")):
            sweep(0.3, 0.2, 0.5, window=window, spacing=0.5)

    def test_advantageous_cell_near_reference_point(self, geom_03, geom_02):
        # A window containing the representative start has at least one
        # advantaged cell tagged Secondary-under-fast / Tributary-under-slow.
        amap = sweep(0.3, 0.2, 0.5, window=(1.952, 2.352, -0.414, -0.014), spacing=0.2, dt=1e-3)
        tagged = [
            c
            for c in amap.cells
            if c.region_mu1 == SECONDARY and c.region_mu2 == TRIBUTARY and (c.gain or 0) > 0
        ]
        assert tagged
        assert amap.advantageous_cells() >= 1
        assert amap.max_gain() >= 1.0

    def test_worker_pool_matches_sequential(self):
        seq = sweep(0.3, 0.2, 0.5, window=(1.4, 2.0, 0.8, 1.4), spacing=0.3, dt=2e-3, workers=1)
        par = sweep(0.3, 0.2, 0.5, window=(1.4, 2.0, 0.8, 1.4), spacing=0.3, dt=2e-3, workers=2)
        assert [c.gain for c in seq.cells] == [c.gain for c in par.cells]

    def test_worker_uses_the_initializer_geometries(self, geom_03, geom_02, monkeypatch):
        # A worker plays on the geometries its pool initializer handed it and
        # never builds one, whatever the process start method.
        def no_solve(*args, **kwargs):
            raise AssertionError("a sweep worker rebuilt a geometry")

        monkeypatch.setattr(solution, "solve", no_solve)
        monkeypatch.setattr(solution, "_GEOMETRY_CACHE", {})
        monkeypatch.setattr(deception, "_worker_geoms", None)
        deception._init_worker(geom_03, geom_02)
        rep, err = deception._cell_worker((0.3, 0.2, 0.5, 1.7, 1.1, 2e-3, 40.0))
        assert err is None
        assert rep.t_truthful is not None and rep.t_deceptive is not None

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            sweep(0.3, 0.2, 0.5, window=(0, 1, 0, 1), workers=0)

    @pytest.mark.parametrize("cpus, expected", [(4, 3), (2, 2), (1, None)])
    def test_pool_is_capped_by_cells_and_cpus(self, monkeypatch, cpus, expected):
        # A recording stand-in for the pool plays the cells in this process,
        # so no worker process is started.  A huge worker count gets as many
        # processes as the window has cells (three) or the host has CPUs,
        # whichever is fewer, and one process means no pool.
        made = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                made.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(deception, "_worker_geoms", None)
        window = (1.4, 2.0, 0.8, 0.8)
        amap = sweep(0.3, 0.2, 0.5, window=window, spacing=0.3, dt=2e-3, workers=10**6)
        assert made == ([] if expected is None else [expected])
        assert len(amap.cells) == 3 and not amap.failures
        seq = sweep(0.3, 0.2, 0.5, window=window, spacing=0.3, dt=2e-3)
        assert [c.gain for c in amap.cells] == [c.gain for c in seq.cells]
