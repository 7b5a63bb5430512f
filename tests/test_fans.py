"""Checks of the characteristic fans against independent re-integrations,
of RK4's convergence to the fans' closed form, of the barrier test's
candidate table, of the secondary fan's tau grid, and of the geometry CSV
bytes."""

import csv
import dataclasses
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from chauffeur.core import RelState
from chauffeur.solution import (
    _BARRIER_CELL,
    GEOMETRY_CSV_HEADER,
    _BarrierCrossing,
    compute_secondary_fan_and_equivocal,
    solve,
)


def _oracle_fan(x, y, u, mu, psi, h, n_steps):
    """Scalar RK4 of dx/dtau = u y - mu sin psi, dy/dtau = 1 - u x - mu cos psi,
    one characteristic at a time; returns the n_steps + 1 samples."""

    def f(x_, y_, tau_):
        a = psi(tau_)
        return u * y_ - mu * math.sin(a), 1.0 - u * x_ - mu * math.cos(a)

    out = [(x, y)]
    tau = 0.0
    for _ in range(n_steps):
        k1 = f(x, y, tau)
        k2 = f(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1], tau + 0.5 * h)
        k3 = f(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1], tau + 0.5 * h)
        k4 = f(x + h * k3[0], y + h * k3[1], tau + h)
        x += h / 6.0 * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        y += h / 6.0 * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        tau += h
        out.append((x, y))
    return np.array(out)


def _thinned_barrier(points):
    bseg = points[:: max(1, len(points) // 80)]
    if not np.array_equal(bseg[-1], points[-1]):
        bseg = np.vstack([bseg, points[-1]])
    return bseg


def _brute_crossings(seg, bseg):
    """Which segments (rows of (px, py, qx, qy)) touch any barrier segment,
    by orientation signs over every pair."""

    def orient(ax, ay, bx, by, cx, cy):
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    px, py, qx, qy = (seg[:, k, None] for k in range(4))
    ax, ay = bseg[None, :-1, 0], bseg[None, :-1, 1]
    bx, by = bseg[None, 1:, 0], bseg[None, 1:, 1]
    d1 = orient(ax, ay, bx, by, px, py)
    d2 = orient(ax, ay, bx, by, qx, qy)
    d3 = orient(px, py, qx, qy, ax, ay)
    d4 = orient(px, py, qx, qy, bx, by)
    return ((d1 * d2 <= 0.0) & (d3 * d4 <= 0.0)).any(axis=1)


class TestFansAgainstScalarOracle:
    def test_primary_samples(self, params_03, geom_03):
        mu = params_03.mu
        for ch in geom_03.primary_fan.trajectories[::66]:
            n_steps = len(ch.points) - 1
            h = geom_03.tau_focal / n_steps
            x0, y0 = params_03.l * math.sin(ch.phi), params_03.l * math.cos(ch.phi)
            ref = _oracle_fan(x0, y0, 1.0, mu, lambda t, phi=ch.phi: phi + t, h, n_steps)
            assert np.abs(ch.points - ref).max() < 1e-12

    @pytest.mark.parametrize("i", [0, 1, 30, 43, 100, 157, 163, 199, 217, 219])
    def test_secondary_samples_and_end(self, params_03, geom_03, i):
        # Stop rules, judged on the oracle's own steps: a characteristic keeps
        # every step that stays in x >= 0, outside the capture circle and off
        # the thinned barrier, and ends before the first one that does not.
        # One stopped at its first step keeps a frozen second sample.
        p, d_tau, n_steps = params_03, 1e-3, 8000
        ch = geom_03.secondary_fan.trajectories[i]
        ax, ay = ch.anchor
        if ch.terminal == "equivocal":
            a_e = math.atan(ay / max(ax, 1e-12))
            psi = lambda t: math.pi - t - a_e  # noqa: E731
        else:
            psi = lambda t: -t  # noqa: E731
        frozen = len(ch.points) == 2 and np.array_equal(ch.points[0], ch.points[1])
        kept = 1 if frozen else len(ch.points)
        ref = _oracle_fan(ax, ay, -1.0, p.mu, psi, d_tau, min(kept, n_steps))
        assert np.abs(ch.points[:kept] - ref[:kept]).max() < 1e-12
        assert np.array_equal(ch.tau, np.arange(len(ch.points)) * d_tau)

        seg = np.hstack([ref[:-1], ref[1:]])
        q = seg[:, 2:]
        stops = (
            (q[:, 0] < 0.0)
            | (q[:, 0] ** 2 + q[:, 1] ** 2 < p.l * p.l)
            | _brute_crossings(seg, _thinned_barrier(geom_03.barrier.points))
        )
        if kept == n_steps + 1:
            assert not stops.any()
        else:
            assert not stops[:-1].any() and stops[-1]

    def test_secondary_needs_one_step(self, params_03, geom_03):
        with pytest.raises(ValueError, match="tau_max"):
            compute_secondary_fan_and_equivocal(
                params_03, barrier=geom_03.barrier, tau_max=4e-4
            )


class TestRk4ConvergesToTheClosedForm:
    """The scalar oracle at coarse steps h and h/2, compared with the fan's
    own samples at the same times, must show RK4's fourth-order rate: the
    closed form is the limit RK4 approaches, not a copy of it."""

    @staticmethod
    def _error_ratio(points, x0, y0, u, mu, psi, h_fine, n_coarse):
        errs = []
        for stride in (20, 10):
            n = n_coarse * (20 // stride)
            ref = _oracle_fan(x0, y0, u, mu, psi, stride * h_fine, n)
            errs.append(np.abs(ref - points[: n * stride + 1 : stride]).max())
        assert errs[1] > 1e-13  # well above the closed form's rounding
        return errs[0] / errs[1]

    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_primary_members(self, which, request):
        geom = request.getfixturevalue(which)
        p = geom.params
        for ch in geom.primary_fan.trajectories[::66]:
            n_steps = len(ch.points) - 1
            ratio = self._error_ratio(
                ch.points,
                p.l * math.sin(ch.phi),
                p.l * math.cos(ch.phi),
                1.0,
                p.mu,
                lambda t, phi=ch.phi: phi + t,
                geom.tau_focal / n_steps,
                n_steps // 20,
            )
            assert 12.0 <= ratio <= 20.0, (ch.phi, ratio)

    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    @pytest.mark.parametrize("i", [30, 100, 163, 199])
    def test_secondary_members(self, which, i, request):
        geom = request.getfixturevalue(which)
        ch = geom.secondary_fan.trajectories[i]
        assert len(ch.points) > 100
        ax, ay = ch.anchor
        if ch.terminal == "equivocal":
            a_e = math.atan(ay / max(ax, 1e-12))
            psi = lambda t: math.pi - t - a_e  # noqa: E731
        else:
            psi = lambda t: -t  # noqa: E731
        d_tau = 1e-3
        n_coarse = (len(ch.points) - 1) // 20
        ratio = self._error_ratio(ch.points, ax, ay, -1.0, geom.params.mu, psi, d_tau, n_coarse)
        assert 12.0 <= ratio <= 20.0, ratio


class TestBarrierGridFilter:
    def _segments(self, bseg, rng):
        """Short segments around the thinned barrier: random ones near it,
        ones through its vertices, ones ending on it (some just short of a
        grid cell), plus some longer than a cell."""
        a, b = bseg[:-1], bseg[1:]
        k = rng.integers(0, len(a), 3000)
        on = a[k] + rng.uniform(0.0, 1.0, (3000, 1)) * (b[k] - a[k])
        d = rng.normal(size=(3000, 2))
        d *= rng.uniform(1e-4, 8e-3, (3000, 1)) / np.hypot(d[:, 0], d[:, 1])[:, None]
        near_p = on + rng.normal(scale=0.01, size=(3000, 2))
        s = rng.uniform(0.0, 1.0, (3000, 1))
        vtx = bseg[rng.integers(0, len(bseg), 3000)]
        long_d = d * rng.uniform(2.0, 12.0, (3000, 1))
        # Just short of a cell in the larger coordinate: the farthest start
        # the grid must still send to the exact test.
        cell_d = d / np.abs(d).max(axis=1, keepdims=True) * rng.uniform(0.9, 1.0, (3000, 1))
        cell_d *= _BARRIER_CELL * (1.0 - 1e-9)
        starts = np.concatenate([near_p, vtx - s * d, on - d, on + d, on - long_d, on - cell_d])
        ends = np.concatenate(
            [near_p + d, vtx + (1.0 - s) * d, on, on, on + 0.3 * long_d, on]
        )
        return starts, ends

    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_same_hits_as_the_unfiltered_test(self, which, request, rng):
        geom = request.getfixturevalue(which)
        test = _BarrierCrossing.of(geom.barrier.points)
        starts, ends = self._segments(_thinned_barrier(geom.barrier.points), rng)
        args = (starts[:, 0], starts[:, 1], ends[:, 0], ends[:, 1])
        want = test.exact(*args)
        assert want.sum() > 3000  # the set is not all misses
        assert np.array_equal(test(*args), want)
        # Any one array shape, as the fan integrator passes (steps, characteristics).
        grid = tuple(v[:12000].reshape(60, 200) for v in args)
        assert np.array_equal(test(*grid), want[:12000].reshape(60, 200))

    @staticmethod
    def _linspace_raster(b0, b1):
        """The raster built one ``np.linspace`` per segment."""
        n = 2 + (np.hypot(*(b1 - b0).T) / (0.5 * _BARRIER_CELL)).astype(int)
        pts = np.concatenate(
            [a + np.linspace(0.0, 1.0, k)[:, None] * (b - a) for a, b, k in zip(b0, b1, n)]
        )
        return pts, np.repeat(np.arange(len(b0)), n)

    def test_raster_matches_per_segment_linspace(self, geom_03, geom_02):
        bsegs = [_thinned_barrier(g.barrier.points) for g in (geom_03, geom_02)]
        # Zero-length, exactly half-cell, just-under-a-cell and long
        # segments, reversed ones and a single point repeated.
        bsegs.append(
            np.array(
                [[0.0, 0.0], [0.0, 0.0], [0.005, 0.0], [0.005, 0.00999], [-0.3, 0.2],
                 [-0.3, 0.2], [-0.3, 0.2], [1.7, -0.45], [0.0, 0.0]]
            )
        )
        for bseg in bsegs:
            b0, b1 = bseg[:-1], bseg[1:]
            pts, owner = _BarrierCrossing.raster(b0, b1)
            want_pts, want_owner = self._linspace_raster(b0, b1)
            assert np.array_equal(owner, want_owner)
            assert pts.tobytes() == want_pts.tobytes()

    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_table_lists_each_segment_around_its_raster(self, which, request):
        geom = request.getfixturevalue(which)
        test = _BarrierCrossing.of(geom.barrier.points)
        bseg = _thinned_barrier(geom.barrier.points)
        assert np.array_equal(test.b0, bseg[:-1]) and np.array_equal(test.b1, bseg[1:])
        raster, owner = _BarrierCrossing.raster(test.b0, test.b1)
        # The raster runs from each segment's start to its end (to
        # rounding), on the segment, with samples at most half a cell apart.
        for k in range(len(test.b0)):
            pts = raster[owner == k]
            a, b = test.b0[k], test.b1[k]
            assert np.array_equal(pts[0], a) and np.abs(pts[-1] - b).max() < 1e-15
            assert np.hypot(*np.diff(pts, axis=0).T).max() <= 0.5 * _BARRIER_CELL
            cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
            assert np.abs(cross).max() < 1e-15
        nx, ny = test.shape
        listed = {
            (c, int(k))
            for c in range(nx * ny)
            for k in test.segs[test.start[c] : test.start[c + 1]]
        }
        assert len(listed) == len(test.segs)  # no segment twice in a cell
        key = np.floor((raster - test.origin) / _BARRIER_CELL).astype(int)
        for di in range(-2, 3):
            for dj in range(-2, 3):
                i, j = key[:, 0] + di, key[:, 1] + dj
                assert (i >= 0).all() and (i < nx).all() and (j >= 0).all() and (j < ny).all()
                assert all((c, k) in listed for c, k in zip((i * ny + j).tolist(), owner.tolist()))

    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_same_hits_on_long_vertex_and_off_grid_segments(self, which, request, rng):
        geom = request.getfixturevalue(which)
        test = _BarrierCrossing.of(geom.barrier.points)
        bseg = _thinned_barrier(geom.barrier.points)
        n, cell = 2000, _BARRIER_CELL

        def directions(lo, hi):
            d = rng.normal(size=(n, 2))
            return d * (rng.uniform(lo, hi, (n, 1)) * cell / np.hypot(d[:, 0], d[:, 1])[:, None])

        a, b = bseg[:-1], bseg[1:]
        k = rng.integers(0, len(a), n)
        on = a[k] + rng.uniform(0.0, 1.0, (n, 1)) * (b[k] - a[k])
        s = rng.uniform(0.0, 1.0, (n, 1))
        # Through a barrier point, spanning 2 to 60 cells.
        d = directions(2.0, 60.0)
        groups = {"long": (on - s * d, on + (1.0 - s) * d)}
        # Ending at, starting at or passing through a thinned-barrier vertex.
        v = bseg[rng.integers(0, len(bseg), n)]
        d = directions(1e-4, 3.0)
        groups["vertex"] = (
            np.concatenate([v - d, v, v - s * d]),
            np.concatenate([v, v + d, v + (1.0 - s) * d]),
        )
        # Starting off the grid: toward a barrier point and a little past
        # it, or wholly outside.
        lo = test.origin
        hi = test.origin + cell * np.array(test.shape)
        far = rng.uniform(lo - 1.0, hi + 1.0, (4 * n, 2))
        far = far[((far < lo) | (far >= hi)).any(axis=1)][:n]
        to = on[: len(far)] - far
        beyond = rng.uniform(0.0, 2.0, (len(far), 1)) * cell / np.hypot(*to.T)[:, None]
        past = far + to * (1.0 + beyond)
        groups["off_grid"] = (
            np.concatenate([far, far]),
            np.concatenate([past, far + rng.normal(scale=0.05, size=far.shape)]),
        )
        for name, (starts, ends) in groups.items():
            args = (starts[:, 0], starts[:, 1], ends[:, 0], ends[:, 1])
            want = test.exact(*args)
            assert want.sum() > 0.2 * len(starts), name  # the set is not all misses
            assert np.array_equal(test(*args), want), name


def _geometry_digest():
    """The benchmark's sha256 over every array and scalar of a geometry."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import geometry_digest
    finally:
        sys.path.pop(0)
    return geometry_digest


def test_secondary_members_share_one_read_only_tau_grid(geom_03, geom_02):
    for geom in (geom_03, geom_02):
        chars = geom.secondary_fan.trajectories
        grid = chars[0].tau.base
        assert grid is not None and not grid.flags.writeable
        longest = max(len(ch.tau) for ch in chars)
        for ch in chars:
            assert ch.tau.base is grid and not ch.tau.flags.writeable
            assert np.shares_memory(ch.tau, grid) and ch.tau[0] == 0.0
        # The same bytes as one copied prefix of k * d_tau per member.
        grid_bits = np.arange(longest) * 1e-3
        assert grid[:longest].tobytes() == grid_bits.tobytes()
        copied = dataclasses.replace(
            geom.secondary_fan,
            trajectories=[dataclasses.replace(ch, tau=grid_bits[: len(ch.tau)].copy()) for ch in chars],
        )
        digest = _geometry_digest()
        assert digest(geom) == digest(dataclasses.replace(geom, secondary_fan=copied))


class TestGeometryCsvBytes:
    def test_matches_a_csv_writer_rendering(self, params_03, tmp_path):
        g = solve(params_03, n_phi=20, d_tau=5e-3)
        path = tmp_path / "geom.csv"
        g.to_csv(str(path))
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(GEOMETRY_CSV_HEADER.split(","))
        curves = [("barrier", 0, g.barrier), ("equivocal", 0, g.equivocal)]
        for fan in (g.primary_fan, g.secondary_fan):
            curves += [(fan.family, bid, ch) for bid, ch in enumerate(fan.trajectories)]
        for family, bid, curve in curves:
            for (x, y), tau in zip(curve.points, curve.tau):
                w.writerow([family, bid, f"{tau:.9g}", f"{x:.9g}", f"{y:.9g}"])
        assert path.read_bytes() == buf.getvalue().encode()


@pytest.mark.xfail(
    strict=True,
    reason="value() prices a pocket point next to the capture arc by its dive "
    "to the pocket wall, but truthful closed-loop play from there captures "
    "almost at once through the arc",
)
@pytest.mark.parametrize("x, y", [(0.507, 0.219), (0.477, 0.278)])
def test_value_next_to_the_capture_arc(params_03, geom_03, x, y):
    from chauffeur.sim import Scenario, run_closed_loop
    from chauffeur.strategy import EvaderPolicy

    s = RelState(x, y)
    v = geom_03.value(s)
    sc = Scenario(
        params_truth=params_03,
        params_low=params_03,
        initial_rel=s,
        evader_policy=EvaderPolicy(kind="truthful"),
        pursuer_mode="informed",
        dt=1e-3,
        t_max=max(20.0, 10.0 * v),
    )
    tr = run_closed_loop(sc, geom_03, geom_03)
    assert tr.capture_time is not None
    assert abs(tr.capture_time - v) < 5e-3 * (1.0 + v)
