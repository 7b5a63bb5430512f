"""Checks of the characteristic fans against independent re-integrations,
of RK4's convergence to the fans' closed form, of the barrier stop filter
(its bounding-box pairs against the all-segments test, on built fans and on
degenerate steps), of the secondary fan's tau grid, and of the geometry CSV
bytes."""

import csv
import dataclasses
import importlib.util
import io
import math
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

import chauffeur.solution as solution
from chauffeur.core import RelState, validate_params
from chauffeur.solution import (
    GEOMETRY_CSV_HEADER,
    Characteristic,
    CharacteristicField,
    _barrier_stop,
    _crosses,
    compute_barrier,
    compute_primary_fan,
    compute_secondary_fan_and_equivocal,
    secondary_heading,
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

    # The first four pairs each have one anchor where a vectorised arctan
    # rounds c one ulp apart from _junction_tilt; the reference pairs have
    # none.
    @pytest.mark.parametrize(
        "mu, l", [(0.25, 0.5), (0.1, 0.6), (0.2, 0.3), (0.5, 0.4), (0.3, 0.5), (0.2, 0.5)]
    )
    def test_junction_phase_is_the_heading_at_the_anchor(self, monkeypatch, mu, l):
        # Each junction member's phase c, as the fan integrates it, is the
        # heading secondary_heading gives at tau = 0, bit for bit.  Phases,
        # not samples, are compared: a member re-evaluated alone can differ
        # from its stored samples in the last bit at a chunk's first sample.
        p = validate_params(mu, l)
        barrier = compute_barrier(p)
        real, phases = solution._integrate_fan, []

        def recording(x0, y0, u, c, mu, taus, stop=None):
            phases.append(c)
            return real(x0, y0, u, c, mu, taus, stop)

        monkeypatch.setattr(solution, "_integrate_fan", recording)
        fan, _ = compute_secondary_fan_and_equivocal(p, barrier)
        junction = [ch for ch in fan.trajectories if ch.terminal == "equivocal"]
        assert len(phases) == 2 and len(phases[0]) == len(junction) > 100
        got = [float.hex(c) for c in phases[0].tolist()]
        assert got == [float.hex(secondary_heading(ch, 0.0)) for ch in junction]


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


def _all_segments(bseg, px, py, qx, qy):
    """Reference barrier test: :func:`_crosses` of every step segment
    (p -> q, arrays of any one shape) against every thinned segment."""
    a, b = bseg[:-1], bseg[1:]
    col = (np.asarray(v)[..., None] for v in (px, py, qx, qy))
    return _crosses(*col, a[:, 0], a[:, 1], b[:, 0], b[:, 1]).any(axis=-1)


def _fan_views(starts, ends, n_steps):
    """Consecutive (start, end) pairs as ``(rows, n_steps)`` blocks, passed
    as the non-contiguous views :func:`_integrate_fan` hands its stop rule."""
    seg = np.stack([starts, ends], axis=1).reshape(-1, n_steps, 2, 2)
    return seg[:, :, 0, 0], seg[:, :, 0, 1], seg[:, :, 1, 0], seg[:, :, 1, 1]


class TestBarrierBoxFilter:
    def _segments(self, bseg, rng):
        """Short segments around the thinned barrier: random ones near it,
        ones through its vertices, ones ending on it (some about 0.01
        long), plus some longer ones."""
        a, b = bseg[:-1], bseg[1:]
        k = rng.integers(0, len(a), 3000)
        on = a[k] + rng.uniform(0.0, 1.0, (3000, 1)) * (b[k] - a[k])
        d = rng.normal(size=(3000, 2))
        d *= rng.uniform(1e-4, 8e-3, (3000, 1)) / np.hypot(d[:, 0], d[:, 1])[:, None]
        near_p = on + rng.normal(scale=0.01, size=(3000, 2))
        s = rng.uniform(0.0, 1.0, (3000, 1))
        vtx = bseg[rng.integers(0, len(bseg), 3000)]
        long_d = d * rng.uniform(2.0, 12.0, (3000, 1))
        cell_d = d / np.abs(d).max(axis=1, keepdims=True) * rng.uniform(0.9, 1.0, (3000, 1))
        cell_d *= 0.01 * (1.0 - 1e-9)
        starts = np.concatenate([near_p, vtx - s * d, on - d, on + d, on - long_d, on - cell_d])
        ends = np.concatenate(
            [near_p + d, vtx + (1.0 - s) * d, on, on, on + 0.3 * long_d, on]
        )
        return starts, ends

    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_same_hits_as_the_unfiltered_test(self, which, request, rng):
        geom = request.getfixturevalue(which)
        test = _barrier_stop(geom.barrier.points)
        bseg = _thinned_barrier(geom.barrier.points)
        starts, ends = self._segments(bseg, rng)
        args = (starts[:, 0], starts[:, 1], ends[:, 0], ends[:, 1])
        want = _all_segments(bseg, *args)
        assert want.sum() > 3000  # the set is not all misses
        # One step per row, then 60 rows of 200 steps.
        assert np.array_equal(test(*(v[:, None] for v in args)), want[:, None])
        grid = tuple(v[:12000].reshape(60, 200) for v in args)
        assert np.array_equal(test(*grid), want[:12000].reshape(60, 200))
        views = _fan_views(starts[:12000], ends[:12000], 120)
        assert not views[0].flags.c_contiguous
        assert np.array_equal(test(*views), want[:12000].reshape(100, 120))

    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_same_hits_on_long_and_vertex_segments(self, which, request, rng):
        geom = request.getfixturevalue(which)
        test = _barrier_stop(geom.barrier.points)
        bseg = _thinned_barrier(geom.barrier.points)
        n = 2000

        def directions(lo, hi):
            d = rng.normal(size=(n, 2))
            return d * (rng.uniform(lo, hi, (n, 1)) * 0.01 / np.hypot(d[:, 0], d[:, 1])[:, None])

        a, b = bseg[:-1], bseg[1:]
        k = rng.integers(0, len(a), n)
        on = a[k] + rng.uniform(0.0, 1.0, (n, 1)) * (b[k] - a[k])
        s = rng.uniform(0.0, 1.0, (n, 1))
        # Through a barrier point, 0.02 to 0.6 long.
        d = directions(2.0, 60.0)
        groups = {"long": (on - s * d, on + (1.0 - s) * d)}
        # Ending at, starting at or passing through a thinned-barrier vertex.
        v = bseg[rng.integers(0, len(bseg), n)]
        d = directions(1e-4, 3.0)
        groups["vertex"] = (
            np.concatenate([v - d, v, v - s * d]),
            np.concatenate([v, v + d, v + (1.0 - s) * d]),
        )
        for name, (starts, ends) in groups.items():
            args = (starts[:, 0], starts[:, 1], ends[:, 0], ends[:, 1])
            want = _all_segments(bseg, *args)
            assert want.sum() > 0.2 * len(starts), name  # the set is not all misses
            assert np.array_equal(test(*(v[:, None] for v in args)), want[:, None]), name
            views = _fan_views(starts, ends, 40)
            assert np.array_equal(test(*views), want.reshape(-1, 40)), name

    def test_same_hits_on_degenerate_and_near_parallel_steps(self, rng):
        # A barrier with a vertical, a horizontal and a zero-length segment:
        # their boxes have no width or no height before padding.
        bseg = np.array(
            [[0.6, 0.2], [0.6, 0.5], [0.9, 0.5], [0.9, 0.5], [1.3, 0.8], [1.2, 1.1], [1.5, 1.4]]
        )
        test = _barrier_stop(bseg)
        n = 400
        a, b = bseg[:-1], bseg[1:]
        k = rng.integers(0, len(a), n)
        w = rng.uniform(0.0, 1.0, (n, 1))
        on = a[k] + w * (b[k] - a[k])
        h = rng.uniform(-2e-3, 2e-3, (n, 1))
        vtx = bseg[rng.integers(0, len(bseg), n)]
        d = rng.normal(size=(n, 2))
        d *= 1e-3 / np.hypot(d[:, 0], d[:, 1])[:, None]
        s, r = b[k] - a[k], rng.uniform(0.0, 1.0, (n, 1))
        # Near-parallel: a step 1e-3 long, turned off its segment's direction
        # by an angle that puts |r x s| just above _crosses' 1e-14 cut.
        length = np.maximum(np.hypot(s[:, 0], s[:, 1]), 1e-300)[:, None]
        theta = rng.uniform(1.0, 3.0, (n, 1)) * 1e-14 / (1e-3 * length)
        c, si = np.cos(theta), np.sin(theta)
        u = s / length
        r_dir = np.hstack([c * u[:, :1] - si * u[:, 1:], si * u[:, :1] + c * u[:, 1:]]) * 1e-3
        step = np.full_like(h, 1e-3)
        groups = {
            "zero_length": (on, on.copy()),
            "vertical": (on + np.hstack([h, -step]), on + np.hstack([h, step])),
            "horizontal": (on + np.hstack([-step, h]), on + np.hstack([step, h])),
            "ends_on_vertex": (vtx - d, vtx.copy()),
            "starts_on_vertex": (vtx.copy(), vtx + d),
            "collinear": (a[k] + 0.25 * s, a[k] + 0.75 * s),
            "near_parallel": (on - r * r_dir, on + (1.0 - r) * r_dir),
        }
        # Steps 10 long that stop one ulp short of the vertical and the
        # horizontal segment: the rounded t is exactly 1, a hit, though the
        # step's box does not reach the segment's unpadded one.
        half = rng.uniform(0.0, 1.0, n // 2)
        short = np.concatenate(
            [
                np.stack([np.full(n // 2, np.nextafter(0.6, 0.0)), 0.2 + 0.3 * half], axis=1),
                np.stack([0.6 + 0.3 * half, np.full(n // 2, np.nextafter(0.5, 0.0))], axis=1),
            ]
        )
        back = np.repeat([[10.0, 0.0], [0.0, 10.0]], n // 2, axis=0)
        groups["one_ulp_short"] = (short - back, short)
        for name, (starts, ends) in groups.items():
            args = (starts[:, 0], starts[:, 1], ends[:, 0], ends[:, 1])
            want = _all_segments(bseg, *args)
            if name == "one_ulp_short":
                assert want.all()
            if name in ("vertical", "horizontal", "ends_on_vertex", "near_parallel"):
                assert want.any(), name  # the set is not all misses
            # One-step rows of vertical or horizontal steps have a box of
            # zero width or height.
            assert np.array_equal(test(*(v[:, None] for v in args)), want[:, None]), name
            views = _fan_views(starts, ends, 20)
            assert np.array_equal(test(*views), want.reshape(-1, 20)), name
        denom = r_dir[:, 0] * s[:, 1] - r_dir[:, 1] * s[:, 0]
        assert ((np.abs(denom) > 1e-14) & (np.abs(denom) < 1e-13)).sum() > n // 4

    @pytest.mark.parametrize("mu, l", [(0.3, 0.5), (0.2, 0.5), (0.4, 0.5), (0.35, 0.7)])
    def test_same_hits_on_every_stop_call_of_a_build(self, monkeypatch, mu, l):
        real, calls = solution._barrier_stop, []

        def recording(points):
            test, bseg = real(points), _thinned_barrier(points)

            def stop(px, py, qx, qy):
                hit = test(px, py, qx, qy)
                want = _all_segments(bseg, px, py, qx, qy)
                calls.append((px.flags.c_contiguous, px.shape, int(want.sum())))
                assert np.array_equal(hit, want)
                return hit

            return stop

        p = validate_params(mu, l)
        barrier = compute_barrier(p)
        monkeypatch.setattr(solution, "_barrier_stop", recording)
        compute_secondary_fan_and_equivocal(p, barrier)
        # Real blocks: many characteristics by one chunk of steps, as views.
        rows, steps = calls[0][1]
        assert len(calls) > 10 and rows > 100 and steps == solution._FAN_CHUNK
        assert not any(contiguous for contiguous, _, _ in calls)
        assert sum(hits for _, _, hits in calls) > 0


def _geometry_digest():
    """The benchmark's sha256 over every array and scalar of a geometry."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import geometry_digest
    finally:
        sys.path.pop(0)
    return geometry_digest


@pytest.mark.parametrize("which", ["geom_03", "geom_02"])
def test_secondary_members_end_on_a_wall_before_the_span(which, request):
    # _SECONDARY_TAU_MAX only bounds the grid: every member is cut by its
    # stop rule first, so the span shapes no characteristic.
    chars = request.getfixturevalue(which).secondary_fan.trajectories
    n_grid = int(round(solution._SECONDARY_TAU_MAX / 1e-3)) + 1
    assert max(len(ch.tau) for ch in chars) < n_grid // 2


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


@pytest.mark.parametrize("which", ["geom_03", "geom_02"])
def test_secondary_fan_pickles_its_tau_grid_once(which, request):
    # The members' tau prefixes go into the pickle as one grid and come
    # back as read-only views of one grid, with the same bits.
    geom = request.getfixturevalue(which)
    fan = geom.secondary_fan
    grid = fan.trajectories[0].tau.base
    data = pickle.dumps(fan)
    points = sum(ch.points.nbytes for ch in fan.trajectories)
    assert len(data) < points + grid.nbytes + 200 * len(fan.trajectories)
    back = pickle.loads(pickle.dumps(geom))
    chars = back.secondary_fan.trajectories
    shared = chars[0].tau.base
    assert shared is not None and not shared.flags.writeable
    for ch, orig in zip(chars, fan.trajectories, strict=True):
        assert ch.tau.base is shared and not ch.tau.flags.writeable
        assert ch.tau.tobytes() == orig.tau.tobytes()
    assert _geometry_digest()(back) == _geometry_digest()(geom)
    assert pickle.dumps(back.secondary_fan) == data


def test_a_field_without_one_prefix_grid_pickles_each_tau():
    # Taus that are not all prefix views of one array keep numpy's own
    # pickling: an offset view keeps its values, a copy stays unshared.
    grid = np.arange(6) * 0.5
    grid.flags.writeable = False
    pts = np.zeros((3, 2))
    for taus in ([grid[:3], grid[1:4]], [grid[:3], grid[:3].copy()], [grid[:3], grid[::2]]):
        fan = CharacteristicField(
            "secondary", [Characteristic(pts, tau, "equivocal", 0.0) for tau in taus]
        )
        back = pickle.loads(pickle.dumps(fan))
        for ch, tau in zip(back.trajectories, taus, strict=True):
            assert ch.tau.tobytes() == tau.tobytes() and ch.tau.base is None


def _digest_pairs():
    """``DIGEST_PAIRS`` of ``scripts/bitwise_outputs.py``."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "bitwise_outputs.py"
    spec = importlib.util.spec_from_file_location("bitwise_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DIGEST_PAIRS


# The (mu, l) pairs whose geometries the acceptance module's criterion 2 builds.
CRITERION_2_PAIRS = (
    (0.3, 0.5), (0.2, 0.5), (0.4, 0.5), (0.25, 0.5), (0.35, 0.7),
    (0.2, 0.7), (0.25, 0.6), (0.15, 0.6), (0.5, 0.4), (0.35, 0.4),
)


def _eager_primary(p, n_phi=200, d_tau=1e-3):
    """The primary family's phases, tau grid and samples, restated from the
    construction and evaluated by one _integrate_fan call."""
    phi_bar = math.acos(p.mu)
    phis = np.linspace(phi_bar / n_phi, phi_bar, n_phi)
    taus = np.linspace(0.0, p.l / p.mu, int(round(p.l / p.mu / d_tau)) + 1)
    cube, _ = solution._integrate_fan(p.l * np.sin(phis), p.l * np.cos(phis), 1.0, phis, p.mu, taus)
    return phis, taus, cube


class TestPrimaryFanOnDemand:
    """The primary fan keeps its closed-form inputs and samples on read."""

    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_read_equals_one_eager_call(self, which, request):
        geom = request.getfixturevalue(which)
        fan = geom.primary_fan
        phis, taus, cube = _eager_primary(geom.params)
        assert fan.phis.tobytes() == phis.tobytes()
        assert fan.tau.tobytes() == taus.tobytes()
        chars = fan.trajectories
        assert len(chars) == len(phis)
        for i, ch in enumerate(chars):
            assert ch.points.tobytes() == cube[i].tobytes()
            assert ch.tau is fan.tau
            assert float.hex(ch.phi) == float.hex(float(phis[i]))
            assert (ch.terminal, ch.anchor_value, ch.anchor) == ("usable_part", 0.0, None)
        eager = CharacteristicField(
            family="primary",
            trajectories=[
                dataclasses.replace(ch, points=cube[i].copy(), tau=taus)
                for i, ch in enumerate(chars)
            ],
        )
        digest = _geometry_digest()
        assert digest(geom) == digest(dataclasses.replace(geom, primary_fan=eager))

    @pytest.mark.parametrize("pair", sorted(set(_digest_pairs()) | set(CRITERION_2_PAIRS)))
    def test_innermost_member_alone_is_the_stored_one(self, pair):
        # A member evaluated alone can differ in the last bit from the same
        # member evaluated with its family; the petal's is pinned here.
        fan = compute_primary_fan(validate_params(*pair))
        assert fan.innermost().tobytes() == fan.trajectories[0].points.tobytes()

    def test_solve_samples_the_innermost_member_only(self, monkeypatch, params_03):
        real_fan, real_polygons = solution._integrate_fan, solution._build_polygons
        primary_rows, inner = [], []

        def recording(x0, y0, u, c, mu, taus, stop=None):
            if u == 1.0:
                primary_rows.append(c.tolist())
            return real_fan(x0, y0, u, c, mu, taus, stop)

        def polygons(p, barrier, equivocal, inner_member):
            inner.append(inner_member)
            return real_polygons(p, barrier, equivocal, inner_member)

        monkeypatch.setattr(solution, "_integrate_fan", recording)
        monkeypatch.setattr(solution, "_build_polygons", polygons)
        geom = solve(params_03)
        fan = geom.primary_fan
        assert primary_rows == [[float(fan.phis[0])]]
        monkeypatch.setattr(solution, "_integrate_fan", real_fan)
        assert inner[0].tobytes() == fan.trajectories[0].points.tobytes()

    def test_pickle_carries_no_samples(self, geom_03):
        fan = geom_03.primary_fan
        data = pickle.dumps(fan)
        assert len(data) < fan.phis.nbytes + fan.tau.nbytes + 4096
        back = pickle.loads(pickle.dumps(geom_03))
        digest = _geometry_digest()
        assert digest(back) == digest(geom_03)
        assert pickle.dumps(back.primary_fan) == data

    def test_in_place_write_is_one_fan_xy_call_per_chunk(self, params_03):
        # While every row is live _integrate_fan writes a chunk in place;
        # the bits are those of one _fan_xy call per chunk over the same
        # row and time blocks.
        phis, taus, cube = _eager_primary(params_03, n_phi=13, d_tau=3e-3)
        rows = np.arange(len(phis))[:, None]
        x0, y0 = params_03.l * np.sin(phis), params_03.l * np.cos(phis)
        ref = np.empty_like(cube)
        ref[:, 0] = np.stack([x0, y0], axis=1)
        for k0 in range(0, len(taus) - 1, solution._FAN_CHUNK):
            t = taus[k0 + 1 : k0 + 1 + solution._FAN_CHUNK]
            xs, ys = solution._fan_xy(x0[rows], y0[rows], 1.0, phis[rows], params_03.mu, t)
            ref[:, k0 + 1 : k0 + 1 + len(t), 0] = xs
            ref[:, k0 + 1 : k0 + 1 + len(t), 1] = ys
        assert cube.tobytes() == ref.tobytes()


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
    reason="no admissible rear characteristic reaches the strip between the "
    "capture arc and the innermost rear member (the exact rear inverse puts "
    "these points on members that pass inside the capture disc), so value() "
    "falls to its dive, while truthful play follows the grazing "
    "characteristic and is captured almost at once (the strip item in ROADMAP)",
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
