import contextlib
import csv
import dataclasses
import math
import pickle
import re
import sys

import numpy as np
import pytest

from chauffeur import solution
from chauffeur.core import RelState, rel_rhs, validate_params
from chauffeur.sim import Scenario, run_closed_loop
from chauffeur.solution import (
    CAPTURED,
    DISPERSAL,
    EQUIVOCAL,
    GEOMETRY_CSV_HEADER,
    PRIMARY,
    SECONDARY,
    SIDE_DEADBAND,
    TRIBUTARY,
    UNIVERSAL_NEGATIVE,
    UNIVERSAL_POSITIVE,
    BarrierMarchError,
    EqualCostBracketError,
    NearestSampleError,
    PrimaryRootError,
    _bisect,
    _CurveIndex,
    _fan_xy,
    _march_equivocal,
    _Polygon,
    _project,
    _rk4_equivocal,
    _SortedVertices,
    _tributary_value_raw,
    bup_angle,
    bup_point,
    compute_barrier,
    compute_primary_fan,
    compute_secondary_fan_and_equivocal,
    dubins_cs_turn_time,
    primary_inverse,
    solve,
    turn_alignment,
)
from chauffeur.strategy import EvaderPolicy, feedback_pair
from rk4_kernel import rk4_step


class TestUsablePart:
    def test_bup_angle_and_point(self, params_03):
        # Independent closed form: l*sin(acos(mu)) = l*sqrt(1 - mu^2).
        assert abs(bup_angle(params_03) - 1.2661036727794992) < 1e-12
        bx, by = bup_point(params_03)
        assert abs(bx - 0.5 * math.sqrt(1.0 - 0.09)) < 1e-12
        assert abs(bx - 0.47696960070847283) < 1e-9
        assert abs(by - 0.15) < 1e-12

    def test_usable_part_degenerates_as_mu_tends_to_one(self):
        p = validate_params(0.99, 0.05)
        assert bup_angle(p) < 0.15

    def test_second_parameter_pair(self, params_02):
        bx, by = bup_point(params_02)
        assert abs(bx - 0.5 * math.sqrt(1.0 - 0.04)) < 1e-12
        assert abs(bx - 0.48989794855663565) < 1e-9
        assert abs(by - 0.10) < 1e-12


def _oracle_barrier_point(p, tau_target, n_steps):
    """Independent fine-step RK4 of the retrograde barrier equations."""
    phi = math.acos(p.mu)
    x = p.l * math.sin(phi)
    y = p.l * math.cos(phi)
    h = tau_target / n_steps
    tau = 0.0

    def f(x_, y_, tau_):
        a = phi + tau_
        return y_ - p.mu * math.sin(a), -x_ + 1.0 - p.mu * math.cos(a)

    for _ in range(n_steps):
        k1 = f(x, y, tau)
        k2 = f(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1], tau + 0.5 * h)
        k3 = f(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1], tau + 0.5 * h)
        k4 = f(x + h * k3[0], y + h * k3[1], tau + h)
        x += h / 6.0 * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        y += h / 6.0 * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        tau += h
    return x, y


def _primary_retro(p, x, y, tau, phi):
    """Retrograde field (d/dtau = -d/dt) of the (u, psi) = (+1, phi + tau) family."""
    fx, fy = rel_rhs(x, y, 1.0, phi + tau, p.mu)
    return -fx, -fy


class TestBarrier:
    def test_starts_at_bup(self, params_03, geom_03):
        b = geom_03.barrier
        bx, by = bup_point(params_03)
        assert abs(b.points[0, 0] - bx) < 1e-12
        assert abs(b.points[0, 1] - by) < 1e-12
        assert b.tau[0] == 0.0

    def test_tangent_to_capture_circle_at_bup(self, params_03):
        # The retrograde velocity at tau=0 is perpendicular to the radius.
        bx, by = bup_point(params_03)
        vx, vy = _primary_retro(params_03, bx, by, 0.0, bup_angle(params_03))
        dot = (bx * vx + by * vy) / (math.hypot(bx, by) * math.hypot(vx, vy))
        assert abs(dot) < 1e-6

    def test_against_tenfold_finer_oracle(self, params_03):
        b = compute_barrier(params_03, d_tau=1e-3)
        k = int(round(0.5 / 1e-3))
        assert abs(b.tau[k] - 0.5) < 1e-12
        ox, oy = _oracle_barrier_point(params_03, 0.5, 5000)
        assert math.hypot(b.points[k, 0] - ox, b.points[k, 1] - oy) < 1e-8

    def test_step_size_rejection(self, params_03):
        with pytest.raises(ValueError, match="d_tau"):
            compute_barrier(params_03, d_tau=0.01)

    def test_tau_strictly_increasing(self, geom_03):
        assert np.all(np.diff(geom_03.barrier.tau) > 0.0)

    def test_a_tangent_that_never_turns_is_named(self, monkeypatch, params_03):
        # With every sample at (2, 2), dx/dtau = 2 - mu sin(psi) stays
        # positive outside the turn disc, so the endpoint test arms and never
        # fires.
        def never_turns(x0, y0, u, c, mu, t):
            return np.full(np.shape(t), 2.0), np.full(np.shape(t), 2.0)

        monkeypatch.setattr(solution, "_fan_xy", never_turns)
        with pytest.raises(BarrierMarchError, match="failed to terminate"):
            compute_barrier(params_03)

    def test_endpoint_is_local_x_maximum(self, params_03, geom_03):
        # dx/dtau changes sign from positive to negative at the endpoint.
        b = geom_03.barrier
        phi = bup_angle(params_03)
        xe, ye = b.points[-1]
        te = b.tau[-1]
        assert abs(_primary_retro(params_03, xe, ye, te, phi)[0]) < 1e-9
        xm, ym = b.points[-10]
        tm = b.tau[-10]
        assert _primary_retro(params_03, xm, ym, tm, phi)[0] > 0.0

    @pytest.mark.parametrize("which", ["03", "02"])
    def test_leaves_the_turn_disc_at_l_over_mu(self, which, request):
        # On the barrier |(x - 1) + i y|^2 - 1 = (l - mu tau)(l - mu tau -
        # 2 sqrt(1 - mu^2)), negative before l/mu and positive after it: the
        # primary family collapses onto the barrier there, and solve() takes
        # it as the focal time.  Checked on the independent RK4 oracle.
        p = request.getfixturevalue(f"params_{which}")
        tf = p.l / p.mu
        assert request.getfixturevalue(f"geom_{which}").tau_focal == tf
        root = math.sqrt(1.0 - p.mu * p.mu)
        for tau in (0.3 * tf, tf - 1e-6, tf + 1e-6, 1.3 * tf):
            x, y = _oracle_barrier_point(p, tau, int(round(tau / 1e-4)))
            g = p.l - p.mu * tau
            assert abs((x - 1.0) ** 2 + y * y - 1.0 - g * (g - 2.0 * root)) < 1e-11, tau
            assert ((x - 1.0) ** 2 + y * y < 1.0) == (tau < tf), tau

    @pytest.mark.parametrize("which", ["params_03", "params_02"])
    def test_closed_form_against_the_oracle(self, which, request):
        # Fine-step RK4 of the barrier's own equations, at grid times and at
        # the bisected endpoint.
        p = request.getfixturevalue(which)
        b = compute_barrier(p, d_tau=1e-3)
        for k in (250, 900, 1600, len(b.tau) - 2, len(b.tau) - 1):
            tau = float(b.tau[k])
            ox, oy = _oracle_barrier_point(p, tau, int(round(tau / 1e-4)))
            assert math.hypot(b.points[k, 0] - ox, b.points[k, 1] - oy) < 1e-10, (k, tau)

    @pytest.mark.parametrize("d_tau", [1e-3, 4e-3, 9e-3])
    @pytest.mark.parametrize("which", ["params_03", "params_02"])
    def test_tau_grid_is_the_accumulated_step_grid(self, which, d_tau, request):
        b = compute_barrier(request.getfixturevalue(which), d_tau=d_tau)
        grid = [0.0]
        while len(grid) < len(b.tau):
            grid.append(grid[-1] + d_tau)
        # The endpoint lies inside the last step of the grid.
        assert np.array_equal(b.tau[:-1], grid[:-1])
        assert grid[-2] < b.tau[-1] <= grid[-1]

    @pytest.mark.parametrize("which", ["params_03", "params_02"])
    @pytest.mark.parametrize(
        "d_tau, chunk", [(1e-3, 128), (3e-3, 128), (7e-4, 128), (1e-3, 1), (3e-3, 7)]
    )
    def test_chunked_stop_rule_matches_the_step_by_step_rule(
        self, which, d_tau, chunk, request, monkeypatch
    ):
        # The arming and endpoint tests run on whole chunks of steps; the
        # reference takes them one step at a time.
        # Short chunks put the arming and the endpoint on chunk edges.
        monkeypatch.setattr(solution, "_FAN_CHUNK", chunk)
        p = request.getfixturevalue(which)
        phi, (x0, y0) = bup_angle(p), bup_point(p)

        def at(t):
            x, y = _fan_xy(x0, y0, 1.0, phi, p.mu, t)
            return float(x), float(y), _primary_retro(p, float(x), float(y), t, phi)[0]

        taus, armed, tau = [0.0], False, 0.0
        while True:
            x, y, dx = at(tau + d_tau)
            if armed and dx <= 0.0:
                lo, hi = 0.0, d_tau
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (lo, mid) if at(tau + mid)[2] <= 0.0 else (mid, hi)
                taus.append(tau + hi)
                break
            armed = armed or ((x - 1.0) ** 2 + y**2 >= 1.0 and dx > 0.0)
            tau += d_tau
            taus.append(tau)
        b = compute_barrier(p, d_tau=d_tau)
        assert len(b.tau) == len(taus)
        assert np.array_equal(b.tau[:-1], taus[:-1])
        assert abs(b.tau[-1] - taus[-1]) <= 1e-15
        assert abs(_primary_retro(p, *b.points[-1], b.tau[-1], phi)[0]) < 1e-9


class TestPrimaryFan:
    def test_limit_member_coincides_with_barrier(self, params_03, geom_03):
        fan = geom_03.primary_fan
        last = fan.trajectories[-1]
        assert abs(last.phi - bup_angle(params_03)) < 1e-12
        b = geom_03.barrier
        # The fan and barrier use slightly different tau grids; compare the
        # fan member against the barrier interpolated at the fan's taus.
        bx = np.interp(last.tau, b.tau, b.points[:, 0])
        by = np.interp(last.tau, b.tau, b.points[:, 1])
        d = np.hypot(last.points[:, 0] - bx, last.points[:, 1] - by)
        assert d.max() < 1e-5

    def test_axis_member_initial_velocity(self, params_03):
        # At phi = 0 the retrograde velocity at the usable part is (l, 1-mu).
        vx, vy = _primary_retro(params_03, 0.0, params_03.l, 0.0, 0.0)
        assert abs(vx - params_03.l) < 1e-15
        assert abs(vy - (1.0 - params_03.mu)) < 1e-15

    def test_fan_validation(self, params_03):
        with pytest.raises(ValueError, match="n_phi"):
            compute_primary_fan(params_03, n_phi=1)
        # Any integer type of at least 2 is a member count.
        for n_phi in (2, np.int64(3)):
            assert len(compute_primary_fan(params_03, n_phi=n_phi).phis) == n_phi

    def test_characteristics_anchor_on_usable_part(self, params_03, geom_03):
        for ch in geom_03.primary_fan.trajectories[::20]:
            x0, y0 = ch.points[0]
            assert abs(math.hypot(x0, y0) - params_03.l) < 1e-12
            assert ch.tau[0] == 0.0

    def test_no_crossings_at_equal_tau(self, geom_03):
        # Distinct members keep a positive gap at equal time-to-go (checked
        # well short of the shared focal endpoint where the family meets).
        fan = geom_03.primary_fan
        pts = np.stack([ch.points for ch in fan.trajectories])  # (n_phi, n_t, 2)
        upto = int(pts.shape[1] * 0.95)
        for k in range(0, upto, 100):
            layer = pts[:, k, :]
            gaps = np.linalg.norm(np.diff(layer, axis=0), axis=1)
            assert gaps.min() > 0.0

    def test_value_along_characteristic_matches_simulation(self, params_03, geom_03):
        from chauffeur.sim import Scenario, run_closed_loop
        from chauffeur.strategy import EvaderPolicy

        ch = geom_03.primary_fan.trajectories[100]
        k = int(round(0.3 / (ch.tau[1] - ch.tau[0])))
        s = RelState(*ch.points[k])
        tau_here = float(ch.tau[k])
        assert abs(tau_here - 0.3) < 1e-3
        sc = Scenario(
            params_truth=params_03,
            params_low=params_03,
            initial_rel=s,
            evader_policy=EvaderPolicy(kind="truthful"),
            pursuer_mode="informed",
            dt=1e-3,
            t_max=5.0,
        )
        tr = run_closed_loop(sc, geom_03, geom_03)
        assert tr.capture_time is not None
        assert abs(tr.capture_time - tau_here) < 1e-3

    def test_members_share_one_read_only_tau_grid(self, params_03):
        fan = compute_primary_fan(params_03, n_phi=8, d_tau=4e-3)
        tau = fan.trajectories[0].tau
        assert all(ch.tau is tau for ch in fan.trajectories)
        assert not tau.flags.writeable
        assert tau[-1] == params_03.l / params_03.mu


    @pytest.mark.parametrize("pair", [(0.3, 0.5), (0.2, 0.5), (0.4, 0.5), (0.35, 0.7)])
    def test_members_end_at_the_focal_point(self, pair):
        # At tau = l/mu the capture gap l - mu tau closes, so q = w exp(i
        # tau) + 1 = 0 for every phi: the whole family meets at (1 - cos
        # tau, sin tau), where its span ends.
        p = validate_params(*pair)
        tf = p.l / p.mu
        fan = compute_primary_fan(p, n_phi=16, d_tau=5e-3)
        focal = np.array([1.0 - math.cos(tf), math.sin(tf)])
        for ch in fan.trajectories:
            assert ch.tau[-1] == tf
            assert np.abs(ch.points[-1] - focal).max() < 1e-12, ch.phi


def _primary_gap(p, x, y, tau):
    """|q| - (l - mu tau) with q = ((x - 1) + i y) exp(i tau) + 1, on numpy
    arrays: zero where a primary member reaches (x, y) at tau."""
    q = ((x - 1.0) + 1j * y) * np.exp(1j * tau) + 1.0
    return np.abs(q) - (p.l - p.mu * tau)


def _petal_points(geom, rng, n):
    """Seeded Primary-tagged points: uniform over the petal's box, and as
    many again within 1e-8 to 1e-4 of a petal edge, either side."""
    bx, pts = geom._petal.bbox, geom._petal.pts
    uniform, walls = [], []
    while len(uniform) < n:
        x, y = float(rng.uniform(bx[0], bx[1])), float(rng.uniform(bx[2], bx[3]))
        if geom.classify(RelState(x, y)).tag == PRIMARY:
            uniform.append((x, y))
    while len(walls) < n:
        e = int(rng.integers(0, len(pts)))
        a, b = pts[e], pts[(e + 1) % len(pts)]
        v = b - a
        normal = np.array([-v[1], v[0]]) / np.hypot(*v)
        off = 10.0 ** rng.uniform(-8.0, -4.0) * rng.choice([-1.0, 1.0])
        x, y = (a + rng.uniform() * v + off * normal).tolist()
        if geom.classify(RelState(x, y)).tag == PRIMARY:
            walls.append((x, y))
    return uniform, walls


class TestPrimaryInverse:
    @pytest.mark.parametrize("pair", [(0.3, 0.5), (0.2, 0.5), (0.4, 0.5), (0.35, 0.7)])
    def test_round_trip_on_fan_samples(self, pair):
        # Every 3rd member, every 7th sample and the last two before the
        # focal one.  The phi_bar member (the barrier, where the family
        # folds and f has a double root) and the focal sample (q = 0, phi
        # undefined) are left out.
        p = validate_params(*pair)
        fan = compute_primary_fan(p)
        worst = 0.0
        for ch in fan.trajectories[:-1:3]:
            n = len(ch.tau)
            for k in [*range(0, n - 1, 7), n - 3, n - 2]:
                x, y = ch.points[k].tolist()
                phi, tau = primary_inverse(p, x, y)
                worst = max(worst, abs(phi - ch.phi), abs(tau - ch.tau[k]))
        assert worst < 1e-9

    @pytest.mark.parametrize("which", ["03", "02"])
    def test_every_seeded_primary_point_has_the_first_root(self, which, request, rng):
        # A dense scan over [0, tau) finds no earlier member through the
        # point; at tau one passes within 1e-12, or within 1e-6 at the fold
        # for points just outside the barrier's arc (the petal's chords);
        # phi lies in [0, phi_bar] and value() is tau.
        geom = request.getfixturevalue(f"geom_{which}")
        p = geom.params
        uniform, walls = _petal_points(geom, rng, 1000)
        grid = np.linspace(0.0, p.l / p.mu, 4001)
        folds = 0
        for x, y in uniform + walls:
            phi, tau = primary_inverse(p, x, y)
            assert 0.0 <= phi <= geom.phi_bar and 0.0 <= tau <= p.l / p.mu, (x, y)
            gap = abs(_primary_gap(p, x, y, np.array([tau]))[0])
            assert gap < (1e-6 if phi == geom.phi_bar else 1e-12), (x, y)
            folds += phi == geom.phi_bar
            assert (_primary_gap(p, x, y, grid[grid < tau - 1e-4]) > 0.0).all(), (x, y)
            assert geom.value(RelState(x, y)) == tau
            assert geom.value(RelState(-x, y)) == tau
        assert 0 < folds < 50

    @pytest.mark.parametrize("which", ["03", "02"])
    def test_fold_and_no_root(self, which, request):
        # Barrier samples pushed 1e-3 off the barrier along its normal: on
        # the petal side the first root is a member with phi < phi_bar, on
        # the far side there is none and the named error is raised.  At
        # 1e-7 (the petal polygon's chords lie that close to the arc) the
        # far side gets the barrier's own (phi_bar, tau).
        geom = request.getfixturevalue(f"geom_{which}")
        p, b = geom.params, geom.barrier
        for k in range(100, int(np.searchsorted(b.tau, geom.tau_focal)) - 100, 97):
            (x0, y0), (x1, y1) = b.points[k - 1], b.points[k + 1]
            n = np.array([y1 - y0, x0 - x1]) / math.hypot(x1 - x0, y1 - y0)
            sides = [b.points[k] + s * 1e-3 * n for s in (1.0, -1.0)]
            found = []
            for x, y in sides:
                try:
                    found.append(primary_inverse(p, float(x), float(y)))
                except PrimaryRootError as err:
                    assert "beyond the barrier" in str(err)
                    found.append(None)
            assert found.count(None) == 1, k
            far = found.index(None)
            assert found[1 - far][0] < geom.phi_bar
            x, y = (b.points[k] + (1.0 - 2.0 * far) * 1e-7 * n).tolist()
            phi, tau = primary_inverse(p, x, y)
            assert phi == geom.phi_bar and abs(tau - b.tau[k]) < 1e-4, k

    @pytest.mark.parametrize("which", ["03", "02"])
    def test_value_is_the_closed_loop_capture_time(self, which, request, rng):
        # Independent of the inverse: equilibrium play from seeded Primary
        # points at dt = 1e-3 is captured at value() to within 1e-5 (a
        # nearest-sample lookup is off by up to about 1e-2 here).
        geom = request.getfixturevalue(f"geom_{which}")
        p = geom.params
        for x, y in _petal_points(geom, rng, 20)[0]:
            v = geom.value(RelState(x, y))
            sc = Scenario(p, p, RelState(x, y), EvaderPolicy(kind="truthful"), dt=1e-3, t_max=v + 1.0)
            assert abs(run_closed_loop(sc, geom, geom).capture_time - v) < 1e-5, (x, y)

    def test_states_off_the_family_raise_by_name(self, params_03):
        # Tributary and pocket states: no primary member passes through them.
        assert issubclass(PrimaryRootError, RuntimeError)
        for x, y in ((3.0, 2.0), (1.0, -2.5), (0.5, -0.3), (1.6, -0.6)):
            with pytest.raises(PrimaryRootError):
                primary_inverse(params_03, x, y)

    def test_value_and_feedback_follow_the_member(self, geom_03):
        # On a member the value is its tau and the heading phi + tau.
        ch = geom_03.primary_fan.trajectories[60]
        for k in (200, 900, 1500):
            x, y = ch.points[k].tolist()
            assert geom_03.classify(RelState(x, y)).tag == PRIMARY
            assert abs(geom_03.value(RelState(x, y)) - ch.tau[k]) < 1e-12
            u, psi, _ = feedback_pair(geom_03, RelState(x, y))
            heading = math.remainder(ch.phi + ch.tau[k] - psi, 2.0 * math.pi)
            assert u == 1.0 and abs(heading) < 1e-12


_BAD_STEPS = (math.nan, math.inf, -math.inf, 0.0, -1e-3, 0.01)


class TestStepArguments:
    """The public build functions reject a bad step, by name and value,
    before any closed-form sample or march step."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("built before its arguments were checked")

        monkeypatch.setattr(solution, "_fan_xy", work)
        monkeypatch.setattr(solution, "_march_equivocal", work)

    @pytest.mark.parametrize("d_tau", _BAD_STEPS)
    @pytest.mark.parametrize(
        "build",
        [compute_barrier, compute_primary_fan, compute_secondary_fan_and_equivocal, solve],
        ids=lambda f: f.__name__,
    )
    def test_step_outside_the_open_interval(self, params_03, geom_03, build, d_tau):
        # The session geometry is built before no_work patches the kernels.
        args = (geom_03.barrier,) if build is compute_secondary_fan_and_equivocal else ()
        with pytest.raises(ValueError, match=re.escape(f"d_tau={d_tau!r}")):
            build(params_03, *args, d_tau=d_tau)

    @pytest.mark.parametrize(
        "n_phi", [2.5, 3.0, math.nan, math.inf, 1, 0, -4, np.float64(200.0), "200", None]
    )
    @pytest.mark.parametrize("build", [compute_primary_fan, solve], ids=lambda f: f.__name__)
    def test_member_count_that_is_not_an_integer_of_at_least_two(self, params_03, build, n_phi):
        # solve() sets up the closed-form primary fan before the barrier,
        # so no barrier sample is evaluated for a bad n_phi.
        with pytest.raises(ValueError, match=re.escape(f"n_phi={n_phi!r}")):
            build(params_03, n_phi=n_phi)


def _oracle_turn_time(x, y, n=4_000_000):
    """Brute-force alignment time: rotate the frozen target about (1, 0)."""
    # Forward turning at u=+1 moves the frozen-target image along
    # z(t) = 1 + (z0 - 1) e^{i t}; scan for the first forward alignment.
    best = None
    for k in range(n):
        t = 2.0 * math.pi * k / n
        c, s = math.cos(t), math.sin(t)
        rx = 1.0 + (x - 1.0) * c - y * s
        ry = (x - 1.0) * s + y * c
        if abs(rx) < 2e-6 and ry > 0.0:
            best = t
            break
    return best


class TestDubinsTurnTime:
    def test_target_dead_ahead(self):
        assert dubins_cs_turn_time((0.0, 0.0), 0.0, (0.0, 3.0)) == 0.0

    def test_right_abeam_target(self):
        t = dubins_cs_turn_time((0.0, 0.0), 0.0, (3.0, 0.0))
        assert abs(t - 2.0 * math.pi / 3.0) < 1e-12
        oracle = _oracle_turn_time(3.0, 0.0)
        assert oracle is not None and abs(t - oracle) < 1e-5

    def test_independent_of_speed_ratio_by_signature(self):
        # The operation takes no speed argument at all; same pose and target
        # give the same turn duration in any game.
        a = dubins_cs_turn_time((1.0, -2.0), 0.7, (4.0, 1.0))
        b = dubins_cs_turn_time((1.0, -2.0), 0.7, (4.0, 1.0))
        assert a == b

    def test_inside_turn_circle_rejected(self):
        with pytest.raises(ValueError, match="turn circle"):
            dubins_cs_turn_time((0.0, 0.0), 0.0, (0.7, 0.3))

    @pytest.mark.parametrize("d", [0.5, 3.0])
    def test_quarter_turn_heading_frame(self, d):
        # Heading pi/2 is the world +X direction (headings run clockwise from
        # +Y): a target at (d, 0) is dead ahead and one at (-d, 0) dead
        # astern.  Astern the pursuer turns until its heading ray is tangent
        # from the turn circle, pi + 2 atan(1/d).  A sign error in the frame
        # rotation swaps the two answers; |x| mirroring cannot hide it.
        pose = ((1.0, -2.0), math.pi / 2)
        assert abs(dubins_cs_turn_time(*pose, (1.0 + d, -2.0))) < 1e-12
        t = dubins_cs_turn_time(*pose, (1.0 - d, -2.0))
        assert abs(t - (math.pi + 2.0 * math.atan(1.0 / d))) < 1e-12

    def test_invariant_under_rigid_motions(self, rng):
        # Rotating the world clockwise by a (headings shift by +a) and
        # translating it leaves the turn duration unchanged.
        checked = 0
        for _ in range(300):
            px, py, tx, ty, ox, oy = rng.uniform(-4.0, 4.0, 6)
            th, a = rng.uniform(-math.pi, math.pi, 2)
            c, s = math.cos(a), math.sin(a)

            def moved(x, y):
                return (x * c + y * s + ox, -x * s + y * c + oy)

            try:
                t0 = dubins_cs_turn_time((px, py), th, (tx, ty))
            except ValueError:
                continue
            t1 = dubins_cs_turn_time(moved(px, py), th + a, moved(tx, ty))
            assert abs(t1 - t0) < 1e-9
            checked += 1
        assert checked > 200

    def test_mirrored_target(self):
        t_right = dubins_cs_turn_time((0.0, 0.0), 0.0, (3.0, 0.0))
        t_left = dubins_cs_turn_time((0.0, 0.0), 0.0, (-3.0, 0.0))
        assert abs(t_right - t_left) < 1e-12


class TestTributaryValue:
    def test_pure_tail_chase(self):
        p = validate_params(0.5, 0.5)
        from chauffeur.solution import get_geometry

        g = get_geometry(p)
        assert abs(g.value(RelState(0.0, 2.0)) - 3.0) < 1e-12

    def test_monotone_in_mu(self, rng):
        # Faster evaders strictly prolong capture at fixed tributary starts,
        # over speed ratios 0.1 through 0.6.  Points in the far front band
        # are tributary for every one of these ratios; membership is asserted
        # against constructed geometry for the pair of canonical ratios.
        from chauffeur.solution import _tributary_value_raw, get_geometry

        mus = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        params = {m: validate_params(m, 0.5) for m in mus}
        g3 = get_geometry(params[0.3])
        g2 = get_geometry(params[0.2])
        for _ in range(30):
            x = rng.uniform(0.3, 3.0)
            y = rng.uniform(1.8, 3.0)
            s = RelState(x, y)
            assert g3.classify(s).tag == TRIBUTARY
            assert g2.classify(s).tag == TRIBUTARY
            vals = [_tributary_value_raw(params[m], x, y) for m in mus]
            assert all(v is not None for v in vals)
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_against_closed_loop_simulation(self, params_03, geom_03, rng):
        from chauffeur.sim import Scenario, run_closed_loop
        from chauffeur.strategy import EvaderPolicy

        checked = 0
        while checked < 50:
            x = rng.uniform(-3.0, 3.0)
            y = rng.uniform(-2.5, 2.5)
            s = RelState(x, y)
            if geom_03.classify(s).tag != TRIBUTARY:
                continue
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
            assert abs(tr.capture_time - v) < 2e-3
            checked += 1

    def test_alignment_root_forward_separation(self, rng):
        # s0 returned by the alignment equals sqrt(R^2 - 1) with the target
        # ahead on the heading ray.
        for _ in range(200):
            x = rng.uniform(-1.0, 4.0)
            y = rng.uniform(-3.0, 3.0)
            res = turn_alignment(x, y)
            r2 = (x - 1.0) ** 2 + y * y
            if r2 < 1.0:
                assert res is None
                continue
            t, s0 = res
            assert abs(s0 - math.sqrt(r2 - 1.0)) < 1e-12
            ahead = (x - 1.0) * math.sin(t) + y * math.cos(t)
            assert abs(ahead - s0) < 1e-9

    @staticmethod
    def _two_root_alignment(x, y):
        # Frozen copy of turn_alignment before its one-root shortcut: both
        # roots are tried and the earliest one ahead wins.
        cx = x - 1.0
        r2 = cx * cx + y * y
        if r2 < 1.0:
            return None
        r = math.sqrt(r2)
        s0 = math.sqrt(max(r2 - 1.0, 0.0))
        delta = math.atan2(y, cx)
        half = math.acos(max(-1.0, min(1.0, -1.0 / r)))
        best = None
        for t in ((-delta + half) % (2.0 * math.pi), (-delta - half) % (2.0 * math.pi)):
            if cx * math.sin(t) + y * math.cos(t) >= -1e-9:
                if t > 2.0 * math.pi - 1e-9:
                    t = 0.0
                if best is None or t < best:
                    best = t
        return None if best is None else (best, s0)

    def test_alignment_matches_the_two_root_search_bitwise(self, rng):
        # The shortcut returns the root with the target at +s0 along the ray
        # whenever s0 > 1e-6; it must agree with the two-root search bit for
        # bit, on the turn circle's rim and at the 2*pi clamp too.
        n = 4000
        theta = rng.uniform(-math.pi, math.pi, n)
        rim = 1.0 + 10.0 ** rng.uniform(-17.0, -2.0, n)
        tiny = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-17.0, -6.0, n)
        points = (
            list(zip(rng.uniform(-1.0, 5.0, n), rng.uniform(-4.0, 4.0, n)))
            + list(zip(1.0 + rim * np.cos(theta), rim * np.sin(theta)))
            # The heading ray (x = 0, y > 0) is alignment at t = 0; just left
            # of it the root sits just below 2*pi.
            + list(zip(tiny, rng.uniform(0.01, 5.0, n)))
            + [(0.0, 1.0), (0.0, 3.0), (-1e-300, 2.0), (2.0, 0.0), (0.0, 0.0)]
        )
        shortcut = 0
        for x, y in points:
            x, y = float(x), float(y)
            got, want = turn_alignment(x, y), self._two_root_alignment(x, y)
            assert repr(got) == repr(want), (x, y)
            shortcut += got is not None and got[1] > 1e-6
        # Both paths ran: the shortcut and the loop near the rim.
        assert 0 < shortcut < len(points) - 1000

    @staticmethod
    def _clamped_alignment(x, y):
        # Frozen copy of turn_alignment with the clamps into sqrt's and
        # acos' domains that it dropped as identities.
        cx = x - 1.0
        r2 = cx * cx + y * y
        if r2 < 1.0:
            return None
        r = math.sqrt(r2)
        s0 = math.sqrt(max(r2 - 1.0, 0.0))
        delta = math.atan2(y, cx)
        half = math.acos(max(-1.0, min(1.0, -1.0 / r)))
        t = (-delta + half) % (2.0 * math.pi)
        t = 0.0 if t > 2.0 * math.pi - 1e-9 else t
        if s0 <= 1e-6:
            other = (-delta - half) % (2.0 * math.pi)
            if cx * math.sin(other) + y * math.cos(other) >= -1e-9:
                t = min(t, 0.0 if other > 2.0 * math.pi - 1e-9 else other)
        return t, s0

    def test_alignment_matches_the_clamped_formula_bitwise(self, rng):
        n = 2000
        theta = rng.uniform(-math.pi, math.pi, n)
        rim = 1.0 + 10.0 ** rng.uniform(-17.0, -2.0, n)
        on_circle = list(zip(1.0 + np.cos(theta), np.sin(theta)))
        up = math.nextafter(1.0, 2.0)
        inf, nan = math.inf, math.nan
        points = [
            *zip(rng.uniform(-1.0, 5.0, n), rng.uniform(-4.0, 4.0, n)),
            *zip(1.0 + rim * np.cos(theta), rim * np.sin(theta)),
            *on_circle,
            (0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (1.0, -1.0),
            (1.0, up), (1.0 + up, 0.0), (1.0 - up, 0.0), (up, 1.0),
            (1e154, 1e154), (-1e200, 3.0), (1e308, -1e308), (3.0, 1e300), (-1.7e308, 0.0),
            (inf, 0.0), (-inf, 0.0), (0.0, inf), (0.0, -inf), (inf, inf), (-inf, -inf),
            (inf, nan), (nan, 0.0), (0.0, nan), (nan, nan), (-nan, 2.0),
        ]
        r2s = set()
        for x, y in points:
            x, y = float(x), float(y)
            got, want = turn_alignment(x, y), self._clamped_alignment(x, y)
            if want is None:
                assert got is None, (x, y)
            else:
                assert [v.hex() for v in got] == [v.hex() for v in want], (x, y)
            r2s.add((x - 1.0) * (x - 1.0) + y * y)
        # The edges of the dropped clamps all occur: r2 at 1 and one ulp
        # above, overflow to inf, and NaN.
        assert {1.0, up, inf} <= r2s and any(math.isnan(r2) for r2 in r2s)

    def test_turn_aims_the_ray_through_targets_just_outside_the_turn_circle(self, rng):
        # At r in (1, 1 + 1e-6] both roots are within rounding of ahead.  An
        # alignment always comes back, and after turning for t at u = +1
        # from (0, 0) heading +y the pursuer, at (1 - cos t, sin t) heading
        # (sin t, cos t), has the target on its heading ray: across-ray
        # offset zero, along-ray coordinate s0 >= 0.
        n = 4000
        theta = rng.uniform(-math.pi, math.pi, n)
        r = 1.0 + 10.0 ** rng.uniform(-15.5, -6.0, n)
        checked = 0
        for x, y in zip((1.0 + r * np.cos(theta)).tolist(), (r * np.sin(theta)).tolist()):
            if not 1.0 < (x - 1.0) ** 2 + y * y <= (1.0 + 1e-6) ** 2:
                continue  # rounded onto or inside the circle
            t, s0 = turn_alignment(x, y)
            assert 0.0 <= t < 2.0 * math.pi
            across = (x - 1.0) * math.cos(t) - y * math.sin(t) + 1.0
            along = (x - 1.0) * math.sin(t) + y * math.cos(t)
            assert abs(across) < 1e-12, (x, y)
            assert along > -1e-9 and abs(along - s0) < 1e-7, (x, y)
            checked += 1
        assert checked > 3000


    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_rear_line_below_the_contact_has_a_departure_cost(self, which, request):
        # The pocket dive prices a rear-line exit below y_ES by the turn
        # alone: (0 - 1)^2 + y^2 >= 1, so the alignment always exists there.
        # The pair closes at most at 1 + mu, which bounds the cost below.
        geom = request.getfixturevalue(which)
        p = geom.params
        for y in np.linspace(-p.l - 3.0, geom.y_es, 200).tolist():
            v = _tributary_value_raw(p, 0.0, y)
            assert v is not None and math.isfinite(v), y
            assert v >= (-y - p.l) / (1.0 + p.mu), y


class TestEquivocalCurve:
    def test_starts_at_barrier_endpoint(self, geom_03):
        d = math.hypot(
            geom_03.equivocal.points[0, 0] - geom_03.barrier.points[-1, 0],
            geom_03.equivocal.points[0, 1] - geom_03.barrier.points[-1, 1],
        )
        assert d < 1e-6

    def test_reaches_negative_axis_below_capture_circle(self, params_03, geom_03):
        assert abs(geom_03.equivocal.points[-1, 0]) < 1e-9
        assert geom_03.y_es < -params_03.l

    def test_pure_pursuit_heading_on_curve(self, geom_03):
        from chauffeur.strategy import feedback_pair

        pts = geom_03.equivocal.points
        for k in range(len(pts) // 10, len(pts), len(pts) // 10):
            x, y = pts[k]
            psi = feedback_pair(geom_03, RelState(x, y))[1]
            want = math.atan2(-x, -y)
            err = abs((psi - want + math.pi) % (2 * math.pi) - math.pi)
            assert err < 1e-4

    def test_value_continuous_with_departure_cost(self, params_03, geom_03):
        from chauffeur.solution import _tributary_value_raw

        pts = geom_03.equivocal.points
        vals = geom_03.equivocal.tau
        for k in range(0, len(pts), max(1, len(pts) // 25)):
            dep = _tributary_value_raw(params_03, pts[k, 0], pts[k, 1])
            assert dep is not None
            assert abs(dep - vals[k]) < 5e-4

    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_every_step_meets_equal_cost(self, which, request):
        # Solver-independent: each marched point's departure cost equals the
        # running cost plus one step.  The last sample is interpolated onto
        # the axis, so it is skipped.
        geom = request.getfixturevalue(which)
        pts = geom.equivocal.points
        vals = geom.equivocal.tau
        d_tau = 1e-3
        for k in range(len(pts) - 2):
            dep = _tributary_value_raw(geom.params, pts[k + 1, 0], pts[k + 1, 1])
            assert dep is not None
            assert abs(dep - (vals[k] + d_tau)) <= 1e-12, k

    def test_two_branch_costs_agree(self, params_03, geom_03):
        # Spot check (the acceptance suite runs the full 20-point version):
        # riding the curve then departing costs the same as departing now.
        from branch_tools import branch_costs

        pts = geom_03.equivocal.points
        for frac in (0.3, 0.6):
            k = int(frac * len(pts))
            stay, depart = branch_costs(params_03, geom_03, k, dt=1e-4, ride=0.4)
            assert abs(stay - depart) < 5e-3


def _stop_tolerance(v, h):
    """The march's per-step residual tolerance at running cost ``v``."""
    return solution._STOP_ULPS * sys.float_info.epsilon * (v + h)


def _ladder_march(p, start, v_start, d_tau):
    """The equivocal march with the continuity ladder alone, the reference
    for the predicted control and the warm-started bracket: per step,
    brackets of half-width 0.1, 0.25, 0.5 and 1 around the previous control,
    the first with a sign change bisected as the package does, under its
    stop tolerance.  The same stepper, residual and bisection as the
    package, looked up at call time.  Returns (points, values, controls)."""
    x, y = start
    v, h = v_start, d_tau
    pts, vals, ucs = [(x, y)], [v], []
    stepped = {}

    def residual(u):
        xn, yn = stepped[u] = solution._rk4_equivocal(p, x, y, u, h)
        dep = solution._tributary_value_raw(p, xn, yn)
        return None if dep is None else dep - (v + h)

    def solve_u(seed):
        stop = _stop_tolerance(v, h)
        for half in (0.1, 0.25, 0.5, 1.0):
            lo, hi = max(-1.0, seed - half), min(1.0, seed + half)
            r_lo, r_hi = residual(lo), residual(hi)
            if r_lo is None or r_hi is None:
                continue
            if abs(r_lo) <= stop:
                return lo
            if abs(r_hi) <= stop:
                return hi
            if (r_lo < 0.0) == (r_hi < 0.0):
                continue
            rs = {lo: r_lo, hi: r_hi}

            def on_hi_side(u):
                r = rs[u] = residual(u)
                return (r > 0.0) == (r_hi > 0.0)

            a, b, _ = solution._bisect(on_hi_side, lo, hi)
            return min(a, b, key=lambda u: abs(rs[u]))
        raise AssertionError("ladder lost the root")

    u = 0.7
    while True:
        stepped.clear()
        u = solve_u(u)
        if not ucs:
            ucs.append(u)
        x, y = stepped[u]
        v += h
        pts.append((x, y))
        vals.append(v)
        ucs.append(u)
        if x <= 0.0:
            x0, y0 = pts[-2]
            w = x0 / (x0 - x)
            pts[-1] = (0.0, y0 + w * (y - y0))
            vals[-1] = vals[-2] + w * h
            return np.asarray(pts), np.asarray(vals), np.asarray(ucs)


@contextlib.contextmanager
def _counting_residuals():
    """Counts calls of the module-global departure cost while active."""
    original = solution._tributary_value_raw
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return original(*args)

    solution._tributary_value_raw = counted
    try:
        yield calls
    finally:
        solution._tributary_value_raw = original


@pytest.fixture(scope="module")
def march_runs():
    """Per pair: (start, start value, ladder march, its residual calls)."""
    cache = {}

    def get(p, barrier):
        key = (p.mu, p.l)
        if key not in cache:
            start = tuple(float(c) for c in barrier.points[-1])
            v0 = _tributary_value_raw(p, *start)
            with _counting_residuals() as calls:
                ladder = _ladder_march(p, start, v0, 1e-3)
            cache[key] = (start, v0, ladder, calls[0])
        return cache[key]

    return get


class TestEquivocalMarch:
    def test_pure_pursuit_field_matches_the_heading_form(self, rng):
        # (sin psi, cos psi) = -(x, y) / r is the heading atan2(-x, -y).
        for _ in range(200):
            x, y = rng.uniform(-3.0, 3.0, 2)
            u, h = rng.uniform(-1.0, 1.0), 1e-3
            p = validate_params(rng.choice([0.2, 0.3, 0.5]), 0.5)

            def heading_form(x_, y_, _c):
                fx, fy = rel_rhs(x_, y_, u, math.atan2(-x_, -y_), p.mu)
                return -fx, -fy

            got = _rk4_equivocal(p, x, y, u, h)
            want = rk4_step(heading_form, x, y, h)
            assert max(abs(got[0] - want[0]), abs(got[1] - want[1])) < 1e-14

    def test_written_out_step_is_the_generic_kernel_bit_for_bit(self, rng):
        # The old closure form of the pure-pursuit field, through the
        # generic RK4 kernel, at seeded (x, y, u): u = +-1 on half of them,
        # and a fifth within 1e-9 to 1e-2 of the origin.
        n = 10_000
        x, y = rng.uniform(-3.0, 3.0, (2, n))
        u = rng.uniform(-1.0, 1.0, n)
        u[0::4], u[1::4] = 1.0, -1.0
        a = rng.uniform(-math.pi, math.pi, n // 5)
        r = 10.0 ** rng.uniform(-9.0, -2.0, n // 5)
        x[::5], y[::5] = r * np.sin(a), r * np.cos(a)
        mus = rng.choice([0.1, 0.2, 0.3, 0.5], n)
        hs = rng.choice([1e-3, 5e-3, 1.5e-4], n)
        for xi, yi, ui, mu, h in zip(x.tolist(), y.tolist(), u.tolist(), mus.tolist(), hs.tolist()):

            def closure(x_, y_, _c, u=ui, mu=mu):
                r_ = math.hypot(x_, y_)
                return (y_ * u + mu * x_ / r_, 1.0 - x_ * u + mu * y_ / r_)

            got = _rk4_equivocal(validate_params(mu, 0.5), xi, yi, ui, h)
            want = rk4_step(closure, xi, yi, h)
            assert [v.hex() for v in got] == [v.hex() for v in want], (xi, yi, ui, mu, h)

    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_warm_start_matches_the_ladder_only_march(self, which, request, march_runs):
        geom = request.getfixturevalue(which)
        p = geom.params
        start, v0, (pts, vals, ucs), ladder_calls = march_runs(p, geom.barrier)
        with _counting_residuals() as calls:
            got = _march_equivocal(p, start, v0, 1e-3)
        e = geom.equivocal
        for a, b in zip(got, (e.points, e.tau, e.u)):
            assert np.array_equal(a, b)  # the geometry holds this march
        assert len(e.points) == len(pts)
        assert np.abs(e.u - ucs).max() <= 1e-11
        assert np.abs(e.points - pts).max() <= 1e-13
        assert np.abs(e.tau - vals).max() <= 1e-13
        # The warm bracket is what saves residual calls.
        assert calls[0] < 0.8 * ladder_calls

    def test_an_empty_warm_bracket_falls_back_to_the_ladder(self, geom_03, march_runs, monkeypatch):
        # A zero-width warm bracket is one control, the linear prediction,
        # whose residual has no sign change.  Neither the quadratic
        # prediction nor its Newton step lands on it, so every step from the
        # fourth on takes the ladder, and the march is the ladder-only one,
        # bit for bit.  Each such step costs two bracket-end calls and the
        # probes: one where the quadratic prediction already meets the stop
        # tolerance, two (it and the Newton step) otherwise.
        p = geom_03.params
        start, v0, ladder, ladder_calls = march_runs(p, geom_03.barrier)
        monkeypatch.setattr(solution, "_WARM_WIDTH", 0.0)
        monkeypatch.setattr(solution, "_WARM_FLOOR", 0.0)
        with _counting_residuals() as calls:
            got = _march_equivocal(p, start, v0, 1e-3)
        for a, b in zip(got, ladder):
            assert np.array_equal(a, b)
        pts, vals, ucs = ladder
        h, probes = 1e-3, 0
        for k in range(3, len(pts) - 1):
            u_p = 3.0 * (ucs[k] - ucs[k - 1]) + ucs[k - 2]
            dep = _tributary_value_raw(p, *_rk4_equivocal(p, *pts[k], u_p, h))
            probes += 1 if abs(dep - (vals[k] + h)) <= _stop_tolerance(vals[k], h) else 2
        assert calls[0] == ladder_calls + 2 * (len(pts) - 4) + probes

    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_every_accepted_step_meets_the_stop_tolerance(self, which, request, march_runs):
        # Recomputed from the returned arrays, each step's residual is within
        # the stop tolerance (the last, interpolated step excepted), and the
        # predicted control or its Newton step settles nearly every step.
        geom = request.getfixturevalue(which)
        p, h = geom.params, 1e-3
        start, v0, _, _ = march_runs(p, geom.barrier)
        with _counting_residuals() as calls:
            pts, vals, ucs = _march_equivocal(p, start, v0, h)
        for k in range(len(pts) - 2):
            dep = _tributary_value_raw(p, *_rk4_equivocal(p, *pts[k], ucs[k + 1], h))
            assert abs(dep - (vals[k] + h)) <= _stop_tolerance(vals[k], h), k
        assert calls[0] <= 2.2 * (len(pts) - 1)

    def test_march_residuals_get_python_floats(self, params_03, params_02, monkeypatch):
        # Inside the march of a solve(), every RK4 step and departure cost
        # is called with Python floats: a numpy scalar start would carry
        # numpy scalar arithmetic through the whole march.
        march = solution._march_equivocal
        inside = [False]
        seen = set()

        def marching(*args):
            inside[0] = True
            try:
                return march(*args)
            finally:
                inside[0] = False

        def typed(fn):
            def wrapper(p, *args):
                if inside[0]:
                    seen.add((fn.__name__, tuple(type(a) for a in args)))
                return fn(p, *args)

            return wrapper

        monkeypatch.setattr(solution, "_march_equivocal", marching)
        for name in ("_rk4_equivocal", "_tributary_value_raw"):
            monkeypatch.setattr(solution, name, typed(getattr(solution, name)))
        for p in (params_03, params_02):
            solve(p)
        assert seen == {
            ("_rk4_equivocal", (float,) * 4),
            ("_tributary_value_raw", (float,) * 2),
        }

    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_numpy_scalar_start_marches_bit_for_bit(self, which, request):
        geom = request.getfixturevalue(which)
        p, end = geom.params, geom.barrier.points[-1]
        v0 = _tributary_value_raw(p, *end.tolist())
        want = _march_equivocal(p, tuple(end.tolist()), v0, 1e-3)
        got = _march_equivocal(p, (end[0], end[1]), np.float64(v0), 1e-3)
        assert isinstance(end[0], np.float64)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestClassifyAndValue:
    def test_positive_universal(self, params_03, geom_03):
        r = geom_03.classify(RelState(0.0, params_03.l + 1.0))
        assert r.tag == "UniversalPositive"

    def test_reference_point_memberships(self, geom_03, geom_02):
        s = RelState(2.152, -0.214)
        assert geom_03.classify(s).tag == SECONDARY
        assert geom_02.classify(s).tag == TRIBUTARY

    def test_inside_capture_circle(self, geom_03):
        assert geom_03.classify(RelState(0.1, 0.1)).tag == "Captured"

    @pytest.mark.parametrize(
        "x, y", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (-math.inf, 1.0), (1.0, math.inf)]
    )
    def test_value_rejects_a_non_finite_state_by_name(self, geom_03, x, y):
        with pytest.raises(ValueError, match=r"non-finite state RelState\("):
            geom_03.value(RelState(x, y))

    @pytest.mark.parametrize(
        "x, y", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (-math.inf, 1.0), (1.0, math.inf)]
    )
    def test_classify_rejects_a_non_finite_state_by_name(self, geom_03, x, y):
        # A nan or infinite state used to be tagged Tributary.
        with pytest.raises(ValueError, match=r"non-finite state RelState\("):
            geom_03.classify(RelState(x, y))

    def test_mirror_flag(self, geom_03):
        r = geom_03.classify(RelState(-2.152, -0.214))
        assert r.tag == SECONDARY and r.mirrored

    def test_negative_universal_and_dispersal(self, params_03, geom_03):
        assert geom_03.classify(RelState(0.0, -1.0)).tag == "UniversalNegative"
        assert geom_03.classify(RelState(0.0, geom_03.y_es - 0.5)).tag == "Dispersal"

    def test_value_mirror_symmetry(self, geom_03, rng):
        for _ in range(40):
            x = rng.uniform(0.2, 3.0)
            y = rng.uniform(-2.5, 2.5)
            if x * x + y * y <= 0.26:
                continue
            a = geom_03.value(RelState(x, y))
            b = geom_03.value(RelState(-x, y))
            assert abs(a - b) < 1e-9

    def test_value_of_numpy_scalars_is_the_python_float(self, geom_03):
        states = [*_one_state_per_tag(geom_03).values(), (1.2, 0.3), (-1.6, -0.6)]
        for x, y in states:
            want = geom_03.value(RelState(x, y))
            got = geom_03.value(RelState(np.float64(x), np.float64(y)))
            assert type(got) is float and got.hex() == want.hex(), (x, y)

    def test_value_along_secondary_characteristic(self, geom_03):
        # Characteristic/value consistency: stored local tau plus the anchor
        # value reproduces value() along the characteristic.
        for ch in geom_03.secondary_fan.trajectories[10:200:48]:
            k = len(ch.points) // 2
            s = RelState(*ch.points[k])
            if geom_03.classify(s).tag != SECONDARY:
                continue
            v = geom_03.value(s)
            assert abs(v - (ch.anchor_value + ch.tau[k])) < 2e-2

    def test_captured_value_zero(self, geom_03):
        assert geom_03.value(RelState(0.1, 0.1)) == 0.0


class TestValueSimulationConsistency:
    def test_mixed_regions_against_closed_loop(self, params_03, geom_03, rng):
        # The region-dispatched value must match the closed loop within
        # 5e-3 * (1 + value) wherever play starts.
        from chauffeur.sim import Scenario, run_closed_loop
        from chauffeur.strategy import EvaderPolicy

        checked = 0
        while checked < 60:
            x = rng.uniform(-3.0, 3.0)
            y = rng.uniform(-2.5, 2.5)
            if x * x + y * y <= (params_03.l + 0.02) ** 2:
                continue
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
            assert tr.capture_time is not None, f"no capture from ({x}, {y})"
            assert abs(tr.capture_time - v) < 5e-3 * (1.0 + v), (
                f"value {v} vs simulated {tr.capture_time} at ({x}, {y})"
            )
            checked += 1


class TestEqualCostDiagnostics:
    def test_bracket_failure_reports_residuals(self):
        # Fast evaders fall outside the construction's verified regime; the
        # march must fail with the bracketing residuals, not build nonsense.
        from chauffeur.solution import (
            EqualCostBracketError,
            compute_barrier,
            compute_secondary_fan_and_equivocal,
        )

        p = validate_params(0.62, 0.5)
        b = compute_barrier(p)
        with pytest.raises(EqualCostBracketError, match="residuals"):
            compute_secondary_fan_and_equivocal(p, barrier=b)


def _sixty_halvings(on_hi_side, lo, hi):
    """The fixed 60-halving loop the barrier and the primary inverse each
    carried before :func:`_bisect`."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if on_hi_side(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi, mid


class TestBisect:
    def test_known_root_to_the_float_resolution(self):
        # Wallis's cubic x^3 - 2x - 5 on [2, 3]: the bracket closes on two
        # adjacent floats at its real root, within 60 halvings, the last
        # midpoint being one of them.
        calls = []

        def above(x):
            calls.append(x)
            return x**3 - 2.0 * x - 5.0 > 0.0

        lo, hi, mid = _bisect(above, 2.0, 3.0)
        assert hi == np.nextafter(lo, 3.0)
        assert abs(lo - 2.0945514815423265) <= 4.0 * np.finfo(float).eps
        assert mid in (lo, hi) and calls[-1] == mid
        assert len(calls) <= 60

    def test_stops_where_sixty_halvings_end(self, rng):
        # Against the fixed loop, bit for bit, on seeded brackets: thresholds
        # inside them, beyond either end (the bracket collapses onto one
        # end) and a bracket too wide for 60 halvings to close.
        cases = []
        for _ in range(300):
            lo, hi = sorted(rng.uniform(-10.0, 10.0, 2).tolist())
            cases.append((lo, hi, float(rng.uniform(lo - 1.0, hi + 1.0))))
        cases += [(0.0, 1e300, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 2.0)]
        counts = []
        for lo, hi, c in cases:
            calls = []

            def side(m):
                calls.append(m)
                return m >= c

            want = _sixty_halvings(lambda m: m >= c, lo, hi)
            got = _bisect(side, lo, hi)
            assert [v.hex() for v in got] == [v.hex() for v in want], (lo, hi, c)
            counts.append(len(calls))
        assert max(counts) == counts[-3] == 60  # the bracket too wide to close
        assert counts[-2:] == [1, 1]  # a point bracket: one halving, and done

    def test_undefined_residual_inside_a_bracket_raises(self, geom_03, monkeypatch):
        # The march's first step bisects the ladder's first bracket, 0.1
        # either side of 0.7, which holds a sign change; a departure cost
        # undefined at the stepped point of its first midpoint is named.
        p, h = geom_03.params, 1e-3
        start = tuple(geom_03.barrier.points[-1].tolist())
        v0 = _tributary_value_raw(p, *start)
        lo, hi = 0.7 - 0.1, 0.7 + 0.1
        r_lo, r_hi = (_tributary_value_raw(p, *_rk4_equivocal(p, *start, u, h)) - (v0 + h) for u in (lo, hi))
        assert (r_lo < 0.0) != (r_hi < 0.0)
        mid = 0.5 * (lo + hi)
        hole = _rk4_equivocal(p, *start, mid, h)
        departure = solution._tributary_value_raw

        def patched(p_, x, y):
            return None if (x, y) == hole else departure(p_, x, y)

        monkeypatch.setattr(solution, "_tributary_value_raw", patched)
        with pytest.raises(EqualCostBracketError, match=re.escape(f"residual undefined at u={mid!r}")):
            _march_equivocal(p, start, v0, h)


# The seven pairs of scripts/bitwise_outputs.py and the remaining pairs of
# acceptance criterion 2.
_BISECT_PAIRS = [
    (0.3, 0.5),
    (0.2, 0.5),
    (0.4, 0.5),
    (0.25, 0.6),
    (0.1, 0.3),
    (0.35, 0.7),
    (0.2, 0.7),
    (0.25, 0.5),
    (0.15, 0.6),
    (0.5, 0.4),
    (0.35, 0.4),
]


def _sixty_halving_barrier_end(p, t0, d_tau):
    """The barrier's tangent-vertical time in the step after ``t0``, by the
    barrier's loop before :func:`_bisect`."""
    phi, mu = bup_angle(p), p.mu
    x0, y0 = bup_point(p)
    lo, hi = 0.0, d_tau
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        t = t0 + mid
        _, y = _fan_xy(x0, y0, 1.0, phi, mu, t)
        if y - mu * np.sin(phi + t) <= 0.0:
            hi = mid
        else:
            lo = mid
    return t0 + hi


def _sixty_halving_primary_inverse(p, x, y):
    """:func:`primary_inverse` before :func:`_bisect`: its fold minimum by
    the fixed 60-halving loop."""
    l, mu, wx, wy = p.l, p.mu, x - 1.0, y
    bound = math.hypot(wx, wy) + mu * mu

    def at(t):
        c, s = math.cos(t), math.sin(t)
        qx, qy = wx * c - wy * s + 1.0, wx * s + wy * c
        g = l - mu * t
        return qx, qy, g, qx * qx + qy * qy - g * g, 2.0 * (mu * g - qy)

    t_prev = t = 0.0
    while t <= l / mu:
        qx, qy, g, f, d = at(t)
        if f <= 0.0:
            return math.atan2(qx, qy), t
        if d >= 0.0:
            lo, hi = t_prev, t
            for _ in range(60):
                t = 0.5 * (lo + hi)
                qx, qy, g, f, d = at(t)
                lo, hi = (t, hi) if d < 0.0 else (lo, t)
            gap = math.hypot(qx, qy) - g
            if gap > solution._FOLD_GAP:
                raise PrimaryRootError(f"({x!r}, {y!r}) lies {gap:.3g} beyond the barrier")
            return bup_angle(p), t
        step = 2.0 * f / (math.sqrt(d * d + 4.0 * bound * f) - d)
        if step <= 2e-16 * t:
            return math.atan2(qx, qy), t
        t_prev, t = t, t + step
    raise PrimaryRootError(f"no primary characteristic reaches ({x!r}, {y!r}) by tau = l/mu")


class TestBisectedSearchesBitForBit:
    """The barrier's endpoint and the primary inverse's fold minimum are
    the fixed 60-halving loops' results, bit for bit."""

    @pytest.mark.parametrize("pair", _BISECT_PAIRS)
    def test_barrier_arrays(self, pair):
        p, d_tau = validate_params(*pair), 1e-3
        b = compute_barrier(p, d_tau=d_tau)
        ts, acc = b.tau.tolist(), 0.0
        for k, t in enumerate(ts[:-1]):
            assert t.hex() == acc.hex(), k  # the accumulated grid
            acc += d_tau
        assert ts[-1].hex() == _sixty_halving_barrier_end(p, ts[-2], d_tau).hex()
        x, y = _fan_xy(*bup_point(p), 1.0, bup_angle(p), p.mu, np.array(ts))
        x[0], y[0] = bup_point(p)
        assert np.array_equal(b.points, np.stack([x, y], axis=1))

    @pytest.mark.parametrize("pair", _BISECT_PAIRS)
    def test_primary_inverse_next_to_the_barrier(self, pair, rng):
        # Seeded states up to 1e-5 either side of the pre-focal barrier:
        # the same (phi, tau) bits or the same named error, and most of
        # them reach the fold's bisection.
        p = validate_params(*pair)
        b = compute_barrier(p)
        k_focal = int(np.searchsorted(b.tau, p.l / p.mu))
        folds = 0
        for k in rng.integers(2, k_focal - 1, 150).tolist():
            (x0, y0), (x1, y1) = b.points[k - 1], b.points[k + 1]
            n = np.array([y1 - y0, x0 - x1]) / math.hypot(x1 - x0, y1 - y0)
            x, y = (b.points[k] + rng.uniform(-1e-5, 1e-5) * n).tolist()
            outcome = []
            for inverse in (primary_inverse, _sixty_halving_primary_inverse):
                try:
                    outcome.append(tuple(v.hex() for v in inverse(p, x, y)))
                except PrimaryRootError as err:
                    outcome.append(str(err))
            assert outcome[0] == outcome[1], (x, y)
            got = outcome[0]
            folds += isinstance(got, str) or got[0] == bup_angle(p).hex()
        assert folds >= 50


class TestDefaultSweepWindow:
    def test_covers_both_walls_with_margin(self, geom_03, geom_02):
        from chauffeur.deception import default_window

        x_min, x_max, y_min, y_max = default_window(geom_03, geom_02)
        for g in (geom_03, geom_02):
            for curve in (g.barrier.points, g.equivocal.points):
                assert curve[:, 0].max() <= x_max - 0.999
                assert -curve[:, 0].max() >= x_min + 0.999
                assert curve[:, 1].min() >= y_min + 0.999
                assert curve[:, 1].max() <= y_max + 1.001


class TestGeometryCsv:
    def test_layout(self, geom_03, tmp_path):
        path = tmp_path / "geom.csv"
        geom_03.to_csv(str(path))
        with open(path) as fh:
            first = fh.readline().strip()
            assert first == GEOMETRY_CSV_HEADER
            row = next(csv.reader(fh))
        assert row[0] == "barrier" and row[1] == "0"
        assert len(row) == 5
        float(row[2]), float(row[3]), float(row[4])


def _wall_crossing_scan(geom, x0, y0, x1, y1):
    """(w, section) of the segment's first crossing with the pocket wall, by
    the textbook segment-segment intersection over every barrier, equivocal
    and capture-arc edge, with the segment folded at x = 0 when it changes
    the sign of x: the reference for ``wall_crossing``."""
    nb, ne = len(geom.barrier.points), len(geom.equivocal.points)
    pts = geom._pocket.pts
    walls = (
        ("barrier", geom.barrier.points),
        ("equivocal", geom.equivocal.points),
        ("arc", np.vstack([pts[nb + ne + 1 :], pts[:1]])),  # (0, -l) round to the BUP
    )
    pieces = [(0.0, 1.0, (abs(x0), y0), (abs(x1), y1))]
    if x0 * x1 < 0.0:
        w0 = x0 / (x0 - x1)
        ym = y0 + w0 * (y1 - y0)
        pieces = [(0.0, w0, (abs(x0), y0), (0.0, ym)), (w0, 1.0, (0.0, ym), (abs(x1), y1))]
    for a, b, p, q in pieces:
        p, r = np.array(p), np.array(q) - np.array(p)
        best = (math.inf, None)
        for section, chain in walls:
            c, s = chain[:-1] - p, np.diff(chain, axis=0)
            denom = r[0] * s[:, 1] - r[1] * s[:, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (c[:, 0] * s[:, 1] - c[:, 1] * s[:, 0]) / denom
                u = (c[:, 0] * r[1] - c[:, 1] * r[0]) / denom
            t = t[(denom != 0.0) & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)]
            if len(t) and t.min() < best[0]:
                best = (float(t.min()), section)
        if best[1] is not None:
            return a + best[0] * (b - a), best[1]
    return None


# Segments whose ends differ in pocket membership on the (0.3, 0.5)
# geometry: two barrier crossings, an equivocal and a capture-arc crossing,
# a mirrored segment and two that cross x = 0, before and after the wall.
_WALL_SEGMENTS = [
    ((1.2, 0.3), (3.0, 2.0)),
    ((3.0, 2.0), (1.6, -0.6)),
    ((0.5, -1.9), (0.5, -1.0)),
    ((0.2, -0.7), (0.2, -0.3)),
    ((-1.2, 0.3), (-3.0, 2.0)),
    ((-0.3, -1.0), (2.5, -1.0)),
    ((-2.5, -1.0), (0.3, -1.0)),
]


class TestWallCrossing:
    @pytest.mark.parametrize("start, end", _WALL_SEGMENTS)
    def test_brackets_a_membership_flip(self, geom_03, start, end):
        (x0, y0), (x1, y1) = start, end
        inside = geom_03.pocket_contains(x0, y0)
        assert geom_03.pocket_contains(x1, y1) != inside
        w, xw, yw, section = geom_03.wall_crossing(x0, y0, x1, y1)
        assert (xw, yw) == (x0 + w * (x1 - x0), y0 + w * (y1 - y0))

        def member(s):
            return geom_03.pocket_contains(x0 + s * (x1 - x0), y0 + s * (y1 - y0))

        assert member(w - 1e-9) == inside
        assert member(w + 1e-9) != inside
        w_ref, section_ref = _wall_crossing_scan(geom_03, x0, y0, x1, y1)
        assert abs(w - w_ref) < 1e-12
        assert section == section_ref

    def test_segments_cover_every_section_and_the_fold(self, geom_03):
        sections = {_wall_crossing_scan(geom_03, *a, *b)[1] for a, b in _WALL_SEGMENTS}
        assert sections == {"barrier", "equivocal", "arc"}
        assert any(a[0] * b[0] < 0.0 for a, b in _WALL_SEGMENTS)

    def test_segment_inside_the_pocket_crosses_no_wall(self, geom_03):
        assert geom_03.pocket_contains(1.2, 0.3) and geom_03.pocket_contains(1.6, -0.6)
        assert _wall_crossing_scan(geom_03, 1.2, 0.3, 1.6, -0.6) is None
        with pytest.raises(ValueError, match="starts inside the pocket, crosses no wall"):
            geom_03.wall_crossing(1.2, 0.3, 1.6, -0.6)

    def test_segment_outside_the_pocket_crosses_no_wall(self, geom_03):
        # The error names the start's membership, which wall_crossing reads
        # itself; (3, 2) -> (3.5, 2.5) lies in tributary territory.
        assert not geom_03.pocket_contains(3.0, 2.0)
        assert _wall_crossing_scan(geom_03, 3.0, 2.0, 3.5, 2.5) is None
        with pytest.raises(ValueError, match="starts outside the pocket, crosses no wall"):
            geom_03.wall_crossing(3.0, 2.0, 3.5, 2.5)


def test_geometry_is_frozen(geom_03):
    with pytest.raises(dataclasses.FrozenInstanceError):
        geom_03.y_es = 0.0


@pytest.mark.xfail(
    strict=True,
    reason="_CurveIndex accepts a ring once the best distance is within "
    "(ring - 0.5) * cell, but a sample in the next ring can lie as close as "
    "(ring - 1) * cell; fixing the rule moves the reference capture times",
)
def test_nearest_sample_is_the_nearest(geom_03, rng):
    idx = geom_03._secondary_index
    pts = np.stack([idx.sx, idx.sy], axis=1)
    bx = geom_03._pocket_bbox
    misses = 0
    for _ in range(500):
        x, y = rng.uniform(bx[0], bx[1]), rng.uniform(bx[2], bx[3])
        ci, j = idx.nearest(x, y)
        gx, gy = idx.curves[ci][j]
        best = float(((pts[:, 0] - x) ** 2 + (pts[:, 1] - y) ** 2).min())
        misses += (gx - x) ** 2 + (gy - y) ** 2 > best
    assert misses == 0


def _winding_number(poly: np.ndarray, x: float, y: float) -> int:
    a = np.arctan2(poly[:, 1] - y, poly[:, 0] - x)
    turn = np.diff(np.append(a, a[0]))
    turn = (turn + math.pi) % (2.0 * math.pi) - math.pi
    return int(round(turn.sum() / (2.0 * math.pi)))


def _boundary_distance(poly: np.ndarray, x: float, y: float) -> float:
    p, q = poly, np.roll(poly, -1, axis=0)
    v = q - p
    w = np.array([x, y]) - p
    t = np.clip((w * v).sum(axis=1) / np.maximum((v * v).sum(axis=1), 1e-300), 0.0, 1.0)
    foot = p + t[:, None] * v
    return float(np.hypot(foot[:, 0] - x, foot[:, 1] - y).min())


def test_pocket_contains_matches_a_winding_number_oracle(geom_03, geom_02, rng):
    # The oracle's pocket is drawn from its definition: the full-resolution
    # barrier and equivocal curve, the rear axis down to the capture circle,
    # and the circle's arc back to the usable part's end, in x >= 0; the
    # queries are mirrored at random.
    for geom in (geom_03, geom_02):
        l = geom.params.l
        angles = np.linspace(math.pi, geom.phi_bar, 2000)
        poly = np.concatenate(
            [
                geom.barrier.points,
                geom.equivocal.points,
                [[0.0, geom.y_es], [0.0, -l]],
                np.stack([l * np.sin(angles), l * np.cos(angles)], axis=1),
            ]
        )
        lo, hi = poly.min(axis=0) - 0.1, poly.max(axis=0) + 0.1
        inside = outside = 0
        for _ in range(1500):
            x, y = rng.uniform(0.0, hi[0]), rng.uniform(lo[1], hi[1])
            if _boundary_distance(poly, x, y) < 1e-3:
                continue
            expected = _winding_number(poly, x, y) != 0
            sign = rng.choice([-1.0, 1.0])
            assert geom.pocket_contains(float(sign * x), float(y)) == expected, (x, y)
            inside += expected
            outside += not expected
        assert inside > 200 and outside > 200


def test_wall_distance_is_the_nearest_wall_sample(geom_03, geom_02, rng):
    # Near the wall and far from it, the distance is the brute-force minimum
    # over every barrier and equivocal sample, bitwise.
    for geom in (geom_03, geom_02):
        wall = np.concatenate([geom.barrier.points, geom.equivocal.points])
        near = wall[rng.integers(0, len(wall), 200)] + rng.normal(0.0, 0.03, (200, 2))
        far = np.stack([rng.uniform(-3.5, 3.5, 200), rng.uniform(-3.0, 3.0, 200)], axis=1)
        n_near = n_far = 0
        for x, y in np.concatenate([near, far]):
            x, y = float(x), float(y)
            brute = math.sqrt(float(((wall[:, 0] - abs(x)) ** 2 + (wall[:, 1] - y) ** 2).min()))
            assert geom.wall_distance(x, y) == brute, (x, y)
            n_near += brute <= 0.08
            n_far += brute > 0.08
        assert n_near > 50 and n_far > 50


def test_wall_band_is_a_wall_vertex_within_the_band(geom_03, geom_02, rng):
    # A state outside the pocket, the dead band and the axis band is tagged
    # Secondary under a wall band iff some barrier or equivocal vertex lies
    # within min(band, 0.06) of it, by a brute-force minimum over every
    # vertex; at 0.06 and beyond the band is capped.
    for geom in (geom_03, geom_02):
        wall = np.concatenate([geom.barrier.points, geom.equivocal.points])
        for band in (2e-3, 0.03, 0.06, 0.1):
            hits = misses = 0
            cap = min(band, 0.06)
            queries = wall[rng.integers(0, len(wall), 300)] + rng.normal(0.0, cap, (300, 2))
            for x, y in queries.tolist():
                if geom.classify(RelState(x, y)).tag not in (PRIMARY, TRIBUTARY) or x <= band:
                    continue
                brute = math.sqrt(float(((wall[:, 0] - x) ** 2 + (wall[:, 1] - y) ** 2).min()))
                tag = geom._tag(x, y, band, band)
                assert (tag == SECONDARY) == (brute <= cap), (band, x, y)
                hits += brute <= cap
                misses += brute > cap
            assert hits > 20 and misses > 20, band


def _one_state_per_tag(geom):
    """A state in x >= 0 for each region tag of ``geom``."""
    l, y_es = geom.params.l, geom.y_es
    ch = geom.primary_fan.trajectories[len(geom.primary_fan.trajectories) // 2]
    eq = geom.equivocal.points[len(geom.equivocal.points) // 2]
    return {
        CAPTURED: (0.1, 0.1),
        PRIMARY: tuple(ch.points[len(ch.tau) // 3].tolist()),
        TRIBUTARY: (3.0, 2.0),
        SECONDARY: (1.6, -0.6),
        UNIVERSAL_POSITIVE: (0.0, 2.0),
        UNIVERSAL_NEGATIVE: (0.0, 0.5 * (y_es - l)),
        EQUIVOCAL: tuple(eq.tolist()),
        DISPERSAL: (0.0, y_es - 1.0),
    }


def test_queries_leave_the_geometry_pickle_unchanged(params_03, tmp_path):
    # A geometry handed to a sweep worker is the same bytes whatever was
    # asked of it before: no query builds or caches anything on it, and
    # reading the primary fan's samples, directly or through the CSV, keeps
    # none of them.
    geom = solve(params_03, n_phi=40, d_tau=4e-3)
    before = pickle.dumps(geom)
    for tag, (x, y) in _one_state_per_tag(geom).items():
        for s in (RelState(x, y), RelState(-x, y)):
            assert geom.classify(s).tag == tag
            geom.value(s)
            for band in (0.0, 0.05):
                feedback_pair(geom, s, axis_band=max(band, SIDE_DEADBAND), wall_band=band)
    assert len(geom.primary_fan.trajectories) == 40
    geom.to_csv(str(tmp_path / "geometry.csv"))
    assert pickle.dumps(geom) == before


def _even_odd_scan(pts: np.ndarray, bbox: tuple, x: float, y: float) -> bool:
    """Pocket/petal membership as a numpy scan over every edge: the
    reference the slab index must reproduce bit for bit."""
    bx = bbox
    if not (bx[0] <= x <= bx[1] and bx[2] <= y <= bx[3]):
        return False
    x1, y1 = np.ascontiguousarray(pts.T)
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    cond = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    return bool(np.count_nonzero(cond & (xs > x)) % 2)


def _deadband_scan(pts: np.ndarray, x: float, y: float) -> bool:
    """Whether some sample lies closer than SIDE_DEADBAND, by a brute-force
    minimum over every sample."""
    d2 = (pts[:, 0] - x) ** 2 + (pts[:, 1] - y) ** 2
    return math.sqrt(float(d2.min())) < SIDE_DEADBAND


def _membership_queries(poly, rng) -> list:
    """Seeded points in the padded box, every vertex y exactly (the slab
    boundaries), vertex x one ulp either side, and y just below the lowest
    vertex and at the highest."""
    x0, x1, y0, y1 = poly.bbox
    pts = poly.pts
    out = list(zip(rng.uniform(x0, x1, 4000).tolist(), rng.uniform(y0, y1, 4000).tolist()))
    for vx, vy in pts.tolist():
        out.append((vx, vy))
        out.append((math.nextafter(vx, -math.inf), vy))
        out.append((math.nextafter(vx, math.inf), vy))
        out.append((float(rng.uniform(x0, x1)), vy))
    lowest, highest = float(pts[:, 1].min()), float(pts[:, 1].max())
    for x in rng.uniform(x0, x1, 200).tolist():
        out.append((x, math.nextafter(lowest, -math.inf)))
        out.append((x, lowest))
        out.append((x, highest))
    return out


class TestSlabMembership:
    def test_matches_the_edge_scan_on_both_geometries(self, geom_03, geom_02, rng):
        for geom in (geom_03, geom_02):
            for poly in (geom._pocket, geom._petal):
                inside = 0
                for x, y in _membership_queries(poly, rng):
                    expected = _even_odd_scan(poly.pts, poly.bbox, x, y)
                    assert poly.contains(x, y) == expected, (x, y)
                    inside += expected
                assert inside > 500

    def test_numpy_scalar_queries(self, geom_03, rng):
        poly = geom_03._pocket
        x0, x1, y0, y1 = poly.bbox
        for x, y in zip(rng.uniform(x0, x1, 300), rng.uniform(y0, y1, 300)):
            assert isinstance(x, np.float64)
            expected = _even_odd_scan(poly.pts, poly.bbox, x, y)
            assert poly.contains(x, y) == expected
            assert geom_03.pocket_contains(x, y) == expected

    def test_horizontal_edges_repeated_y_and_a_notch(self, rng):
        # A box with a notch cut down from its top edge, a spike below its
        # bottom edge and collinear vertices along the bottom.
        pts = np.array(
            [
                [0.0, 0.0], [0.5, -1.0], [1.0, 0.0], [2.5, 0.0], [4.0, 0.0], [4.0, 3.0],
                [3.0, 3.0], [3.0, 1.0], [2.0, 1.0], [2.0, 3.0], [0.0, 3.0],
            ]
        )
        poly = _Polygon.of(pts)
        assert poly.ys == [-1.0, 0.0, 1.0, 3.0]
        assert poly.contains(2.5, 0.5) and not poly.contains(2.5, 2.0)
        assert poly.contains(0.5, -0.5) and not poly.contains(1.5, -0.5)
        assert poly.contains(1.0, 2.0) and poly.contains(3.5, 2.0)
        queries = [(x, y) for x in np.arange(-0.5, 4.75, 0.25) for y in np.arange(-1.5, 3.75, 0.25)]
        queries += list(zip(rng.uniform(-0.5, 4.5, 2000), rng.uniform(-1.5, 3.5, 2000)))
        for x, y in queries:
            assert poly.contains(x, y) == _even_odd_scan(pts, poly.bbox, x, y), (x, y)


class TestEquivocalDeadBand:
    @pytest.mark.parametrize("offset", [0.0, 1e-7, 9.99e-7, 1e-6, 1.01e-6, 1e-3])
    def test_matches_the_brute_force_minimum(self, geom_03, geom_02, rng, offset):
        hits = 0
        for geom in (geom_03, geom_02):
            pts = geom.equivocal.points
            for j in rng.integers(0, len(pts), 400).tolist():
                a = rng.uniform(0.0, 2.0 * math.pi)
                x = float(pts[j, 0] + offset * math.cos(a))
                y = float(pts[j, 1] + offset * math.sin(a))
                if x <= SIDE_DEADBAND:  # the axis tests come first
                    continue
                expected = _deadband_scan(pts, x, y)
                sign = float(rng.choice([-1.0, 1.0]))
                tag = geom.classify(RelState(sign * x, y)).tag
                assert (tag == EQUIVOCAL) == expected, (x, y)
                hits += expected
        if offset < 9e-7:
            assert hits > 700
        if offset > 1e-6:
            assert hits == 0

    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_every_sample_is_equivocal(self, which, request):
        # The dead band answers before the pocket's box test: points 5e-7
        # beyond the lowest and the largest-x samples lie outside that box
        # and are still equivocal.
        geom = request.getfixturevalue(which)
        pts = geom.equivocal.points
        for x, y in pts.tolist():
            if x <= SIDE_DEADBAND:
                continue
            assert geom.classify(RelState(x, y)).tag == EQUIVOCAL, (x, y)
        (lx, ly), (rx, ry) = pts[pts[:, 1].argmin()].tolist(), pts[pts[:, 0].argmax()].tolist()
        bx = geom._pocket.bbox
        for x, y in ((lx, ly - 5e-7), (rx + 5e-7, ry)):
            assert not (bx[0] <= x <= bx[1] and bx[2] <= y <= bx[3]), (x, y)
            assert geom.classify(RelState(x, y)).tag == EQUIVOCAL, (x, y)

    def test_band_is_open_at_exactly_its_width(self):
        # On the wall samples no query lands at exactly SIDE_DEADBAND (their
        # ulp is far coarser than its last bit); near the origin one does.
        pts = np.array([[0.0, 0.0], [3e-6, 0.0], [0.0, 5e-6], [0.0, -5e-6], [-2e-6, 1e-6]])
        band = _SortedVertices.of(pts)
        assert band.xs == sorted(pts[:, 0].tolist())
        for x, y, expected in [
            (SIDE_DEADBAND, 0.0, False),
            (math.nextafter(SIDE_DEADBAND, 0.0), 0.0, True),
            (0.0, 4e-6, False),
            (0.0, math.nextafter(4e-6, 1.0), True),
            (-1e-6, 1e-6, False),
            (-1.5e-6, 1e-6, True),
        ]:
            assert _deadband_scan(pts, x, y) == expected, (x, y)
            assert band.hit(x, y) == expected, (x, y)


class _CountingScanPolygon:
    """Stand-in for ``_Polygon`` that scans every edge."""

    def __init__(self, poly):
        self.pts, self.bbox, self.calls = poly.pts, poly.bbox, 0
        self.crossing = poly.crossing  # wall crossings are not membership tests

    def contains(self, x, y):
        self.calls += 1
        return _even_odd_scan(self.pts, self.bbox, x, y)


class _CountingScanDeadBand:
    """Stand-in for the sorted dead-band lookup that scans every sample."""

    def __init__(self, pts):
        self.pts, self.calls = pts, 0

    def hit(self, x, y):
        self.calls += 1
        return _deadband_scan(self.pts, x, y)


def test_reference_games_are_bitwise_equal_under_scan_oracles(params_03, params_02, geom_03, geom_02):
    # The same truthful and deceptive reference runs, once on the indexed
    # geometries and once with every pocket, petal and dead-band test
    # replaced by a scan over all edges or samples.
    def scanned(geom):
        return dataclasses.replace(
            geom,
            _pocket=_CountingScanPolygon(geom._pocket),
            _petal=_CountingScanPolygon(geom._petal),
            _equivocal_band=_CountingScanDeadBand(geom.equivocal.points),
        )

    scan_03, scan_02 = scanned(geom_03), scanned(geom_02)
    s0 = RelState(2.152, -0.214)
    for policy, mode in (
        (EvaderPolicy(kind="truthful"), "informed"),
        (EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3), "estimating"),
    ):
        sc = Scenario(params_03, params_02, s0, policy, pursuer_mode=mode, t_max=12.0)
        fast = run_closed_loop(sc, geom_03, geom_02)
        slow = run_closed_loop(sc, scan_03, scan_02)
        assert fast.capture_time is not None
        assert SECONDARY in fast.region
        for f in dataclasses.fields(fast):
            assert repr(getattr(fast, f.name)) == repr(getattr(slow, f.name)), f.name
    for geom in (scan_03, scan_02):
        assert min(geom._pocket.calls, geom._petal.calls, geom._equivocal_band.calls) > 100


class _RingRuleScan:
    """Stand-in for ``_CurveIndex`` that applies the documented ring rule
    over every sample: ring r holds the samples whose bucket lies fewer
    than r buckets from the query's in both directions; the first minimum
    in row-major bucket order (row, column, input order) is accepted once
    its distance is at most (r - 0.5) * cell, up to ring 39.  It takes the
    dive's memo of ring boxes and ignores it, so the rule over every sample
    stays the reference for the memo path too."""

    def __init__(self, curves, cell=0.08):
        pts = np.concatenate(curves)
        owner = np.concatenate([np.full(len(c), i) for i, c in enumerate(curves)])
        local = np.concatenate([np.arange(len(c)) for c in curves])
        b = np.floor(pts / cell).astype(np.int64)
        order = np.lexsort((np.arange(len(pts)), b[:, 1], b[:, 0]))
        self.curves, self.cell, self.calls = curves, cell, 0
        self.b, self.owner, self.local = b[order], owner[order], local[order]
        self.sx, self.sy = pts[order, 0], pts[order, 1]
        self._last = (None,)

    def _ring(self, x, y, ring):
        if self._last[0] != (x, y):  # bucket distance and d2 of every sample
            ci, cj = math.floor(x / self.cell), math.floor(y / self.cell)
            cheb = np.maximum(np.abs(self.b[:, 0] - ci), np.abs(self.b[:, 1] - cj))
            self._last = ((x, y), cheb, (self.sx - x) ** 2 + (self.sy - y) ** 2)
        _, cheb, d2 = self._last
        box = cheb < ring
        return box, np.where(box, d2, np.inf)

    def _scan(self, x, y):
        self.calls += 1
        for ring in range(1, 40):
            box, d2 = self._ring(x, y, ring)
            if box.any():
                k = int(np.argmin(d2))
                if math.sqrt(d2[k]) <= (ring - 0.5) * self.cell:
                    return box, d2, k
        raise NearestSampleError((x, y))

    def nearest(self, x, y, memo=None):
        _, _, k = self._scan(x, y)
        return int(self.owner[k]), int(self.local[k])

    def nearest_two(self, x, y):
        box, d2, k = self._scan(x, y)
        out = [(int(self.owner[k]), int(self.local[k]), math.sqrt(d2[k]))]
        other = box & (self.owner != self.owner[k])
        if other.any():
            k2 = int(np.argmin(np.where(other, d2, np.inf)))
            out.append((int(self.owner[k2]), int(self.local[k2]), math.sqrt(d2[k2])))
        return out


def _index_queries(idx, rng, n):
    """Seeded points in the samples' padded box, points near samples,
    exact samples and points just across bucket edges."""
    pts = np.stack([idx.sx, idx.sy], axis=1)
    lo, hi = pts.min(axis=0) - 0.3, pts.max(axis=0) + 0.3
    out = [(float(rng.uniform(lo[0], hi[0])), float(rng.uniform(lo[1], hi[1]))) for _ in range(n)]
    for x, y in pts[rng.integers(0, len(pts), n)].tolist():
        out.append((x, y))
        out.append((x + float(rng.normal(0.0, 0.02)), y + float(rng.normal(0.0, 0.02))))
        edge = math.floor(x / idx.cell) * idx.cell
        out.append((math.nextafter(edge, -math.inf), y))
    return out


class TestCurveIndex:
    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_matches_the_ring_rule_over_all_samples(self, which, request, rng):
        geom = request.getfixturevalue(which)
        idx = geom._secondary_index
        ref = _RingRuleScan([ch.points for ch in geom.secondary_fan.trajectories])
        for x, y in _index_queries(idx, rng, 50):
            assert idx.nearest(x, y) == ref.nearest(x, y), (x, y)
            assert repr(idx.nearest_two(x, y)) == repr(ref.nearest_two(x, y)), (x, y)

    @pytest.mark.parametrize("which", ["geom_03", "geom_02", "wide"])
    def test_stores_every_sample_once_in_bucket_order(self, which, request):
        # The geometries' bucket keys fit 16 bits; the synthetic set's do
        # not, so both key widths of the sort are checked against the
        # lexsort of the ring rule's stand-in.
        if which == "wide":
            idx = _CurveIndex(_wide_key_curves())
        else:
            idx = request.getfixturevalue(which)._secondary_index
        ref = _RingRuleScan(idx.curves)
        assert idx.sx.tobytes() == ref.sx.tobytes() and idx.sy.tobytes() == ref.sy.tobytes()
        assert np.array_equal(idx.owner, ref.owner) and np.array_equal(idx.local, ref.local)
        assert idx.sx.dtype == idx.sy.dtype == np.float64
        assert idx.owner.dtype == idx.local.dtype == np.int64
        flat = (ref.b[:, 0] * idx.span + (ref.b[:, 1] - idx.j_lo)).tolist()
        first = [k for k in range(len(flat)) if k == 0 or flat[k] != flat[k - 1]]
        assert idx.keys == [flat[k] for k in first] == sorted(set(flat))
        assert idx.starts == [*first, len(flat)]
        assert all(type(v) is int for v in idx.keys + idx.starts)
        wide = not -(2**15) <= min(idx.keys) <= max(idx.keys) < 2**15
        assert wide == (which == "wide")

    def test_ties_go_to_the_first_sample_in_bucket_order(self):
        # Four samples 1.25 from the query, one in each neighbouring bucket
        # of a unit grid, given in the reverse of row-major bucket order.
        curves = [np.array([p]) for p in ([1.75, 0.5], [0.5, 1.75], [0.5, -0.75], [-0.75, 0.5])]
        idx, ref = _CurveIndex(curves, cell=1.0), _RingRuleScan(curves, cell=1.0)
        assert idx.nearest(0.5, 0.5) == ref.nearest(0.5, 0.5) == (3, 0)
        assert idx.nearest_two(0.5, 0.5) == ref.nearest_two(0.5, 0.5) == [(3, 0, 1.25), (2, 0, 1.25)]

    def test_ring_cap_raises_a_named_error(self):
        # One short curve: a query 4.1 away along the diagonal has it in
        # its ring-39 box but never within (39 - 0.5) * cell = 3.08; one
        # far away has no sample in any ring.
        idx = _CurveIndex([np.array([[0.0, 0.0], [0.01, 0.0]])])
        ref = _RingRuleScan(idx.curves)
        for x, y in ((2.9, 2.9), (100.0, -100.0)):
            for lookup in (idx.nearest, idx.nearest_two, ref.nearest):
                with pytest.raises(NearestSampleError):
                    lookup(x, y)
        assert issubclass(NearestSampleError, RuntimeError)
        assert idx.nearest(3.0, 0.0) == (0, 1)


def _wide_key_curves():
    """Curves at negative coordinates far enough out that their bucket
    keys overflow 16 bits, with an empty member and repeated samples, so
    ties in key go to input order."""
    rng = np.random.default_rng(7)
    walk = np.cumsum(rng.normal(0.0, 0.05, (2000, 2)), axis=0) + [-150.0, -3.0]
    far = rng.uniform([-2700.0, -40.0], [-2600.0, 10.0], (500, 2))
    return [walk, np.empty((0, 2)), far, walk[::7].copy(), far[:50].copy()]


def _project_numpy(points, j, x, y, *series):
    """``_project`` as it was written on numpy scalars indexed one at a
    time: the oracle the float version must reproduce bit for bit."""
    best_d2 = (points[j, 0] - x) ** 2 + (points[j, 1] - y) ** 2
    best = None
    for a in (j - 1, j):
        if a < 0 or a + 1 >= len(points):
            continue
        px, py = points[a]
        qx, qy = points[a + 1]
        vx, vy = qx - px, qy - py
        vv = vx * vx + vy * vy
        if vv <= 0.0:
            continue
        t = ((x - px) * vx + (y - py) * vy) / vv
        t = min(max(t, 0.0), 1.0)
        d2 = (px + t * vx - x) ** 2 + (py + t * vy - y) ** 2
        if d2 < best_d2:
            best_d2 = d2
            best = (a, t)
    if best is None:
        return (math.sqrt(best_d2), *(float(s[j]) for s in series))
    a, t = best
    return (math.sqrt(best_d2), *(float(s[a] + t * (s[a + 1] - s[a])) for s in series))


def test_project_matches_the_numpy_scalar_version(geom_03, geom_02, rng):
    cases = [(geom.equivocal.points, (geom.equivocal.tau, geom.equivocal.u)) for geom in (geom_03, geom_02)]
    for geom in (geom_03, geom_02):
        for fan in (geom.primary_fan, geom.secondary_fan):
            for ci in rng.integers(0, len(fan.trajectories), 40).tolist():
                ch = fan.trajectories[ci]
                cases.append((ch.points, (ch.tau,)))
    # A repeated sample (a zero-length segment) and a two-sample curve.
    cases.append((np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.5], [2.0, 0.0]]), (np.arange(4.0),)))
    cases.append((np.array([[0.0, 0.0], [1.0, 1.0]]), (np.array([0.0, 2.0]), np.array([1.0, -1.0]))))
    clamped = interior = 0
    for points, series in cases:
        n = len(points)
        js = {0, n - 1, *rng.integers(0, n, 12).tolist()}
        for j in sorted(js):
            for _ in range(4):
                x, y = points[j] + rng.normal(0.0, 0.05, 2)
                for qx, qy in ((float(x), float(y)), (x, y), (float(points[j, 0]), float(points[j, 1]))):
                    got = _project(points, j, qx, qy, *series)
                    assert repr(got) == repr(_project_numpy(points, j, qx, qy, *series)), (j, qx, qy)
                    assert all(type(v) is float for v in got)
                    on_sample = got[1:] == tuple(float(s[j]) for s in series)
                    clamped += on_sample
                    interior += not on_sample
    assert clamped > 100 and interior > 1000


def test_values_and_reference_games_are_bitwise_equal_under_the_ring_rule_scan(
    params_03, params_02, geom_03, geom_02, rng
):
    # The same pocket values and reference runs, once on the slice index
    # and once with the index replaced by the brute-force ring rule.
    def scanned(geom):
        return dataclasses.replace(
            geom,
            _secondary_index=_RingRuleScan([ch.points for ch in geom.secondary_fan.trajectories]),
        )

    scan_03, scan_02 = scanned(geom_03), scanned(geom_02)
    for geom, scan in ((geom_03, scan_03), (geom_02, scan_02)):
        bx = geom._pocket.bbox
        n = 0
        while n < 5:
            x, y = float(rng.uniform(bx[0], bx[1])), float(rng.uniform(bx[2], bx[3]))
            s = RelState(x, y)
            if geom.classify(s).tag != SECONDARY:
                continue
            assert repr(geom.value(s)) == repr(scan.value(s)), (x, y)
            n += 1
    s0 = RelState(2.152, -0.214)
    for policy, mode in (
        (EvaderPolicy(kind="truthful"), "informed"),
        (EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3), "estimating"),
    ):
        sc = Scenario(params_03, params_02, s0, policy, pursuer_mode=mode, t_max=12.0)
        fast = run_closed_loop(sc, geom_03, geom_02)
        slow = run_closed_loop(sc, scan_03, scan_02)
        assert SECONDARY in fast.region
        for f in dataclasses.fields(fast):
            assert repr(getattr(fast, f.name)) == repr(getattr(slow, f.name)), f.name
    assert scan_03._secondary_index.calls > 1000
