import dataclasses
import math

import pytest

from chauffeur import solution
from chauffeur.core import RelState, rel_rhs, wrap_angle
from chauffeur.solution import SECONDARY, TRIBUTARY, secondary_heading, turn_alignment
from chauffeur.strategy import EvaderPolicy, _check_speed, deceptive_policy, feedback_pair


class TestPursuerFeedback:
    def test_zero_on_positive_universal_line(self, params_03, geom_03):
        assert feedback_pair(geom_03, RelState(0.0, params_03.l + 1.0))[0] == 0.0

    def test_hard_left_in_pocket(self, geom_03):
        assert feedback_pair(geom_03, RelState(2.152, -0.214))[0] == -1.0

    def test_mirror_antisymmetry(self, geom_03, rng):
        for _ in range(40):
            x = rng.uniform(0.2, 3.0)
            y = rng.uniform(-2.5, 2.5)
            if x * x + y * y <= 0.26:
                continue
            u = feedback_pair(geom_03, RelState(x, y))[0]
            assert feedback_pair(geom_03, RelState(-x, y))[0] == -u

    def test_sign_agrees_with_region(self, geom_03, rng):
        for _ in range(60):
            x = rng.uniform(0.05, 3.0)
            y = rng.uniform(-2.5, 2.5)
            s = RelState(x, y)
            tag = geom_03.classify(s).tag
            u = feedback_pair(geom_03, s)[0]
            if tag in (TRIBUTARY, "Primary"):
                assert u == 1.0
            elif tag == SECONDARY:
                assert u == -1.0

    def test_missing_turn_alignment_raises_as_the_value_does(self, geom_03, monkeypatch):
        # The feedback and value() share one tributary solve, so a missing
        # alignment is the same named error in both, not a fallback heading.
        s = RelState(2.0, 1.5)
        assert geom_03.classify(s).tag == TRIBUTARY
        monkeypatch.setattr(solution, "turn_alignment", lambda x, y: None)
        errors = []
        for query in (lambda: feedback_pair(geom_03, s), lambda: geom_03.value(s)):
            with pytest.raises(RuntimeError, match="turn alignment unexpectedly missing") as err:
                query()
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]


class TestEvaderFeedback:
    def test_flees_straight_on_universal_line(self, params_03, geom_03):
        assert feedback_pair(geom_03, RelState(0.0, params_03.l + 1.0))[1] == 0.0

    def test_constant_world_heading_in_tributary(self, params_03, geom_03):
        # Along the equilibrium pair the evader's world heading
        # theta_P0 + t + psi stays constant, so t plus the remaining turn
        # alignment does too.  Integrate the pair with stage-level feedback
        # (continuous controls) so the check is not polluted by the
        # simulator's sample-and-hold discretization.
        x, y = 2.0, 1.5
        dt = 1e-3
        heads = []
        t = 0.0
        for _ in range(2000):
            res = turn_alignment(x, y)
            if res is None or res[0] < 0.05:
                break
            heads.append(t + res[0])

            def f(x_, y_):
                a = turn_alignment(x_, y_)
                return rel_rhs(x_, y_, 1.0, a[0], params_03.mu)

            k1 = f(x, y)
            k2 = f(x + 0.5 * dt * k1[0], y + 0.5 * dt * k1[1])
            k3 = f(x + 0.5 * dt * k2[0], y + 0.5 * dt * k2[1])
            k4 = f(x + dt * k3[0], y + dt * k3[1])
            x += dt / 6.0 * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
            y += dt / 6.0 * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
            t += dt
        assert len(heads) > 1000
        assert max(heads) - min(heads) < 1e-6

    def test_pure_pursuit_on_equivocal_curve(self, geom_03):
        x, y = geom_03.equivocal.points[len(geom_03.equivocal.points) // 2]
        psi = feedback_pair(geom_03, RelState(x, y))[1]
        want = math.atan2(-x, -y)
        assert abs((psi - want + math.pi) % (2 * math.pi) - math.pi) < 1e-4

    def test_mirror_negates_heading(self, geom_03, rng):
        for _ in range(40):
            x = rng.uniform(0.2, 3.0)
            y = rng.uniform(-2.5, 2.5)
            if x * x + y * y <= 0.26:
                continue
            a = feedback_pair(geom_03, RelState(x, y))[1]
            b = feedback_pair(geom_03, RelState(-x, y))[1]
            assert abs(a + b) < 1e-12 or abs(abs(a) - math.pi) < 1e-9


class TestDeceptivePolicy:
    def test_degenerates_when_speeds_equal(self, params_03, geom_03):
        pol = EvaderPolicy(kind="deceptive", mu_low=0.3, mu_high=0.3)
        for switched in (False, True):
            geom, mu_cmd = deceptive_policy(pol, switched, geom_03, geom_03)
            assert geom is geom_03 and mu_cmd == 0.3

    def test_game_and_speed_per_phase(self, geom_03, geom_02):
        truthful = EvaderPolicy(kind="truthful")
        deceptive = EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3)
        for switched in (False, True):
            geom, mu_cmd = deceptive_policy(truthful, switched, geom_03, geom_02)
            assert geom is geom_03 and mu_cmd == 0.3
        geom, mu_cmd = deceptive_policy(deceptive, False, geom_03, geom_02)
        assert geom is geom_02 and mu_cmd == 0.2
        geom, mu_cmd = deceptive_policy(deceptive, True, geom_03, geom_02)
        assert geom is geom_03 and mu_cmd == 0.3

    def test_policy_is_frozen(self):
        pol = EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pol.mu_low = 0.3
        # The switch is triggered by the barrier crossing only.
        with pytest.raises(TypeError, match="switch_time"):
            EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3, switch_time=0.5)

    def test_switch_point_lies_on_the_wall(self, params_03, params_02, geom_03, geom_02):
        from chauffeur.sim import Scenario, run_closed_loop

        sc = Scenario(
            params_truth=params_03,
            params_low=params_02,
            initial_rel=RelState(2.152, -0.214),
            evader_policy=EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3),
            pursuer_mode="estimating",
            dt=1e-3,
            t_max=40.0,
        )
        tr = run_closed_loop(sc, geom_03, geom_02)
        switches = [e for e in tr.events if e.kind == "switch"]
        assert len(switches) == 1
        sx, sy = switches[0].location
        assert geom_03.wall_distance(sx, sy) < 5e-3
        # Commanded speed steps from the low to the high bound exactly once.
        ks = [k for k in range(1, len(tr.t)) if tr.mu_cmd[k] != tr.mu_cmd[k - 1]]
        assert len(ks) == 1
        assert tr.mu_cmd[ks[0] - 1] == 0.2 and tr.mu_cmd[ks[0]] == 0.3

    def test_one_switch_only_upward(self, params_03, params_02, geom_03, geom_02):
        from chauffeur.sim import Scenario, run_closed_loop

        sc = Scenario(
            params_truth=params_03,
            params_low=params_02,
            initial_rel=RelState(1.5, -0.8),
            evader_policy=EvaderPolicy(kind="deceptive", mu_low=0.2, mu_high=0.3),
            pursuer_mode="estimating",
            dt=1e-3,
            t_max=40.0,
        )
        tr = run_closed_loop(sc, geom_03, geom_02)
        changes = [
            (tr.mu_cmd[k - 1], tr.mu_cmd[k])
            for k in range(1, len(tr.t))
            if tr.mu_cmd[k] != tr.mu_cmd[k - 1]
        ]
        assert len(changes) <= 1
        for before, after in changes:
            assert after > before

    def test_validation(self):
        with pytest.raises(ValueError, match="mu_low"):
            EvaderPolicy(kind="deceptive")
        with pytest.raises(ValueError, match="mu_low <= mu_high"):
            EvaderPolicy(kind="deceptive", mu_low=0.4, mu_high=0.2)
        with pytest.raises(ValueError, match="kind"):
            EvaderPolicy(kind="sneaky")


class TestSpeedCheck:
    # The loop's estimate is a float; this check is the one range gate on
    # every observation it takes in.  The admissible interval is [0, 1).
    @pytest.mark.parametrize("observed", [-0.1, 1.0, 1.2, math.nan])
    def test_out_of_range_rejected(self, observed):
        with pytest.raises(ValueError, match="observed speed"):
            _check_speed(observed)

    @pytest.mark.parametrize("observed", [0.0, 0.5, math.nextafter(1.0, 0.0)])
    def test_in_range_accepted(self, observed):
        assert _check_speed(observed) is None


class TestSecondaryHeading:
    def test_feedback_wraps_the_shared_heading_law(self, geom_03, geom_02, rng):
        # Mirrored states and widened bands included; both terminal kinds.
        terminals = set()
        for geom in (geom_03, geom_02):
            for _ in range(400):
                x, y = rng.uniform(-3.0, 3.0), rng.uniform(-2.5, 2.0)
                band, wall = rng.choice([1e-6, 3e-3]), rng.choice([0.0, 3e-3])
                s = RelState(float(x), float(y))
                if geom._tag(abs(s.x), s.y, band, wall) != SECONDARY:
                    continue
                u, psi, _ = feedback_pair(geom, s, axis_band=band, wall_band=wall)
                ch, tau = geom.secondary_data(abs(s.x), s.y)
                terminals.add(ch.terminal)
                want = wrap_angle(secondary_heading(ch, tau))
                assert (u, psi) == ((1.0, wrap_angle(-want)) if x < 0.0 else (-1.0, want))
        assert terminals == {"equivocal", "negative_universal"}

    @pytest.mark.parametrize("which", ["geom_03", "geom_02"])
    def test_heading_is_the_fan_tangent(self, which, request):
        # Central differences of each sampled characteristic follow the
        # retrograde field under (u, psi) = (-1, secondary_heading).
        geom = request.getfixturevalue(which)
        mu = geom.params.mu
        worst = 0.0
        for ch in geom.secondary_fan.trajectories[::5]:
            pts, tau = ch.points, ch.tau
            for k in range(1, len(tau) - 1, max(1, len(tau) // 7)):
                h = tau[k + 1] - tau[k - 1]
                fx, fy = rel_rhs(*pts[k], -1.0, secondary_heading(ch, tau[k]), mu)
                dx, dy = (pts[k + 1] - pts[k - 1]) / h
                worst = max(worst, math.hypot(dx + fx, dy + fy))
        assert worst < 1e-5
