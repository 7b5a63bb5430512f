import math

import numpy as np
import pytest

from chauffeur.core import Controls, rel_rhs, validate_params, wrap_angle
from rk4_kernel import frozen_rhs, rk4_step


class TestValidateParams:
    def test_reference_values_accepted(self):
        p = validate_params(0.3, 0.5)
        assert p.mu == 0.3 and p.l == 0.5

    def test_classical_condition_rejected(self):
        with pytest.raises(ValueError, match="mu\\^2 \\+ l\\^2"):
            validate_params(0.8, 0.7)  # 0.64 + 0.49 >= 1

    def test_not_strictly_slower_rejected(self):
        with pytest.raises(ValueError, match="strict speed advantage"):
            validate_params(1.0, 0.1)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            validate_params(0.3, 0.0)


class TestRelDynamics:
    def test_head_on_chase_closes_at_one_minus_mu(self):
        assert rel_rhs(0.0, 2.0, 0.0, 0.0, 0.5) == (0.0, -0.5)

    def test_direct_substitution(self):
        dx, dy = rel_rhs(1.0, 0.0, 1.0, math.pi / 2, 0.3)
        assert abs(dx - 0.3) < 1e-15
        assert abs(dy) < 1e-15

    def test_forward_then_retrograde_euler_consistency(self, rng):
        # One Euler step forward then one retrograde step lands back at the
        # start to second order in dt.
        dt = 1e-3
        for _ in range(50):
            x, y = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1)
            psi = rng.uniform(-math.pi, math.pi)
            mu = rng.uniform(0.05, 0.9)
            fx, fy = rel_rhs(x, y, u, psi, mu)
            x1, y1 = x + dt * fx, y + dt * fy
            gx, gy = rel_rhs(x1, y1, u, psi, mu)
            x2, y2 = x1 - dt * gx, y1 - dt * gy
            assert math.hypot(x2 - x, y2 - y) < 10.0 * dt * dt

    def test_radial_rate_maximized_along_outward_radial(self, rng):
        # d(r^2)/dt over psi peaks where the evader heading aligns with the
        # outward radial direction; assert by fine sampling.
        for _ in range(20):
            x, y = rng.uniform(-2, 2, 2)
            if math.hypot(x, y) < 0.2:
                continue
            u = rng.uniform(-1, 1)
            mu = rng.uniform(0.1, 0.9)
            psis = np.linspace(-math.pi, math.pi, 2001)
            rates = [
                x * rel_rhs(x, y, u, p, mu)[0] + y * rel_rhs(x, y, u, p, mu)[1]
                for p in psis
            ]
            best = psis[int(np.argmax(rates))]
            outward = math.atan2(x, y)
            assert abs(wrap_angle(best - outward)) < 0.01

    def test_norm_growth_bound(self, rng):
        for _ in range(200):
            x, y = rng.uniform(-3, 3, 2)
            u = rng.uniform(-1, 1)
            psi = rng.uniform(-math.pi, math.pi)
            mu = rng.uniform(0.0, 0.99)
            fx, fy = rel_rhs(x, y, u, psi, mu)
            assert math.hypot(fx, fy) <= abs(u) * math.hypot(x, y) + 1.0 + mu + 1e-12

    def test_controls_validation(self):
        with pytest.raises(ValueError):
            Controls(u=1.5, psi=0.0, mu_cmd=0.3)
        with pytest.raises(ValueError):
            Controls(u=0.0, psi=0.0, mu_cmd=-0.1)
        assert abs(abs(Controls(u=0.0, psi=3 * math.pi, mu_cmd=0.0).psi) - math.pi) < 1e-12


class TestRk4Step:
    def test_floats_and_arrays_agree_bitwise(self, rng):
        # A time-dependent polynomial field: plain arithmetic, no library calls.
        def f(x, y, c):
            return -y * 0.7 + 0.3 * c + 0.1 * x * y, x * 0.7 - 1.0 + 0.2 * c * c

        xs = rng.uniform(-3.0, 3.0, 500)
        ys = rng.uniform(-3.0, 3.0, 500)
        ax, ay = rk4_step(f, xs, ys, 0.013)
        for i in range(len(xs)):
            fx, fy = rk4_step(f, float(xs[i]), float(ys[i]), 0.013)
            assert fx == ax[i] and fy == ay[i]

    def test_fourth_order_on_the_turn_circle(self):
        # u = 1, mu = 0: (x - 1, y) rotates about (1, 0) at unit rate.
        f = frozen_rhs(1.0, 0.0, 0.0)
        x0, y0, t_end = 2.5, -0.4, 2.0

        def error(n):
            x, y = x0, y0
            for _ in range(n):
                x, y = rk4_step(f, x, y, t_end / n)
            ex = 1.0 + (x0 - 1.0) * math.cos(t_end) - y0 * math.sin(t_end)
            ey = (x0 - 1.0) * math.sin(t_end) + y0 * math.cos(t_end)
            return math.hypot(x - ex, y - ey)

        ratio = error(20) / error(40)
        assert 15.0 < ratio < 17.0
