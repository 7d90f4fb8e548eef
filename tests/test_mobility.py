"""Corridor patrol motion."""

import math

import numpy as np
import pytest

from sitelink.mobility import MobilityState, position_at


def test_static_ue_stays_put():
    state = MobilityState(x=60.0, y=0.0, min_r=20.0, max_r=200.0)
    for t in (0.0, 1.0, 17.3, 1000.0):
        assert position_at(state, t) == (60.0, 0.0)


def test_outward_radial_motion_is_linear_inside_the_corridor():
    state = MobilityState(x=20.0, y=0.0, vx=10.0, vy=0.0, min_r=20.0, max_r=200.0)
    pos = position_at(state, 3.0)
    assert math.hypot(*pos) == pytest.approx(50.0)


def test_reflection_at_the_outer_wall():
    # 190 m + 10 m/s * 2 s = 210 m, reflected at 200 m back to 190 m.
    state = MobilityState(x=190.0, y=0.0, vx=10.0, vy=0.0, min_r=20.0, max_r=200.0)
    pos = position_at(state, 2.0)
    assert math.hypot(*pos) == pytest.approx(190.0)


def test_patrol_covers_the_corridor_and_returns():
    state = MobilityState(x=20.0, y=0.0, vx=9.0, vy=0.0, min_r=20.0, max_r=200.0)
    span = 200.0 - 20.0
    period = 2.0 * span / 9.0
    assert math.hypot(*position_at(state, span / 9.0)) == pytest.approx(200.0)
    assert math.hypot(*position_at(state, period)) == pytest.approx(20.0)


def test_radial_distance_always_inside_bounds():
    rng = np.random.default_rng(31)
    for _ in range(300):
        r0 = float(rng.uniform(20.0, 200.0))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        state = MobilityState(
            x=r0 * math.cos(theta), y=r0 * math.sin(theta),
            vx=float(rng.uniform(-30.0, 30.0)), vy=float(rng.uniform(-30.0, 30.0)),
            min_r=20.0, max_r=200.0)
        t = float(rng.uniform(0.0, 120.0))
        r = math.hypot(*position_at(state, t))
        assert 20.0 - 1e-9 <= r <= 200.0 + 1e-9
