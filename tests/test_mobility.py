"""Radial corridor patrol."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sitelink.config import MobilityConfig
from sitelink.mobility import _reflect, position_at


def _corridor(speed_kmh, lo=20.0, hi=200.0):
    return MobilityConfig(placement=f"{lo!r}", speed_kmh=speed_kmh,
                          corridor_min_m=lo, corridor_max_m=hi)


def test_static_ue_stays_put():
    mobility = _corridor(0.0)
    for t in (0.0, 1.0, 17.3, 1000.0):
        assert position_at(60.0, mobility, t) == 60.0


def test_outward_radial_motion_is_linear_inside_the_corridor():
    # 36 km/h is 10 m/s: 20 m + 10 m/s * 3 s = 50 m.
    assert position_at(20.0, _corridor(36.0), 3.0) == pytest.approx(50.0)


def test_reflection_at_the_outer_wall():
    # 190 m + 10 m/s * 2 s = 210 m, reflected at 200 m back to 190 m.
    assert position_at(190.0, _corridor(36.0), 2.0) == pytest.approx(190.0)


def test_patrol_covers_the_corridor_and_returns():
    mobility = _corridor(32.4)   # 9 m/s
    span = 200.0 - 20.0
    period = 2.0 * span / 9.0
    assert position_at(20.0, mobility, span / 9.0) == pytest.approx(200.0)
    assert position_at(20.0, mobility, period) == pytest.approx(20.0)


@st.composite
def _radial_cases(draw):
    lo = draw(st.floats(1.0, 500.0))
    hi = draw(st.floats(lo, 1000.0).filter(lambda v: v > lo))
    r0 = draw(st.floats(lo, hi))
    return lo, hi, r0, draw(st.floats(0.0, 200.0)), draw(st.floats(0.0, 120.0))


@settings(max_examples=500, deadline=None)
@given(case=_radial_cases())
# Through the fold, a static UE on a wall of these corridors sits one
# rounding off it: at 2.0000099999999996, 1.8999999999999773,
# 468.20000000000005 and 155.10000000000002.
@example(case=(2.00001, 7.0, 2.00001, 0.0, 0.0))
@example(case=(1.9, 258.0, 1.9, 0.0, 0.0))
@example(case=(155.1, 468.2, 468.2, 0.0, 0.0))
@example(case=(155.1, 468.2, 155.1, 0.0, 0.0))
def test_radial_distance_always_inside_bounds(case):
    # Exactly inside: a corridor that ends at the mmWave range must keep
    # every UE within that range, and a static UE on either wall on it.
    lo, hi, r0, speed, t = case
    assert lo <= position_at(r0, _corridor(speed, lo, hi), t) <= hi
    for wall in (lo, hi):
        assert position_at(wall, _corridor(0.0, lo, hi), t) == wall


def _position_2d(x, y, vx, vy, min_r, max_r, t):
    # The 2-D constant-velocity model that radial patrol replaced: move the
    # point, reflect its distance into the corridor, rescale the point.
    px = x + vx * t
    py = y + vy * t
    r_naive = math.hypot(px, py)
    r = _reflect(r_naive, min_r, max_r)
    if r_naive < 1e-12:
        return (r, 0.0)
    scale = r / r_naive
    return (px * scale, py * scale)


@settings(max_examples=500, deadline=None)
@given(case=_radial_cases())
# The 2-D model folds this static UE to 1.4592704877742904, 64 ulps off.
@example(case=(1.0, 130.0, 1.4592704877742761, 0.0, 5.0))
def test_radial_patrol_matches_the_2d_model_within_one_ulp(case):
    # The 2-D model returned px * (r / px) for the reflected distance r, so
    # a moving UE's distance may differ from r by one rounding: at most
    # 1 ulp.  The 2-D model folded a static UE too, which could move it off
    # its start; radial patrol keeps it there exactly.
    lo, hi, r0, speed, t = case
    new = position_at(r0, _corridor(speed, lo, hi), t)
    if speed == 0.0:
        assert new == r0
        return
    old = _position_2d(r0, 0.0, speed / 3.6, 0.0, lo, hi, t)
    assert abs(new - math.hypot(*old)) <= math.ulp(new)
