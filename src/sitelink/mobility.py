"""UE placement and corridor patrol motion around a single base station at origin."""

from __future__ import annotations

import math
from dataclasses import dataclass

Position = tuple[float, float]


@dataclass(frozen=True)
class MobilityState:
    """Constant-velocity motion with the radial distance reflected into a corridor."""

    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0
    min_r: float = 1.0
    max_r: float = 200.0


def _reflect(value: float, lo: float, hi: float) -> float:
    # Triangle-wave fold of a scalar into [lo, hi]; models elastic reflection
    # at both corridor walls.
    span = hi - lo
    phase = (value - lo) % (2.0 * span)
    return lo + span - abs(phase - span)


def position_at(state: MobilityState, t: float) -> Position:
    """Position at time t; the naive radial distance is reflected into bounds."""
    px = state.x + state.vx * t
    py = state.y + state.vy * t
    r_naive = math.hypot(px, py)
    r = _reflect(r_naive, state.min_r, state.max_r)
    if r_naive < 1e-12:
        return (r, 0.0)
    scale = r / r_naive
    return (px * scale, py * scale)
