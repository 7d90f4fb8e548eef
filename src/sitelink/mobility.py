"""Radial corridor patrol: a UE starts at radius r0 from the base station at
the origin, moves outward at the mobility section's speed and reflects
between the corridor walls."""

from __future__ import annotations

from .config import MobilityConfig


def _reflect(value: float, lo: float, hi: float) -> float:
    # Triangle-wave fold of a scalar into [lo, hi]; models elastic reflection
    # at both corridor walls.  lo + span can round one ulp past hi (and the
    # fold one past lo), so the clamp keeps every UE inside its corridor.
    span = hi - lo
    phase = (value - lo) % (2.0 * span)
    return min(max(lo + span - abs(phase - span), lo), hi)


def position_at(r0: float, mobility: MobilityConfig, t: float) -> float:
    """Distance from the base station at time t of a UE that started at r0."""
    if not mobility.speed_kmh:
        return r0   # the fold can round a static UE off its placement
    return _reflect(r0 + mobility.speed_kmh / 3.6 * t,
                    mobility.corridor_min_m, mobility.corridor_max_m)
