"""
Scheduling: proportional fair resource blocks vs round-robin slots
==================================================================

The LTE cell splits each 1 ms subframe into 25 resource blocks and grants
every block to the backlogged UE with the best instantaneous-to-average rate
ratio.  The mmWave cell hands whole 0.125 ms slots to backlogged UEs in
round-robin order.
"""

from sitelink import LtePhy, PfState, RrState, nr_slot_schedule, pf_schedule

# ---------------------------------------------------------------------------
# 1. Proportional fair favours the UE that has been served least
# ---------------------------------------------------------------------------

state = PfState(LtePhy(pf_window=10), 3)    # 25 RBs per 1 ms subframe
backlogs = [50_000, 50_000, 50_000]        # every UE stays backlogged
rates = [12e6, 12e6, 12e6]                 # identical channels

print("PF on identical channels: the smoothed averages equalise the grants")
print("  subframe  allocation    smoothed averages (kb/s)")
for subframe in range(6):
    alloc = pf_schedule(state, rates, backlogs)
    avgs = ", ".join(f"{a / 1e3:7.1f}" for a in state.avg_bps)
    print(f"  {subframe:>8}  {alloc}   [{avgs}]")

# ---------------------------------------------------------------------------
# 2. A better channel wins resources, but only until its average catches up
# ---------------------------------------------------------------------------

state = PfState(LtePhy(pf_window=5), 2)
print("\nPF with UE0 at twice the spectral efficiency of UE1:")
print("  subframe  allocation")
for subframe in range(8):
    alloc = pf_schedule(state, [16e6, 8e6], [50_000, 50_000])
    print(f"  {subframe:>8}  {alloc}")

# ---------------------------------------------------------------------------
# 3. Round-robin slots: strict rotation over whoever has data
# ---------------------------------------------------------------------------

state = RrState()
backlogs = [1, 1, 0, 1]                    # UE2 idle
print("\nRound-robin slot grants (UE2 idle, then joining at slot 5):")
picks = []
for slot in range(10):
    if slot == 5:
        backlogs[2] = 1
    picks.append(nr_slot_schedule(state, backlogs))
print(f"  slots 0-9 -> {picks}")
print("  UE2 is inserted right after its backlog appears; nobody waits more"
      " than one rotation.")
