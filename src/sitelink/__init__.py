"""sitelink: deterministic LTE / 5G mmWave uplink video streaming simulator.

A discrete-event model of construction-site camera uplinks through a single
cell, used to compare LTE and mmWave service quality (throughput, packet-loss
rate, mean delay) as the number of cameras, the per-camera video rate, and
the machine speed vary.
"""

from .channel import (LteRadio, MmWavePathLossParams, NrRadio,
                      earfcn_to_freq_mhz, friis_rx_power, mmwave_pathloss_db,
                      noise_power_dbm, nr_arfcn_to_freq_mhz,
                      nr_outage_probability, snr_db)
from .config import (ConfigError, ScenarioConfig, default_config,
                     parse_config, render_config)
from .engine import SchedulingInPastError, Simulator, rng_stream
from .metrics import (FlowStats, RunResult, aggregate_replications,
                      export_csv, finalize)
from .mobility import position_at
from .phymac import (HarqOutcome, HarqProcess, LinkAdaptation, LtePhy, NrPhy,
                     PfState, RrState, achievable_rate_bps, bler, harq_transmit,
                     nr_slot_schedule, pf_schedule)
from .runner import (SimulationError, derive_run_seed, run_metadata,
                     run_scenario, run_single)
from .traffic import (DropCause, DuplicateDeliveryError, FlowQueue, Sink,
                      VideoStream, cbr_emit_times)

__version__ = "0.1.0"
