"""Joint power and subcarrier allocation for a relay-assisted OFDMA
downlink: energy-efficient (Dinkelbach) and rate-maximal solvers, a
channel/topology generator, a brute-force certifier and Monte-Carlo
sweep drivers.
"""

from .channel import (ChannelRealization, PathLossClass, PathLossModel,
                      Topology, assign_sector, build_topology,
                      generate_instance, path_loss_db, sample_channel)
from .config import ConfigError, SystemConfig, load_config
from .experiments import (ResultRecord, SweepSpec, aggregate,
                          builtin_scenarios, run_sweep, write_csv, write_json)
from .model import (Af, Allocation, Direct, Metrics, PowerModel, RadioConfig,
                    check_feasibility, compute_metrics, dbm_to_watts,
                    energy_efficiency, link_rate_af, link_rate_direct,
                    snr_af_approx, snr_af_exact, snr_direct, system_power,
                    system_rate, tx_power_used, watts_to_dbm)
from .oracle import (GridSpec, brute_force_eem, brute_force_sem,
                     enumerate_assignments, optimize_powers_on_grid)
from .solver import Solution, SolverTrace, af_beta, solve_eem, solve_sem

__version__ = "0.1.0"

__all__ = [
    "Af", "Allocation", "ChannelRealization", "ConfigError", "Direct",
    "GridSpec", "Metrics", "PathLossClass", "PathLossModel",
    "PowerModel", "RadioConfig", "ResultRecord", "Solution",
    "SolverTrace", "SweepSpec", "SystemConfig", "Topology",
    "af_beta", "aggregate", "assign_sector", "brute_force_eem",
    "brute_force_sem", "build_topology", "builtin_scenarios",
    "check_feasibility", "compute_metrics", "dbm_to_watts",
    "energy_efficiency", "enumerate_assignments", "generate_instance",
    "link_rate_af", "link_rate_direct", "load_config",
    "optimize_powers_on_grid", "path_loss_db", "run_sweep", "sample_channel",
    "snr_af_approx", "snr_af_exact", "snr_direct", "solve_eem",
    "solve_sem", "system_power", "system_rate", "tx_power_used",
    "watts_to_dbm", "write_csv", "write_json",
]
