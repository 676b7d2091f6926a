"""Joint power and subcarrier allocation for a relay-assisted OFDMA
downlink: energy-efficient (Dinkelbach) and rate-maximal solvers, a
channel/topology generator, a brute-force certifier and Monte-Carlo
sweep drivers.

Importing the package loads no submodule.  Each public name, and each
submodule below, is imported on first access (PEP 562), so a program
that only loads a config never imports the solver, the oracle or the
sweep drivers.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "channel": ("ChannelRealization", "PathLossClass", "PathLossModel",
                "Topology", "assign_sector", "build_topology",
                "generate_instance", "path_loss_db", "sample_channel"),
    "config": ("ConfigError", "SystemConfig", "load_config"),
    "experiments": ("ResultRecord", "SweepSpec", "aggregate",
                    "builtin_scenarios", "run_sweep", "write_csv",
                    "write_json"),
    "model": ("Af", "Allocation", "Direct", "Metrics", "PowerModel",
              "RadioConfig", "check_feasibility", "compute_metrics",
              "dbm_to_watts", "energy_efficiency", "link_rate_af",
              "link_rate_direct", "snr_af_approx", "snr_af_exact",
              "snr_direct", "system_power", "system_rate", "tx_power_used",
              "watts_to_dbm"),
    "oracle": ("GridSpec", "brute_force_eem", "brute_force_sem",
               "enumerate_assignments", "optimize_powers_on_grid"),
    "solver": ("Solution", "SolverTrace", "af_beta", "solve_eem",
               "solve_sem"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # as `relayopt.solver` worked after `import relayopt`
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not cached here: the name stays the submodule's, patches included
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
