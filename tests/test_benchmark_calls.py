"""The calls the benchmark harness makes into relayopt.

perfbench/workloads.py defines one operation per benchmark workload.
Each runs here once, on its workload's first instance seed, so a name
those operations call that is renamed or removed fails this suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from relayopt.config import load_config

_WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_operation_has_no_failures(name):
    wl = WORKLOADS[name]
    # the config the harness gives the operation (perfbench/run.py)
    cfg = load_config(overrides=wl.config) if wl.config else None
    outcome = wl.op(cfg, wl.instances[0])
    assert outcome.failures == []
    assert outcome.ee and outcome.se
