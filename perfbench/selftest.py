"""Self-tests of the benchmark harness (about 20 s).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import relayopt.cli  # noqa: E402
import relayopt.config  # noqa: E402
import relayopt.experiments  # noqa: E402
import relayopt.solver  # noqa: E402
from relayopt.model import Allocation, Direct, compute_metrics  # noqa: E402
from relayopt.solver import Solution, SolverTrace  # noqa: E402

import run  # noqa: E402
from tracing import COUNTS, NAME, PARENT, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _raising(chan, cfg, params=None):
    raise RuntimeError("injected solver failure")


def _infeasible(chan, cfg, params=None):
    """A converged-looking answer that radiates 1 W against a 1 mW budget."""
    alloc = Allocation(cfg.n_users, cfg.n_subcarriers, {(0, 0): Direct(1.0)})
    metrics = compute_metrics(alloc, chan, cfg.radio(), cfg.power_model())
    return Solution(alloc, metrics, SolverTrace())


def _measure(name: str, n_seeds: int) -> run.Stats:
    wl = WORKLOADS[name]
    cfg = (relayopt.config.load_config(overrides=wl.config)
           if wl.config else None)
    with contextlib.redirect_stderr(io.StringIO()):  # expected tracebacks
        return run.measure(wl, cfg, list(wl.instances[:n_seeds]), 0.0)


def _relayopt_bindings() -> dict:
    """Identity of every value bound in a relayopt module or in a dict
    held by one."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "relayopt" and not modname.startswith("relayopt."):
            continue
        for key, val in vars(mod).items():
            out[(modname, key)] = id(val)
            if isinstance(val, dict) and key != "__builtins__":
                for dkey, dval in val.items():
                    out[(modname, key, dkey)] = id(dval)
    return out


class FailuresAreCounted(unittest.TestCase):
    # (workload, patch that injects `fake` where that workload's solve is
    # looked up, instance seeds to run)
    CASES = (
        ("desk_solve",
         lambda fake: mock.patch.object(relayopt.cli, "solve_eem", fake), 3),
        ("large_solve",
         lambda fake: mock.patch.object(relayopt.solver, "solve_eem", fake), 3),
        ("scenario_sweep",
         lambda fake: mock.patch.dict(relayopt.experiments._ALGORITHMS,
                                      {"EEM": fake}), 1),
        ("oracle_certify",
         lambda fake: mock.patch.object(relayopt.solver, "solve_eem", fake), 1),
    )

    def test_raising_and_infeasible_solves_fail(self):
        for name, patch, n_seeds in self.CASES:
            for fake in (_raising, _infeasible):
                with self.subTest(workload=name, fake=fake.__name__):
                    with patch(fake):
                        st = _measure(name, n_seeds)
                    self.assertEqual(st.attempted,
                                     n_seeds * WORKLOADS[name].units)
                    self.assertEqual(len(st.failures), st.attempted)
                    self.assertEqual(run.extras(st)["failed_frac"], 1.0)

    def test_unpatched_run_passes(self):
        st = _measure("desk_solve", 5)
        self.assertEqual(st.failures, [])


class Percentiles(unittest.TestCase):
    def test_never_fewer_than_ten_beyond(self):
        for n in range(0, 400):
            values = list(range(n))
            for p in (50, 90, 99):
                v = run.percentile(values, p)
                if v is not None:
                    self.assertGreaterEqual(sum(x > v for x in values),
                                            run.TAIL, (n, p))
            if n >= 100:
                self.assertIsNotNone(run.percentile(values, 90), n)


class Tracing(unittest.TestCase):
    def test_sweep_calls_seen_and_wrappers_restored(self):
        before = _relayopt_bindings()
        tracer = Tracer()
        with tracer.installed():
            self.assertNotEqual(_relayopt_bindings(), before)
            with tracer.operation(0):
                out = WORKLOADS["scenario_sweep"].op(None, 7)
        self.assertEqual(out.failures, [])
        self.assertEqual(_relayopt_bindings(), before)
        spans = tracer.spans
        for solve in ("solver.solve_eem", "solver.solve_sem"):
            parents = {spans[s[PARENT]][NAME] for s in spans if s[NAME] == solve}
            self.assertEqual(parents, {"experiments.run_sweep"}, solve)
        sweeps = sum(s[COUNTS].get("solver.sweep", 0) for s in spans)
        self.assertGreater(sweeps, 0)


class PrintedMetrics(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 "desk_solve", "--seconds", "0.5", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result["metrics"]),
                             sorted(m["name"] for m in spec[kind]))
            for m in spec[kind]:
                self.assertEqual(result["metrics"][m["name"]]["unit"],
                                 m["unit"])


if __name__ == "__main__":
    unittest.main()
