"""The benchmark workloads: a fixed set of instance seeds, one closed-loop
operation, and the checks that decide whether it failed.

Every call into relayopt goes through a module attribute looked up at
call time (``relayopt.solver.solve_eem``, never a name imported into this
file), so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import relayopt.channel
import relayopt.cli
import relayopt.experiments
import relayopt.model
import relayopt.oracle
import relayopt.solver

P_MAX_DBM = 0.0
P_MAX_W = 10.0 ** ((P_MAX_DBM - 30.0) / 10.0)
RTOL = 1e-9            # relative slack of the budget and ordering checks
ORACLE_MIN_GAP = -0.01  # acceptance criterion 1

DESK_ARGS = ["--k", "8", "--n", "32", "--m", "3",
             "--p-max-dbm", str(P_MAX_DBM)]
DESK_SEEDS = tuple(range(1, 201))
LARGE = {"n_users": 128, "n_subcarriers": 1024, "n_relays": 3,
         "p_max_dbm": P_MAX_DBM}
LARGE_SEEDS = (1, 2, 3, 4, 5)
SWEEP_SAMPLES = 1      # samples per grid point in one sweep call
SWEEP_SEEDS = tuple(range(1, 21))
RADIUS_POINTS = 12     # 6 cell radii x n_relays in {0, 3}
ORACLE = {"n_users": 2, "n_subcarriers": 2, "n_relays": 1,
          "p_max_dbm": P_MAX_DBM}
ORACLE_SEEDS = (1, 2, 3, 4, 5)  # the first seeds of acceptance criterion 1


@dataclass
class Outcome:
    """What one operation returned: failed units and the answers' quality."""

    failures: list = field(default_factory=list)  # one message per failed unit
    ee: list = field(default_factory=list)        # per-subcarrier EE per answer
    se: list = field(default_factory=list)        # per-subcarrier rate per answer
    gaps: list = field(default_factory=list)      # (solver - oracle) / oracle EE


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple               # instance seeds of one pass
    op: Callable[[object, int], Outcome]  # (config, instance seed) -> outcome
    config: Optional[dict] = None  # overrides of the config the op is given
    units: int = 1                 # checked units per operation
    samples: int = 1               # channel instances per operation


def _failed(seed: int, problems: list) -> list:
    return [f"seed {seed}: " + "; ".join(problems)] if problems else []


def _run_cli(argv: list):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = relayopt.cli.main(argv)
    return status, out.getvalue()


# --- desk_solve -------------------------------------------------------
def desk_op(_cfg, seed: int) -> Outcome:
    status, text = _run_cli(["solve", *DESK_ARGS, "--seed", str(seed)])
    if status != 0:
        return Outcome([f"seed {seed}: exit status {status}"])
    doc = json.loads(text)
    problems = []
    if doc["trace"]["termination"] != "converged":
        problems.append(f"termination {doc['trace']['termination']}")
    entries = doc["allocation"]["entries"]
    carriers = [e["subcarrier"] for e in entries]
    if len(carriers) != len(set(carriers)):
        problems.append("a subcarrier carries two entries")
    radiated = sum(e["p"] if e["protocol"] == "direct" else e["p_bs"] + e["p_rn"]
                   for e in entries)
    if radiated > P_MAX_W * (1.0 + RTOL):
        problems.append(f"radiated {radiated:.9e} W over budget")
    m = doc["metrics"]
    return Outcome(_failed(seed, problems),
                   ee=[m["ee_per_subcarrier"]], se=[m["rate_per_subcarrier"]])


# --- large_solve ------------------------------------------------------
def _solve_checked(cfg, seed: int):
    _, chan = relayopt.channel.generate_instance(cfg, seed)
    sol = relayopt.solver.solve_eem(chan, cfg)
    problems = relayopt.model.check_feasibility(
        sol.allocation, cfg.radio(), cfg.power_model())
    if sol.trace.termination != "converged":
        problems.append(f"termination {sol.trace.termination}")
    return chan, sol, problems


def large_op(cfg, seed: int) -> Outcome:
    _, sol, problems = _solve_checked(cfg, seed)
    return Outcome(_failed(seed, problems),
                   ee=[sol.metrics.ee_per_subcarrier],
                   se=[sol.metrics.rate_per_subcarrier])


# --- scenario_sweep ---------------------------------------------------
def sweep_op(_cfg, seed: int) -> Outcome:
    status, text = _run_cli(["sweep", "--scenario", "radius", "--samples",
                             str(SWEEP_SAMPLES), "--seed", str(seed)])
    if status != 0:
        return Outcome([f"seed {seed}: exit status {status}"] * RADIUS_POINTS)
    rows = list(csv.reader(io.StringIO(text)))
    if tuple(rows[0]) != relayopt.experiments.CSV_COLUMNS:
        return Outcome([f"seed {seed}: CSV header {rows[0]}"] * RADIUS_POINTS)
    col = {name: i for i, name in enumerate(rows[0])}
    means = [c for c in rows[0] if c.endswith("_mean")]
    points: dict = {}
    for row in rows[1:]:
        key = tuple(row[col[a]] for a in relayopt.experiments.AXIS_NAMES)
        points.setdefault(key, {})[row[col["algorithm"]]] = row
    out = Outcome()
    for key, algs in points.items():
        where = f"seed {seed} point {key}"
        if set(algs) != {"EEM", "SEM"}:
            out.failures.append(f"{where}: algorithms {sorted(algs)}")
            continue
        val = {a: {c: float(r[col[c]]) for c in means} for a, r in algs.items()}
        problems = [f"{a} {c} not finite" for a in val for c in means
                    if not math.isfinite(val[a][c])]
        problems += [f"{a} {r[col['failures']]} failed samples"
                     for a, r in algs.items() if int(r[col["failures"]]) != 0]
        problems += [f"{a} txpower_mean over budget" for a in val
                     if val[a]["txpower_mean"] > P_MAX_W * (1.0 + RTOL)]
        eem, sem = val["EEM"], val["SEM"]
        if eem["ee_mean"] < sem["ee_mean"] * (1.0 - RTOL):
            problems.append("EEM ee_mean below SEM")
        if sem["se_mean"] < eem["se_mean"] * (1.0 - RTOL):
            problems.append("SEM se_mean below EEM")
        if problems:
            out.failures.append(f"{where}: " + "; ".join(problems))
        out.ee += [eem["ee_mean"], sem["ee_mean"]]
        out.se += [eem["se_mean"], sem["se_mean"]]
    missing = RADIUS_POINTS - len(points)
    out.failures += [f"seed {seed}: grid point missing"] * max(0, missing)
    return out


# --- oracle_certify ---------------------------------------------------
def oracle_op(cfg, seed: int) -> Outcome:
    chan, sol, problems = _solve_checked(cfg, seed)
    ora = relayopt.oracle.brute_force_eem(chan, cfg)
    gap = (sol.metrics.ee - ora.metrics.ee) / ora.metrics.ee
    if gap < ORACLE_MIN_GAP:
        problems.append(f"oracle gap {gap:+.3e}")
    return Outcome(_failed(seed, problems), ee=[sol.metrics.ee_per_subcarrier],
                   se=[sol.metrics.rate_per_subcarrier], gaps=[gap])


# why each workload exists is recorded in BENCHMARK.json and METRICS.md
WORKLOADS = {w.name: w for w in (
    Workload("desk_solve", DESK_SEEDS, desk_op),
    Workload("large_solve", LARGE_SEEDS, large_op, config=LARGE),
    Workload("scenario_sweep", SWEEP_SEEDS, sweep_op, units=RADIUS_POINTS,
             samples=RADIUS_POINTS * SWEEP_SAMPLES),
    Workload("oracle_certify", ORACLE_SEEDS, oracle_op, config=ORACLE),
)}
