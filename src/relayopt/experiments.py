"""Monte-Carlo sweeps over scenario grids.

A sweep is a Cartesian product of named parameter axes laid over a base
configuration.  Every grid point solves the same `samples` channel
realizations (seed = the base configuration's master_seed + sample
index), so curves across grid points and across algorithms are paired
sample-by-sample.  SEM is read off the Dinkelbach trajectory that EEM
computes, so each sample solves that trajectory once and derives both
answers from it, in whatever order the algorithms are listed.

A grid point's record holds means over its converged samples; the seeds
of the samples that failed to converge are listed in the JSON mirror.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .channel import generate_instance
from .config import SystemConfig
from .solver import solve_eem, solve_sem

# sweepable SystemConfig fields, also the CSV identity columns
AXIS_NAMES = ("p_max_dbm", "n_users", "n_subcarriers", "n_relays",
              "cell_radius_km", "d_r")

_ALGORITHMS = {"EEM": solve_eem, "SEM": solve_sem}

# flag a grid point when more than this fraction of samples fail to converge
_FLAG_FAILURE_FRACTION = 0.01


@dataclass
class SweepSpec:
    name: str
    base: SystemConfig = field(default_factory=SystemConfig)
    axes: Dict[str, list] = field(default_factory=dict)
    samples: int = 200
    algorithms: Tuple[str, ...] = ("EEM", "SEM")

    def validate(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        for name in self.axes:
            if name not in AXIS_NAMES:
                raise ValueError(f"unknown sweep axis {name!r}")
            if not self.axes[name]:
                raise ValueError(f"sweep axis {name!r} is empty")
        for i, alg in enumerate(self.algorithms):
            if alg not in _ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}")
            if alg in self.algorithms[:i]:
                raise ValueError(f"algorithm {alg!r} listed twice")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")


@dataclass
class ResultRecord:
    scenario: str
    algorithm: str
    p_max_dbm: float
    n_users: int
    n_subcarriers: int
    n_relays: int
    cell_radius_km: float
    d_r: float
    samples: int          # converged samples behind the means
    failures: int
    se_mean: float
    se_stderr: float
    ee_mean: float
    ee_stderr: float
    rho_mean: float
    rho_stderr: float
    txpower_mean: float
    outer_iters_mean: float
    inner_iters_mean: float
    flagged: bool = False  # > 1% of samples failed (not a CSV column)
    # seeds of the samples that did not converge (not a CSV column)
    failed_seeds: list = field(default_factory=list)


# every ResultRecord field but the JSON-only ones, in field order
CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRecord)
                    if f.name not in ("flagged", "failed_seeds"))


def _mean_stderr(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row means and standard errors (sample stddev / sqrt(n)) of a
    (rows, n) array; the standard error of a single value is 0."""
    n = rows.shape[1]
    mean = rows.mean(axis=1)
    if n < 2:
        return mean, np.zeros_like(mean)
    return mean, rows.std(axis=1, ddof=1) / math.sqrt(n)


def aggregate(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and standard error (sample stddev / sqrt(n)) of a list."""
    if len(values) == 0:
        raise ValueError("aggregate of empty input")
    mean, err = _mean_stderr(np.asarray(values, dtype=float).reshape(1, -1))
    return float(mean[0]), float(err[0])


def _solve_sample(cfg: SystemConfig, seed: int, algorithms):
    """One channel realization solved by every requested algorithm:
    one EEM solve, from whose Dinkelbach trajectory SEM is read."""
    _, chan = generate_instance(cfg, seed)
    eem = _ALGORITHMS["EEM"](chan, cfg)
    out = {}
    for alg in algorithms:
        sol = eem if alg == "EEM" else _ALGORITHMS["SEM"](chan, cfg, eem=eem)
        its = sol.trace.iterations
        out[alg] = (
            sol.metrics.rate_per_subcarrier,
            sol.metrics.ee_per_subcarrier,
            sol.metrics.rho,
            sol.metrics.tx_power_used,
            len(its),
            sum(s.evals for s in its),
            sol.trace.termination == "converged",
        )
    return out


def _point_records(spec: SweepSpec, cfg: SystemConfig, seeds,
                   sample_results) -> list:
    records = []
    for alg in spec.algorithms:
        rows = [res[alg] for res in sample_results]
        ok = [r for r in rows if r[6]]
        failed_seeds = [s for s, r in zip(seeds, rows) if not r[6]]
        failures = len(failed_seeds)
        if ok:
            # one (6, S) array: the six per-sample figures, row by row
            mean, err = _mean_stderr(np.array(list(zip(*ok))[:6], dtype=float))
            se_m, ee_m, rho_m, tx_m, outer_m, inner_m = mean.tolist()
            se_s, ee_s, rho_s = err[:3].tolist()
        else:
            se_m = se_s = ee_m = ee_s = rho_m = rho_s = float("nan")
            tx_m = outer_m = inner_m = float("nan")
        records.append(ResultRecord(
            scenario=spec.name, algorithm=alg,
            **{name: getattr(cfg, name) for name in AXIS_NAMES},
            samples=len(ok), failures=failures,
            se_mean=se_m, se_stderr=se_s, ee_mean=ee_m, ee_stderr=ee_s,
            rho_mean=rho_m, rho_stderr=rho_s, txpower_mean=tx_m,
            outer_iters_mean=outer_m, inner_iters_mean=inner_m,
            flagged=failures > _FLAG_FAILURE_FRACTION * len(rows),
            failed_seeds=failed_seeds,
        ))
    return records


def run_sweep(spec: SweepSpec) -> List[ResultRecord]:
    """All grid points x algorithms, samples in index order.
    Deterministic for a given spec."""
    spec.validate()
    names = list(spec.axes)
    records: List[ResultRecord] = []
    for combo in itertools.product(*(spec.axes[a] for a in names)):
        cfg = dataclasses.replace(spec.base, **dict(zip(names, combo)))
        cfg.validate()
        seeds = [cfg.master_seed + i for i in range(spec.samples)]
        results = [_solve_sample(cfg, s, spec.algorithms) for s in seeds]
        records.extend(_point_records(spec, cfg, seeds, results))
    return records


def builtin_scenarios() -> Dict[str, SweepSpec]:
    """The five stock studies, desk-scaled (N=32, K<=16, 200 samples)."""
    base = SystemConfig()  # K=8, N=32, M=3, radius 1.5 km, d_r 0.5, 0 dBm
    return {
        "convergence": SweepSpec(
            name="convergence",
            base=dataclasses.replace(base, n_subcarriers=16, n_relays=0,
                                     cell_radius_km=1.0),
            axes={}),
        "users": SweepSpec(
            name="users", base=base, axes={"n_users": [4, 8, 16]}),
        "subcarriers": SweepSpec(
            name="subcarriers", base=base,
            axes={"n_subcarriers": [16, 32, 64]}),
        "radius": SweepSpec(
            name="radius", base=base,
            axes={"cell_radius_km": [0.75, 1.0, 1.25, 1.5, 1.75, 2.0],
                  "n_relays": [0, 3]}),
        "d_r": SweepSpec(
            name="d_r", base=base,
            axes={"d_r": [0.1, 0.3, 0.5, 0.7, 0.9], "n_relays": [1, 3]}),
    }


def _record_row(rec: ResultRecord) -> list:
    return [getattr(rec, col) for col in CSV_COLUMNS]


def write_csv(records: Sequence[ResultRecord], out) -> None:
    """Write the records as CSV to a path or to an open text stream."""
    if not hasattr(out, "write"):
        with open(out, "w", newline="") as fh:
            write_csv(records, fh)
        return
    w = csv.writer(out)
    w.writerow(CSV_COLUMNS)
    for rec in records:
        w.writerow(_record_row(rec))


def _finite_or_none(value):
    """JSON has no NaN: a mean over zero converged samples is written null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_json(records: Sequence[ResultRecord], path) -> None:
    payload = {"records": [
        {key: _finite_or_none(val) for key, val in dataclasses.asdict(rec).items()}
        for rec in records]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
