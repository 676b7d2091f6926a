import csv
import itertools
import json
import math

import pytest

import relayopt.solver as solver
from relayopt.channel import generate_instance
from relayopt.config import SystemConfig
from relayopt.experiments import (AXIS_NAMES, CSV_COLUMNS, SweepSpec,
                                  aggregate, builtin_scenarios, run_sweep,
                                  write_csv, write_json)
from relayopt.solver import solve_eem, solve_sem


def _small_base(**kw):
    defaults = dict(n_users=2, n_subcarriers=4, n_relays=1, p_max_dbm=0.0)
    defaults.update(kw)
    return SystemConfig(**defaults)


def test_aggregate_values():
    assert aggregate([5.0]) == (5.0, 0.0)
    assert aggregate([1.0, 1.0, 1.0, 1.0]) == (1.0, 0.0)
    mean, se = aggregate([0.0, 2.0])
    assert mean == 1.0
    # sample stddev sqrt(2), over sqrt(2) samples
    assert se == pytest.approx(1.0, rel=1e-12)
    mean, se = aggregate([1.0, 2.0, 3.0, 4.0])
    assert mean == 2.5
    assert se == pytest.approx(math.sqrt(5.0 / 3.0) / 2.0, rel=1e-12)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


def test_sweep_spec_validation():
    SweepSpec(name="ok", base=_small_base()).validate()
    with pytest.raises(ValueError):
        SweepSpec(name="x", samples=0).validate()
    with pytest.raises(ValueError):
        SweepSpec(name="x", axes={"bogus_axis": [1]}).validate()
    with pytest.raises(ValueError):
        SweepSpec(name="x", axes={"n_users": []}).validate()
    with pytest.raises(ValueError):
        SweepSpec(name="x", algorithms=("EEM", "GREEDY")).validate()
    with pytest.raises(ValueError):
        SweepSpec(name="x", algorithms=()).validate()
    with pytest.raises(ValueError, match="algorithm 'EEM' listed twice"):
        SweepSpec(name="x", algorithms=("EEM", "EEM", "SEM")).validate()


def test_single_point_matches_direct_solves():
    base = _small_base(master_seed=7)
    spec = SweepSpec(name="point", base=base, axes={}, samples=2,
                     algorithms=("EEM",))
    (rec,) = run_sweep(spec)
    manual = [solve_eem(generate_instance(base, 7 + i)[1], base)
              for i in range(2)]
    rates = [s.metrics.rate_per_subcarrier for s in manual]
    assert rec.scenario == "point"
    assert rec.algorithm == "EEM"
    assert rec.samples == 2
    assert rec.failures == 0
    assert rec.se_mean == pytest.approx(sum(rates) / 2, rel=1e-15)
    assert rec.ee_mean == pytest.approx(
        sum(s.metrics.ee_per_subcarrier for s in manual) / 2, rel=1e-15)
    assert rec.outer_iters_mean == pytest.approx(
        sum(len(s.trace.iterations) for s in manual) / 2, rel=1e-15)
    assert not rec.flagged


def test_sweep_is_deterministic():
    spec = SweepSpec(name="det", base=_small_base(),
                     axes={"p_max_dbm": [-30.0, 60.0]}, samples=3)
    assert run_sweep(spec) == run_sweep(spec)


def test_sweep_grid_and_algorithm_order():
    spec = SweepSpec(name="order", base=_small_base(),
                     axes={"p_max_dbm": [-30.0, 60.0]}, samples=2)
    records = run_sweep(spec)
    assert [(r.p_max_dbm, r.algorithm) for r in records] == [
        (-30.0, "EEM"), (-30.0, "SEM"), (60.0, "EEM"), (60.0, "SEM")]
    assert all(r.samples + r.failures == 2 for r in records)


def test_sweep_records_respect_orderings():
    spec = SweepSpec(name="ord", base=_small_base(),
                     axes={"p_max_dbm": [-30.0, 60.0]}, samples=4)
    records = run_sweep(spec)
    by_key = {(r.p_max_dbm, r.algorithm): r for r in records}
    for dbm in (-30.0, 60.0):
        eem, sem = by_key[(dbm, "EEM")], by_key[(dbm, "SEM")]
        assert eem.ee_mean >= sem.ee_mean * (1.0 - 1e-9)
        assert sem.se_mean >= eem.se_mean * (1.0 - 1e-9)
        assert 0.0 <= eem.rho_mean <= 1.0
        assert eem.txpower_mean <= sem.txpower_mean * (1.0 + 1e-9)
    # larger budget cannot hurt energy efficiency (paired seeds)
    assert by_key[(60.0, "EEM")].ee_mean >= by_key[(-30.0, "EEM")].ee_mean


def test_sweep_rho_zero_without_relays():
    spec = SweepSpec(name="m0", base=_small_base(n_relays=0), axes={},
                     samples=3, algorithms=("EEM",))
    (rec,) = run_sweep(spec)
    assert rec.rho_mean == 0.0
    assert rec.rho_stderr == 0.0
    assert rec.n_relays == 0


def test_csv_round_trip(tmp_path):
    spec = SweepSpec(name="io", base=_small_base(),
                     axes={"n_users": [2, 4]}, samples=2)
    records = run_sweep(spec)
    out = tmp_path / "sweep.csv"
    write_csv(records, out)
    text = out.read_text().splitlines()
    assert text[0] == ",".join(CSV_COLUMNS)
    rows = list(csv.DictReader(text))
    assert len(rows) == len(records) == 4
    assert rows[0]["scenario"] == "io"
    assert float(rows[0]["se_mean"]) == pytest.approx(records[0].se_mean)
    assert int(rows[-1]["n_users"]) == 4
    # 'flagged' is diagnostic only, deliberately not a CSV column
    assert "flagged" not in text[0]


def test_json_mirror_round_trip(tmp_path):
    spec = SweepSpec(name="io", base=_small_base(), axes={}, samples=2)
    records = run_sweep(spec)
    out = tmp_path / "sweep.json"
    write_json(records, out)
    payload = json.loads(out.read_text())
    assert set(payload) == {"records"}
    assert len(payload["records"]) == len(records)
    first = payload["records"][0]
    assert first["scenario"] == "io"
    assert first["flagged"] is False
    assert first["se_mean"] == pytest.approx(records[0].se_mean)
    assert set(CSV_COLUMNS) <= set(first)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_json_mirror_is_strict_json_when_every_sample_fails(tmp_path):
    # one outer iteration cannot converge, so every sample fails and the
    # point's means are undefined
    spec = SweepSpec(name="io", base=_small_base(i_outer_max=1), axes={},
                     samples=2, algorithms=("EEM",))
    records = run_sweep(spec)
    assert records[0].failures == 2 and math.isnan(records[0].ee_mean)
    out = tmp_path / "sweep.json"
    write_json(records, out)
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    first = payload["records"][0]
    assert first["samples"] == 0 and first["failures"] == 2
    assert first["flagged"] is True
    for col in ("se_mean", "ee_mean", "rho_mean", "txpower_mean",
                "outer_iters_mean", "inner_iters_mean"):
        assert first[col] is None


def test_builtin_scenarios_cover_the_studies():
    scen = builtin_scenarios()
    assert set(scen) == {"convergence", "users", "subcarriers", "radius", "d_r"}
    for name, spec in scen.items():
        assert spec.name == name
        assert spec.samples == 200
        assert spec.algorithms == ("EEM", "SEM")
        spec.validate()
        for axis in spec.axes:
            assert axis in AXIS_NAMES
    assert scen["users"].axes == {"n_users": [4, 8, 16]}
    assert scen["subcarriers"].axes == {"n_subcarriers": [16, 32, 64]}
    assert scen["radius"].axes == {
        "cell_radius_km": [0.75, 1.0, 1.25, 1.5, 1.75, 2.0],
        "n_relays": [0, 3]}
    assert scen["d_r"].axes == {"d_r": [0.1, 0.3, 0.5, 0.7, 0.9],
                                "n_relays": [1, 3]}
    assert scen["convergence"].axes == {}
    assert scen["convergence"].base.n_relays == 0
    assert scen["convergence"].base.n_subcarriers == 16
    base = scen["users"].base
    assert (base.n_relays, base.cell_radius_km, base.d_r) == (3, 1.5, 0.5)


def test_standard_errors_are_nonnegative():
    spec = SweepSpec(name="se", base=_small_base(), axes={}, samples=5)
    for rec in run_sweep(spec):
        assert rec.se_stderr >= 0.0
        assert rec.ee_stderr >= 0.0
        assert rec.rho_stderr >= 0.0


def test_sweep_runs_one_trajectory_per_sample_when_eem_goes_first(monkeypatch):
    # one Dinkelbach run per sample whatever the algorithms and their
    # order, and the same records in any order
    runs = []
    real = solver._dinkelbach_steps

    def counted(prob):
        runs.append(prob.chan)
        return real(prob)

    monkeypatch.setattr(solver, "_dinkelbach_steps", counted)
    base = _small_base()
    axes = {"p_max_dbm": [-30.0, 60.0]}
    key = lambda r: (r.p_max_dbm, r.algorithm)
    records = {}
    for algorithms in (("EEM", "SEM"), ("SEM", "EEM"), ("SEM",)):
        runs.clear()
        records[algorithms] = sorted(run_sweep(SweepSpec(
            name="pair", base=base, axes=axes, samples=3,
            algorithms=algorithms)), key=key)
        assert len(runs) == 2 * 3, algorithms
        assert len(set(map(id, runs))) == 2 * 3, algorithms
    assert records[("EEM", "SEM")] == records[("SEM", "EEM")]
    assert records[("SEM",)] == [r for r in records[("EEM", "SEM")]
                                 if r.algorithm == "SEM"]


def _failed_seeds(cfg, seeds, solve):
    return [seed for seed in seeds
            if solve(generate_instance(cfg, seed)[1], cfg).trace.termination
            != "converged"]


def test_failed_seeds_are_listed_in_the_json_only(tmp_path):
    # a cap on each multiplier search's sweeps leaves EEM short of
    # convergence on some seeds; the first cap and seed pair on which EEM
    # fails one seed alone and SEM neither serves
    for cap, seed in itertools.product(range(2, 7), range(1, 11)):
        base = _small_base(i_inner_max=cap, master_seed=seed)
        seeds = (seed, seed + 1)
        expected = _failed_seeds(base, seeds, solve_eem)
        if len(expected) == 1 and not _failed_seeds(base, seeds, solve_sem):
            break
    else:
        pytest.fail("no cap and seed pair fails EEM on one seed alone")
    spec = SweepSpec(name="fail", base=base, axes={}, samples=2)
    eem, sem = run_sweep(spec)
    assert (eem.algorithm, eem.failures) == ("EEM", 1)
    assert eem.failed_seeds == expected
    assert eem.flagged
    assert (sem.failures, sem.failed_seeds) == (0, [])
    write_json([eem, sem], tmp_path / "sweep.json")
    first = json.loads((tmp_path / "sweep.json").read_text())["records"][0]
    assert first["failed_seeds"] == expected
    write_csv([eem, sem], tmp_path / "sweep.csv")
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert "failed_seeds" not in header
