import csv
import io
import json
import math
import re
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayopt import cli
from relayopt.channel import generate_instance
from relayopt.cli import main
from relayopt.experiments import CSV_COLUMNS
from relayopt.model import Af, Allocation, Direct, check_feasibility
from relayopt.config import ConfigError, SystemConfig, load_config
from relayopt.solver import solve_eem, solve_sem


def _solve_doc(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _strict_loads(text):
    """json.loads refusing NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _doc_allocation(doc):
    """The Allocation a solve document's entries describe."""
    a = doc["allocation"]
    return Allocation(a["n_users"], a["n_subcarriers"], {
        (e["user"], e["subcarrier"]):
            Direct(e["p"]) if e["protocol"] == "direct"
            else Af(e["p_bs"], e["p_rn"]) for e in a["entries"]})


def test_scenarios_listing(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("convergence", "users", "subcarriers", "radius", "d_r"):
        assert name in out


def test_solve_document_shape(capsys):
    doc = _solve_doc(capsys, ["solve", "--k", "2", "--n", "4", "--m", "1",
                              "--seed", "3"])
    assert set(doc) == {"allocation", "metrics", "trace", "algorithm", "seed"}
    assert doc["algorithm"] == "EEM"
    assert doc["seed"] == 3
    assert doc["allocation"]["n_users"] == 2
    assert doc["allocation"]["n_subcarriers"] == 4
    subcarriers = [e["subcarrier"] for e in doc["allocation"]["entries"]]
    assert subcarriers == sorted(subcarriers)
    for entry in doc["allocation"]["entries"]:
        if entry["protocol"] == "direct":
            assert entry["p"] > 0.0
        else:
            assert entry["p_bs"] > 0.0 and entry["p_rn"] > 0.0
    assert doc["trace"]["termination"] == "converged"
    assert doc["metrics"]["ee"] > 0.0
    trace = doc["trace"]
    assert len(trace["bracket_sweeps"]) == len(trace["search_sweeps"]) \
        == len(trace["stop_reasons"]) >= len(trace["q_sequence"])



_TRACE_KEYS = ["q_sequence", "inner_iterations_per_outer", "lambda_final",
               "termination", "f_residual", "f_sequence", "q_params",
               "bracket_sweeps", "search_sweeps", "stop_reasons"]


@pytest.mark.parametrize("argv, rejects", [
    (["--seed", "4"], False),                      # SEM returns a q > 0 iterate
    (["--p-max-dbm", "-30", "--seed", "1"], True),  # safeguard rejection
    (["--m", "0", "--seed", "12"], True),
], ids=["desk-4", "minus-30dbm-1", "m0-12"])
def test_solve_trace_document_is_a_view_of_the_searches(capsys, argv, rejects):
    eem = _solve_doc(capsys, ["solve"] + argv)
    sem = _solve_doc(capsys, ["solve", "--sem"] + argv)
    t = eem["trace"]
    assert list(t) == _TRACE_KEYS
    n = len(t["q_sequence"])
    for key in ("inner_iterations_per_outer", "lambda_final", "f_sequence",
                "q_params"):
        assert len(t[key]) == n
    assert t["q_params"][0] == 0.0
    assert t["q_params"][1:] == t["q_sequence"][:-1]
    for i in range(n):
        assert t["inner_iterations_per_outer"][i] \
            == t["bracket_sweeps"][i] + t["search_sweeps"][i]
    # a rejected last search is listed, and F at its q is the incumbent's 0
    assert len(t["stop_reasons"]) == n + rejects
    if len(t["stop_reasons"]) == n + 1:
        assert t["f_residual"] == 0.0
    else:
        assert t["f_residual"] == t["f_sequence"][-1]

    assert t["termination"] == "converged"
    if argv == ["--seed", "4"]:  # searches that settle at a switch
        assert "jump-point" in t["stop_reasons"]

    s = sem["trace"]
    assert list(s) == _TRACE_KEYS
    assert s["q_sequence"] == [sem["metrics"]["ee"]]
    assert s["f_residual"] == s["f_sequence"][0] > 0.0
    assert len(s["q_params"]) == 1
    assert (s["q_params"][0] > 0.0) == (argv == ["--seed", "4"])
    for key in ("bracket_sweeps", "search_sweeps", "stop_reasons"):
        assert s[key] == t[key]

def test_solve_allocation_refeasibility(capsys):
    doc = _solve_doc(capsys, ["solve", "--k", "3", "--n", "8", "--m", "2",
                              "--seed", "11"])
    cfg = SystemConfig(n_users=3, n_subcarriers=8, n_relays=2)
    assert check_feasibility(_doc_allocation(doc), cfg.radio(),
                             cfg.power_model()) == []


def test_solve_sem_flag(capsys):
    doc = _solve_doc(capsys, ["solve", "--sem", "--k", "2", "--n", "4"])
    assert doc["algorithm"] == "SEM"
    # --sem is the one SEM switch
    assert main(["solve", "--algorithm", "sem", "--k", "2", "--n", "4"]) == 1
    assert "--algorithm" in capsys.readouterr().err


def test_solve_exact_snr_view(capsys):
    doc = _solve_doc(capsys, ["solve", "--exact-snr", "--k", "2", "--n", "4",
                              "--m", "1", "--seed", "3"])
    assert "metrics_exact" in doc
    # the harmonic-mean approximation never understates the AF SNR
    assert doc["metrics_exact"]["rate_total"] <= \
        doc["metrics"]["rate_total"] * (1.0 + 1e-12)


def test_solve_repeat_is_byte_identical(capsys):
    argv = ["solve", "--k", "2", "--n", "4", "--m", "1", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_solve_strict_flags_non_convergence(capsys):
    # an outer-loop cap; and a 2-sweep search cap at -80 dBm, which
    # reaches the search's rare stops, and after a rejection keeps an
    # incumbent that did not converge
    for argv, termination, stops in (
            (["--p-max-dbm", "60", "--set", "i_outer_max=1", "--k", "2",
              "--n", "4", "--m", "0"], "outer-limit", set()),
            (["--set", "i_inner_max=2", "--p-max-dbm", "-80", "--seed", "1"],
             "inner-limit", {"iteration-cap", "bracket-failure"})):
        assert main(["solve", "--strict", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"solver did not converge ({termination})\n"
        # the document is still emitted for post-mortem inspection
        trace = json.loads(captured.out)["trace"]
        assert trace["termination"] == termination
        assert stops <= set(trace["stop_reasons"])


def test_exit_status_on_bad_input(capsys):
    assert main(["solve", "--set", "xi_bs=0.9"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["solve", "--set", "bogus"]) == 1
    capsys.readouterr()
    assert main(["sweep", "--scenario", "nope"]) == 1
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["sweep", "--scenario", "convergence", "--samples", "2",
                 "--algorithms", "EEM,EEM,sem"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "algorithm 'EEM' listed twice" in captured.err
    assert main(["frobnicate"]) == 1
    assert main(["sweep"]) == 1  # --scenario is required
    capsys.readouterr()
    # a tolerance that is not a finite number >= 0 is a usage error, raised
    # before any seed is solved
    for bad in ("nan", "inf", "-inf", "-0.01", "abc"):
        assert main(["oracle", "--k", "2", "--n", "2", "--m", "1", "--seeds",
                     "1", f"--tolerance={bad}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tolerance" in captured.err, bad
    # a finite one >= 0 is read as a float
    assert cli._parse_args(["oracle", "--tolerance", "0.05"]).tolerance == 0.05
    # the oracle's exact budget coupling stops at 3 active subcarriers
    assert main(["oracle", "--k", "1", "--n", "4", "--m", "0", "--seeds", "1",
                 "--power-points", "2", "--beta-points", "2",
                 "--refine-rounds", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: budget coupling is searched exactly only "
                            "up to 3 active subcarriers\n")


def test_overflowing_gain_over_noise_gap_is_an_error(capsys):
    # each an error within 60 s, not a search that never returns: a
    # 1e-300 Hz subcarrier makes the noise power subnormal, a config
    # error; and gains near 1e295 over the stock noise power overflow
    def hang(signum, frame):
        pytest.fail("solve ran for 60 s")

    for sets, err in (
            (["subcarrier_bw_hz=1e-300"], "error: " + _NOISE_FLOOR),
            (["pathloss.bs_ue_nlos.intercept_db=-2950",
              "pathloss.min_coupling_loss_db=-3000"],
             "error: g_bs_ue over noise_gap 4.77729e-17 overflows\n")):
        argv = ["solve"]
        for item in sets:
            argv += ["--set", item]
        old = signal.signal(signal.SIGALRM, hang)
        signal.alarm(60)
        try:
            assert main(argv) == 1
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(err)
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("extra", [[], ["--sem"]])
def test_overflowing_snr_at_the_budget_is_an_error(extra, capsys):
    # 3080 dBm is 1e305 W: gain * p_max over noise_gap overflows, and the
    # document would hold "rate_total": Infinity, which is not JSON
    cfg = load_config(None, {"p_max_dbm": "3080"})
    with pytest.raises(ValueError, match="p_max_dbm"):
        solve_eem(generate_instance(cfg, 1)[1], cfg)
    assert main(["solve", "--set", "p_max_dbm=3080", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "p_max_dbm" in captured.err
    assert "Traceback" not in captured.err


def test_env_config_is_honored(tmp_path, monkeypatch, capsys):
    path = tmp_path / "env.ini"
    path.write_text("n_users = 3\nn_subcarriers = 4\nn_relays = 0\n")
    monkeypatch.setenv("RELAYOPT_CONFIG", str(path))
    doc = _solve_doc(capsys, ["solve"])
    assert doc["allocation"]["n_users"] == 3
    assert doc["allocation"]["n_subcarriers"] == 4
    # explicit flags still override the environment config
    doc = _solve_doc(capsys, ["solve", "--k", "2"])
    assert doc["allocation"]["n_users"] == 2


def test_sweep_seed_is_read_from_every_config_layer(tmp_path, monkeypatch,
                                                    capsys):
    argv = ["sweep", "--scenario", "convergence", "--samples", "2"]
    assert main(argv + ["--seed", "7"]) == 0
    expected = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out != expected  # the default seed is 1
    path = tmp_path / "seed.ini"
    path.write_text("master_seed = 7\n")
    for extra in (["--set", "master_seed=7"], ["--config", str(path)]):
        assert main(argv + extra) == 0
        assert capsys.readouterr().out == expected, extra
    monkeypatch.setenv("RELAYOPT_CONFIG", str(path))
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("key, value", [
    ("p_max_dbm", "nan"), ("p_max_dbm", "-inf"), ("p_max_dbm", "4000"),
    ("p_max_dbm", "-4000"), ("xi_bs", "inf"), ("p_c_bs_w", "nan"),
    ("p_c_rn_w", "inf"), ("eps_outer", "nan"), ("cell_radius_km", "inf"),
    ("noise_psd_dbm_hz", "4000"), ("pathloss.bs_ue_nlos.slope_db", "nan"),
    # values out of range, and the path-loss model's non-finite ones
    ("n_users", "0"), ("n_relays", "-1"), ("cell_radius_km", "0"),
    ("subcarrier_bw_hz", "0"), ("xi_rn", "1"), ("p_c_bs_w", "-1"),
    ("p_c_rn_w", "-1"), ("pathloss.bs_ue_nlos.intercept_db", "inf"),
    ("pathloss.min_coupling_loss_db", "nan"),
    # a noise power below the normal floats (1.2e-309 W)
    ("noise_psd_dbm_hz", "-3100"),
])
def test_non_finite_settings_are_config_errors(key, value, capsys):
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(None, {key: value})
    # the last --set of a key wins, so the bad value overrides the shape
    argv = ["solve", "--set", "n_users=2", "--set", "n_subcarriers=4",
            "--set", "n_relays=1", "--set", f"{key}={value}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid config: {key}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("extra", [[], ["--sem"]])
def test_unbounded_consumed_power_is_a_config_error(extra, capsys):
    # a 1e27 W budget drawn at xi_bs = 1e300 overflows: the document would
    # hold "power_total": Infinity and "f_residual": NaN, which are not JSON
    with pytest.raises(ConfigError, match="xi_bs.*p_max_dbm"):
        load_config(None, {"p_max_dbm": "300", "xi_bs": "1e300"})
    assert main(["solve", "--set", "p_max_dbm=300", "--set", "xi_bs=1e300",
                 *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid config: ")
    assert "xi_bs" in captured.err and "p_max_dbm" in captured.err
    assert "Traceback" not in captured.err
    # an int n_relays past the float range overflows the sum itself
    huge = "9" * 400
    with pytest.raises(ConfigError, match="p_c_bs_w, n_relays, "):
        load_config(None, {"n_relays": huge})
    assert main(["solve", "--set", f"n_relays={huge}", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid config: p_c_bs_w, n_relays, ")
    assert "Traceback" not in captured.err


# settings whose closed forms reach a zero, subnormal or overflowing AF
# floor, or a subnormal noise power, and the EE (4 places) or the config
# error each ends in
_NOISE_FLOOR = ("invalid config: noise_psd_dbm_hz, snr_gap_db, "
                "subcarrier_bw_hz: power in watts must be at least ")
_EXTREMES = {
    # beta rounds to 1 at q > 0: AF never wins, the direct answer stands
    "xi_rn-1e300": ({"xi_rn": "1e300"}, 0.1145),
    "radius-300-bw-1e-300": ({"cell_radius_km": "300",
                              "subcarrier_bw_hz": "1e-300"}, _NOISE_FLOOR),
    "radius-1e300-bw-1e-300": ({"cell_radius_km": "1e300",
                                "subcarrier_bw_hz": "1e-300"}, _NOISE_FLOOR),
    # gains times noise power near 1e-330: the AF closed forms' den would
    # underflow to 0 (NaN marginals) but for their rescaling; at SNRs
    # per watt near 1e277 the direct links win every subcarrier
    "radius-3000-bw-1e-285": ({"cell_radius_km": "3000",
                               "subcarrier_bw_hz": "1e-285"}, 45.7527),
    # every SNR per watt is subnormal: every floor is infinite, no power
    "bw-1e300-psd-0": ({"subcarrier_bw_hz": "1e300",
                        "noise_psd_dbm_hz": "0"}, 0.0),
    "bw-1e300-psd-1e-300": ({"subcarrier_bw_hz": "1e300",
                             "noise_psd_dbm_hz": "1e-300"}, 0.0),
}


@pytest.mark.parametrize("sem", [False, True], ids=["EEM", "SEM"])
@pytest.mark.parametrize("sets, outcome", _EXTREMES.values(), ids=_EXTREMES)
def test_extreme_settings_end_in_an_answer_or_an_error(sets, outcome, sem,
                                                       capsys):
    # a finite, feasible answer or a clear error; a RuntimeWarning fails
    # the test through the suite's filter
    sets = {"n_users": "3", "n_subcarriers": "4", "n_relays": "1", **sets}
    argv = ["solve", "--seed", "2", *(["--sem"] if sem else [])]
    for item in sets.items():
        argv += ["--set", "=".join(item)]
    status = main(argv)
    captured = capsys.readouterr()
    if isinstance(outcome, str):
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {outcome}")
        assert "Traceback" not in captured.err
        return
    assert status == 0
    doc = _strict_loads(captured.out)
    assert math.isfinite(doc["metrics"]["ee"])
    assert round(doc["metrics"]["ee"], 4) == outcome
    cfg = load_config(None, sets)
    assert check_feasibility(_doc_allocation(doc), cfg.radio(),
                             cfg.power_model()) == []


def test_sweep_writes_csv_and_json(tmp_path, capsys):
    out = tmp_path / "radius.csv"
    mirror = tmp_path / "radius.json"
    argv = ["sweep", "--scenario", "radius", "--samples", "1",
            "--k", "2", "--n", "4", "--algorithms", "EEM",
            "--out", str(out), "--json", str(mirror)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = list(csv.DictReader(lines))
    assert len(rows) == 12  # 6 radii x 2 relay counts
    assert {r["algorithm"] for r in rows} == {"EEM"}
    assert {r["n_relays"] for r in rows} == {"0", "3"}
    payload = json.loads(mirror.read_text())
    assert len(payload["records"]) == 12


def test_sweep_to_stdout(capsys):
    argv = ["sweep", "--scenario", "convergence", "--samples", "2",
            "--k", "2", "--n", "4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3  # header + EEM + SEM
    # the convergence scenario's base (no relays, 16 subcarriers)
    # is reshaped by the explicit flags
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["n_subcarriers"] == "4"
    assert row["n_relays"] == "0"
    assert row["scenario"] == "convergence"


def test_convergence_trace_jsonl(capsys):
    argv = ["convergence", "--k", "4", "--n", "8", "--m", "1",
            "--p-max-dbm", "30", "--seed", "2"]
    assert main(argv) == 0
    rows = [json.loads(line) for line in
            capsys.readouterr().out.splitlines()]
    assert len(rows) >= 2
    for i, row in enumerate(rows):
        assert set(row) == {"iteration", "q", "inner_iters",
                            "cumulative_inner_iters", "lambda", "f_residual",
                            "bracket_sweeps", "search_sweeps", "stop_reason"}
        assert row["iteration"] == i + 1
        assert row["bracket_sweeps"] + row["search_sweeps"] == row["inner_iters"]
        assert row["stop_reason"] in ("interior", "tolerance", "jump-point")
    qs = [r["q"] for r in rows]
    assert qs == sorted(qs)
    cum = 0
    for row in rows:
        cum += row["inner_iters"]
        assert row["cumulative_inner_iters"] == cum


def test_convergence_trace_to_file(tmp_path):
    out = tmp_path / "trace.jsonl"
    argv = ["convergence", "--k", "2", "--n", "4", "--m", "0", "--out", str(out)]
    assert main(argv) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows and rows[0]["iteration"] == 1


def test_out_dash_means_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["convergence", "--k", "2", "--n", "4", "--m", "1", "--out", "-"]
    assert main(argv) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows and rows[0]["iteration"] == 1
    argv = ["sweep", "--scenario", "convergence", "--samples", "1",
            "--k", "2", "--n", "4", "--out", "-"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert not (tmp_path / "-").exists()


def test_sweep_json_dash_is_rejected(tmp_path, monkeypatch, capsys):
    # the JSON mirror has no stdout form: it would interleave with the CSV
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--scenario", "convergence", "--samples", "1",
            "--k", "2", "--n", "4", "--json", "-"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --json needs a file path")
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("flag, name", [("--out", "x.csv"),
                                        ("--json", "x.json")])
def test_sweep_to_a_missing_directory_is_an_error(flag, name, tmp_path,
                                                   capsys):
    argv = ["sweep", "--scenario", "convergence", "--samples", "1",
            "--k", "2", "--n", "4", flag, str(tmp_path / "missing" / name)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_oracle_certification_report(capsys):
    argv = ["oracle", "--k", "2", "--n", "2", "--m", "1", "--seeds", "2",
            "--power-points", "60", "--beta-points", "31",
            "--refine-rounds", "1"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seeds"] == 2
    assert len(report["results"]) == 2
    assert report["grid"] == {"power_points": 60, "beta_points": 31,
                              "refine_rounds": 1}
    summary = report["summary"]
    assert summary["all_within_tolerance"] is True
    assert summary["min_relative_gap"] >= -0.01
    for res in report["results"]:
        assert set(res) == {"seed", "solver_ee", "oracle_ee", "relative_gap",
                            "assignment_match"}


@pytest.mark.parametrize("argv", [
    ["solve", "--seed", "-1"],
    ["sweep", "--scenario", "convergence", "--samples", "1", "--seed", "-1"],
    ["oracle", "--seeds", "1", "--seed", "-1"],
])
def test_negative_master_seed_is_a_config_error(argv, capsys):
    with pytest.raises(ConfigError, match="master_seed: must be >= 0"):
        SystemConfig(master_seed=-1).validate()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid config: master_seed: must be >= 0\n"


def test_oracle_rejects_nonpositive_seeds(capsys):
    for seeds, why in (("0", "must be >= 1"), ("-3", "must be >= 1"),
                       ("abc", "invalid int value: 'abc'")):
        assert main(["oracle", "--seeds", seeds]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seeds" in captured.err and why in captured.err


def test_flags_only_on_the_subcommands_that_read_them(capsys):
    for argv, flag in ((["oracle", "--threads", "2"], "--threads"),
                       (["solve", "--threads", "2"], "--threads"),
                       (["sweep", "--scenario", "radius", "--threads", "2"],
                        "--threads"),
                       (["convergence", "--strict"], "--strict"),
                       (["sweep", "--scenario", "radius", "--strict"],
                        "--strict")):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from relayopt import cli

    base = ["solve", "--n", "4", "--m", "0", "--seed", "2"]
    first = _solve_doc(capsys, base)
    parser = cli._build_parser()
    # --set values and a usage error of one call do not reach the next
    assert _solve_doc(capsys, base + ["--set", "n_users=3"]) \
        ["allocation"]["n_users"] == 3
    assert main(base + ["--bogus"]) == 1
    assert "--bogus" in capsys.readouterr().err
    assert main(["solve", "--set", "n_users"]) == 1
    capsys.readouterr()
    assert _solve_doc(capsys, base) == first
    assert first["allocation"]["n_users"] == SystemConfig().n_users
    assert cli._build_parser() is parser
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("flag, value, field", [
    ("--k", "3", "n_users"), ("--n", "5", "n_subcarriers"),
    ("--m", "2", "n_relays"), ("--p-max-dbm", "7.5", "p_max_dbm"),
    ("--radius-km", "0.75", "cell_radius_km"), ("--d-r", "0.25", "d_r"),
    ("--seed", "11", "master_seed")])
def test_common_flags_land_on_their_config_fields(flag, value, field,
                                                  monkeypatch):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    default = getattr(SystemConfig(), field)
    want = type(default)(value)
    assert want != default
    for argv in (["solve"], ["sweep", "--scenario", "radius"], ["oracle"],
                 ["convergence"]):
        cfg = cli._load_cfg(cli._parse_args([*argv, flag, value]))
        assert getattr(cfg, field) == want, argv


@pytest.mark.parametrize("argv", [
    ["solve", "--k", "8", "--seed", "7", "--sem"], ["solve", "--k=3"],
    ["solve", "--se", "7"], ["solve", "--bogus"], ["solve", "--k", "x"],
    ["solve", "--set", "x=1", "extra"], ["solve", "--", "--k"],
    ["sweep"], ["sweep", "--scenario", "radius", "--samples", "2"],
    ["oracle", "--seeds", "0"], ["convergence", "--out", "-"],
    ["scenarios"], ["scenarios", "x"], [], ["nope"], ["-h"],
    ["solve", "-h"]])
def test_command_parse_matches_the_whole_parser(capsys, argv):
    # main runs a command's own parser directly; the namespace, usage
    # error or help text must be what the whole parser gives
    def outcome(parse):
        try:
            return sorted(vars(parse(argv)).items())
        except cli._UsageError as exc:
            return str(exc)
        except SystemExit as exc:
            return exc.code, capsys.readouterr().out

    assert outcome(cli._parse_args) == outcome(cli._build_parser().parse_args)


def test_sweep_stdout_matches_the_csv_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--scenario", "convergence", "--samples", "2",
            "--k", "2", "--n", "4"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def _reference_dump(doc):
    return json.dumps(doc, indent=2, default=cli._json_safe) + "\n"


def _fast_dump(doc):
    buf = io.StringIO()
    cli._dump(doc, buf)
    return buf.getvalue()


def test_dump_edge_document_matches_json_dump():
    doc = {"nan": math.nan, "inf": [math.inf, -math.inf], "zero": [-0.0, 0.0],
           "floats": [1e300, 5e-324, 0.1],
           "numpy": [np.float64(1.5), np.float32(0.1), np.int64(-3),
                     np.bool_(True), np.arange(3), np.array([[1.0, np.nan]])],
           "empty": [{}, [], (), ""], "tuple": (1, (2, [3])),
           "text": "h\u00e9llo \u2603 \"q\" \\ \n\t\x00 \U0001f600",
           "\u00fc-key": [True, False, None, 10**30]}
    assert _fast_dump(doc) == _reference_dump(doc)


def _entry_dicts(alloc):
    """The solve document's entries as dicts, by subcarrier then user."""
    rows = sorted(zip(*(getattr(alloc, f).tolist() for f in
                        ("user", "subcarrier", "af", "p_bs", "p_rn"))),
                  key=lambda r: (r[1], r[0]))
    return [{"user": k, "subcarrier": n, "protocol": "af",
             "p_bs": p_bs, "p_rn": p_rn} if af else
            {"user": k, "subcarrier": n, "protocol": "direct", "p": p_bs}
            for k, n, af, p_bs, p_rn in rows]


_SIZE_FLAGS = {"n_users": "--k", "n_subcarriers": "--n", "n_relays": "--m"}
_DOC_CASES = ([({}, False, s) for s in range(1, 21)]
              + [({}, True, s) for s in (1, 4, 26)]
              + [({"n_relays": 0}, sem, s)
                 for sem, s in ((False, 1), (False, 2), (True, 3))]
              + [({"n_users": 1, "n_subcarriers": 1, "n_relays": 1}, sem, s)
                 for s in (1, 2) for sem in (False, True)])


@pytest.mark.parametrize("sizes, sem, seed", _DOC_CASES)
def test_solve_stdout_is_json_dumps_of_the_dict_document(capsys, sizes, sem,
                                                          seed):
    # the entries are rendered straight from the allocation arrays; the
    # text must be json.dumps(indent=2) of the document with entry dicts
    argv = ["solve", "--seed", str(seed), *(["--sem"] if sem else [])]
    for key, value in sizes.items():
        argv += [_SIZE_FLAGS[key], str(value)]
    assert main(argv) == 0
    cfg = SystemConfig(master_seed=seed, **sizes)
    _, chan = generate_instance(cfg, seed)
    sol = solve_sem(chan, cfg) if sem else solve_eem(chan, cfg)
    doc = cli._solution_doc(sol)
    ref = dict(doc, allocation=dict(doc["allocation"],
                                    entries=_entry_dicts(sol.allocation)),
               algorithm="SEM" if sem else "EEM", seed=seed)
    out = capsys.readouterr().out
    assert out == _reference_dump(ref)
    _strict_loads(out)  # and strict JSON: no NaN, no Infinity


def test_rendered_entries_edge_allocations():
    for alloc in (Allocation(3, 4),
                  Allocation.from_arrays(2, 3, [1, 0, 1], [2, 0, 1],
                                         [False, True, False],
                                         [math.inf, 5e-324, 1e300],
                                         [0.0, math.nan, 0.0])):
        doc = {"allocation": cli._allocation_doc(alloc), "after": [1.5]}
        ref = {"allocation": dict(doc["allocation"],
                                  entries=_entry_dicts(alloc)),
               "after": [1.5]}
        assert _fast_dump(doc) == _reference_dump(ref)
        assert _fast_dump(doc["allocation"]) \
            == _reference_dump(ref["allocation"])


def test_dump_rejects_what_it_cannot_encode():
    with pytest.raises(TypeError):
        _fast_dump({"x": object()})


_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.builds(np.float64, st.floats()), st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)), st.builds(np.bool_, st.booleans()))
_json_docs = st.recursive(_json_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), inner, max_size=4),
    st.lists(st.floats(), max_size=4).map(np.array)), max_leaves=24)


@given(doc=_json_docs)
@settings(max_examples=300, deadline=None)
def test_dump_matches_json_dump(doc):
    assert _fast_dump(doc) == _reference_dump(doc)
