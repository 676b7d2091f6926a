"""The oracle's answers, pinned.

`tests/data/oracle_golden.json` holds, per case, the EE, rate and
allocation entries of brute_force_eem and brute_force_sem at the stock
grid, written with json.dumps, so every float is its repr and reads back
exactly.  Any change to the oracle that is meant to keep its answers must
keep them bit for bit.

numpy computes float64 log1p, log10 and power with vectorized kernels
(SVML) on AVX-512 machines and with the C library elsewhere, and the two
differ in the last bit on some inputs, which moves grid points and can
move a winner.  So the file keeps one set of answers per kernel set, keyed
by `kernel_set()`.  To record the answers of this machine's kernels, run
on a tree whose oracle gives the pinned answers:

    PYTHONPATH=src python tests/test_oracle_golden.py

and, on an AVX-512 machine, again with
NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" for the C-library
kernels.  Regenerate the whole file only on a change that moves the
answers on purpose.
"""

import json
import pathlib

import pytest

from relayopt import cli
from relayopt.channel import generate_instance
from relayopt.config import SystemConfig
from relayopt.model import Af
from relayopt.oracle import brute_force_eem, brute_force_sem

from helpers import golden_answers, write_golden

GOLDEN = pathlib.Path(__file__).parent / "data" / "oracle_golden.json"

# (name, config, seeds): criterion 1's instances, relay-free 3-menu
# products, and one user with a relay at a 100x larger budget
CASES = [
    ("2x2x1 0 dBm", SystemConfig(n_users=2, n_subcarriers=2, n_relays=1,
                                 p_max_dbm=0.0), range(1, 21)),
    ("2x3x0 0 dBm", SystemConfig(n_users=2, n_subcarriers=3, n_relays=0,
                                 p_max_dbm=0.0), range(1, 4)),
    ("1x2x1 20 dBm", SystemConfig(n_users=1, n_subcarriers=2, n_relays=1,
                                  p_max_dbm=20.0), range(1, 6)),
]


def _answer(sol):
    return {"ee": sol.metrics.ee, "rate": sol.metrics.rate_total,
            "entries": [[k, n, "af", e.p_bs, e.p_rn] if isinstance(e, Af)
                        else [k, n, "direct", e.p_d]
                        for (k, n), e in sol.allocation.entries.items()]}


def _record(cfg, seed):
    _, chan = generate_instance(cfg, seed)
    return {"seed": seed, "eem": _answer(brute_force_eem(chan, cfg)),
            "sem": _answer(brute_force_sem(chan, cfg))}


@pytest.mark.parametrize("name,cfg,seeds", CASES, ids=[c[0] for c in CASES])
def test_oracle_answers_match_golden(name, cfg, seeds, capsys, monkeypatch):
    try:
        pinned = golden_answers(GOLDEN)[name]
    except LookupError as e:
        pytest.skip(str(e))
    assert [r["seed"] for r in pinned] == list(seeds)
    differ = [r["seed"] for r in pinned
              if json.loads(json.dumps(_record(cfg, r["seed"]))) != r]
    assert not differ, f"{name}: oracle answers moved on seeds {differ}"
    # the oracle command, at its default grid, reports the same EEs
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    argv = ["oracle", "--k", str(cfg.n_users), "--n", str(cfg.n_subcarriers),
            "--m", str(cfg.n_relays), "--p-max-dbm", str(cfg.p_max_dbm),
            "--seed", str(seeds[0]), "--seeds", str(len(seeds))]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["oracle_ee"] for r in report["results"]] \
        == [r["eem"]["ee"] for r in pinned]


if __name__ == "__main__":
    write_golden(GOLDEN, {name: [_record(cfg, seed) for seed in seeds]
                          for name, cfg, seeds in CASES})
