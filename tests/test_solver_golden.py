"""The solver's answers, pinned.

`tests/data/solver_golden.json` holds, per instance, the EE and rate of
solve_eem and solve_sem and a short digest of everything else each
returns: the allocation arrays (dtype and bytes), repr(metrics), the
termination, f_residual and the repr of every search record.  A change
to the solver that is meant to keep its answers must keep them bit for
bit.  The file keeps one set of answers per kernel set, as
`tests/data/oracle_golden.json` does (see helpers.kernel_set).  To
record the answers of this machine's kernels, run on a tree whose
solver gives the pinned answers:

    PYTHONPATH=src python tests/test_solver_golden.py

and, on an AVX-512 machine, again with
NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" for the
C-library kernels.  Regenerate the whole file only on a change that
moves the answers on purpose.
"""

import hashlib
import pathlib

import pytest

from relayopt.channel import generate_instance
from relayopt.config import SystemConfig
from relayopt.model import _ENTRY_FIELDS
from relayopt.solver import solve_eem, solve_sem

from helpers import dead_hop_channels, golden_answers, write_golden

GOLDEN = pathlib.Path(__file__).parent / "data" / "solver_golden.json"

# (name, config, seeds): the desk size, a smaller relay layout, no relays,
# criterion 1's instances, both budget extremes and the large size
CASES = [
    ("desk", SystemConfig(), range(1, 201)),
    ("8x16x2", SystemConfig(n_subcarriers=16, n_relays=2), range(1, 201)),
    ("desk relay-free", SystemConfig(n_relays=0), range(1, 51)),
    ("2x2x1", SystemConfig(n_users=2, n_subcarriers=2, n_relays=1),
     range(1, 201)),
    ("desk -130 dBm", SystemConfig(p_max_dbm=-130.0), range(1, 11)),
    ("desk 300 dBm", SystemConfig(p_max_dbm=300.0), range(1, 11)),
    ("128x1024x3", SystemConfig(n_users=128, n_subcarriers=1024),
     range(1, 2)),
]
DEAD_HOPS = "6x12x3 dead hops"  # helpers.dead_hop_channels, seeds 1-4


def _answer(sol):
    digest = hashlib.sha256()
    for name in _ENTRY_FIELDS:
        column = getattr(sol.allocation, name)
        digest.update(column.dtype.str.encode())
        digest.update(column.tobytes())
    trace = sol.trace
    digest.update("\n".join(map(repr, [
        sol.metrics, trace.termination, trace.f_residual,
        *trace.searches, *trace.iterations])).encode())
    return {"ee": sol.metrics.ee, "rate": sol.metrics.rate_total,
            "digest": digest.hexdigest()[:16]}


def _record(seed, cfg, chan):
    eem = solve_eem(chan, cfg)
    return {"seed": seed, "eem": _answer(eem),
            "sem": _answer(solve_sem(chan, cfg, eem=eem))}


def _records(name):
    if name == DEAD_HOPS:
        return [_record(*instance) for instance in dead_hop_channels()]
    _, cfg, seeds = next(c for c in CASES if c[0] == name)
    return [_record(seed, cfg, generate_instance(cfg, seed)[1])
            for seed in seeds]


NAMES = [c[0] for c in CASES] + [DEAD_HOPS]


@pytest.mark.parametrize("name", NAMES)
def test_solver_answers_match_golden(name):
    try:
        pinned = golden_answers(GOLDEN)[name]
    except LookupError as e:
        pytest.skip(str(e))
    records = _records(name)
    assert [r["seed"] for r in records] == [r["seed"] for r in pinned]
    differ = [r["seed"] for r, p in zip(records, pinned) if r != p]
    assert not differ, f"{name}: solver answers moved on seeds {differ}"


if __name__ == "__main__":
    write_golden(GOLDEN, {name: _records(name) for name in NAMES})
