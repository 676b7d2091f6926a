"""The sweep runner's output, pinned.

`tests/data/sweep_golden.json` holds, per built-in scenario, a short
sha256 of the stdout of `relayopt sweep --scenario NAME --samples 3` and
each CSV row's ee_mean and se_mean, written with json.dumps, so every
float is its repr and reads back exactly.  A change to the sweep path
(instance generation, solver, metrics or aggregation) that is meant to
keep its answers must keep these CSV bytes.  The file keeps one set of
answers per kernel set, as `tests/data/solver_golden.json` does (see
helpers.kernel_set).  To record the answers of this machine's kernels,
run on a tree whose sweeps give the pinned output:

    PYTHONPATH=src python tests/test_sweep_golden.py

and, on an AVX-512 machine, again with
NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" for the
C-library kernels.  Regenerate the whole file only on a change that
moves the answers on purpose.
"""

import contextlib
import csv
import hashlib
import io
import pathlib

import pytest

from relayopt import cli
from relayopt.experiments import builtin_scenarios

from helpers import golden_answers, write_golden

GOLDEN = pathlib.Path(__file__).parent / "data" / "sweep_golden.json"
SAMPLES = 3
NAMES = list(builtin_scenarios())


def _records(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["sweep", "--scenario", name,
                           "--samples", str(SAMPLES)])
    assert status == 0
    text = out.getvalue()
    rows = list(csv.DictReader(io.StringIO(text)))
    return [{"sha256": hashlib.sha256(text.encode()).hexdigest()[:16],
             "ee_mean": [float(r["ee_mean"]) for r in rows],
             "se_mean": [float(r["se_mean"]) for r in rows]}]


@pytest.mark.parametrize("name", NAMES)
def test_sweep_output_matches_golden(name):
    try:
        (pinned,) = golden_answers(GOLDEN)[name]
    except LookupError as e:
        pytest.skip(str(e))
    (record,) = _records(name)
    for key in ("ee_mean", "se_mean"):
        moved = [i for i, (a, b) in enumerate(zip(record[key], pinned[key]))
                 if a != b]
        assert len(record[key]) == len(pinned[key]) and not moved, (
            f"{name}: {key} moved on CSV rows {moved}")
    assert record["sha256"] == pinned["sha256"], f"{name}: CSV bytes moved"


if __name__ == "__main__":
    write_golden(GOLDEN, {name: _records(name) for name in NAMES})
