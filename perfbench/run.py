"""relayopt benchmark: run workloads as a closed loop and print their metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

One client on one thread sends the next operation only after the last one
returned.  A run makes whole passes over the workload's fixed instance
seeds, in an order drawn from --seed, until --seconds have gone by, and
checks every operation's output.  Times are scaled to a reference clock
(see ReferenceClock).  With --trace 0 the last line of stdout is one JSON
object holding the end-to-end metrics BENCHMARK.json names.  With
--trace 1 the workload runs for half the time untraced and half traced,
and the JSON holds the per-layer metrics and the tracing overhead.  Each
run writes a results file with its run record to perfbench/results/.

relayopt is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SPEC = ROOT / "BENCHMARK.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import relayopt; relayopt.load_config()")
TAIL = 10        # fewest samples a reported percentile must have beyond it
SHOWN_FAILURES = 5
# Reference clock.  This machine's speed swings by up to 2x within a minute
# (a fixed kernel took 0.65 to 1.18 ms), and raw wall times of 15 s runs
# spread by 14-27% across runs.  So after every operation, and after every
# set-up child, the harness times a fixed reference kernel for about
# REF_SHARE of that duration, and scales the duration to a machine on which
# the kernel takes REF_MS.  Gated times are on this clock; raw wall times
# are reported beside them.
REF_SHARE = 0.05
REF_MS = 0.5  # about the kernel's time on the 2-core Xeon it was defined on


class ReferenceClock:
    """Fixed work resembling the workloads' mix: small-array numpy calls,
    passes over a 512 KB array, and an interpreter loop.  It allocates
    nothing large, so the program's allocations cannot change its speed."""

    def __init__(self):
        import numpy as np
        self._np = np
        self._small = np.linspace(0.5, 1.5, 256).reshape(8, 32)
        self._big = np.linspace(0.5, 1.5, 1 << 16)
        self._out = np.empty_like(self._big)

    def kernel(self) -> float:
        np = self._np
        s = 0.0
        for _ in range(20):
            s += float(np.log1p(self._small).sum())
        for _ in range(4):
            s += float(np.sqrt(self._big, out=self._out).sum())
        for i in range(1000):
            s += i
        return s

    def convert(self, wall: float) -> tuple:
        """(reference-clock seconds, reference kernel seconds) of a duration
        that has just ended.  The kernel runs once untimed, to warm up after
        the operation, then at least once until REF_SHARE * wall is spent."""
        self.kernel()
        runs, spent = 0, 0.0
        while runs == 0 or spent < REF_SHARE * wall:
            t0 = time.perf_counter()
            self.kernel()
            spent += time.perf_counter() - t0
            runs += 1
        ref = spent / runs
        return wall * REF_MS / (1e3 * ref), ref


def percentile(values, p: float):
    """Nearest-rank p-th percentile, or None when fewer than TAIL samples
    lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    if rank < 1 or len(ordered) - rank < TAIL:
        return None
    return ordered[rank - 1]


@dataclass
class Stats:
    """One closed-loop measurement of one workload."""

    durations: list = field(default_factory=list)  # wall s per operation
    clock: list = field(default_factory=list)      # reference-clock s per op
    refs: list = field(default_factory=list)       # reference kernel s per op
    samples: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    ee: list = field(default_factory=list)          # first pass only
    se: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    passes: int = 0

    @property
    def op_ms_p50(self) -> float:
        """Median operation time on the reference clock."""
        return 1e3 * statistics.median(self.clock)


def measure(wl, cfg, seeds: list, seconds: float, tracer=None) -> Stats:
    """Whole passes over `seeds` until `seconds` have gone by."""
    from workloads import Outcome

    st = Stats()
    ref_clock = ReferenceClock()
    start = time.perf_counter()
    while True:
        for seed in seeds:
            op_id = len(st.durations)
            scope = (tracer.operation(op_id) if tracer is not None
                     else contextlib.nullcontext())
            t0 = time.perf_counter()
            try:
                with scope:
                    out = wl.op(cfg, seed)
            except Exception as exc:  # a failed operation, counted below
                if len(st.failures) < SHOWN_FAILURES:
                    traceback.print_exc(file=sys.stderr)
                out = Outcome([f"seed {seed}: raised {exc!r}"] * wl.units)
            wall = time.perf_counter() - t0
            clock, ref = ref_clock.convert(wall)
            st.durations.append(wall)
            st.clock.append(clock)
            st.refs.append(ref)
            st.samples += wl.samples
            st.attempted += wl.units
            st.failures += out.failures
            if st.passes == 0:
                st.ee += out.ee
                st.se += out.se
                st.gaps += out.gaps
        st.passes += 1
        if time.perf_counter() - start >= seconds:
            break
    return st


def measure_setup():
    """Median time, on the reference clock and in wall seconds, of a fresh
    interpreter importing relayopt and loading the default config."""
    ref_clock = ReferenceClock()
    walls, clocks = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
        clocks.append(ref_clock.convert(walls[-1])[0])
    return statistics.median(clocks), statistics.median(walls)


def end_to_end(st: Stats, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "op_ms_p50": st.op_ms_p50,
        "samples_per_s": st.samples / sum(st.clock),
        "ee_mean": statistics.fmean(st.ee) if st.ee else math.nan,
        "se_mean": statistics.fmean(st.se) if st.se else math.nan,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def extras(st: Stats) -> dict:
    """Figures reported beside the gated metrics: they exist only on some
    workloads or can read 0, so BENCHMARK.json cannot bound them."""
    p90 = percentile(st.clock, 90)
    return {
        "ops": len(st.durations),
        "passes": st.passes,
        "ref_ms_p50": 1e3 * statistics.median(st.refs),
        "op_ms_p50_wall": 1e3 * statistics.median(st.durations),
        "samples_per_s_wall": st.samples / sum(st.durations),
        "op_ms_p90": None if p90 is None else 1e3 * p90,
        "failed_frac": len(st.failures) / st.attempted,
        "oracle_gap_min": min(st.gaps) if st.gaps else None,
    }


EXTRA_UNITS = {"ref_ms_p50": "ms", "op_ms_p50_wall": "ms",
               "samples_per_s_wall": "1/s", "op_ms_p90": "ms",
               "failed_frac": "share", "oracle_gap_min": "share",
               "setup_s_wall": "s"}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(args, name: str, seeds: list) -> dict:
    import numpy
    return {
        "workload": name, "seed": args.seed, "instance_seeds": seeds,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": _git_commit(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _show(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {units.get(name, '')}")


def run_workload(args, name: str, spec: dict) -> dict:
    import relayopt.config
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    cfg = (relayopt.config.load_config(overrides=wl.config)
           if wl.config else None)
    # the instances are fixed; the seed only sets the order of a pass
    seeds = list(wl.instances)
    random.Random(args.seed).shuffle(seeds)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    spans = None
    print(f"== {name} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace})")
    if args.trace:
        plain = measure(wl, cfg, seeds, args.seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = measure(wl, cfg, seeds, args.seconds / 2, tracer)
        spans = tracer.spans
        metrics = layer_metrics(spans,
                                sum(traced.clock) / sum(traced.durations))
        metrics["tracing.overhead_share"] = (traced.op_ms_p50
                                             / plain.op_ms_p50 - 1.0)
        e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for label, st in (("untraced", plain), ("traced", traced)):
            e2e = end_to_end(st, math.nan)
            del e2e["setup_s"]  # measured by untraced runs only
            _show(f"end-to-end, {label}:", {**e2e, **extras(st)},
                  {**e2e_units, **EXTRA_UNITS})
        failures = plain.failures + traced.failures
        attempted = plain.attempted + traced.attempted
        extra = {"untraced": extras(plain), "traced": extras(traced)}
    else:
        setup_s, setup_wall = measure_setup()
        st = measure(wl, cfg, seeds, args.seconds)
        metrics = end_to_end(st, setup_s)
        failures, attempted = st.failures, st.attempted
        extra = {**extras(st), "setup_s_wall": setup_wall}
        _show("not gated:", extra, EXTRA_UNITS)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match the "
                           f"{kind} names of BENCHMARK.json {sorted(units)}")
    _show(f"{kind} metrics:", metrics, units)
    for msg in failures[:SHOWN_FAILURES]:
        print(f"  FAILED {msg}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v if math.isfinite(v) else None,
                        "unit": units[k]} for k, v in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({"record": run_record(args, name, seeds), "result": result,
                   "extras": extra, "failures": failures, "spans": spans},
                  fh)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "relayopt" / "__init__.py").is_file():
        print(f"error: no relayopt sources under {SRC}", file=sys.stderr)
        return 2
    # pinned before numpy loads; child processes inherit them
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    for name in names if args.workload == "all" else [args.workload]:
        result = run_workload(args, name, spec)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
