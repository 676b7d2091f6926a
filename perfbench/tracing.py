"""Spans and counters recorded from outside relayopt, for the traced run.

The tracer replaces each traced function at every place a caller looks
it up: module globals bound by ``from .x import f`` (cli, experiments,
solver and oracle all import by name) and dict values such as
``experiments._ALGORITHMS``, which is built at import time.  Wrapping only
the defining module would miss every call made through those names.
``Tracer.installed()`` puts every original back when the traced run ends.

A span is ``[name, start, end, parent, op, counts]``: ``parent`` is the
index of the enclosing span (-1 for the root), ``op`` the id of the
closed-loop operation, and ``counts`` the counter events that happened
while this span was the innermost open one.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time

# span name -> (module, attribute) of the function it times
SPANS = {
    "cli.main": ("relayopt.cli", "main"),
    "config.load_config": ("relayopt.config", "load_config"),
    "channel.generate_instance": ("relayopt.channel", "generate_instance"),
    "solver.solve_eem": ("relayopt.solver", "solve_eem"),
    "solver.solve_sem": ("relayopt.solver", "solve_sem"),
    "model.compute_metrics": ("relayopt.model", "compute_metrics"),
    "experiments.run_sweep": ("relayopt.experiments", "run_sweep"),
    "oracle.brute_force_eem": ("relayopt.oracle", "brute_force_eem"),
}

# counter name -> (module, attribute) whose calls are counted.  The solver
# counts come from its private functions because the public SolverTrace
# leaves out the inner solve of a safeguard-rejected last Dinkelbach step,
# and solve_sem's trace keeps only the iterate it returns.
CALL_COUNTERS = {
    "solver.sweep": ("relayopt.solver", "_sweep"),
    "solver.inner_solve": ("relayopt.solver", "_search_lambda"),
}

# counter name -> (module, attribute) whose yielded items are counted
ITEM_COUNTERS = {
    "oracle.assignment": ("relayopt.oracle", "enumerate_assignments"),
}

OP = "op"  # root span the harness opens around each closed-loop operation

NAME, START, END, PARENT, OPID, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._undo: list = []
        self._op = -1

    # --- recording ---------------------------------------------------
    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        rec = [name, 0.0, 0.0, parent, self._op, {}]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _end(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def operation(self, op: int):
        """Root span of one closed-loop operation."""
        self._op = op
        rec = self._begin(OP)
        try:
            yield
        finally:
            self._end(rec)

    def _count(self, name: str, n: int = 1) -> None:
        counts = self.spans[self._open[-1]][COUNTS]
        counts[name] = counts.get(name, 0) + n

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            rec = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(rec)
        return traced

    def _call_counter(self, name, fn):
        def counted(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)
        return counted

    def _item_counter(self, name, fn):
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self._count(name)
                yield item
        return counted

    # --- installing --------------------------------------------------
    def _replace(self, modname: str, attr: str, make) -> None:
        """Bind make(original) wherever a relayopt module holds the original."""
        module = sys.modules.get(modname)
        if module is None or not hasattr(module, attr):
            raise RuntimeError(f"cannot trace {modname}.{attr}: not found")
        orig = getattr(module, attr)
        repl = make(orig)
        for name, mod in list(sys.modules.items()):
            if name != "relayopt" and not name.startswith("relayopt."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(vars(mod), key, repl)
                elif isinstance(val, dict) and key != "__builtins__":
                    for dkey, dval in list(val.items()):
                        if dval is orig:
                            self._patch(val, dkey, repl)

    def _patch(self, container: dict, key, value) -> None:
        self._undo.append((container, key, container[key]))
        container[key] = value

    def install(self) -> None:
        for name, (mod, attr) in SPANS.items():
            self._replace(mod, attr, lambda f, n=name: self._span_wrapper(n, f))
        for name, (mod, attr) in CALL_COUNTERS.items():
            self._replace(mod, attr, lambda f, n=name: self._call_counter(n, f))
        for name, (mod, attr) in ITEM_COUNTERS.items():
            self._replace(mod, attr, lambda f, n=name: self._item_counter(n, f))

    def restore(self) -> None:
        while self._undo:
            container, key, value = self._undo.pop()
            container[key] = value

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.restore()


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list, scale: float = 1.0) -> dict:
    """Per-layer metrics of one traced run, times multiplied by `scale`
    (wall to reference clock).  A layer the workload never calls reads 0."""
    n = len(spans)
    dur = [scale * (s[END] - s[START]) for s in spans]
    self_time = list(dur)
    under_sweep = [False] * n   # has an experiments.run_sweep ancestor
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
        p = s[PARENT]
        if p >= 0:
            self_time[p] -= dur[i]
            under_sweep[i] = (under_sweep[p]
                              or spans[p][NAME] == "experiments.run_sweep")

    def idx(name):
        return by_name.get(name, [])

    def count(name, where=range(n)):
        return sum(spans[i][COUNTS].get(name, 0) for i in where)

    def ratio(a, b):
        return a / b if b else 0.0

    solves = idx("solver.solve_eem") + idx("solver.solve_sem")
    solve_set = set(solves)
    sweeps = count("solver.sweep")
    inner = count("solver.inner_solve")
    op_time = sum(dur[i] for i in idx(OP))
    in_sweep = [i for i in range(n) if under_sweep[i]]
    oracle = idx("oracle.brute_force_eem")
    return {
        "cli.self_ms_p50": 1e3 * _median([self_time[i] for i in idx("cli.main")]),
        "config.load_config.ms_p50":
            1e3 * _median([dur[i] for i in idx("config.load_config")]),
        "channel.generate_instance.ms_p50":
            1e3 * _median([dur[i] for i in idx("channel.generate_instance")]),
        "solver.solve_eem.ms_p50":
            1e3 * _median([dur[i] for i in idx("solver.solve_eem")]),
        "solver.solve_sem.ms_p50":
            1e3 * _median([dur[i] for i in idx("solver.solve_sem")]),
        "solver.sweeps_per_solve": ratio(sweeps, len(solves)),
        "solver.outer_iters_per_solve": ratio(inner, len(solves)),
        "solver.sweeps_per_inner": ratio(sweeps, inner),
        "solver.us_per_sweep":
            1e6 * ratio(sum(self_time[i] for i in solves), sweeps),
        "model.compute_metrics.calls_per_solve": ratio(
            sum(spans[i][PARENT] in solve_set
                for i in idx("model.compute_metrics")), len(solves)),
        "model.compute_metrics.ms_p50":
            1e3 * _median([dur[i] for i in idx("model.compute_metrics")]),
        "experiments.solver_sweeps_per_sample": ratio(
            count("solver.sweep", in_sweep),
            sum(spans[i][NAME] == "channel.generate_instance"
                for i in in_sweep)),
        "experiments.self_share": ratio(
            sum(self_time[i] for i in idx("experiments.run_sweep")), op_time),
        "oracle.brute_force_eem.s_p50": _median([dur[i] for i in oracle]),
        "oracle.assignments_per_instance":
            ratio(count("oracle.assignment"), len(oracle)),
        "oracle.share": ratio(sum(dur[i] for i in oracle), op_time),
    }
