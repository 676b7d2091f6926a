"""Command-line front end.

Subcommands:
    solve        one instance -> JSON {allocation, metrics, trace}
    sweep        scenario Monte-Carlo -> CSV (plus optional JSON mirror)
    oracle       solver vs. exhaustive grid search on tiny instances
    convergence  outer-loop trace as JSON lines
    scenarios    list the built-in sweep specs

Every subcommand but `scenarios` takes the config flags; `--strict` is a
`solve` flag.  Exit status: 0 success, 1 bad input/validation (unknown
flags included), 2 non-convergence under `solve --strict`.
RELAYOPT_CONFIG names a default config file.

The sweep drivers and the oracle are imported by the commands that run
them, so that a cold `solve` does not load them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from .channel import generate_instance
from .config import ConfigError, SystemConfig, load_config
from .model import compute_metrics
from .solver import Solution, SolverTrace, solve_eem, solve_sem

ENV_CONFIG = "RELAYOPT_CONFIG"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit status 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help=f"config file (default: ${ENV_CONFIG})")
    p.add_argument("--set", dest="sets", action="append", default=[],
                   metavar="KEY=VALUE", help="override any config key")
    # each of these flags sets the SystemConfig field its dest names
    fields = [
        p.add_argument("--k", type=int, dest="n_users", help="number of users"),
        p.add_argument("--n", type=int, dest="n_subcarriers",
                       help="number of subcarriers"),
        p.add_argument("--m", type=int, dest="n_relays", help="number of relays"),
        p.add_argument("--p-max-dbm", type=float, dest="p_max_dbm"),
        p.add_argument("--radius-km", type=float, dest="cell_radius_km"),
        p.add_argument("--d-r", type=float, dest="d_r"),
        p.add_argument("--seed", type=int, dest="master_seed"),
    ]
    p.set_defaults(config_fields=tuple(a.dest for a in fields))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= value < math.inf:  # NaN fails both tests
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


@functools.cache  # built on the first main() call, then reused
def _build_parser() -> _Parser:
    parser = _Parser(prog="relayopt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one channel instance")
    _add_common(p)
    p.add_argument("--sem", action="store_true",
                   help="maximize spectral efficiency (SEM) instead of EEM")
    p.add_argument("--exact-snr", action="store_true",
                   help="also report metrics under the exact AF SNR")
    p.add_argument("--strict", action="store_true",
                   help="fail (exit 2) if the solve did not converge")

    p = sub.add_parser("sweep", help="run a Monte-Carlo scenario sweep")
    _add_common(p)
    p.add_argument("--scenario", required=True,
                   help="built-in scenario name (see `scenarios`)")
    p.add_argument("--out", default=None,
                   help="CSV output path (default or '-': stdout)")
    p.add_argument("--json", dest="json_out", default=None,
                   help="also write a JSON mirror to this file (not '-')")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--algorithms", default=None,
                   help="comma list, e.g. EEM,SEM")

    p = sub.add_parser("oracle", help="certify the solver against brute force")
    _add_common(p)
    p.add_argument("--seeds", type=_positive_int, default=20,
                   help="number of instances to certify")
    p.add_argument("--power-points", type=int, default=200)
    p.add_argument("--beta-points", type=int, default=101)
    p.add_argument("--refine-rounds", type=int, default=2)
    p.add_argument("--tolerance", type=_tolerance, default=0.01,
                   help="allowed relative EE shortfall vs the oracle")

    p = sub.add_parser("convergence", help="outer-loop trace as JSON lines")
    _add_common(p)
    p.add_argument("--out", default=None,
                   help="output path (default or '-': stdout)")

    sub.add_parser("scenarios", help="list built-in sweep scenarios")
    parser.commands = sub.choices  # command name -> its parser
    return parser


def _parse_args(argv: Optional[list]) -> argparse.Namespace:
    """parse_args of the whole parser, with a command's own parser run
    directly: the top level's scan of every argument, which finds only
    the command, costs as much as the command's parse."""
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # no command, an unknown one, or -h
        return parser.parse_args(argv)
    ns, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    ns.command = argv[0]
    return ns


def _json_safe(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return repr(x)


_SCALAR_TEXT = {str: encode_basestring_ascii, float: _float_text,
                int: int.__repr__, bool: lambda b: "true" if b else "false",
                type(None): lambda _: "null"}


class _Json(str):
    """JSON text rendered ahead as at the top level: _json_text writes it
    as it is, indented to where it sits (json.dumps would quote it)."""


def _json_text(obj, pad: str) -> str:
    """What json.dumps(obj, indent=2, default=_json_safe) writes at the
    nesting level whose line break and indent is `pad`.

    Dispatches on exact type; a non-str key raises TypeError and any other
    type goes through _json_safe, as json's `default` would.
    """
    scalar = _SCALAR_TEXT.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if type(obj) is _Json:
        return obj.replace("\n", pad)
    inner = pad + "  "
    if type(obj) is dict:
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError("non-str key")
            items.append(encode_basestring_ascii(key) + ": "
                         + _json_text(value, inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if type(obj) in (list, tuple):
        if not obj:
            return "[]"
        return ("[" + inner + ("," + inner).join([_json_text(v, inner) for v in obj])
                + pad + "]")
    return _json_text(_json_safe(obj), pad)


def _dump(obj, stream) -> None:
    # json.dump runs its pure-Python encoder whenever indent is set;
    # _json_text writes the same bytes for the documents built here
    stream.write(_json_text(obj, "\n") + "\n")


def _collect_overrides(args) -> dict:
    overrides = {}
    for item in args.sets:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    for name in args.config_fields:
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    return overrides


def _config_path(args):
    return args.config or os.environ.get(ENV_CONFIG) or None


def _load_cfg(args, base: Optional[SystemConfig] = None) -> SystemConfig:
    return load_config(_config_path(args), _collect_overrides(args), base=base)


def _entry_rows(alloc):
    """(user, subcarrier, af, p_bs, p_rn) of each entry, by subcarrier then user."""
    order = np.lexsort((alloc.user, alloc.subcarrier))
    return zip(alloc.user[order].tolist(), alloc.subcarrier[order].tolist(),
               alloc.af[order].tolist(), alloc.p_bs[order].tolist(),
               alloc.p_rn[order].tolist())


def _entries_json(alloc) -> _Json:
    """The entries list of the solve document, one f-string per entry:
    {user, subcarrier, protocol "af", p_bs, p_rn} or {user, subcarrier,
    protocol "direct", p}, as json.dumps(indent=2) writes the dicts."""
    items = [
        f'{{\n    "user": {k},\n    "subcarrier": {n},\n    "protocol": "af",'
        f'\n    "p_bs": {_float_text(p_bs)},\n    "p_rn": {_float_text(p_rn)}\n  }}'
        if af else
        f'{{\n    "user": {k},\n    "subcarrier": {n},\n    "protocol": "direct",'
        f'\n    "p": {_float_text(p_bs)}\n  }}'
        for k, n, af, p_bs, p_rn in _entry_rows(alloc)]
    return _Json("[\n  " + ",\n  ".join(items) + "\n]" if items else "[]")


def _allocation_doc(alloc) -> dict:
    return {"n_users": alloc.n_users, "n_subcarriers": alloc.n_subcarriers,
            "entries": _entries_json(alloc)}


def _fields(obj) -> dict:
    """A dataclass's fields by name, values as they are: the document is
    only written out, so nothing needs asdict's deep copies."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _trace_doc(trace: SolverTrace) -> dict:
    """The solve document's trace: a view of the search records.

    Five lists follow the iterations, three the searches (a rejected
    last one included), in the document's historical key order.
    """
    its, searches = trace.iterations, trace.searches
    return {"q_sequence": [s.ratio for s in its],
            "inner_iterations_per_outer": [s.evals for s in its],
            "lambda_final": [s.lam for s in its],
            "termination": trace.termination,
            "f_residual": trace.f_residual,
            "f_sequence": [s.f_val for s in its],
            "q_params": [s.q for s in its],
            "bracket_sweeps": [s.bracket_sweeps for s in searches],
            "search_sweeps": [s.search_sweeps for s in searches],
            "stop_reasons": [s.stop for s in searches]}


def _solution_doc(sol: Solution) -> dict:
    return {"allocation": _allocation_doc(sol.allocation),
            "metrics": _fields(sol.metrics),
            "trace": _trace_doc(sol.trace)}


@contextlib.contextmanager
def _output(path):
    """The stream `--out` names: stdout when it is unset, empty or "-"."""
    if not path or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:  # csv writes its own \r\n
            yield fh


def _cmd_solve(args) -> int:
    cfg = _load_cfg(args)
    _, chan = generate_instance(cfg, cfg.master_seed)
    sol = solve_sem(chan, cfg) if args.sem else solve_eem(chan, cfg)
    doc = _solution_doc(sol)
    doc["algorithm"] = "SEM" if args.sem else "EEM"
    doc["seed"] = cfg.master_seed
    if args.exact_snr:
        exact = compute_metrics(sol.allocation, chan, cfg.radio(),
                                cfg.power_model(), exact_snr=True)
        doc["metrics_exact"] = _fields(exact)
    _dump(doc, sys.stdout)
    if args.strict and sol.trace.termination != "converged":
        print(f"solver did not converge ({sol.trace.termination})",
              file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args) -> int:
    from .experiments import builtin_scenarios, run_sweep, write_csv, write_json

    if args.json_out == "-":
        raise ValueError("--json needs a file path: on stdout the JSON "
                         "mirror would interleave with the CSV")
    scenarios = builtin_scenarios()
    if args.scenario not in scenarios:
        raise ConfigError(f"unknown scenario {args.scenario!r}; "
                          f"choose from {', '.join(scenarios)}")
    spec = scenarios[args.scenario]
    # the common flags re-shape the scenario's base configuration
    spec = dataclasses.replace(spec, base=_load_cfg(args, base=spec.base))
    if args.samples is not None:
        spec = dataclasses.replace(spec, samples=args.samples)
    if args.algorithms:
        algs = tuple(a.strip().upper() for a in args.algorithms.split(","))
        spec = dataclasses.replace(spec, algorithms=algs)

    records = run_sweep(spec)
    with _output(args.out) as stream:
        write_csv(records, stream)
    if args.json_out:
        write_json(records, args.json_out)
    return 0


def _assignment_key(alloc):
    return [(n, k, af) for k, n, af, _, _ in _entry_rows(alloc)]


def _cmd_oracle(args) -> int:
    from .oracle import GridSpec, brute_force_eem

    cfg = _load_cfg(args)
    grid = GridSpec(power_points=args.power_points,
                    beta_points=args.beta_points,
                    refine_rounds=args.refine_rounds)
    results = []
    for i in range(args.seeds):
        seed = cfg.master_seed + i
        _, chan = generate_instance(cfg, seed)
        sol = solve_eem(chan, cfg)
        ora = brute_force_eem(chan, cfg, grid)
        gap = ((sol.metrics.ee - ora.metrics.ee) / ora.metrics.ee
               if ora.metrics.ee > 0.0 else 0.0)
        results.append({
            "seed": seed,
            "solver_ee": sol.metrics.ee,
            "oracle_ee": ora.metrics.ee,
            "relative_gap": gap,
            "assignment_match":
                _assignment_key(sol.allocation) ==
                _assignment_key(ora.allocation),
        })
    gaps = [r["relative_gap"] for r in results]
    report = {
        "n_users": cfg.n_users, "n_subcarriers": cfg.n_subcarriers,
        "n_relays": cfg.n_relays, "p_max_dbm": cfg.p_max_dbm,
        "seeds": args.seeds,
        "grid": _fields(grid),
        "results": results,
        "summary": {
            "min_relative_gap": min(gaps),
            "mean_relative_gap": sum(gaps) / len(gaps),
            "max_relative_gap": max(gaps),
            "assignment_matches": sum(r["assignment_match"] for r in results),
            "all_within_tolerance": min(gaps) >= -args.tolerance,
        },
    }
    _dump(report, sys.stdout)
    return 0 if report["summary"]["all_within_tolerance"] else 1


def _cmd_convergence(args) -> int:
    cfg = _load_cfg(args)
    _, chan = generate_instance(cfg, cfg.master_seed)
    sol = solve_eem(chan, cfg)
    with _output(args.out) as stream:
        cumulative = 0
        for i, s in enumerate(sol.trace.iterations):
            cumulative += s.evals
            row = {"iteration": i + 1, "q": s.ratio,
                   "inner_iters": s.evals,
                   "cumulative_inner_iters": cumulative,
                   "lambda": s.lam,
                   "f_residual": s.f_val,
                   "bracket_sweeps": s.bracket_sweeps,
                   "search_sweeps": s.search_sweeps,
                   "stop_reason": s.stop}
            stream.write(json.dumps(row, default=_json_safe) + "\n")
    return 0


def _cmd_scenarios(_args) -> int:
    from .experiments import builtin_scenarios

    for name, spec in builtin_scenarios().items():
        axes = "; ".join(f"{k}={v}" for k, v in spec.axes.items()) or "single point"
        print(f"{name}: {axes} | samples={spec.samples} "
              f"| algorithms={','.join(spec.algorithms)}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "convergence": _cmd_convergence,
    "scenarios": _cmd_scenarios,
}


def main(argv: Optional[list] = None) -> int:
    try:
        ns = _parse_args(argv)
        return _COMMANDS[ns.command](ns)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # a ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
