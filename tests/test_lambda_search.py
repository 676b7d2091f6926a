"""The secant multiplier search against the reference bisection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bisection_search
from relayopt import solver
from relayopt.channel import ChannelRealization, generate_instance
from relayopt.config import SystemConfig
from relayopt.model import check_feasibility, system_rate

STOPS = {"interior", "tolerance", "jump-point", "iteration-cap",
         "bracket-failure"}


def _sweeps(trace):
    return sum(trace.bracket_sweeps) + sum(trace.search_sweeps)


def test_search_matches_reference_bisection(monkeypatch):
    cfg = SystemConfig(n_users=8, n_subcarriers=16, n_relays=2)
    params = cfg.solver_params()
    seeds = [cfg.master_seed + i for i in range(1000)]
    new_search = solver._search_lambda
    calls = []

    def reference(prob, q, params, lam_hint=None):
        res = bisection_search(prob, q, params)
        calls.append((q, res))
        return res

    differ = {}
    totals = {"reference": 0, "secant": 0}
    jump_seeds = 0
    for seed in seeds:
        _, chan = generate_instance(cfg, seed)
        prob = solver._Problem(chan, cfg)
        monkeypatch.setattr(solver, "_search_lambda", reference)
        calls.clear()
        ref = solver.solve_eem(chan, cfg)
        monkeypatch.setattr(solver, "_search_lambda", new_search)
        eem = solver.solve_eem(chan, cfg)
        sem = solver.solve_sem(chan, cfg)
        # SEM returns the highest-rate iterate of the same trajectory
        ref_se = max(system_rate(solver._to_allocation(prob, r.sweep), chan,
                                 cfg.radio()) for _, r in calls)

        problems = []
        for q, r in calls:
            f_ref = r.sweep.f_value(q, prob.p_fixed)
            f_new = new_search(prob, q, params).sweep.f_value(q, prob.p_fixed)
            slack = 1e-12 * max(abs(f_ref), r.sweep.rate_sum)
            if f_new < f_ref - slack:
                problems.append(f"F({q:.6g}) {f_new!r} < {f_ref!r}")
        if not math.isclose(eem.metrics.ee, ref.metrics.ee, rel_tol=1e-9):
            problems.append(f"EE {eem.metrics.ee!r} != {ref.metrics.ee!r}")
        if not math.isclose(sem.metrics.rate_total, ref_se, rel_tol=1e-9):
            problems.append(f"SE {sem.metrics.rate_total!r} != {ref_se!r}")
        for name, sol in (("EEM", eem), ("SEM", sem)):
            if _sweeps(sol.trace) > _sweeps(ref.trace):
                problems.append(f"{name} {_sweeps(sol.trace)} sweeps > "
                                f"{_sweeps(ref.trace)}")
        if problems:
            differ[seed] = problems
        totals["reference"] += _sweeps(ref.trace)
        totals["secant"] += _sweeps(eem.trace)
        jump_seeds += "jump-point" in eem.trace.stop_reasons
    print(f"EEM sweeps per solve: reference {totals['reference'] / len(seeds):.1f}, "
          f"secant {totals['secant'] / len(seeds):.1f}; "
          f"{jump_seeds} seeds stopped at a jump point")
    assert not differ, f"{len(differ)} seeds differ: {differ}"


def _counting_sweep(monkeypatch):
    count = [0]
    orig = solver._sweep

    def counted(*args, **kwargs):
        count[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(solver, "_sweep", counted)
    return count


@pytest.mark.parametrize("mode", ["bisection", "subgradient"])
def test_trace_counts_every_sweep(monkeypatch, mode):
    count = _counting_sweep(monkeypatch)
    cfg = SystemConfig(n_users=8, n_subcarriers=32, n_relays=3,
                       lambda_mode=mode)
    rejected = 0
    for seed in range(1, 41 if mode == "bisection" else 6):
        _, chan = generate_instance(cfg, seed)
        for solve in (solver.solve_eem, solver.solve_sem):
            count[0] = 0
            t = solve(chan, cfg).trace
            assert _sweeps(t) == count[0]
            assert len(t.bracket_sweeps) == len(t.search_sweeps) \
                == len(t.stop_reasons)
            assert set(t.stop_reasons) <= STOPS
        # EEM lists the safeguard-rejected search after the accepted ones
        rejected += len(t.stop_reasons) > len(t.q_sequence)
    assert mode == "subgradient" or rejected > 0


def test_accepted_searches_match_inner_iterations():
    cfg = SystemConfig(n_users=4, n_subcarriers=8, n_relays=1)
    _, chan = generate_instance(cfg, 3)
    t = solver.solve_eem(chan, cfg).trace
    n = len(t.q_sequence)
    assert [b + s for b, s in zip(t.bracket_sweeps[:n], t.search_sweeps[:n])] \
        == t.inner_iterations_per_outer
    assert t.stop_reasons[0] in ("tolerance", "jump-point")


@pytest.mark.parametrize("mode", ["bisection", "subgradient"])
def test_unclosable_bracket_raises(monkeypatch, mode):
    cfg = SystemConfig(n_users=2, n_subcarriers=4, n_relays=1,
                       lambda_mode=mode, i_inner_max=5)
    _, chan = generate_instance(cfg, 1)
    orig = solver._sweep
    count = [0]

    def never_feasible(prob, q, lam, params):
        count[0] += 1
        r = orig(prob, q, lam, params)
        r.p_used = 10.0 * prob.p_max
        return r

    monkeypatch.setattr(solver, "_sweep", never_feasible)
    with pytest.raises(RuntimeError, match="bracket failed"):
        solver.solve_inner(0.0, chan, cfg)
    assert count[0] < 2000


@given(k=st.integers(1, 2), n=st.integers(1, 2), m=st.integers(0, 1),
       p_max_dbm=st.floats(-40.0, 60.0),
       no_fixed_power=st.booleans(),
       gains=st.lists(st.one_of(st.just(0.0), st.floats(1e-16, 1e-6)),
                      min_size=10, max_size=10))
@settings(max_examples=150, deadline=None)
def test_degenerate_configs_solve_or_reject(k, n, m, p_max_dbm,
                                            no_fixed_power, gains):
    extra = {"p_c_bs_w": 0.0, "p_c_rn_w": 0.0} if no_fixed_power else {}
    cfg = SystemConfig(n_users=k, n_subcarriers=n, n_relays=m,
                       p_max_dbm=p_max_dbm, **extra)
    g = np.array(gains)
    kn = k * n
    chan = ChannelRealization(
        g_bs_ue=g[:kn].reshape(k, n), g_bs_rn=g[kn:kn + m * n].reshape(m, n),
        g_rn_ue=g[-kn:].reshape(k, n) if m else None,
        sector_of_ue=np.zeros(k, dtype=int) if m else None,
        noise_gap=cfg.noise_gap_watts, seed=0)
    params = cfg.solver_params()
    for solve in (solver.solve_eem, solver.solve_sem):
        try:
            sol = solve(chan, cfg)
        except ValueError:
            # only a cell that can neither radiate nor draw fixed power
            # has no defined efficiency
            live_af = m and np.any((chan.g_bs_rn[0] > 0.0) & (chan.g_rn_ue > 0.0))
            assert no_fixed_power and not np.any(chan.g_bs_ue) and not live_af
            continue
        assert math.isfinite(sol.metrics.ee)
        assert math.isfinite(sol.metrics.rate_total)
        assert check_feasibility(sol.allocation, cfg.radio(),
                                 cfg.power_model()) == []
        t = sol.trace
        assert _sweeps(t) <= params.i_outer_max * params.i_inner_max
        assert set(t.stop_reasons) <= STOPS
