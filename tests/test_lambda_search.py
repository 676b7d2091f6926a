"""The water-filling multiplier search against the reference bisection."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import bisection_search, dead_hop_channels, reference_water_fill
from relayopt import solver
from relayopt.channel import ChannelRealization, generate_instance
from relayopt.config import SystemConfig
from relayopt.model import check_feasibility, system_rate

STOPS = {"interior", "tolerance", "jump-point", "iteration-cap",
         "bracket-failure"}


def _sweeps(trace):
    return sum(s.evals for s in trace.searches)


def test_search_matches_reference_bisection(monkeypatch):
    cfg = SystemConfig(n_users=8, n_subcarriers=16, n_relays=2)
    seeds = [cfg.master_seed + i for i in range(1000)]
    new_search = solver._search_lambda
    calls = []

    def reference(prob, q, lam_hint=None):
        res = bisection_search(prob, q)
        calls.append((q, res))
        return res

    differ = {}
    totals = {"reference": 0, "fill": 0}
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
        ref_se = max(system_rate(solver._to_allocation(prob, r.sweep), chan)
                     for _, r in calls)

        problems = []
        for q, r in calls:
            f_ref = r.sweep.f_value(q, prob.p_fixed)
            f_new = new_search(prob, q).sweep.f_value(q, prob.p_fixed)
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
        totals["fill"] += _sweeps(eem.trace)
        jump_seeds += any(s.stop == "jump-point" for s in eem.trace.searches)
    print(f"EEM sweeps per solve: reference {totals['reference'] / len(seeds):.1f}, "
          f"fill {totals['fill'] / len(seeds):.1f}; "
          f"{jump_seeds} seeds stopped at a jump point")
    assert not differ, f"{len(differ)} seeds differ: {differ}"


def test_fill_steps_keep_sweep_counts_low():
    # desk seeds 1-200 at 0 dBm; at q = 0 the water-filling step is exact
    # on each sweep's assignment, so that search needs few sweeps, and a
    # search at q > 0 starts where the last left the direct price
    cfg = SystemConfig()
    total = first = 0
    later = []  # sweeps of each q > 0 search
    for seed in range(1, 201):
        searches = solver.solve_eem(generate_instance(cfg, seed)[1],
                                    cfg).trace.searches
        total += sum(s.evals for s in searches)
        first += searches[0].evals
        later += [s.evals for s in searches[1:]]
    assert total / 200 <= 5.0
    assert first / 200 <= 2.5
    assert sum(later) / len(later) <= 3.0


@pytest.mark.parametrize("p_max_dbm", [-150.0, -190.0])
def test_tiny_budgets_converge(p_max_dbm):
    # far below the floors the budget is finer than the float resolution
    # of water level minus floor; the search still pins the multiplier
    # instead of running out of sweeps
    cfg = SystemConfig(p_max_dbm=p_max_dbm)
    problems = []
    for seed in range(1, 21):
        t = solver.solve_eem(generate_instance(cfg, seed)[1], cfg).trace
        stops = [s.stop for s in t.searches]
        if t.termination != "converged" or "iteration-cap" in stops:
            problems.append((seed, t.termination, stops))
    assert not problems, problems


def test_water_fill_spends_the_budget():
    # the one sort-based water-filling: the t it returns spends the budget,
    # a dead term (base -inf) changes nothing, and with no live term t is inf
    rng = np.random.default_rng(21)
    for n in rng.integers(1, 40, size=200):
        base = -rng.lognormal(0.0, 3.0, size=n)
        slopes = rng.lognormal(0.0, 1.0, size=n)
        budget = rng.lognormal(0.0, 3.0)
        t = solver._water_fill(base, slopes, budget)
        spent = np.maximum(0.0, base + t * slopes).sum()
        assert spent == pytest.approx(budget, rel=1e-12)
        dead = np.append(base, [-np.inf, -np.inf])
        assert solver._water_fill(dead, np.append(slopes, [1.0, 2.0]),
                                  budget) == t
    assert solver._water_fill(np.full(3, -np.inf), np.ones(3), 1.0) == np.inf


# (base, slope) pairs from a small pool, each optionally scaled by a power
# of 2: equal thresholds -base/slope recur exactly, so ties are common
_fill_term = st.tuples(st.floats(-1e6, -1e-6), st.floats(1e-3, 1e3))


@example(terms=[(-1.0, 1.0)] * 3, picks=[(0, 0, True)] * 3, budget=1.0)
@example(terms=[(-1e6, 1e-3)], picks=[(0, 0, False), (0, 3, False)],
         budget=1e-300)
@given(terms=st.lists(_fill_term, min_size=1, max_size=4),
       picks=st.lists(st.tuples(st.integers(0, 3), st.integers(-4, 4),
                                st.booleans()), min_size=1, max_size=24),
       budget=st.one_of(st.floats(1e-300, 1e-12), st.floats(1e-6, 1e6)))
@settings(max_examples=500, derandomize=True, deadline=None)
def test_water_fill_matches_the_wrapper_form_bit_for_bit(terms, picks, budget):
    # each pick: a term of the pool, its power-of-2 scale, dead (base -inf);
    # the tiny budgets fill no term, and all-dead input gives inf
    drawn = [(terms[i % len(terms)], e, dead) for i, e, dead in picks]
    base = np.array([-math.inf if dead else math.ldexp(b, e)
                     for (b, _), e, dead in drawn])
    slopes = np.array([math.ldexp(s, e) for (_, s), e, _ in drawn])
    t = solver._water_fill(base, slopes, budget)
    assert t.hex() == reference_water_fill(base, slopes, budget).hex()


def test_start_price_fills_the_live_direct_links():
    # the direct-only water level over the finite floors; dead links (an
    # infinite floor) take no power, and with none live the price is 1
    for _, cfg, chan in dead_hop_channels():
        prob = solver._Problem(chan, cfg)
        floors = np.sort(prob.inv_alpha_d[np.isfinite(prob.inv_alpha_d)])
        assert floors.size < cfg.n_subcarriers
        m = np.arange(1, floors.size + 1)
        levels = (prob.p_max + np.cumsum(floors)) / m
        level = levels[np.flatnonzero(levels > floors)[-1]]
        assert prob.wf_price == 1.0 / (math.log(2.0) * level)
        silent = dataclasses.replace(chan, g_bs_ue=np.zeros_like(chan.g_bs_ue))
        assert solver._Problem(silent, cfg).wf_price == 1.0


def _reference_jump_searches(cfg, seeds):
    """(seed, prob, q, reference search) of every reference bisection
    search of solve_eem on `seeds` that stops at a jump point."""
    found = []
    for seed in seeds:
        _, chan = generate_instance(cfg, seed)
        calls = []

        def reference(prob, q, lam_hint=None):
            res = bisection_search(prob, q)
            calls.append((prob, q, res))
            return res

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_search_lambda", reference)
            solver.solve_eem(chan, cfg)
        found += [(seed, prob, q, res) for prob, q, res in calls
                  if res.stop == "jump-point"]
    return found


@pytest.fixture(scope="module")
def desk_jumps():
    return _reference_jump_searches(SystemConfig(), range(1, 401))


def test_jump_searches_settle_at_the_tie(desk_jumps):
    assert len(desk_jumps) == 27  # desk seeds 1-400, K=8, N=32, M=3
    problems = []
    for seed, prob, q, ref in desk_jumps:
        new = solver._search_lambda(prob, q)
        f_ref = ref.sweep.f_value(q, prob.p_fixed)
        f_new = new.sweep.f_value(q, prob.p_fixed)
        slack = 1e-12 * max(abs(f_ref), ref.sweep.rate_sum)
        if new.stop != "jump-point" or new.evals > 10 or f_new < f_ref - slack:
            problems.append((seed, q, new.stop, new.evals, f_new, f_ref))
    assert not problems, problems


def _candidate_mismatches(prob, q, lam):
    """Where _candidate's verdict differs from _sweep's at (q, lam).

    Per subcarrier, every row's _candidate marginal must be the one the
    sweep's kernel gives (its alpha*p scratch through _marginal, halved
    for AF), the row with the largest (ties to the lowest full-order
    index) must be the sweep's winner row, and its power the sweep's:
    p_win for a direct winner, beta*p and (1-beta)*p with the public
    af_beta for an AF one, bit for bit.
    """
    sweep = solver._sweep(prob, q, lam)
    marg = solver._marginal(prob.x.copy()) * prob.half
    rows = range(prob.flat.shape[0])
    found = []
    for n in range(prob.n_subcarriers):
        cands = [solver._candidate(prob, q, lam, r, n) for r in rows]
        found += [(q, lam, n, "marg", r, m, marg[r, n])
                  for r, (m, _) in enumerate(cands) if m != marg[r, n]]
        best = max(m for m, _ in cands)
        row = min((r for r in rows if cands[r][0] == best),
                  key=lambda r: prob.flat[r, n])
        p = cands[row][1]
        if row != sweep.winner_row[n]:
            found.append((q, lam, n, "row", row, int(sweep.winner_row[n])))
        elif row == 0:
            if p != sweep.p_win[n]:
                found.append((q, lam, n, "p_win", p, sweep.p_win[n]))
        else:
            at = (row - 1, n)
            beta = solver.af_beta(q, lam, prob.g1[at], prob.g2[at],
                                  prob.xi_bs, prob.xi_rn)
            if (p * beta, p * (1.0 - beta)) != (sweep.p_bs[n], sweep.p_rn[n]):
                found.append((q, lam, n, "p_af", p, sweep.p_bs[n]))
    return found


def test_candidate_agrees_with_the_sweep(desk_jumps, monkeypatch):
    # the tie finder reads the gaps and the switches off _candidate, and
    # the sweep ranks the kernel's marginals; the two must agree, and the
    # switches fall where the sweep puts them, on a multiplier grid and at
    # every pinned pair
    # desk seeds, the dead-hop instances (the af_dead rows) and relay-free
    # ones (no AF row)
    desk, relay_free = SystemConfig(), SystemConfig(n_relays=0)
    instances = [(desk, generate_instance(desk, s)[1]) for s in range(1, 11)]
    instances += [(cfg, chan) for _, cfg, chan in dead_hop_channels()]
    instances += [(relay_free, generate_instance(relay_free, s)[1])
                  for s in (1, 2, 3)]
    problems = []
    for cfg, chan in instances:
        sol = solver.solve_eem(chan, cfg)
        prob = sol._prob
        for s in sol.trace.iterations:
            for f in (1e-3, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 10.0, 1e3):
                problems += _candidate_mismatches(prob, s.q, s.lam * f)
    pinned = []
    tie_bracket = solver._tie_bracket

    def spy(prob, q, *args):
        tie = tie_bracket(prob, q, *args)
        if tie is not None:
            pinned.append((prob, q, tie[0], tie[1]))
        return tie

    monkeypatch.setattr(solver, "_tie_bracket", spy)
    for _, prob, q, _ in desk_jumps:
        solver._search_lambda(prob, q)
    assert len(pinned) >= len(desk_jumps)
    for prob, q, a, b in pinned:
        problems += _candidate_mismatches(prob, q, a)
        problems += _candidate_mismatches(prob, q, b)
    assert not problems, problems


def test_tie_search_is_bounded(monkeypatch):
    # a gap (3 - lambda)^9 is flat at its root, so secant steps crawl; the
    # midpoint steps still halve the bracket once every three steps, and
    # the pair is pinned to adjacent floats within
    # 3*ceil(log2(width / ulp(3))) + 2 gap evaluations, the two end gaps
    # included
    lo, hi = 1.0, 1e4
    lams = []

    def candidate(prob, q, lam, row, n):
        lams.append(lam)
        return (3.0 - lam) ** 9 if row == 0 else 0.0, 0.0

    monkeypatch.setattr(solver, "_candidate", candidate)
    prob = SimpleNamespace(flat=np.array([[0], [1]]))
    r_lo, r_hi = (SimpleNamespace(winner_row=np.array([r])) for r in (0, 1))
    a, b, _ = solver._tie_bracket(prob, 0.0, lo, hi, r_lo, r_hi)
    evals = len(lams) // 2 - 1  # two candidates per gap, then the jump at b
    bound = 3 * math.ceil(math.log2((hi - lo) / math.ulp(3.0))) + 2
    assert bound == 197
    assert a < 3.0 <= b and math.nextafter(a, b) == b
    assert evals <= bound


def test_large_jump_seed_settles_in_few_sweeps():
    # K=128, N=1024: bisecting its four jump searches took 181 sweeps
    cfg = SystemConfig(n_users=128, n_subcarriers=1024, n_relays=3)
    _, chan = generate_instance(cfg, 3)
    calls = []

    def reference(prob, q, lam_hint=None):
        res = bisection_search(prob, q)
        calls.append(res)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_search_lambda", reference)
        ref = solver.solve_eem(chan, cfg)
    prob = ref._prob
    ref_se = max(system_rate(solver._to_allocation(prob, r.sweep), chan)
                 for r in calls)
    eem = solver.solve_eem(chan, cfg)
    sem = solver.solve_sem(chan, cfg, eem=eem)
    assert [s.stop for s in eem.trace.searches] == ["jump-point"] * 4
    assert _sweeps(eem.trace) <= 60
    assert math.isclose(eem.metrics.ee, ref.metrics.ee, rel_tol=1e-9)
    assert math.isclose(sem.metrics.rate_total, ref_se, rel_tol=1e-9)


def test_two_switching_subcarriers_fall_back_to_midpoint_steps(
        desk_jumps, monkeypatch):
    # Mark subcarriers 0 and 1 as switched in every infeasible sweep, so
    # the bracket ends always differ on at least two subcarriers.
    orig = solver._sweep

    def two_switches(prob, q, lam):
        r = orig(prob, q, lam)
        if r.p_used > prob.p_max:
            r.winner_row = r.winner_row.copy()
            r.winner_row[:2] = -1
        return r

    monkeypatch.setattr(solver, "_sweep", two_switches)
    _, prob, q, _ = desk_jumps[0]
    tried = []
    tie_bracket = solver._tie_bracket

    def spy(*args):
        tried.append(tie_bracket(*args))
        return tried[-1]

    monkeypatch.setattr(solver, "_tie_bracket", spy)
    new = solver._search_lambda(prob, q)
    monkeypatch.setattr(solver, "_tie_bracket", lambda *a: None)
    midpoint = solver._search_lambda(prob, q)
    assert tried and not any(tried)
    assert new.evals > 10  # the search bisected down to the pin
    assert (new.stop, new.bracket_sweeps, new.search_sweeps, new.sweep.lam) \
        == (midpoint.stop, midpoint.bracket_sweeps, midpoint.search_sweeps,
            midpoint.sweep.lam)


def _counting_sweep(monkeypatch):
    count = [0]
    orig = solver._sweep

    def counted(*args, **kwargs):
        count[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(solver, "_sweep", counted)
    return count


@pytest.mark.parametrize("case", ["bisection", "tight-cap"])
def test_trace_counts_every_sweep(monkeypatch, case):
    count = _counting_sweep(monkeypatch)
    tight = case == "tight-cap"
    desk = SystemConfig(n_users=8, n_subcarriers=32, n_relays=3)
    if tight:  # at -80 dBm the bracketing often takes more than 2 sweeps
        desk = dataclasses.replace(desk, p_max_dbm=-80.0, i_inner_max=2)
    instances = [(desk, seed) for seed in range(1, 6 if tight else 41)]
    if not tight:  # desk seeds 1-40 reject no EEM search; these two do
        low = dataclasses.replace(desk, p_max_dbm=-30.0)
        instances += [(low, 1), (low, 3)]
    rejected = 0
    stops = set()
    for cfg, seed in instances:
        _, chan = generate_instance(cfg, seed)
        for solve in (solver.solve_eem, solver.solve_sem):
            count[0] = 0
            sol = solve(chan, cfg)
            t = sol.trace
            assert _sweeps(t) == count[0]
            # one record per search carries its two counts and its stop
            assert all(isinstance(s, solver._Search) for s in t.searches)
            assert {s.stop for s in t.searches} <= STOPS
            stops.update(s.stop for s in t.searches)
            assert check_feasibility(sol.allocation, cfg.radio(),
                                     cfg.power_model()) == [], seed
            if solve is solver.solve_eem:
                eem = t
        # EEM lists the safeguard-rejected search after the accepted ones
        rejected += len(eem.searches) > len(eem.iterations)
    if tight:  # the rare stops of the search, reached by a 2-sweep cap
        assert {"iteration-cap", "bracket-failure"} <= stops
    else:
        assert rejected > 0


def test_safeguard_rejects_a_search_below_the_incumbent(monkeypatch):
    # the q > 0 search's iterate is made worse than the incumbent on
    # purpose (its rate zeroed, so F < 0), not by rounding: EEM lists it
    # after the accepted search, stops there and keeps the incumbent
    cfg = SystemConfig(n_users=8, n_subcarriers=32, n_relays=3)
    _, chan = generate_instance(cfg, 1)
    search = solver._search_lambda

    def worse(prob, q, lam_hint=None):
        s = search(prob, q, lam_hint)
        if q == 0.0:
            return s
        return solver._Search.of(prob, q,
                                 dataclasses.replace(s.sweep, rate_sum=0.0),
                                 s.bracket_sweeps, s.search_sweeps, s.stop)

    monkeypatch.setattr(solver, "_search_lambda", worse)
    count = _counting_sweep(monkeypatch)
    sol = solver.solve_eem(chan, cfg)
    t = sol.trace
    assert _sweeps(t) == count[0]
    assert len(t.searches) == 2 and t.iterations == t.searches[:1]
    assert not t.searches[1].accepted and t.searches[1].f_val < 0.0
    assert (t.termination, t.f_residual) == ("converged", 0.0)
    prob = solver._Problem(chan, cfg)
    assert sol.allocation == solver._to_allocation(prob, t.searches[0].sweep)
    assert sol.metrics.ee == pytest.approx(t.searches[0].ratio, rel=1e-12)


def test_rejection_keeps_the_incumbents_stop():
    # after a rejection the incumbent's iterate is the answer, so the
    # termination reads its stop: at -80 dBm a 2-sweep cap leaves some
    # incumbents stopped at iteration-cap or bracket-failure
    cfg = SystemConfig(p_max_dbm=-80.0, i_inner_max=2)
    labels = set()
    for seed in range(1, 21):
        t = solver.solve_eem(generate_instance(cfg, seed)[1], cfg).trace
        if t.searches[-1].accepted:
            continue
        incumbent = t.iterations[-1]
        assert t.termination == ("converged" if incumbent.converged
                                 else "inner-limit"), seed
        labels.add(t.termination)
    assert labels == {"converged", "inner-limit"}


def test_accepted_searches_match_inner_iterations():
    cfg = SystemConfig(n_users=4, n_subcarriers=8, n_relays=1)
    _, chan = generate_instance(cfg, 3)
    t = solver.solve_eem(chan, cfg).trace
    n = len(t.iterations)
    assert [s.bracket_sweeps + s.search_sweeps for s in t.searches[:n]] \
        == [s.evals for s in t.iterations]
    assert t.searches[0].stop in ("tolerance", "jump-point")


def _counted_sweeps(monkeypatch, p_used_factor=None):
    """Count _sweep calls; with a factor, p_used reads factor * p_max."""
    orig = solver._sweep
    count = [0]

    def sweep(prob, q, lam):
        count[0] += 1
        r = orig(prob, q, lam)
        if p_used_factor is not None:
            r.p_used = p_used_factor * prob.p_max
        return r

    monkeypatch.setattr(solver, "_sweep", sweep)
    return count


def _small_problem():
    cfg = SystemConfig(n_users=2, n_subcarriers=4, n_relays=1, i_inner_max=5)
    return solver._Problem(generate_instance(cfg, 1)[1], cfg)


def test_unclosable_bracket_raises(monkeypatch):
    prob = _small_problem()
    count = _counted_sweeps(monkeypatch, p_used_factor=10.0)  # never feasible
    with pytest.raises(RuntimeError, match="bracket failed"):
        solver._search_lambda(prob, 0.0)
    assert count[0] < 2000


def test_nan_hint_fails_the_bracket(monkeypatch):
    # NaN passes no ceiling test of the form lam > ceiling; the bracket
    # must fail at once, not step NaN to NaN
    prob = _small_problem()
    count = _counted_sweeps(monkeypatch)
    with pytest.raises(RuntimeError, match="bracket failed"):
        solver._search_lambda(prob, 0.0, math.nan)
    assert count[0] < 2000


def test_nonpositive_hint_at_q_zero_is_rejected():
    # q = lambda = 0 is an unbounded water level, as for af_beta
    prob = _small_problem()
    for hint in (0.0, -1.0):
        with pytest.raises(ValueError, match="lam_hint"):
            solver._search_lambda(prob, 0.0, hint)


def test_zero_hint_climbs_from_an_overflowing_sweep(monkeypatch):
    # at a subnormal q the water level at lambda = 0 overflows, so that
    # sweep yields no fill step and doubling 0 would not move; the climb
    # starts from the direct price instead
    prob = _small_problem()
    orig = solver._sweep
    sweeps = []

    def sweep(prob, q, lam):
        sweeps.append(lam)
        if len(sweeps) > 2000:
            raise AssertionError("the bracketing does not move")
        return orig(prob, q, lam)

    monkeypatch.setattr(solver, "_sweep", sweep)
    with np.errstate(all="ignore"):
        s = solver._search_lambda(prob, 1e-320, 0.0)
    assert sweeps[:2] == [0.0, 1e-320 * prob.xi_bs]
    assert s.stop in STOPS and s.lam > 0.0


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
        noise_gap=cfg.noise_gap_watts)
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
        assert _sweeps(t) <= cfg.i_outer_max * cfg.i_inner_max
        assert {s.stop for s in t.searches} <= STOPS


def _check_search(prob, q, search, sweeps):
    """Invariants of one search against the (lambda, sweep) it ran.

    Each sweep files as the bracket's lo end (infeasible) or hi end
    (feasible).
    """
    over = prob.p_max * (1.0 + solver._FEAS_SLACK)
    problems = []
    lo = hi = None
    for lam, r in sweeps:
        if lo is not None and hi is not None and not lo < lam < hi:
            problems.append(("outside", lam, lo, hi))
        if r.p_used > over:
            lo = lam
        else:
            hi = lam
    feasible = [r for _, r in sweeps if r.p_used <= over]
    f_best = max(r.f_value(q, prob.p_fixed) for r in feasible)
    first = next(r for r in feasible if r.f_value(q, prob.p_fixed) == f_best)
    if search.sweep is not first:
        problems.append(("iterate", search.lam, first.lam))
    if search.evals != len(sweeps):
        problems.append(("evals", search.evals, len(sweeps)))
    if search.evals > max(search.bracket_sweeps, prob.cfg.i_inner_max):
        problems.append(("cap", search.evals, search.bracket_sweeps))
    # a pinned bracket has no float between its ends, unless a descent
    # stopped at the floor with no infeasible end
    if search.stop == "jump-point" and hi > solver._LAMBDA_FLOOR and (
            lo is None or math.nextafter(lo, hi) != hi):
        problems.append(("pin", lo, hi))
    return problems


def test_search_keeps_one_bracket(desk_jumps, monkeypatch):
    # once both ends exist every sweep splits the bracket, the iterate is
    # the first best-F(q) feasible sweep, and the counts add up
    orig_sweep, orig_search = solver._sweep, solver._search_lambda
    sweeps, checked, problems = [], [], []

    def sweep(prob, q, lam):
        r = orig_sweep(prob, q, lam)
        sweeps.append((lam, r))
        return r

    def search(prob, q, lam_hint=None):
        sweeps.clear()
        res = orig_search(prob, q, lam_hint)
        checked.append(res.stop)
        problems.extend((q, p) for p in _check_search(prob, q, res, sweeps))
        return res

    monkeypatch.setattr(solver, "_sweep", sweep)
    monkeypatch.setattr(solver, "_search_lambda", search)
    desk = SystemConfig()
    instances = [(desk, s) for s in range(1, 21)]
    low = dataclasses.replace(desk, p_max_dbm=-30.0)
    instances += [(low, 1), (low, 3)]
    # lambda = 0 meets a +40 dBm budget once q > 0: the interior stop
    instances.append((dataclasses.replace(desk, p_max_dbm=40.0), 1))
    instances += [(SystemConfig(n_relays=0), s) for s in range(1, 11)]
    # far below the floors the budget falls between adjacent floats
    tiny = dataclasses.replace(desk, p_max_dbm=-130.0)
    instances += [(tiny, s) for s in range(1, 21)]
    # a 2-sweep cap, where the bracketing often takes more
    capped = dataclasses.replace(desk, p_max_dbm=-80.0, i_inner_max=2)
    instances += [(capped, s) for s in range(1, 6)]
    for cfg, seed in instances:
        solver.solve_eem(generate_instance(cfg, seed)[1], cfg)
    for _, prob, q, _ in desk_jumps:
        solver._search_lambda(prob, q)
    assert not problems, problems
    assert {"interior", "tolerance", "jump-point", "iteration-cap",
            "bracket-failure"} <= set(checked)
