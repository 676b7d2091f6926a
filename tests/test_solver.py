import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import best_feasible_f_on_grid, beta_quotient, dead_hop_channels, \
    dominance_holds, kkt_residuals, reference_system_rate, sweep_at
from relayopt.channel import ChannelRealization, generate_instance
from relayopt.config import ConfigError, SystemConfig
from relayopt.model import LN2, Direct, check_feasibility, system_rate
import relayopt.solver as solver
from relayopt.solver import Solution, af_beta, solve_eem, solve_sem


# ------------------------------------------------- closed-form kernel

def test_direct_candidate_worked_example():
    # alpha = 2, water level 1/(ln2 * lam) = 1  ->  p = 1 - 1/2
    p, x = solver._direct_terms(0.0, 1.0 / LN2, 2.6, inv_alpha=0.5)
    assert p == pytest.approx(0.5, rel=1e-12)
    assert x / p == pytest.approx(2.0, rel=1e-15)  # effective gain alpha
    assert solver._marginal(x) == pytest.approx(0.2786524795555183, rel=1e-12)


def test_direct_candidate_clamps_to_zero():
    p, x = solver._direct_terms(0.0, 1.0 / LN2, 2.6, inv_alpha=2.0)
    assert p == 0.0 and x == 0.0
    assert solver._marginal(x) == 0.0
    # boundary: water level exactly 1/alpha
    assert solver._direct_terms(0.0, 1.0 / LN2, 2.6, inv_alpha=1.0)[0] == 0.0
    # a dead link (floor inf) gets no power
    assert solver._direct_terms(0.0, 1.0, 2.6, inv_alpha=math.inf) == (0.0, 0.0)


@given(q=st.floats(min_value=0.0, max_value=10.0),
       lam=st.floats(min_value=1e-6, max_value=1e4),
       gain=st.floats(min_value=1e-14, max_value=1e-6))
@settings(max_examples=200, deadline=None)
def test_direct_candidate_satisfies_stationarity(q, lam, gain):
    ngap = 4.777e-17
    alpha = gain / ngap
    p, _ = solver._direct_terms(q, lam, 2.6, 1.0 / alpha)
    if p > 0.0:
        price = q * 2.6 + lam
        lhs = alpha / (LN2 * (1.0 + alpha * p))
        assert lhs == pytest.approx(price, rel=1e-12)


def test_af_beta_symmetric_is_exactly_half():
    # q = 0 makes both prices 2*lam regardless of the drain constants
    assert af_beta(0.0, 0.7, 3e-9, 3e-9, 2.6, 5.0) == 0.5
    # equal constants and equal gains at q > 0
    assert af_beta(1.3, 0.7, 3e-9, 3e-9, 2.6, 2.6) == 0.5


def test_af_beta_known_ratio():
    # g1*a = 4 * g2*b  ->  beta = 1/3
    assert af_beta(0.0, 0.5, 4.0, 1.0, 2.6, 5.0) == pytest.approx(1 / 3, rel=1e-15)
    assert type(af_beta(0.0, 0.5, 4.0, 1.0, 2.6, 5.0)) is float  # not numpy's


def test_af_beta_matches_quotient_form():
    rng = np.random.default_rng(8)
    for _ in range(500):
        q = float(rng.uniform(0.0, 5.0))
        lam = float(10.0 ** rng.uniform(-4, 3))
        g1 = float(10.0 ** rng.uniform(-12, -4))
        g2 = float(10.0 ** rng.uniform(-12, -4))
        a = q * 2.6 + 2 * lam
        b = q * 5.0 + 2 * lam
        if abs(g1 * a - g2 * b) < 1e-5 * (g1 * a + g2 * b):
            continue  # quotient form is 0/0-adjacent there
        stable = af_beta(q, lam, g1, g2, 2.6, 5.0)
        assert stable == pytest.approx(beta_quotient(q, lam, g1, g2, 2.6, 5.0),
                                       rel=1e-9)
        assert 0.0 < stable < 1.0


def test_af_beta_rejects_dead_hops():
    with pytest.raises(ValueError):
        af_beta(1.0, 1.0, 0.0, 1.0, 2.6, 5.0)
    with pytest.raises(ValueError):
        af_beta(1.0, 1.0, 1.0, -1.0, 2.6, 5.0)


def test_af_beta_rejects_bad_prices():
    with pytest.raises(ValueError, match="unbounded"):
        af_beta(0.0, 0.0, 1.0, 1.0, 2.6, 5.0)
    with pytest.raises(ValueError, match=">= 0"):
        af_beta(-0.1, 1.0, 1.0, 1.0, 2.6, 5.0)


def test_af_beta_is_the_kernels_split():
    # the shortlist's (M', N) betas, element by element, bit for bit
    cfg = SystemConfig()
    for seed in (1, 2, 3):
        _, chan = generate_instance(cfg, seed)
        prob = solver._Problem(chan, cfg)
        for q, lam in ((0.0, 30.0), (0.7, 0.02), (5.0, 1e-6)):
            beta, _, _ = solver._af_terms(q, lam, prob.xi_bs, prob.xi_rn,
                                          prob.af_ngap, prob.sqrt_g1,
                                          prob.sqrt_g2, prob.g1, prob.g2)
            for at in np.ndindex(beta.shape):
                assert af_beta(q, lam, prob.g1[at], prob.g2[at], prob.xi_bs,
                               prob.xi_rn) == beta[at], (seed, q, lam, at)


def _af_kernel(q, lam, g1, g2, ngap=1.0, xi_bs=2.6, xi_rn=5.0):
    return solver._af_terms(q, lam, xi_bs, xi_rn, ngap, math.sqrt(g1),
                            math.sqrt(g2), g1, g2)


def test_af_candidate_worked_example():
    # symmetric hops, both prices 1/ln2: beta = 1/2, alpha = g/4 = 2,
    # water level 1, p = 1 - 1/2
    beta, p, x = _af_kernel(0.0, 0.5 / LN2, g1=8.0, g2=8.0)
    assert beta == 0.5
    assert x / p == pytest.approx(2.0, rel=1e-14)  # effective gain alpha
    assert p == pytest.approx(0.5, rel=1e-12)
    assert beta * p == pytest.approx(0.25, rel=1e-12)
    assert 0.5 * solver._marginal(x) == pytest.approx(0.13932623977775915,
                                                      rel=1e-12)


def test_af_candidate_split_sums_to_total():
    # the sweep hands an AF winner's power out as beta*p and (1-beta)*p
    cfg = SystemConfig(n_users=4, n_subcarriers=16, n_relays=2)
    rng = np.random.default_rng(3)
    n_af = 0
    for seed in (1, 2, 3):
        _, chan = generate_instance(cfg, seed)
        prob = solver._Problem(chan, cfg)
        for _ in range(20):
            q = float(rng.uniform(0.0, 2.0))
            lam = float(10.0 ** rng.uniform(-3, 2))
            sw = solver._sweep(prob, q, lam)
            for n in np.flatnonzero(sw.winner_af):
                beta, p, _ = solver._af_terms(
                    q, lam, prob.xi_bs, prob.xi_rn, prob.af_ngap,
                    *(v[sw.winner_row[n] - 1, n] for v in (
                        prob.sqrt_g1, prob.sqrt_g2, prob.g1, prob.g2)))
                assert p >= 0.0
                assert sw.p_bs[n] + sw.p_rn[n] == pytest.approx(p, rel=1e-15)
                if p > 0.0:
                    assert sw.p_bs[n] / p == pytest.approx(beta, rel=1e-12)
                    n_af += 1
    assert n_af > 0


def test_af_candidate_clamps_to_zero():
    _, p, x = _af_kernel(0.0, 10.0, g1=1e-3, g2=1e-3)
    assert p == 0.0 and x == 0.0


# ------------------------------------------------------------- inner solve

def _single_link_channel(gain, cfg):
    return ChannelRealization(
        g_bs_ue=np.array([[gain]]), g_bs_rn=np.empty((0, 1)), g_rn_ue=None,
        sector_of_ue=None, noise_gap=cfg.noise_gap_watts)


def _af_channel(cfg, g_bs_ue, g_bs_rn, g_rn_ue):
    return ChannelRealization(
        g_bs_ue=np.array(g_bs_ue, dtype=float),
        g_bs_rn=np.array(g_bs_rn, dtype=float),
        g_rn_ue=np.array(g_rn_ue, dtype=float),
        sector_of_ue=np.zeros(1, dtype=int), noise_gap=cfg.noise_gap_watts)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-10, -math.inf])
@pytest.mark.parametrize("link", ["g_bs_ue", "g_bs_rn", "g_rn_ue"])
def test_bad_gains_are_rejected(bad, link):
    cfg = SystemConfig(n_users=1, n_subcarriers=2, n_relays=1)
    what = "negative" if -math.inf < bad < 0.0 else "NaN or infinite"
    # beside a negative gain, a NaN or infinite one is still what is reported
    for other in (1e-10, -1e-10):
        gains = {"g_bs_ue": [[1e-10, 1e-10]], "g_bs_rn": [[1e-9, 1e-9]],
                 "g_rn_ue": [[1e-9, 1e-9]]}
        gains[link] = [[other, bad]]
        chan = _af_channel(cfg, **gains)
        for solve in (solve_eem, solve_sem):
            with pytest.raises(ValueError, match=f"^{link} holds {what} gains$"):
                solve(chan, cfg)


def test_gains_that_overflow_over_noise_gap_are_rejected():
    # 1e-3 / 1e-320 is inf: every rate and the Dinkelbach ratio with it
    cfg = SystemConfig(n_users=1, n_subcarriers=1, n_relays=0)
    chan = dataclasses.replace(_single_link_channel(1e-3, cfg),
                               noise_gap=1e-320)
    for solve in (solve_eem, solve_sem):
        with pytest.raises(ValueError, match="^g_bs_ue over noise_gap"):
            solve(chan, cfg)


@pytest.mark.parametrize("noise_gap", [0.0, -1.0, math.nan, math.inf])
def test_bad_noise_gap_is_rejected(noise_gap):
    cfg = SystemConfig(n_users=1, n_subcarriers=1, n_relays=0)
    chan = dataclasses.replace(_single_link_channel(1e-10, cfg),
                               noise_gap=noise_gap)
    for solve in (solve_eem, solve_sem):
        with pytest.raises(ValueError,
                           match="^noise_gap must be positive and finite$"):
            solve(chan, cfg)


def test_dead_links_idle_their_subcarrier():
    # subcarrier 0: no direct link and a dead second hop (beta would be
    # 0/0); subcarrier 1: a dead first hop beside a live direct link
    cfg = SystemConfig(n_users=1, n_subcarriers=2, n_relays=1)
    chan = _af_channel(cfg, g_bs_ue=[[0.0, 1e-10]], g_bs_rn=[[1e-9, 0.0]],
                       g_rn_ue=[[0.0, 1e-9]])
    for solve in (solve_eem, solve_sem):
        sol = solve(chan, cfg)
        assert set(sol.allocation.entries) == {(0, 1)}
        assert isinstance(sol.allocation.entries[(0, 1)], Direct)
        assert math.isfinite(sol.metrics.ee) and sol.metrics.ee > 0.0
        assert sol.trace.termination == "converged"


def _scaled(chan, e):
    """chan with every gain and the noise gap times 2**e: the same SNRs."""
    return dataclasses.replace(
        chan, noise_gap=math.ldexp(chan.noise_gap, e),
        **{name: np.ldexp(getattr(chan, name), e)
           for name in ("g_bs_ue", "g_bs_rn", "g_rn_ue")})


def test_gains_and_noise_scaled_alike_give_the_same_answer():
    # at 2**-480 an AF pair's den = (beta*g1 + (1-beta)*g2)*ngap falls
    # below 1e-300 and would underflow; scaled back by one power of 4,
    # the closed forms see the same bits as the stock instance, and the
    # metrics' SNRs p*g/ngap stay normal
    cfg = SystemConfig()
    instances = [(seed, cfg, generate_instance(cfg, seed)[1])
                 for seed in range(1, 11)]
    for seed, cfg, chan in instances + dead_hop_channels():
        tiny = _scaled(chan, -480)
        prob = solver._Problem(tiny, cfg)
        assert prob.af_ngap != tiny.noise_gap, seed  # rescaled
        eem = solve_eem(tiny, cfg)
        for sol, ref in ((eem, solve_eem(chan, cfg)),
                         (solve_sem(tiny, cfg, eem=eem), solve_sem(chan, cfg))):
            assert sol.allocation == ref.allocation, seed
            assert repr(sol.metrics) == repr(ref.metrics), seed
            assert sol.trace.searches == ref.trace.searches, seed


def _inner_solve(q, chan, cfg):
    """One multiplier search at fixed q: its allocation, the search and
    the per-instance problem."""
    prob = solver._Problem(chan, cfg)
    search = solver._search_lambda(prob, q)
    return solver._to_allocation(prob, search.sweep), search, prob


def test_solve_inner_spends_budget_at_q_zero():
    cfg = SystemConfig(n_users=1, n_subcarriers=1, n_relays=0, p_max_dbm=0.0)
    chan = _single_link_channel(1e-10, cfg)
    alloc, search, _ = _inner_solve(0.0, chan, cfg)
    assert search.converged
    assert search.sweep.lam > 0.0
    entry = alloc.entries[(0, 0)]
    assert entry.p_d == pytest.approx(cfg.p_max_w, rel=1e-5)
    assert search.sweep.p_used <= cfg.p_max_w * (1.0 + 1e-9)


def test_solve_inner_idles_under_huge_price():
    cfg = SystemConfig(n_users=1, n_subcarriers=1, n_relays=0, p_max_dbm=0.0)
    chan = _single_link_channel(1e-10, cfg)
    alloc, search, _ = _inner_solve(1e12, chan, cfg)
    assert alloc.entries == {}
    assert search.sweep.p_used == 0.0


def test_solve_inner_beats_multiplier_grid():
    cfg = SystemConfig(n_users=2, n_subcarriers=4, n_relays=1, p_max_dbm=0.0)
    _, chan = generate_instance(cfg, seed=5)
    for q in (0.001, 0.01):
        _, search, prob = _inner_solve(q, chan, cfg)
        lams = np.geomspace(1e-4, 1e8, 400)
        grid_best = best_feasible_f_on_grid(chan, cfg, q, lams)
        f_value = search.sweep.f_value(q, prob.p_fixed)
        assert f_value >= grid_best - 1e-6 * max(1.0, abs(grid_best))


@pytest.mark.parametrize("p_max_dbm", [-200.0, -300.0, -400.0])
def test_budget_below_float_resolution_idles(p_max_dbm):
    # p_max is below the float resolution of every water-level floor, so
    # no water-filling level clears one: the solve idles and converges
    cfg = SystemConfig(n_users=8, n_subcarriers=32, n_relays=3,
                       p_max_dbm=p_max_dbm)
    _, chan = generate_instance(cfg, cfg.master_seed)
    eem = solve_eem(chan, cfg)
    sem = solve_sem(chan, cfg, eem=eem)
    for sol in (eem, sem):
        assert sol.trace.termination == "converged"
        assert sol.metrics.ee == 0.0
        assert sol.metrics.tx_power_used == 0.0
        assert check_feasibility(sol.allocation, cfg.radio(),
                                 cfg.power_model()) == []


def test_allocated_power_monotone_in_multiplier():
    cfg = SystemConfig(n_users=3, n_subcarriers=8, n_relays=2, p_max_dbm=0.0)
    _, chan = generate_instance(cfg, seed=9)
    for q in (0.0, 0.05):
        lams = np.geomspace(1e-3, 1e6, 120)
        used = [sweep_at(chan, cfg, q, float(lam))[1] for lam in lams]
        diffs = np.diff(used)
        assert np.all(diffs <= 1e-12)


# ------------------------------------------------------------- outer loops

@pytest.fixture(scope="module")
def medium_instances():
    cfg = SystemConfig(n_users=4, n_subcarriers=8, n_relays=2, p_max_dbm=0.0)
    out = []
    for seed in range(1, 9):
        _, chan = generate_instance(cfg, seed)
        out.append((cfg, chan, solve_eem(chan, cfg)))
    return out


def test_eem_ratio_sequence_monotone(medium_instances):
    for _, _, sol in medium_instances:
        q = [s.ratio for s in sol.trace.iterations]
        assert len(q) >= 1
        assert all(b - a >= -1e-12 for a, b in zip(q, q[1:]))
        assert sol.trace.termination == "converged"


def test_eem_metrics_match_final_ratio(medium_instances):
    for _, _, sol in medium_instances:
        assert sol.metrics.ee == pytest.approx(sol.trace.iterations[-1].ratio,
                                               rel=1e-9)


def test_eem_residual_and_feasibility(medium_instances):
    for cfg, chan, sol in medium_instances:
        assert abs(sol.trace.f_residual) <= 1e-6 * sol.metrics.power_total
        assert check_feasibility(sol.allocation, cfg.radio(),
                                 cfg.power_model()) == []


def test_eem_kkt_stationarity(medium_instances):
    for cfg, chan, sol in medium_instances:
        assert sol.allocation.entries, "expected a non-empty allocation"
        assert max(kkt_residuals(sol, chan, cfg)) <= 1e-6


def test_eem_winner_dominance(medium_instances):
    for cfg, chan, sol in medium_instances:
        assert dominance_holds(sol, chan, cfg)


def test_eem_trace_bookkeeping(medium_instances):
    for _, _, sol in medium_instances:
        t = sol.trace
        n = len(t.iterations)
        # the accepted searches lead the searches, in order
        assert t.searches[:n] == t.iterations
        assert all(s.accepted for s in t.iterations)
        assert t.iterations[0].q == 0.0
        # each accepted iterate feeds the next q parameter
        assert [s.q for s in t.iterations[1:]] \
            == [s.ratio for s in t.iterations[:-1]]


def test_sem_dominates_spectral_axis(medium_instances):
    for cfg, chan, sol_eem in medium_instances:
        sol_sem = solve_sem(chan, cfg)
        se_slack = 1e-9 * max(1.0, sol_sem.metrics.rate_total)
        assert sol_sem.metrics.rate_total >= sol_eem.metrics.rate_total - se_slack
        ee_slack = 1e-9 * max(1.0, sol_eem.metrics.ee)
        assert sol_eem.metrics.ee >= sol_sem.metrics.ee - ee_slack


def test_sem_never_loses_rate_to_the_zero_q_solve():
    # the returned SEM iterate must carry at least the q = 0 solve's rate,
    # and away from budget-crossing assignment switches it *is* that solve
    cfg = SystemConfig(n_users=3, n_subcarriers=8, n_relays=1, p_max_dbm=10.0)
    _, chan = generate_instance(cfg, seed=17)
    sem = solve_sem(chan, cfg)
    alloc0, _, _ = _inner_solve(0.0, chan, cfg)
    rate0 = system_rate(alloc0, chan)
    assert sem.metrics.rate_total >= rate0
    assert sem.trace.f_residual == pytest.approx(sem.metrics.rate_total,
                                                 rel=1e-9)
    assert len(sem.trace.iterations) == 1
    assert [s.ratio for s in sem.trace.iterations] == [sem.metrics.ee]


def test_sem_solution_is_stationary_at_its_own_parameters(medium_instances):
    # whichever iterate SEM reports, its powers satisfy the water-level
    # identity at the (q, lambda) recorded in the trace
    for cfg, chan, _ in medium_instances:
        sem = solve_sem(chan, cfg)
        resids = kkt_residuals(sem, chan, cfg)
        if resids:
            assert max(resids) <= 1e-6


def test_eem_monotone_in_budget():
    cfg0 = SystemConfig(n_users=4, n_subcarriers=8, n_relays=1)
    _, chan = generate_instance(cfg0, seed=23)
    last = -1.0
    for dbm in (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0):
        cfg = SystemConfig(n_users=4, n_subcarriers=8, n_relays=1,
                           p_max_dbm=dbm)
        ee = solve_eem(chan, cfg).metrics.ee
        assert ee >= last * (1.0 - 1e-6)
        last = ee


def test_outer_limit_reported():
    cfg = SystemConfig(n_users=4, n_subcarriers=8, n_relays=1,
                       p_max_dbm=50.0, i_outer_max=1)
    _, chan = generate_instance(cfg, seed=2)
    sol = solve_eem(chan, cfg)
    assert sol.trace.termination == "outer-limit"
    assert len(sol.trace.iterations) == 1


# ------------------------------------------------------- shared trajectory

_DESK = SystemConfig()  # K=8, N=32, M=3, 0 dBm
_SHARED_CASES = {
    **{f"desk-m{m}": (dataclasses.replace(_DESK, n_relays=m), range(1, 9))
       for m in (0, 1, 3)},
    **{f"k1-n1-m{m}": (SystemConfig(n_users=1, n_subcarriers=1, n_relays=m),
                       range(1, 6)) for m in (0, 1, 3)},
    "minus-40dbm": (dataclasses.replace(_DESK, p_max_dbm=-40.0), range(1, 5)),
    "plus-40dbm": (dataclasses.replace(_DESK, p_max_dbm=40.0), range(1, 5)),
    # searches stopped at the iteration cap
    "inner-cap-2": (dataclasses.replace(_DESK, i_inner_max=2), range(1, 4)),
    # one outer step: SEM's answer is EEM's own iterate
    "one-outer-step": (dataclasses.replace(_DESK, i_outer_max=1), range(1, 4)),
}


@pytest.mark.parametrize("case", sorted(_SHARED_CASES))
def test_sem_from_the_eem_trajectory_equals_a_plain_sem_solve(case):
    # the plain SEM answer, read independently off the EEM trajectory:
    # the first iterate (the rejected last step included) whose rate, by
    # the per-entry reference sum, is a strict maximum
    cfg, seeds = _SHARED_CASES[case]
    for seed in seeds:
        _, chan = generate_instance(cfg, seed)
        eem = solve_eem(chan, cfg)
        searches = eem.trace.searches
        allocs = [solver._to_allocation(eem._prob, s.sweep) for s in searches]
        rates = [reference_system_rate(a, chan) for a in allocs]
        best = rates.index(max(rates))
        for sem in (solve_sem(chan, cfg, eem=eem), solve_sem(chan, cfg)):
            assert sem.allocation.entries == allocs[best].entries, seed
            assert sem.metrics.rate_total == pytest.approx(rates[best],
                                                           rel=1e-12), seed
            assert [s.q for s in sem.trace.iterations] \
                == [searches[best].q], seed


def test_sem_from_the_eem_trajectory_runs_no_search(monkeypatch):
    cfg = SystemConfig(n_users=4, n_subcarriers=8, n_relays=2)
    _, chan = generate_instance(cfg, seed=3)
    eem = solve_eem(chan, cfg)
    steps = eem.trace.searches
    calls = {"sweep": 0, "metrics": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(solver, "_sweep", counting("sweep", solver._sweep))
    monkeypatch.setattr(solver, "compute_metrics",
                        counting("metrics", solver.compute_metrics))
    sem = solve_sem(chan, cfg, eem=eem)
    assert calls["sweep"] == 0
    # every iterate but EEM's incumbent is measured; the incumbent's
    # metrics are EEM's own
    assert len(steps) >= 2
    assert calls["metrics"] == len(steps) - 1
    assert sem.metrics.rate_total >= eem.metrics.rate_total


def test_sem_rejects_an_eem_solved_for_something_else():
    cfg = SystemConfig(n_users=2, n_subcarriers=4, n_relays=1)
    _, chan = generate_instance(cfg, seed=1)
    _, other_chan = generate_instance(cfg, seed=2)
    eem = solve_eem(chan, cfg)
    with pytest.raises(ValueError, match="channel"):
        solve_sem(other_chan, cfg, eem=eem)
    for changed in ({"p_max_dbm": 10.0}, {"eps_outer": 1e-6}):
        with pytest.raises(ValueError, match="eem was solved for another config"):
            solve_sem(chan, dataclasses.replace(cfg, **changed), eem=eem)
    # an equal copy of the config the EEM solve used is accepted
    solve_sem(chan, dataclasses.replace(cfg), eem=eem)
    for bare in (Solution(eem.allocation, eem.metrics, eem.trace),
                 solve_sem(chan, cfg)):
        with pytest.raises(ValueError, match="no Dinkelbach trajectory"):
            solve_sem(chan, cfg, eem=bare)


def test_solver_params_validation():
    # the solver settings are config keys: the library solves reject a
    # bad one as load_config and the CLI do
    cfg = SystemConfig(n_users=1, n_subcarriers=1, n_relays=0)
    chan = _single_link_channel(1e-10, cfg)
    for key, value in (("i_outer_max", 0), ("eps_outer", 0.0),
                       ("i_inner_max", 0), ("eps_outer", -1.0),
                       ("eps_outer", math.nan)):
        bad = dataclasses.replace(cfg, **{key: value})
        for solve in (solve_eem, solve_sem):
            with pytest.raises(ConfigError, match=key):
                solve(chan, bad)
    solve_eem(chan, cfg)
