"""The shortlisted candidate sweep against the full 2KN reference sweep."""

import dataclasses

import numpy as np
import pytest

from helpers import dead_hop_channels, reference_sweep
from relayopt import solver
from relayopt.channel import ChannelRealization, generate_instance
from relayopt.config import SystemConfig


def _solve_both(chan, cfg):
    return solver.solve_eem(chan, cfg), solver.solve_sem(chan, cfg)


def _differences(ref, new):
    """What differs between two (EEM, SEM) answers; empty if nothing."""
    problems = []
    for name, r, s in zip(("EEM", "SEM"), ref, new):
        for field in ("ee", "rate_total"):
            a, b = getattr(r.metrics, field), getattr(s.metrics, field)
            if a != b:
                problems.append(f"{name} {field} {b!r} != {a!r}")
        if r.allocation.entries != s.allocation.entries:
            problems.append(f"{name} allocation entries differ")
        for field in ("bracket_sweeps", "search_sweeps"):
            a, b = ([getattr(x, field) for x in t.searches]
                    for t in (r.trace, s.trace))
            if a != b:
                problems.append(f"{name} {field} {b} != {a}")
    return problems


def _compare(monkeypatch, chan, cfg):
    monkeypatch.setattr(solver, "_sweep", reference_sweep)
    ref = _solve_both(chan, cfg)
    monkeypatch.undo()
    return _differences(ref, _solve_both(chan, cfg))


def test_shortlist_matches_reference_sweep(monkeypatch):
    # seeds 1-1000, each at one relay count: 250 instances per M
    differ = {}
    for seed in range(1, 1001):
        cfg = SystemConfig(n_users=8, n_subcarriers=16, n_relays=seed % 4)
        _, chan = generate_instance(cfg, seed)
        problems = _compare(monkeypatch, chan, cfg)
        if problems:
            differ[(seed, cfg.n_relays)] = problems
    assert not differ, f"{len(differ)} (seed, M) differ: {differ}"


def _duplicated_users(seed, m):
    """K=8, N=16 with users 5 and 6 exact copies of a boosted user 1."""
    cfg = SystemConfig(n_users=8, n_subcarriers=16, n_relays=m)
    _, chan = generate_instance(cfg, seed)
    g_bs_ue = chan.g_bs_ue.copy()
    g_bs_ue[1] *= 30.0
    g_bs_ue[[5, 6]] = g_bs_ue[1]
    if m == 0:
        return cfg, dataclasses.replace(chan, g_bs_ue=g_bs_ue)
    g_rn_ue = chan.g_rn_ue.copy()
    sectors = chan.sector_of_ue.copy()
    g_rn_ue[1] *= 30.0
    g_rn_ue[[5, 6]] = g_rn_ue[1]
    sectors[[5, 6]] = sectors[1]
    return cfg, dataclasses.replace(chan, g_bs_ue=g_bs_ue, g_rn_ue=g_rn_ue,
                                    sector_of_ue=sectors)


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_duplicated_users_lowest_index(monkeypatch, seed, m):
    cfg, chan = _duplicated_users(seed, m)
    assert _compare(monkeypatch, chan, cfg) == []


def test_zero_gains_and_dead_af_hops(monkeypatch):
    for seed, cfg, chan in dead_hop_channels():
        assert _compare(monkeypatch, chan, cfg) == [], seed
        for sol in _solve_both(chan, cfg):
            assert {n for _, n in sol.allocation.entries}.isdisjoint({0, 1, 2})


def _sweep_arrays(r):
    return {name: v for name, v in vars(r).items()
            if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("m", [3, 0])
def test_sweep_results_share_no_scratch(m):
    # _search_lambda keeps earlier sweeps (best, r_lo, r_hi) while it
    # sweeps on; _sweep's scratch buffers must never reach a result
    cfg = SystemConfig(n_relays=m)
    _, chan = generate_instance(cfg, 4)
    prob = solver._Problem(chan, cfg)
    lam = prob.wf_price
    first = solver._sweep(prob, 0.0, lam)
    kept = {name: v.copy() for name, v in _sweep_arrays(first).items()}
    second = solver._sweep(prob, 0.05, 0.1 * lam)
    assert not np.array_equal(second.p_win, first.p_win)
    if m:
        assert first.winner_af.any()
    buffers = [v for v in vars(prob).values() if isinstance(v, np.ndarray)]
    for name, v in _sweep_arrays(first).items():
        assert np.array_equal(v, kept[name]), name
        assert not any(np.shares_memory(v, b) for b in buffers), name


@pytest.mark.parametrize("k, n, m", [(1, 1, 0), (1, 1, 1), (1, 1, 3),
                                     (1, 16, 3), (8, 1, 3), (8, 16, 0),
                                     (2, 3, 5)])
def test_degenerate_sizes(monkeypatch, k, n, m):
    # M > K leaves sectors without users, so the shortlist has fewer rows
    cfg = SystemConfig(n_users=k, n_subcarriers=n, n_relays=m)
    for seed in range(1, 11):
        _, chan = generate_instance(cfg, seed)
        assert _compare(monkeypatch, chan, cfg) == [], seed


def test_single_user_constructed_channel(monkeypatch):
    cfg = SystemConfig(n_users=1, n_subcarriers=1, n_relays=0)
    chan = ChannelRealization(
        g_bs_ue=np.array([[1e-10]]), g_bs_rn=np.empty((0, 1)), g_rn_ue=None,
        sector_of_ue=None, noise_gap=cfg.noise_gap_watts)
    assert _compare(monkeypatch, chan, cfg) == []


def test_shortlist_rows():
    cfg = SystemConfig(n_users=8, n_subcarriers=16, n_relays=3)
    _, chan = generate_instance(cfg, 4)
    prob = solver._Problem(chan, cfg)
    occupied = len(set(chan.sector_of_ue.tolist()))
    assert prob.flat.shape == (1 + occupied, 16)
    cols = np.arange(16)
    assert np.array_equal(prob.flat[0], 2 * np.argmax(chan.g_bs_ue, axis=0))
    for r, m in enumerate(sorted(set(chan.sector_of_ue.tolist())), start=1):
        users = prob.flat[r] // 2
        assert np.all(chan.sector_of_ue[users] == m)
        members = np.flatnonzero(chan.sector_of_ue == m)
        assert np.array_equal(chan.g_rn_ue[users, cols],
                              chan.g_rn_ue[members].max(axis=0))


def test_nan_marginals_leave_row_zero(monkeypatch):
    # a subcarrier with a NaN marginal has no maximum to match, so no
    # candidate wins the tie-break and it keeps row 0
    cfg = SystemConfig()
    _, chan = generate_instance(cfg, 4)
    prob = solver._Problem(chan, cfg)
    lam = prob.wf_price
    clean = solver._sweep(prob, 0.0, lam)
    assert clean.winner_row[[3, 5]].all()  # AF winners, so the test bites
    marginal = solver._marginal

    def nan_marginals(x):
        m = marginal(x)
        m[:, 3] = np.nan  # every marginal of subcarrier 3
        m[0, 5] = np.nan  # one of subcarrier 5
        return m

    monkeypatch.setattr(solver, "_marginal", nan_marginals)
    rows = solver._sweep(prob, 0.0, lam).winner_row
    assert rows[3] == rows[5] == 0
    others = np.ones(cfg.n_subcarriers, dtype=bool)
    others[[3, 5]] = False
    assert np.array_equal(rows[others], clean.winner_row[others])
