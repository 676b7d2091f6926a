import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from helpers import (reference_brute_force, reference_menu_af,
                     reference_menu_direct, reference_scan_product,
                     reference_tail)
from relayopt import oracle
from relayopt.channel import ChannelRealization, generate_instance
from relayopt.config import SystemConfig
from relayopt.model import LN2, Allocation, Direct, compute_metrics
from relayopt.oracle import (GridSpec, brute_force_eem, brute_force_sem,
                             enumerate_assignments, optimize_powers_on_grid)
from relayopt.solver import SolverTrace, solve_eem


def test_enumerate_assignments_counts():
    # 2K+1 options per subcarrier with relays, K+1 without
    assert sum(1 for _ in enumerate_assignments(2, 2, 1)) == 25
    assert sum(1 for _ in enumerate_assignments(3, 2, 0)) == 16
    assert sum(1 for _ in enumerate_assignments(1, 3, 2)) == 27


def test_enumerate_assignments_option_order():
    first = list(enumerate_assignments(2, 1, 1))
    assert first[0] == (None,)
    assert first[1] == ((0, "direct"),)
    assert first[2] == ((0, "af"),)
    assert first[3] == ((1, "direct"),)
    no_af = list(enumerate_assignments(2, 1, 0))
    assert no_af == [(None,), ((0, "direct"),), ((1, "direct"),)]


def test_enumerate_assignments_guards_explosion():
    with pytest.raises(ValueError):
        enumerate_assignments(8, 16, 2)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(power_points=1).validate()
    with pytest.raises(ValueError):
        GridSpec(refine_rounds=-1).validate()
    GridSpec().validate()
    GridSpec(power_points=np.int64(50), refine_rounds=np.int64(0)).validate()


@pytest.mark.parametrize("field,value", [
    ("power_points", 50.5), ("power_points", math.inf), ("power_points", 200.0),
    ("beta_points", math.nan), ("beta_points", "101"), ("refine_rounds", 1.5),
    ("refine_rounds", True)])
def test_grid_spec_rejects_non_integer_counts(field, value):
    # each would fail deep in the scan, in numpy or range, or as a grid
    # too large; the oracle rejects it up front, naming the field
    grid = GridSpec(**{field: value})
    with pytest.raises(ValueError, match=f"grid {field} must be an integer"):
        grid.validate()
    cfg = _one_link_cfg()
    with pytest.raises(ValueError, match=field):
        brute_force_eem(_chan(cfg, [[1e-10]]), cfg, grid)


def _one_link_cfg(**kw):
    return SystemConfig(n_users=1, n_subcarriers=1, n_relays=0, **kw)


def _chan(cfg, g_bs_ue, g_bs_rn=None, g_rn_ue=None):
    m = cfg.n_relays
    return ChannelRealization(
        g_bs_ue=np.asarray(g_bs_ue, dtype=float),
        g_bs_rn=(np.asarray(g_bs_rn, dtype=float) if g_bs_rn is not None
                 else np.empty((0, cfg.n_subcarriers))),
        g_rn_ue=np.asarray(g_rn_ue, dtype=float) if g_rn_ue is not None else None,
        sector_of_ue=np.zeros(cfg.n_users, dtype=int) if m else None,
        noise_gap=cfg.noise_gap_watts)


def test_single_direct_grid_matches_continuous_optimum():
    # wide-open budget so the efficiency optimum is interior
    cfg = _one_link_cfg(p_max_dbm=60.0)
    chan = _chan(cfg, [[1e-10]])
    alloc, ee = optimize_powers_on_grid([(0, "direct")], chan, cfg)
    alpha = 1e-10 / cfg.noise_gap_watts
    p_fixed = cfg.p_c_bs_w

    def neg_ee(p):
        return -(np.log1p(alpha * p) / LN2) / (p_fixed + cfg.xi_bs * p)

    ref = minimize_scalar(neg_ee, bounds=(1e-9, cfg.p_max_w),
                          method="bounded",
                          options={"xatol": 1e-12})
    assert ee == pytest.approx(-ref.fun, rel=1e-5)
    assert alloc.entries[(0, 0)].p_d == pytest.approx(ref.x, rel=1e-2)


def test_symmetric_af_split_lands_on_half():
    cfg = SystemConfig(n_users=1, n_subcarriers=1, n_relays=1,
                       p_max_dbm=0.0, xi_rn=2.6)
    chan = _chan(cfg, [[1e-13]], g_bs_rn=[[2e-10]], g_rn_ue=[[2e-10]])
    alloc, ee = optimize_powers_on_grid([(0, "af")], chan, cfg)
    entry = alloc.entries[(0, 0)]
    p = entry.p_bs + entry.p_rn
    assert p > 0.0
    assert entry.p_bs / p == pytest.approx(0.5, abs=0.02)
    assert ee > 0.0


def test_refinement_never_hurts():
    cfg = SystemConfig(n_users=1, n_subcarriers=1, n_relays=1, p_max_dbm=20.0)
    chan = _chan(cfg, [[3e-12]], g_bs_rn=[[5e-11]], g_rn_ue=[[8e-12]])
    for assignment in ([(0, "direct")], [(0, "af")]):
        coarse = GridSpec(power_points=40, beta_points=21, refine_rounds=0)
        fine = GridSpec(power_points=40, beta_points=21, refine_rounds=2)
        _, ee0 = optimize_powers_on_grid(assignment, chan, cfg, coarse)
        _, ee2 = optimize_powers_on_grid(assignment, chan, cfg, fine)
        assert ee2 >= ee0


def test_empty_assignment_is_idle():
    cfg = _one_link_cfg()
    chan = _chan(cfg, [[1e-10]])
    alloc, ee = optimize_powers_on_grid([None], chan, cfg)
    assert alloc.entries == {}
    assert ee == 0.0


@pytest.fixture(scope="module")
def tiny_instance():
    cfg = SystemConfig(n_users=2, n_subcarriers=2, n_relays=1, p_max_dbm=0.0)
    _, chan = generate_instance(cfg, seed=1)
    return cfg, chan


def test_assignment_without_a_feasible_point_scores_minus_inf(tiny_instance):
    # a NaN gain scores NaN at every grid point, and NaN never wins
    cfg, chan = tiny_instance
    g = chan.g_bs_ue.copy()
    g[0, 0] = math.nan
    alloc, ee = optimize_powers_on_grid(((0, "direct"), None),
                                        dataclasses.replace(chan, g_bs_ue=g), cfg)
    assert alloc == Allocation(2, 2, {}) and ee == -math.inf


def test_brute_force_beats_handmade_allocations(tiny_instance):
    cfg, chan = tiny_instance
    best = brute_force_eem(chan, cfg)
    pm = cfg.power_model()
    # even split of the budget to each user's best direct subcarrier
    half = cfg.p_max_w / 2.0
    for k in (0, 1):
        n = int(np.argmax(chan.g_bs_ue[k]))
        handmade = Allocation(2, 2, {(k, n): Direct(half)})
        manual = compute_metrics(handmade, chan, cfg.radio(), pm)
        assert best.metrics.ee >= manual.ee * (1.0 - 1e-6)


def test_brute_force_orderings(tiny_instance):
    cfg, chan = tiny_instance
    grid = GridSpec(power_points=80, beta_points=41, refine_rounds=1)
    eem = brute_force_eem(chan, cfg, grid)
    sem = brute_force_sem(chan, cfg, grid)
    assert sem.metrics.rate_total >= eem.metrics.rate_total * (1.0 - 1e-12)
    assert eem.metrics.ee >= sem.metrics.ee * (1.0 - 1e-12)
    assert eem.trace.termination == "converged"
    assert eem.trace == SolverTrace()  # no multiplier search ran


def test_brute_force_solutions_feasible(tiny_instance):
    from relayopt.model import check_feasibility
    cfg, chan = tiny_instance
    sol = brute_force_eem(chan, cfg, GridSpec(power_points=60,
                                              beta_points=31,
                                              refine_rounds=1))
    assert check_feasibility(sol.allocation, cfg.radio(),
                             cfg.power_model()) == []


def test_solver_certified_against_oracle(tiny_instance):
    cfg, _ = tiny_instance
    for seed in (1, 2, 3):
        _, chan = generate_instance(cfg, seed)
        sol = solve_eem(chan, cfg)
        ora = brute_force_eem(chan, cfg)
        assert sol.metrics.ee >= ora.metrics.ee * (1.0 - 0.01)


def _answers(pair):
    return [(s.metrics.ee, s.metrics.rate_total, s.allocation.entries)
            for s in pair]


def _brute_force_pair(chan, cfg, grid=None):
    """(EEM, SEM) from two single-objective oracle calls."""
    return tuple(oracle._brute_force(chan, cfg, grid, ee) for ee in (True, False))


def _reference_scan(menus, p_max, p_fixed, ee):
    """The full scan's answer for one objective, in _scan_product's form."""
    best_ee, best_rate = reference_scan_product(menus, p_max, p_fixed)
    return best_ee if ee else best_rate


def test_pruned_scan_matches_reference(monkeypatch):
    cases = [(SystemConfig(n_users=2, n_subcarriers=2, n_relays=1,
                           p_max_dbm=0.0), seed,
              GridSpec(power_points=40, beta_points=21, refine_rounds=1))
             for seed in range(1, 11)]
    # three active subcarriers: 3-menu coarse and refinement products
    cases.append((SystemConfig(n_users=1, n_subcarriers=3, n_relays=1,
                               p_max_dbm=10.0), 1,
                  GridSpec(power_points=20, beta_points=6, refine_rounds=1)))
    pruned = oracle._scan_product
    differ = []
    for cfg, seed, grid in cases:
        _, chan = generate_instance(cfg, seed)
        monkeypatch.setattr(oracle, "_scan_product", _reference_scan)
        ref = _brute_force_pair(chan, cfg, grid)
        monkeypatch.setattr(oracle, "_scan_product", pruned)
        new = _brute_force_pair(chan, cfg, grid)
        if _answers(new) != _answers(ref):
            differ.append((cfg.n_users, cfg.n_subcarriers, cfg.n_relays, seed))
    assert not differ, f"pruned oracle differs from the full scan on {differ}"


def _bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


def _menu_cases():
    """(name, gains or None for direct, bracket) of the menu shapes the
    oracle builds: coarse AF grids of 101 and 21 splits, local 21x21 AF
    and 21-point direct grids, on live, dead, NaN and underflowing links,
    and on hops whose SNR terms' product overflows."""
    cfg = _criterion_1_cfg()
    _, chan = generate_instance(cfg, 1)
    p_max = cfg.power_model().p_max
    g1, g2, gd = chan.g_bs_rn[0, 0], chan.g_rn_ue[0, 0], chan.g_bs_ue[0, 0]
    huge = 1e160 * cfg.noise_gap_watts / p_max  # SNR 1e160 at p_max
    coarse = (p_max * 1e-6, p_max)
    local = (p_max * 0.31, p_max * 0.45)
    tiny = (1e-320, 1e-310)  # b * p * g underflows to 0
    for name, (p_lo, p_hi) in (("coarse", coarse), ("local", local),
                               ("tiny", tiny)):
        shapes = ([(200, 0.0, 1.0, 101), (200, 0.0, 1.0, 21)]
                  if name != "local" else [(21, 0.3, 0.32, 21)])
        for gains in ((g1, g2), (0.0, g2), (g1, 0.0), (0.0, 0.0),
                      (math.nan, g2), (huge, huge), (huge, g2)):
            for p_pts, b_lo, b_hi, b_pts in shapes:
                yield (f"{name} af {p_pts}x{b_pts} {gains}", gains,
                       (p_lo, p_hi, p_pts, b_lo, b_hi, b_pts))
        for g in (gd, 0.0):
            for p_pts in (200, 21):
                yield (f"{name} direct {p_pts} {g}", g, (p_lo, p_hi, p_pts))


def test_menus_match_the_broadcast_form_bit_for_bit():
    cfg = _criterion_1_cfg()
    pm, ngap = cfg.power_model(), cfg.noise_gap_watts
    underflowed = 0
    for name, gains, bracket in _menu_cases():
        p = np.geomspace(*bracket[:3])
        beta = np.linspace(*bracket[3:]) if len(bracket) > 3 else None
        grid = oracle._Grid(p, beta, pm.xi_bs, pm.xi_rn)
        if isinstance(gains, tuple):
            ref = reference_menu_af(*gains, ngap, pm.xi_bs, pm.xi_rn, *bracket)
            new = oracle._menu_af(*gains, ngap, grid)
            # b <= 1, so where p * g underflows both hops' SNR terms do
            if min(gains) > 0.0:  # False for a NaN gain
                underflowed += np.count_nonzero(p * max(gains) == 0.0)
        else:
            ref = reference_menu_direct(gains, ngap, pm.xi_bs, *bracket)
            new = oracle._menu_direct(gains, ngap, grid)
        for field in ("rate", "tx", "cons"):
            assert _bits(getattr(new, field)) == _bits(ref[field]), (name, field)
        assert (list(map(_bits, new.tail))
                == list(map(_bits, reference_tail(ref)))), name
        beta = ref["beta"] if ref["beta"] is not None else [None] * len(p)
        points = [tuple(map(_bits, oracle._combo_point([new], (j,))[0]))
                  for j in range(len(new.rate))]
        assert points == [tuple(map(_bits, pt)) for pt in
                          zip(ref["p_bs"].tolist(), ref["p_rn"].tolist(), beta)], name
    assert underflowed > 0  # live links whose SNR terms sum to 0


def _menu(tx, cons, rate):
    tx = np.asarray(tx, dtype=float)
    return oracle._Menu(rate=np.asarray(rate, dtype=float), tx=tx,
                        cons=np.asarray(cons, dtype=float), p=tx, beta=None)


def _assert_scan_matches_reference(menus, p_max, p_fixed):
    """Each objective's pruned scan keeps the full scan's score and index."""
    for ee, ref in zip((True, False),
                       reference_scan_product(menus, p_max, p_fixed)):
        new = oracle._scan_product(menus, p_max, p_fixed, ee)
        assert (new.score, new.idx) == (ref.score, ref.idx), ee


_value = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.0])
_rate = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1.0, 2.0])
_points = st.lists(st.tuples(_value, _value, _rate), min_size=1, max_size=24)


@given(menus=st.lists(_points, min_size=1, max_size=3),
       p_max=st.sampled_from([0.5, 2.0, 4.0, 100.0]),
       p_fixed=st.sampled_from([0.5, 1.0]))
@settings(max_examples=300, deadline=None)
def test_pruned_scan_keeps_score_and_index(menus, p_max, p_fixed):
    menus = [_menu(*zip(*points)) for points in menus]
    _assert_scan_matches_reference(menus, p_max, p_fixed)


def test_product_cap_counts_unpruned_points():
    # identical points: the bounds would leave one row to score, yet the
    # full product the scan covers is too large
    side = 20001
    assert side * side > oracle._PRODUCT_CAP
    menu = _menu(np.ones(side), np.ones(side), np.ones(side))
    with pytest.raises(ValueError, match="grid too large"):
        oracle._scan_product([menu, menu], 10.0, 1.0, True)


# menus drawn from one small pool of points: rows repeat within and across
# menus, rates (+-0 included) tie across rows, tx comes in no set order, and
# the small budgets leave whole rows infeasible
_pooled_menus = st.lists(st.tuples(_value, _value, _rate), min_size=1,
                         max_size=6).flatmap(
    lambda pool: st.lists(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=10), min_size=1, max_size=3))


@given(menus=_pooled_menus, p_max=st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
       p_fixed=st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=500, deadline=None)
def test_row_pruning_keeps_first_argmax(menus, p_max, p_fixed):
    menus = [_menu(*zip(*points)) for points in menus]
    _assert_scan_matches_reference(menus, p_max, p_fixed)


_rounding_menus = st.lists(
    st.lists(st.tuples(*[st.floats(1e-3, 3.0)] * 3), min_size=1, max_size=8),
    min_size=2, max_size=3)


@given(menus=_rounding_menus, data=st.data(), ulps=st.integers(-2, 2),
       p_fixed=st.floats(0.1, 2.0))
@settings(max_examples=1000, deadline=None)
def test_row_pruning_keeps_first_argmax_under_rounding(menus, data, ulps,
                                                       p_fixed):
    # sums that round, rates rising with tx as on the power grids (so a
    # prefix's costliest point tends to be its best), and a budget within a
    # few ulps of a combo's tx sum, added in the scan's order with one
    # trailing menu at any point and the other at its least tx: where the
    # row bounds cut their prefixes
    menus = [np.array(points).T for points in menus]
    menus = [_menu(tx, cons, np.sort(rate)[np.argsort(np.argsort(tx))])
             for tx, cons, rate in menus]
    free = data.draw(st.integers(1, len(menus) - 1))
    i, j = (data.draw(st.integers(0, len(menus[q].tx) - 1)) for q in (0, free))
    p_cap = menus[0].tx[i]
    for q, m in enumerate(menus[1:], start=1):
        p_cap = p_cap + (m.tx[j] if q == free else m.tx.min())
    p_max = p_cap / (1.0 + 1e-12)
    for _ in range(abs(ulps)):
        p_max = np.nextafter(p_max, math.copysign(math.inf, ulps))
    _assert_scan_matches_reference(menus, float(p_max), p_fixed)


def test_scan_in_row_blocks_matches_reference(monkeypatch):
    # blocks of a few rows, so the bounds and the scan both run over many
    # blocks, as they do on large leading products
    monkeypatch.setattr(oracle, "_ROW_BLOCK", 3)
    monkeypatch.setattr(oracle, "_CHUNK", 5)
    rng = np.random.default_rng(0)
    for _ in range(200):
        sizes = rng.integers(1, 9, size=rng.integers(1, 4))
        menus = [_menu(*rng.choice([0.0, 0.5, 1.0, 2.0], size=(3, n)))
                 for n in sizes]
        p_max, p_fixed = rng.choice([0.5, 1.0, 2.0, 4.0]), rng.choice([0.5, 1.0])
        _assert_scan_matches_reference(menus, p_max, p_fixed)


def _af_grid_menus(seed, p_pts, b_pts):
    """A criterion-1 instance's AF menu on subcarrier 0 and its direct and
    AF menus on subcarrier 1, on a small coarse grid."""
    cfg = _criterion_1_cfg()
    _, chan = generate_instance(cfg, seed)
    pm = cfg.power_model()
    grid = oracle._Grid(np.geomspace(pm.p_max * 1e-6, pm.p_max, p_pts),
                        np.linspace(0.0, 1.0, b_pts), pm.xi_bs, pm.xi_rn)
    af0, af1 = (oracle._menu_af(chan.g_bs_rn[0, n], chan.g_rn_ue[0, n],
                                chan.noise_gap, grid) for n in (0, 1))
    return af0, oracle._menu_direct(chan.g_bs_ue[0, 1], chan.noise_gap, grid), af1


def test_scan_with_af_lead_matches_reference(monkeypatch):
    # an AF lead is bounded once per power level and broadcast over its
    # splits; blocks of a few rows and combos, budgets that cut the last
    # menu anywhere, from below the least tx sum to above the largest
    monkeypatch.setattr(oracle, "_ROW_BLOCK", 3)
    monkeypatch.setattr(oracle, "_CHUNK", 5)
    p_max = _criterion_1_cfg().power_model().p_max
    for seed in range(1, 11):
        af0, direct1, af1 = _af_grid_menus(seed, 7, 4)
        for last in (direct1, af1):
            for share in (1e-7, 0.01, 0.3, 0.5, 0.99, 1.0, 2.0):
                for p_fixed in (0.01, 80.0):
                    _assert_scan_matches_reference([af0, last], p_max * share,
                                                   p_fixed)
        _assert_scan_matches_reference([af0], p_max, 80.0)


_level = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])


@given(levels=st.lists(_level, min_size=1, max_size=6).map(sorted),
       splits=st.integers(1, 4), data=st.data(),
       last=_points, p_max=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
       p_fixed=st.sampled_from([0.5, 1.0]))
@settings(max_examples=300, deadline=None)
def test_af_lead_with_equal_power_levels_keeps_first_argmax(
        levels, splits, data, last, p_max, p_fixed):
    # a lead laid out as an AF menu, tx ascending in runs of `splits`
    # points per power level, where equal levels make longer runs
    n = len(levels) * splits
    rate, cons = (np.array(data.draw(st.lists(draw, min_size=n, max_size=n)))
                  for draw in (_rate, _value))
    p = np.array(levels)
    lead = oracle._Menu(rate=rate, tx=np.repeat(p, splits), cons=cons, p=p,
                        beta=np.linspace(0.0, 1.0, splits))
    _assert_scan_matches_reference([lead, _menu(*zip(*last))], p_max, p_fixed)


def _count_scored_rows(monkeypatch, chan, cfg, n_menus=None):
    """(rows scored, rows bounded) over the products of `n_menus` menus
    (all products if None) when every assignment of the instance is
    scanned with one memo."""
    scored, rows = [], []
    score_rows, row_bounds = oracle._score_rows, oracle._row_bounds

    def counting_score(menus, live, *args):
        if n_menus in (None, len(menus)):
            scored.append(len(live))
        return score_rows(menus, live, *args)

    def counting_bounds(menus, *args):
        bounds = row_bounds(menus, *args)
        if n_menus in (None, len(menus)):
            rows.append(len(bounds))
        return bounds

    monkeypatch.setattr(oracle, "_score_rows", counting_score)
    monkeypatch.setattr(oracle, "_row_bounds", counting_bounds)
    reference_brute_force(chan, cfg)
    return sum(scored), sum(rows)


def test_scan_skips_rows_on_criterion_1_instance(monkeypatch):
    cfg = SystemConfig(n_users=2, n_subcarriers=2, n_relays=1, p_max_dbm=0.0)
    _, chan = generate_instance(cfg, 1)
    scored, rows = _count_scored_rows(monkeypatch, chan, cfg)
    # the bounds leave about 0.15% of the leading rows to score
    assert scored * 100 < rows


def test_scan_bounds_each_leading_pair_on_3_subcarriers(monkeypatch):
    # three active subcarriers: each leading row is a pair of points,
    # bounded with its own exact tx sum
    cfg = SystemConfig(n_users=1, n_subcarriers=3, n_relays=0, p_max_dbm=0.0)
    _, chan = generate_instance(cfg, 1)
    scored, pairs = _count_scored_rows(monkeypatch, chan, cfg, n_menus=3)
    assert pairs > 0
    assert scored * 100 < pairs


def test_refinement_builds_each_local_menu_once(monkeypatch):
    built = []
    menu_direct, menu_af = oracle._menu_direct, oracle._menu_af

    def counting(make):
        def build(*args):
            *gains, grid = args
            # a grid is keyed by the floats the menu reads
            splits = grid.beta.tobytes() if make is menu_af else None
            built.append((*gains, grid.p.tobytes(), splits))
            return make(*args)
        return build

    monkeypatch.setattr(oracle, "_menu_direct", counting(menu_direct))
    monkeypatch.setattr(oracle, "_menu_af", counting(menu_af))
    # one link: a coarse menu, then one local menu per refinement round
    cfg = _one_link_cfg(p_max_dbm=0.0)
    chan = _chan(cfg, [[1e-10]])
    grid = GridSpec()
    for ee in (True, False):
        built.clear()
        oracle._scan_assignment([(0, 0, "direct")], chan, cfg,
                                cfg.power_model(), grid, ee)
        assert len(built) == len(set(built)) == 1 + grid.refine_rounds
    # over a whole criterion-1 instance the memo serves every repeat: the
    # coarse menus, and the local menus two assignments' refinements share
    cfg = _criterion_1_cfg()
    _, chan = generate_instance(cfg, 1)
    built.clear()
    oracle.brute_force_eem(chan, cfg)
    assert len(built) == len(set(built)) > 0


def test_refinement_scans_each_local_product_once(monkeypatch):
    scanned = []
    scan_product = oracle._scan_product

    def counting_scan(menus, *args):
        scanned.append(tuple(id(m) for m in menus))
        return scan_product(menus, *args)

    monkeypatch.setattr(oracle, "_scan_product", counting_scan)
    # one link: the coarse product, then one local product per round
    cfg = _one_link_cfg(p_max_dbm=0.0)
    chan = _chan(cfg, [[1e-10]])
    grid = GridSpec()
    oracle._scan_assignment([(0, 0, "direct")], chan, cfg, cfg.power_model(),
                            grid, True)
    assert len(scanned) == len(set(scanned)) == 1 + grid.refine_rounds
    # over a whole criterion-1 instance no product is scanned twice
    cfg = _criterion_1_cfg()
    _, chan = generate_instance(cfg, 1)
    scanned.clear()
    oracle.brute_force_eem(chan, cfg)
    assert len(scanned) == len(set(scanned)) > 0


def test_eem_scores_fewer_rows_than_both_objectives(monkeypatch):
    # one objective, one bound and one incumbent per scan: over criterion-1
    # seeds 1-20 the scan that also tracked the rate scored 794 rows
    scored = []
    score_rows = oracle._score_rows

    def counting(menus, rows, *args):
        scored.append(len(rows))
        return score_rows(menus, rows, *args)

    monkeypatch.setattr(oracle, "_score_rows", counting)
    cfg = _criterion_1_cfg()
    for seed in range(1, 21):
        _, chan = generate_instance(cfg, seed)
        oracle.brute_force_eem(chan, cfg)
    assert 0 < sum(scored) < 794


def test_scan_scores_the_best_bound_row_once(monkeypatch):
    # the incumbent's row is merged into the scan's answer, not scanned
    # again among the live rows
    scans = []
    scan_product, row_bounds, score_rows = (
        oracle._scan_product, oracle._row_bounds, oracle._score_rows)

    def scanning(*args):
        scans.append({"top": None, "rows": []})
        return scan_product(*args)

    def bounding(*args):
        bound = row_bounds(*args)
        scans[-1]["top"] = int(np.argmax(bound))
        return bound

    def scoring(menus, rows, *args):
        scans[-1]["rows"] += [int(r) for r in rows]
        return score_rows(menus, rows, *args)

    monkeypatch.setattr(oracle, "_scan_product", scanning)
    monkeypatch.setattr(oracle, "_row_bounds", bounding)
    monkeypatch.setattr(oracle, "_score_rows", scoring)
    for cfg in (_criterion_1_cfg(), SystemConfig(n_users=2, n_subcarriers=3,
                                                 n_relays=0, p_max_dbm=0.0)):
        for seed in range(1, 6):
            _, chan = generate_instance(cfg, seed)
            _brute_force_pair(chan, cfg)
    assert scans
    assert all(scan["rows"].count(scan["top"]) == 1 for scan in scans)


def _criterion_1_cfg(p_max_dbm=0.0):
    return SystemConfig(n_users=2, n_subcarriers=2, n_relays=1, p_max_dbm=p_max_dbm)


def _pruning_cases():
    """(name, cfg, chan) of the instances the assignment pruning is checked on."""
    for p_max_dbm, seeds in ((0.0, range(1, 41)), (30.0, range(1, 11))):
        cfg = _criterion_1_cfg(p_max_dbm)
        for seed in seeds:
            _, chan = generate_instance(cfg, seed)
            yield f"2x2x1 {p_max_dbm:g} dBm seed {seed}", cfg, chan
    for k in (1, 2):
        cfg = SystemConfig(n_users=k, n_subcarriers=3, n_relays=0, p_max_dbm=0.0)
        _, chan = generate_instance(cfg, 1)
        yield f"{k}x3x0", cfg, chan
    cfg = _criterion_1_cfg()
    _, chan = generate_instance(cfg, 1)
    # user 1 a copy of user 0: assignments that swap them tie exactly
    twin = dataclasses.replace(
        chan, g_bs_ue=chan.g_bs_ue[[0, 0]], g_rn_ue=chan.g_rn_ue[[0, 0]],
        sector_of_ue=chan.sector_of_ue[[0, 0]])
    yield "twin users", cfg, twin
    dead = dataclasses.replace(chan, g_rn_ue=chan.g_rn_ue.copy(),
                               g_bs_ue=chan.g_bs_ue.copy())
    dead.g_rn_ue[0, 0] = 0.0   # user 0's access hop on subcarrier 0
    dead.g_bs_ue[1, 1] = 0.0   # user 1's direct link on subcarrier 1
    yield "dead hop", cfg, dead


@pytest.fixture(scope="module")
def pruning_runs():
    """Per case: the pruned and the reference answers, and every (active,
    menus) the reference built, since it scans every assignment."""
    runs = []
    build_menus = oracle._build_menus
    for name, cfg, chan in _pruning_cases():
        built = []

        def recording(active, *args):
            menus = build_menus(active, *args)
            built.append((active, menus))
            return menus

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_build_menus", recording)
            ref = reference_brute_force(chan, cfg)
        runs.append((name, cfg, chan, _brute_force_pair(chan, cfg), ref, built))
    return runs


def test_assignment_pruning_matches_reference(pruning_runs):
    differ = [name for name, _, _, new, ref, _ in pruning_runs
              if _answers(new) != _answers(ref)]
    assert not differ, f"pruned oracle differs from the in-order scan on {differ}"
    # the twin instance's answers use user 0, the lower-index twin
    twin = next(run[3] for run in pruning_runs if run[0] == "twin users")
    assert [{k for k, _ in sol.allocation.entries} for sol in twin] == [{0}, {0}]


def _rate_frontier(menu):
    """The points of `menu` that no point of lower or equal tx matches on
    rate.  A product of frontiers has the full product's best feasible
    rate: rounded sums are monotone, so swapping a point for one that
    dominates it keeps a combo feasible and its rate from falling."""
    order = np.lexsort((-menu.rate, menu.tx))  # by tx, best rate first
    rate = menu.rate[order]
    keep = order[rate > np.maximum.accumulate(np.append(-math.inf, rate[:-1]))]
    return _menu(menu.tx[keep], menu.cons[keep], menu.rate[keep])


def test_rate_bound_covers_every_product(pruning_runs):
    checked, low = set(), []
    for name, cfg, chan, _, _, built in pruning_runs:
        pm = cfg.power_model()
        p_fixed = oracle.circuit_power(pm, cfg.n_relays)
        for active, menus in built:
            key = (name, *map(id, menus))
            if key in checked:
                continue
            checked.add(key)
            bound = oracle._rate_bound(
                [oracle._slot_snr(slot, chan) for slot in active],
                pm.p_max * (1.0 + 1e-12))
            _, best = reference_scan_product([_rate_frontier(m) for m in menus],
                                             pm.p_max, p_fixed)
            if not bound >= best.score:
                low.append((name, active, bound, best.score))
    assert checked and not low, f"assignment bounds below a product's rate: {low[:5]}"


# SNRs per watt over the whole float range, log-uniform too, so that some
# rates at these budgets are subnormal
_snr = st.one_of(st.floats(0.0, 1e300),
                 st.floats(-320.0, 300.0).map(lambda e: 10.0 ** e),
                 st.sampled_from([0.0, 5e-324, 1e-310, 1e300, math.inf, math.nan]))


# subnormal rates, where rounding outgrows any relative margin
@example(snrs=[(0.5, 2.1126542750804504e-306), (0.5, 8.235069190492686e-304)],
         shares=[0.07654067550559851, 0.9844120257243226, 0.0],
         p_cap=2.0658546157596336e-20)
@given(snrs=st.lists(st.tuples(st.sampled_from([1.0, 0.5]), _snr), max_size=3),
       shares=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       p_cap=st.floats(1e-20, 1e20))
@settings(max_examples=500, derandomize=True, deadline=None)
def test_rate_bound_covers_every_feasible_split(snrs, shares, p_cap):
    bound = oracle._rate_bound(snrs, p_cap)
    if any(math.isnan(c) for _, c in snrs):
        assert math.isnan(bound)
        return
    # each slot's share of p_cap; the shares sum to at most 1
    total = max(sum(shares), 1.0)
    rate = 0.0
    for (w, c), share in zip(snrs, shares):
        p = p_cap * (share / total)
        if p > 0.0:
            rate += w * math.log1p(c * p) / LN2
    assert bound >= rate


def test_assignment_pruning_skips_most_assignments(monkeypatch):
    scanned = []
    scan_assignment = oracle._scan_assignment

    def counting(active, *args):
        scanned[-1] += 1
        return scan_assignment(active, *args)

    monkeypatch.setattr(oracle, "_scan_assignment", counting)
    cfg = _criterion_1_cfg()
    for seed in range(1, 6):
        scanned.append(0)
        _, chan = generate_instance(cfg, seed)
        oracle.brute_force_eem(chan, cfg)
    assert max(scanned) <= 2, scanned


def _criterion_1_answers(order):
    """EEM and SEM answers on criterion 1's seeds at 0 and 30 dBm, the
    two budgets run in `order`."""
    answers = {}
    for p_max_dbm in order:
        cfg = _criterion_1_cfg(p_max_dbm)
        for i in range(20):
            _, chan = generate_instance(cfg, cfg.master_seed + i)
            answers[p_max_dbm, i] = _answers(_brute_force_pair(chan, cfg))
    return answers


def test_answers_do_not_depend_on_the_shared_grids():
    # cold cache, then warm, in both orders of the two budgets
    runs = []
    for order in ((0.0, 30.0), (30.0, 0.0)):
        oracle._coarse_grid.cache_clear()
        runs += [_criterion_1_answers(order), _criterion_1_answers(order)]
    assert all(run == runs[0] for run in runs[1:])


def test_shared_grid_arrays_are_read_only():
    cfg = _criterion_1_cfg()
    _, chan = generate_instance(cfg, 1)
    pm = cfg.power_model()
    oracle.brute_force_eem(chan, cfg)
    grid = oracle._coarse_grid(pm.p_max, GridSpec().power_points,
                               GridSpec().beta_points, pm.xi_bs, pm.xi_rn)
    menus = [oracle._menu_direct(chan.g_bs_ue[0, 0], chan.noise_gap, grid),
             oracle._menu_af(chan.g_bs_rn[0, 0], chan.g_rn_ue[0, 0],
                             chan.noise_gap, grid)]
    shared = [grid.p, grid.beta, grid.direct_cons, *grid.af[:4],
              *grid.direct_levels[1:], *grid.af_levels[1:]]
    shared += [a for m in menus for a in (m.tx, m.cons, *m.tail[::2])]
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    # each menu's own rates stay writable
    for m in menus:
        assert m.rate.flags.writeable


def test_shared_grid_cache_stays_bounded():
    cfg = _one_link_cfg()
    chan = _chan(cfg, [[1e-10]])
    maxsize = oracle._coarse_grid.cache_info().maxsize
    assert maxsize is not None and maxsize <= 16
    for p_max_dbm in range(-40, -40 + 3 * maxsize):
        cfg = _one_link_cfg(p_max_dbm=float(p_max_dbm))
        oracle.brute_force_eem(chan, cfg)
        assert oracle._coarse_grid.cache_info().currsize <= maxsize
    assert oracle._coarse_grid.cache_info().currsize == maxsize


def test_overflowing_af_hops_give_the_direct_answer():
    # hop SNRs of 1e160 at p_max: s1*s2 overflows, so the AF menus form
    # the SNR as s1*(s2/(s1 + s2)); with finite AF rates the pruned and
    # the in-order oracle agree on the direct link, without a warning
    cfg = SystemConfig(n_users=1, n_subcarriers=1, n_relays=1, p_max_dbm=0.0)
    g = 1e160 * cfg.noise_gap_watts / cfg.p_max_w
    chan = _chan(cfg, [[g]], g_bs_rn=[[g]], g_rn_ue=[[g]])
    new, ref = _brute_force_pair(chan, cfg), reference_brute_force(chan, cfg)
    assert _answers(new) == _answers(ref)
    for sol in new:
        assert sol.allocation.entries == {(0, 0): Direct(cfg.p_max_w)}
        assert math.isfinite(sol.metrics.ee)
