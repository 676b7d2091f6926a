"""Brute-force baseline for tiny instances.

Exhaustively enumerates every subcarrier/user/protocol assignment and
grid-searches the powers on each one, entirely independent of the
solver's closed forms.  Exists to certify, not to scale: the power
grids are log-spaced (water-filling optima span decades) with local
refinement rounds recovering near-continuous precision.  Each call
optimizes one objective: the EE (brute_force_eem) or the rate
(brute_force_sem).

The scan over one assignment's menu product is exhaustive in effect but
skips whole rows of it (branch and bound, Land & Doig 1960).  A row is
one point of the product of all menus but the last, summed left to
right as the full scan sums it, and holds one combo per point of the
last menu; a one-menu product takes its points as rows, each with one
zero point.  Each row gets an upper bound on the objective of any
feasible combo in it: the last menu, sorted by tx, is cut to its prefix
that passes the scan's own budget test with the row, and the prefix's
best rate is added to the row's; for the EE its least cons is added
too, and the two combine as rate / (p_fixed + cons).  Correctly rounded
addition and division are monotone (rates are >= 0, p_fixed + cons >
0), so no combo in a row scores above its bound.  The bound needs only
the row's tx, so a one-menu lead's rows are bounded once per power
level.  The row with the best bound is scored exactly first, and only
once; its score is the incumbent, and only the other rows whose bound is
>= the incumbent are scanned, in index order.  A skipped row holds no
combo that reaches the incumbent, let alone the maximum, and a
lower-index row that only ties it is kept; the incumbent then ranks
among the scanned rows' best by (score, lower row index).  So the
answer, ties included, is the first-index argmax over the full product.

Assignments are pruned by the same branch and bound, one level up.  Each
active (subcarrier, user, protocol) slot carries at most w*log2(1 + c*p)
at power p, from the menus' own rate expressions: w = 1 and c = g/ngap
for a direct link, w = 1/2 and c = min(g1, g2)/ngap for AF.  An
assignment's rate bound is the Lagrangian dual of the shared budget
(weak duality, as in the paper's dual decomposition): at any lambda >= 0
the rate of a split within the scan's budget p_cap is at most
D(lambda) = lambda*p_cap + sum_i max_p (w_i*log2(1 + c_i*p) - lambda*p),
and water-filling the at most 3 slots picks the lambda at which D is
least.  D gets a 1e-9 relative margin and the least normal float on top
for rounding, and the EE bound is the rate bound over p_fixed, since the
amplifier power is >= 0.  With the paper's power model p_fixed (80 W at
the stock config) dwarfs p_max (1 mW at 0 dBm), so EE <= rate / p_fixed
is nearly tight and most assignments fall below the best EE.
Assignments are scanned best bound first and skipped when their bound
falls strictly below the best score so far; a NaN bound skips nothing,
and ties go to the lowest enumeration index, so the answer is that of a
scan of every assignment in enumeration order.

Menus are memoized per brute-force call by (slot, bracket): every
assignment reuses the same coarse (subcarrier, user, protocol) menus,
and a refinement that re-grids a bracket already built reuses its local
menu.  A menu holds its rate, tx and cons arrays and its two grids.  The
terms of a menu that depend on its grid alone (the power and split
grids, tx and cons, for AF also b*p and (1 - b)*p, and the tx-only part
of its tail) live on a read-only _Grid, one per bracket.  The coarse
grids depend on p_max, the GridSpec and the xi factors only, so they are
shared across calls in a small bounded cache, built on first use: a
Monte-Carlo run of the oracle builds them once.  Local grids are built
per call, since their brackets follow the instance's own optimum;
sharing them would only replay a repeated instance.  The rates are
computed in place, with the operations of the broadcast expressions in
their order, and a winning point's powers are formed from the grids as
the same products.  Every menu's tx comes out ascending, so its tail
(the bound's view of the last menu) needs no sort.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .model import LN2, Af, Allocation, Direct, circuit_power, compute_metrics
from .solver import Solution, SolverTrace

_P_FLOOR_REL = 1e-6     # grid floor relative to the budget
_P_CAP_REL = 1.0 + 1e-12  # the scan's budget test: tx <= p_max * _P_CAP_REL
_REFINE_POINTS = 21     # per-dimension points in refinement rounds
_COARSE_BETA_CAP = 21   # beta grid cap when >= 2 AF subcarriers share the product
_PRODUCT_CAP = 4 * 10**8  # combo guard per assignment
_CHUNK = 1 << 22        # combos scored per block
_ROW_BLOCK = 1 << 12    # leading rows bounded per block


@dataclass
class GridSpec:
    power_points: int = 200  # log-spaced levels per power dimension
    beta_points: int = 101   # uniform AF split grid
    refine_rounds: int = 2   # each round shrinks the bracket ~10x

    def validate(self) -> None:
        for name, least in (("power_points", 2), ("beta_points", 2),
                            ("refine_rounds", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"grid {name} must be an integer, not {v!r}")
            if v < least:
                raise ValueError(f"grid {name} must be >= {least}, not {v!r}")


def enumerate_assignments(n_users: int, n_subcarriers: int, n_relays: int):
    """Yield every map subcarrier -> Idle | (user, 'direct') | (user, 'af')."""
    options = [None]
    for k in range(n_users):
        options.append((k, "direct"))
        if n_relays > 0:
            options.append((k, "af"))
    total = len(options) ** n_subcarriers
    if total > 10**6:
        raise ValueError(
            f"instance too large for exhaustive enumeration ({total} assignments)")
    return itertools.product(options, repeat=n_subcarriers)


def _levels(tx, cons):
    """The part of a menu's tail that depends on tx and cons alone: the
    order that sorts tx (None if it is ascending), the start of each run
    of equal tx in that order, the distinct tx values, and the least cons
    over the points with tx up to each."""
    order = None
    if not (tx[1:] >= tx[:-1]).all():  # never on a menu the oracle builds
        order = np.argsort(tx, kind="stable")
        tx, cons = tx[order], cons[order]
    # min rounds nothing, so each run of equal tx reduces first
    starts = np.flatnonzero(np.append(True, tx[1:] != tx[:-1]))
    return (order, starts, tx[np.append(starts[1:], len(tx)) - 1],
            np.minimum.accumulate(np.minimum.reduceat(cons, starts)))


@dataclass
class _Menu:
    """Per-subcarrier candidate points: parallel rate, tx and cons arrays
    over the grid.  A direct menu's point j sends power p[j]; an AF menu's
    point j = i * len(beta) + t sends power p[i] split at beta[t].  Either
    way point j's tx is p[j // (len(tx) // len(p))]: the points come in
    one run per power level."""

    rate: np.ndarray
    tx: np.ndarray
    cons: np.ndarray
    p: np.ndarray                # the power grid
    beta: Optional[np.ndarray]   # the AF split grid; None for direct
    grid: Optional["_Grid"] = None  # the grid tx and cons came from

    @cached_property
    def tail(self):
        """The menu as the last of a product: its distinct tx values,
        ascending, and the best rate and least cons over the points with
        tx up to each."""
        if self.grid is None:
            levels = _levels(self.tx, self.cons)
        else:
            levels = (self.grid.direct_levels if self.beta is None
                      else self.grid.af_levels)
        order, starts, ts, least_cons = levels
        rate = self.rate if order is None else self.rate[order]
        return (ts, np.maximum.accumulate(np.maximum.reduceat(rate, starts)),
                least_cons)


_ZERO = _Menu(*[np.zeros(1)] * 4, beta=None)


def _frozen(a):
    """`a` made read-only; None passes through."""
    if a is not None:
        a.flags.writeable = False
    return a


class _Grid:
    """A power grid p and a split grid beta, and the terms of the menus
    built on them that depend on the grids alone.  The arrays are
    read-only and each term is built on first use, so a grid can serve
    any channel."""

    def __init__(self, p, beta, xi_bs, xi_rn):
        self.p, self.beta = p, beta
        self.xi_bs, self.xi_rn = xi_bs, xi_rn

    @cached_property
    def direct_cons(self):
        return _frozen(self.xi_bs * self.p)

    @cached_property
    def direct_levels(self):
        return tuple(map(_frozen, _levels(self.p, self.direct_cons)))

    @cached_property
    def af_levels(self):
        _, _, cons, tx, _, _ = self.af
        return tuple(map(_frozen, _levels(tx, cons)))

    @cached_property
    def af(self):
        """b*p, (1 - b)*p, cons and tx over the (power, split) grid,
        power-major, and the largest b*p and (1 - b)*p."""
        pc, b = self.p[:, None], self.beta[None, :]
        nb = 1.0 - b
        bp, nbp = b * pc, nb * pc
        cons = 0.5 * (self.xi_bs * b + self.xi_rn * nb) * pc
        tx = np.repeat(self.p, len(self.beta))
        return (*(_frozen(a.ravel()) for a in (bp, nbp, cons, tx)),
                float(bp.max()), float(nbp.max()))


@lru_cache(maxsize=8)
def _coarse_grid(p_max, power_points, beta_points, xi_bs, xi_rn) -> _Grid:
    """The coarse grid that every slot of every call with these settings
    starts from; local grids are built per call (_build_menus)."""
    return _Grid(_frozen(np.geomspace(p_max * _P_FLOOR_REL, p_max, power_points)),
                 _frozen(np.linspace(0.0, 1.0, beta_points)), xi_bs, xi_rn)


def _menu_direct(gain, ngap, grid) -> _Menu:
    p = grid.p
    rate = p * gain
    rate /= ngap
    np.log1p(rate, out=rate)
    rate /= LN2
    return _Menu(rate=rate, tx=p, cons=grid.direct_cons, p=p, beta=None,
                 grid=grid)


def _menu_af(g1, g2, ngap, grid) -> _Menu:
    """The (power, split) grid's points, power-major: the rate holds the
    broadcast expression's values, computed in place in its operation
    order from the grid's terms, which give tx and cons as they are.
    Where s1*s2 can overflow (the largest s1 times the largest s2 reaches
    the float range's top) the SNR is formed as s1*(s2/(s1 + s2)), which
    cannot."""
    bp, nbp, cons, tx, bp_top, nbp_top = grid.af
    s1 = bp * g1
    s1 /= ngap
    s2 = nbp * g2
    s2 /= ngap
    tot = s1 + s2
    # a dead or underflowed pair (or a NaN one) has SNR 0
    dead = None if tot.min() > 0.0 else ~(tot > 0.0)
    if dead is not None:
        tot[dead] = 1.0
    # the largest s1 and s2, rounded as the arrays' own operations round
    s1_top, s2_top = (top * float(g) / float(ngap)
                      for top, g in ((bp_top, g1), (nbp_top, g2)))
    if s1_top * s2_top >= sys.float_info.max:
        rate = np.divide(s2, tot, out=s2)
        rate *= s1
    else:
        rate = s1
        rate *= s2
        rate /= tot
    if dead is not None:
        rate[dead] = 0.0
    np.log1p(rate, out=rate)
    rate *= 0.5
    rate /= LN2
    return _Menu(rate=rate, tx=tx, cons=cons, p=grid.p, beta=grid.beta,
                 grid=grid)


@dataclass
class _Best:
    score: float = -math.inf
    idx: Optional[tuple] = None

    def offer(self, score: float, idx: tuple) -> None:
        if score > self.score:
            self.score = score
            self.idx = idx


def _leading(lead, rows):
    """Rate, tx and cons of the given rows of the product of the `lead`
    menus, row-major, each summed left to right as the full scan sums it."""
    (m, i), *rest = zip(lead, np.unravel_index(rows, [len(m.rate) for m in lead]))
    rate, tx, cons = m.rate[i], m.tx[i], m.cons[i]
    for m, i in rest:
        rate, tx, cons = rate + m.rate[i], tx + m.tx[i], cons + m.cons[i]
    return rate, tx, cons


def _row_bounds(menus, p_cap, p_fixed, ee):
    """Upper bounds on the EE (if `ee`) or the rate of any feasible combo
    in each leading row.

    A feasible combo's point of the last menu lies in that menu's prefix,
    by ascending tx, of the points that pass the scan's budget test with
    the row, because fp addition is monotone.  The bound adds the prefix's
    best rate and least cons to the row's; a row with no feasible combo
    gets -inf.  The prefix depends on the row's tx alone, so a one-menu
    lead finds it once per power level and broadcasts it over the level's
    points; a longer lead's rows are bounded in blocks of _ROW_BLOCK, so
    the temporaries stay small however many rows the product has.
    """
    *lead, last = menus
    ts, best_rate, least_cons = last.tail
    ts_inf = np.append(ts, np.inf)  # one past the end is never feasible

    def bounds(rate, tx, cons):
        """Bounds of the rows in `rate` and `cons`, a line of rows per
        power level, whose tx is the line's entry of `tx`."""
        # each line's count of feasible distinct tx values: a guess from
        # the rounded difference, then exact steps under the scan's own test
        size = np.searchsorted(ts, p_cap - tx, "right")
        while True:
            step = ((tx + ts_inf[size] <= p_cap).astype(np.intp)
                    - ((size > 0) & ~(tx + ts_inf[size - 1] <= p_cap)))
            if not step.any():
                break
            size += step
        end = (np.maximum(size, 1) - 1)[:, None]
        out = np.add(rate, best_rate[end])
        np.copyto(out, -math.inf, where=(size == 0)[:, None])
        if ee:
            den = np.add(cons, least_cons[end])
            den += p_fixed
            np.divide(out, den, out=out)
        return out.ravel()

    if len(lead) == 1:
        m, = lead
        shape = len(m.p), -1
        return bounds(m.rate.reshape(shape), m.p, m.cons.reshape(shape))
    bound = np.empty(math.prod(len(m.rate) for m in lead))
    for start in range(0, len(bound), _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, len(bound))
        rate, tx, cons = _leading(lead, np.arange(start, stop))
        bound[start:stop] = bounds(rate[:, None], tx, cons[:, None])
    return bound


def _score_rows(menus, rows, p_cap, p_fixed, ee, best):
    """Offer the max-EE (if `ee`) or max-rate feasible combo of the given
    leading rows, as (row, index into the last menu)."""
    *lead, last = menus
    rate, tx, cons = _leading(lead, rows)
    buf = np.add(tx[:, None], last.tx)
    feas = buf <= p_cap
    if not feas.any():
        return
    rate = np.add(rate[:, None], last.rate)
    np.copyto(rate, -1.0, where=np.logical_not(feas, out=feas))
    score = rate
    if ee:
        score = np.add(cons[:, None], last.cons, out=buf)
        score += p_fixed
        np.divide(rate, score, out=score)
    j = int(np.argmax(score))
    if rate.flat[j] >= 0.0:
        i, t = divmod(j, len(last.rate))
        best.offer(float(score.flat[j]), (int(rows[i]), t))


def _check_product(sizes):
    """Reject a product of menus of these sizes that the scan cannot cover."""
    if math.prod(sizes) > _PRODUCT_CAP:
        raise ValueError("assignment power grid too large; reduce grid points")
    if len(sizes) > 3:
        raise ValueError(
            "budget coupling is searched exactly only up to 3 active subcarriers")


def _scan_product(menus, p_max, p_fixed, ee):
    """Max-EE (if `ee`) or max-rate feasible combo over the menu product.

    Skips the leading rows whose bounds fall below the incumbent scored
    on the best-bound row, scans the rest, and returns the winner as a
    _Best whose idx holds one index into each menu.
    """
    best = _Best()
    _check_product([len(m.rate) for m in menus])
    p_cap = p_max * _P_CAP_REL
    n_menus = len(menus)
    if n_menus == 1:  # its points are the rows, each with one zero point
        menus = [*menus, _ZERO]

    bound = _row_bounds(menus, p_cap, p_fixed, ee)
    top = int(np.argmax(bound))
    inc = _Best()
    _score_rows(menus, np.array([top]), p_cap, p_fixed, ee, inc)
    # >= keeps a lower-index row that only ties the incumbent, so ties
    # resolve to the same combo as over the whole product
    live = np.flatnonzero(bound >= inc.score)
    live = live[live != top]

    # each block holds whole leading rows, about _CHUNK combos
    step = max(1, _CHUNK // len(menus[-1].rate))
    for start in range(0, len(live), step):
        _score_rows(menus, live[start:start + step], p_cap, p_fixed, ee, best)
    # the incumbent's row, scored once, ranks where the scan in row order
    # would have met it
    if inc.score > best.score or (inc.score == best.score and inc.idx is not None
                                  and inc.idx < best.idx):
        best = inc

    if best.idx is not None:
        row, t = best.idx
        idx = np.unravel_index(row, [len(m.rate) for m in menus[:-1]])
        best.idx = (*(int(i) for i in idx), t)[:n_menus]
    return best


def _grid(memo, space, lo, hi, points):
    """`space(lo, hi, points)` read-only, built once per `memo`: brackets
    of one call that share a power range share its power grid."""
    key = (space, lo, hi, points)
    if key not in memo:
        memo[key] = _frozen(space(lo, hi, points))
    return memo[key]


def _build_menus(active, chan, pm, brackets, memo):
    """One menu per active slot; `memo` caches them by (slot, bracket) and
    their grids by bracket."""
    menus = []
    for slot, bracket in zip(active, brackets):
        if (slot, bracket) not in memo:
            if bracket not in memo:
                p_lo, p_hi, b_lo, b_hi, p_pts, b_pts = bracket
                memo[bracket] = _Grid(_grid(memo, np.geomspace, p_lo, p_hi, p_pts),
                                      _grid(memo, np.linspace, b_lo, b_hi, b_pts),
                                      pm.xi_bs, pm.xi_rn)
            n, k, proto = slot
            if proto == "direct":
                menu = _menu_direct(chan.g_bs_ue[k, n], chan.noise_gap,
                                    memo[bracket])
            else:
                m = chan.sector_of_ue[k]
                menu = _menu_af(chan.g_bs_rn[m, n], chan.g_rn_ue[k, n],
                                chan.noise_gap, memo[bracket])
            memo[slot, bracket] = menu
        menus.append(memo[slot, bracket])
    return menus


def _combo_point(menus, idx):
    """(p_bs, p_rn, beta) per active subcarrier from a combo index, as the
    same products of the grids' floats the menus' points stand for."""
    out = []
    for m, j in zip(menus, idx):
        if m.beta is None:
            out.append((float(m.p[j]), 0.0, None))
        else:
            i, t = divmod(j, len(m.beta))
            p, b = float(m.p[i]), float(m.beta[t])
            out.append((b * p, (1.0 - b) * p, b))
    return out


def _coarse_beta_points(protos, grid):
    """The coarse split grid's size for active slots of these protocols."""
    n_af = protos.count("af")
    return grid.beta_points if n_af < 2 else min(grid.beta_points, _COARSE_BETA_CAP)


def _scan_assignment(active, chan, cfg, pm, grid, ee, memo=None):
    """Grid-optimize one assignment for EE (if `ee`) or rate; returns
    (score, point).

    `memo` caches the menus by (slot, bracket): the coarse menus across
    the assignments of one instance, the local menus across assignments
    whose refinements re-grid the same brackets.
    """
    memo = {} if memo is None else memo
    if not active:
        return 0.0, []

    p_max = pm.p_max
    p_fixed = circuit_power(pm, cfg.n_relays)
    b_pts = _coarse_beta_points([proto for _, _, proto in active], grid)
    p_lo_g = p_max * _P_FLOOR_REL

    coarse = (p_lo_g, p_max, 0.0, 1.0, grid.power_points, b_pts)
    memo.setdefault(coarse, _coarse_grid(p_max, grid.power_points, b_pts,
                                         pm.xi_bs, pm.xi_rn))
    menus = _build_menus(active, chan, pm, [coarse] * len(active), memo)
    best = _scan_product(menus, p_max, p_fixed, ee)
    if best.idx is None:
        return -math.inf, []
    point = _combo_point(menus, best.idx)
    score = best.score
    # local refinement: re-grid +-1 coarse step around the incumbent,
    # shrinking the bracket ~10x per round
    p_ratio = (p_max / p_lo_g) ** (1.0 / (grid.power_points - 1))
    b_halfw = 1.0 / (b_pts - 1)
    for _ in range(grid.refine_rounds):
        brackets = []
        for (pb, pr, beta) in point:
            p = max(pb + pr, p_lo_g)
            lo = max(p / p_ratio, p_lo_g)
            hi = min(p * p_ratio, p_max)
            if beta is None:
                brackets.append((lo, hi, 0.0, 1.0, _REFINE_POINTS, 2))
            else:
                b_lo = max(beta - b_halfw, 0.0)
                b_hi = min(beta + b_halfw, 1.0)
                brackets.append((lo, hi, b_lo, b_hi, _REFINE_POINTS,
                                 _REFINE_POINTS))
        local = _build_menus(active, chan, pm, brackets, memo)
        cand = _scan_product(local, p_max, p_fixed, ee)
        if cand.idx is not None and cand.score > score:
            score = cand.score
            point = _combo_point(local, cand.idx)
        p_ratio = p_ratio ** (2.0 / (_REFINE_POINTS - 1))
        b_halfw = 2.0 * b_halfw / (_REFINE_POINTS - 1)
    return score, point


def _point_to_allocation(active, point, cfg) -> Allocation:
    entries = {}
    for (n, k, proto), (p_bs, p_rn, beta) in zip(active, point):
        if proto == "direct":
            entries[(k, n)] = Direct(p_bs)
        else:
            entries[(k, n)] = Af(p_bs, p_rn)
    return Allocation(cfg.n_users, cfg.n_subcarriers, entries)


def optimize_powers_on_grid(assignment, chan, cfg, grid: Optional[GridSpec] = None):
    """Best feasible powers for one fixed assignment; returns (Allocation, ee)."""
    grid = grid if grid is not None else GridSpec()
    grid.validate()
    pm = cfg.power_model()
    active = [(n, slot[0], slot[1]) for n, slot in enumerate(assignment)
              if slot is not None]
    ee, point = _scan_assignment(active, chan, cfg, pm, grid, ee=True)
    if not active:
        return Allocation(cfg.n_users, cfg.n_subcarriers, {}), 0.0
    return _point_to_allocation(active, point, cfg), ee


def _solution_from(alloc, chan, cfg, pm) -> Solution:
    metrics = compute_metrics(alloc, chan, cfg.radio(), pm)
    return Solution(alloc, metrics, SolverTrace())


def _slot_snr(slot, chan):
    """(w, c) such that `slot` carries at most w*log2(1 + c*p) at power p.

    Direct: w = 1 and c = g/ngap, the menus' rate expression.  AF: w = 1/2
    and c = min(g1, g2)/ngap, since s1*s2/(s1 + s2) <= min(s1, s2) and
    s_i <= p*g_i/ngap.  A NaN gain gives a NaN c.
    """
    n, k, proto = slot
    ngap = float(chan.noise_gap)
    if proto == "direct":
        return 1.0, float(chan.g_bs_ue[k, n]) / ngap
    g = np.minimum(chan.g_bs_rn[chan.sector_of_ue[k], n], chan.g_rn_ue[k, n])
    return 0.5, float(g) / ngap


def _rate_bound(snrs, p_cap):
    """Upper bound on sum_i w_i*log2(1 + c_i*p_i) over p_i >= 0 with
    sum_i p_i <= p_cap, for the (w_i, c_i) in `snrs`.

    Weak duality: at any lambda >= 0 the sum is at most
    D(lambda) = lambda*p_cap + sum_i max_p (w_i*log2(1 + c_i*p) - lambda*p),
    and each inner max is at p_i = max(w_i*nu - 1/c_i, 0), where
    nu = 1/(lambda ln 2) is the water level.  Water-filling p_cap picks
    the nu (so the lambda) at which D is least; D holds at any nu, so the
    rounded nu is as good.  D gets a 1e-9 relative margin for rounding and
    the least normal float on top, since subnormal rates round by more
    than any relative margin.  A NaN c gives a NaN bound, which prunes
    nothing.
    """
    if any(math.isnan(c) for _, c in snrs):
        return math.nan
    # a slot turns on once nu passes its floor 1/(w*c); a slot whose
    # w*c is 0 (c = 0, or a product that underflowed) never does
    slots = sorted((1.0 / (w * c) if w * c > 0.0 else math.inf, w, c)
                   for w, c in snrs)
    nu, sum_w, sum_inv = math.inf, 0.0, 0.0
    for floor, w, c in slots:
        if not floor < nu:
            break
        sum_w += w
        sum_inv += 1.0 / c
        nu = (p_cap + sum_inv) / sum_w
    if nu < math.inf:
        lam = 1.0 / (nu * LN2)
        bound = lam * p_cap
        for floor, w, c in slots:
            if floor < nu:  # on, with its inner max at p = w*nu - 1/c
                p = w * nu - 1.0 / c
                bound += max(w * math.log1p(c * p) / LN2 - lam * p, 0.0)
    else:  # nothing turns on: dead slots carry nothing (D(0) = 0), but
        # a live slot whose floor overflowed, or an overflowed nu, leaves
        # only lambda = 0 and an unbounded D
        bound = 0.0 if all(c == 0.0 for _, c in snrs) else math.inf
    return bound * (1.0 + 1e-9) + sys.float_info.min


def _brute_force(chan, cfg, grid: Optional[GridSpec], ee: bool) -> Solution:
    """The max-EE (if `ee`) or max-rate Solution over every assignment."""
    grid = grid if grid is not None else GridSpec()
    grid.validate()
    pm = cfg.power_model()
    p_fixed = circuit_power(pm, cfg.n_relays)
    assignments = [[(n, slot[0], slot[1]) for n, slot in enumerate(assignment)
                    if slot is not None]
                   for assignment in enumerate_assignments(
                       cfg.n_users, cfg.n_subcarriers, cfg.n_relays)]
    # the guard covers every assignment, scanned or not, so whether an
    # instance is in reach does not depend on its gains; assignments of
    # one shape share their menu sizes
    for shape in dict.fromkeys(tuple(proto for _, _, proto in active)
                               for active in assignments):
        b_pts = _coarse_beta_points(shape, grid)
        _check_product([grid.power_points * (b_pts if proto == "af" else 1)
                        for proto in shape])
    p_cap = pm.p_max * _P_CAP_REL
    snr, bound = {}, []
    for active in assignments:
        for slot in active:
            if slot not in snr:
                snr[slot] = _slot_snr(slot, chan)
        b = _rate_bound([snr[slot] for slot in active], p_cap)
        if ee:  # cons >= 0, so EE <= rate / p_fixed
            b = b / p_fixed if p_fixed > 0.0 else math.inf
        bound.append(b)

    # (score, assignment index, point); among equal scores the lowest index
    # wins, as in a scan in enumeration order with strict >
    best = (-math.inf, len(assignments), None)
    memo = {}
    # best bound first, ties in enumeration order
    for i in sorted(range(len(assignments)), key=lambda i: -bound[i]):
        if bound[i] < best[0]:
            continue
        score, point = _scan_assignment(assignments[i], chan, cfg, pm, grid,
                                        ee, memo)
        if score > best[0] or (score == best[0] and i < best[1]):
            best = (score, i, point)
    _, i, point = best
    return _solution_from(_point_to_allocation(assignments[i], point, cfg),
                          chan, cfg, pm)


def brute_force_eem(chan, cfg, grid: Optional[GridSpec] = None) -> Solution:
    """Exhaustive max-EE Solution (grid-limited lower bound on the optimum)."""
    return _brute_force(chan, cfg, grid, ee=True)


def brute_force_sem(chan, cfg, grid: Optional[GridSpec] = None) -> Solution:
    """Exhaustive max-rate Solution under the same budget."""
    return _brute_force(chan, cfg, grid, ee=False)
