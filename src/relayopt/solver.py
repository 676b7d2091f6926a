"""Energy-efficient power/subcarrier allocation solver.

Outer loop: Dinkelbach iteration on the rate/power ratio — repeatedly
maximize F(q) = R - q*P and update q until the ratio stops improving.
Inner loop: Lagrangian dual decomposition of the budget constraint;
for a given multiplier every subcarrier solves a closed-form
water-filling subproblem per (user, protocol) candidate and the best
marginal wins the subcarrier.  The multiplier is found either by a
bracketed secant search on the water level (default) or by the
constant-step projected subgradient update.

The secant search starts from the direct-only water-filling multiplier
(or, after the first Dinkelbach iteration, from the previous iteration's
multiplier), doubles or halves it until the budget is bracketed, and
then runs Illinois regula falsi on the water level u = 1/(q*xi_bs +
lambda).  Between assignment switches the allocated power is
piecewise-linear in u, so a few steps reach the budget; a midpoint
(bisection) step is taken whenever the bracket fails to halve over two
steps.  Where the winning assignment switches the power jumps, and the
budget may lie inside the jump, where no multiplier meets it.  So
whenever the bracket's two ends differ on one subcarrier only, the
multiplier at which that subcarrier's two candidates tie is found on
their closed forms alone (Brent's method, no sweep), pinned to float
resolution.  If a piecewise-linear model of p_used puts the budget in
that jump, the search sweeps just either side of the tie: the bracket
is then pinned as plain bisection would pin it, or it is left on the
one piece that holds the budget, where the secant resumes.

Each sweep evaluates only a per-instance shortlist of the candidates
that can win.  All direct users of a subcarrier share the water level
1/(ln2*(q*xi_bs + lambda)), and a candidate's marginal rises with
x = alpha*level - 1, so only the user with the largest direct gain can
win the direct contest.  Substituting the optimal split beta gives an AF
pair alpha*level = g1*g2 / (ngap*ln2*(sqrt(g1*b) + sqrt(g2*a))^2), with
a = q*xi_bs + 2*lambda and b = q*xi_rn + 2*lambda, which rises with the access gain g2; users of one sector share the feeder gain
g1, so only each sector's strongest access link can win there.  Neither
ranking depends on q or lambda, so the shortlist holds 1 + M' rows per
subcarrier (M' occupied sectors) instead of 2K, for every sweep of the
solve.  A folded candidate whose gain equals its row's exactly has the
same marginal, and ties keep the lowest candidate index, so the winners
are those of the full sweep; a seeded-random tie-break draws among the
folded twins too.  The shortlisted rows run the same floating-point
operations as the full sweep would, so answers match it bit for bit.
Only rounding could tell the two apart: where two gains of one contest
lie within a few ulps, so that the rounded marginals could order them
either way, or where every marginal of a subcarrier rounds to zero
while the shortlisted winner has a positive power (one below about
1.1e-16/alpha), since the full sweep then picks candidate 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, TYPE_CHECKING

import numpy as np

from .model import (
    LN2,
    Af,
    Allocation,
    Direct,
    Metrics,
    compute_metrics,
)

if TYPE_CHECKING:
    from .channel import ChannelRealization
    from .config import SystemConfig

_FEAS_SLACK = 1e-12  # relative slack when classifying an iterate as feasible


@dataclass
class SolverParams:
    i_outer_max: int = 10
    i_inner_max: int = 100
    eps_outer: float = 1e-8
    eps_inner: float = 1e-8
    lambda_mode: str = "bisection"   # "bisection" (secant search) | "subgradient"
    lambda_step: float = 0.0         # subgradient step; 0 -> 0.05 / p_max
    lambda_init: float = 1.0         # subgradient start
    tie_break: str = "lowest-index"  # "lowest-index" | "seeded-random"

    def validate(self) -> None:
        if self.i_outer_max < 1 or self.i_inner_max < 1:
            raise ValueError("iteration caps must be >= 1")
        if self.eps_outer <= 0.0 or self.eps_inner <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.lambda_mode not in ("bisection", "subgradient"):
            raise ValueError(f"unknown lambda_mode {self.lambda_mode!r}")
        if self.tie_break not in ("lowest-index", "seeded-random"):
            raise ValueError(f"unknown tie_break {self.tie_break!r}")
        if self.lambda_init <= 0.0:
            raise ValueError("lambda_init must be positive")
        if self.lambda_step < 0.0:
            raise ValueError("lambda_step must be >= 0")


@dataclass
class Candidate:
    """Per-(user, subcarrier, protocol) closed-form subproblem solution."""

    user: int
    protocol: str         # "direct" | "af"
    marginal: float       # objective gain if this candidate wins the subcarrier
    effective_gain: float  # alpha, 1/W
    p_d: float = 0.0
    p_bs: float = 0.0
    p_rn: float = 0.0
    beta: Optional[float] = None

    @property
    def tx_power(self) -> float:
        return self.p_d if self.protocol == "direct" else self.p_bs + self.p_rn


@dataclass
class SolverTrace:
    """Outer-loop record of one solve.

    The first six lists describe the accepted outer iterations (for SEM,
    the returned iterate only).  bracket_sweeps, search_sweeps and
    stop_reasons hold one entry per multiplier search the call ran, in
    order, including a final one the Dinkelbach safeguard rejected, so
    their sweep counts add up to every candidate sweep of the call.
    """

    q_sequence: list = field(default_factory=list)       # q after each outer iteration
    inner_iterations_per_outer: list = field(default_factory=list)
    lambda_final: list = field(default_factory=list)     # multiplier per outer iteration
    termination: str = "converged"                       # converged | outer-limit | inner-limit
    f_residual: float = 0.0                              # F at the last solved q parameter
    f_sequence: list = field(default_factory=list)       # F per outer iteration
    q_params: list = field(default_factory=list)         # q parameter fed to each inner solve
    bracket_sweeps: list = field(default_factory=list)   # sweeps before the bracket search
    search_sweeps: list = field(default_factory=list)    # sweeps inside the bracket
    stop_reasons: list = field(default_factory=list)     # see _Search.stop


@dataclass
class InnerTrace:
    iterations: int
    converged: bool
    p_used: float
    f_value: float


@dataclass
class Solution:
    allocation: Allocation
    metrics: Metrics
    trace: SolverTrace
    # solve_eem's Dinkelbach run, for solve_sem(..., eem=) to reuse
    _trajectory: Optional["_Trajectory"] = field(default=None, repr=False,
                                                 compare=False)


def _check_q_lambda(q: float, lam: float) -> None:
    if q < 0.0 or lam < 0.0:
        raise ValueError("q and lambda must be >= 0")
    if q == 0.0 and lam == 0.0:
        raise ValueError("q = lambda = 0 gives an unbounded water level")


def _marginal(x):
    """Objective increase of a winning candidate: log2(1+x) - x/(ln2*(1+x))."""
    return (np.log1p(x) - x / (1.0 + x)) / LN2


def direct_candidate(q: float, lam: float, gain: float, noise_gap: float,
                     xi_bs: float) -> Candidate:
    """Water-filling solution of the single-hop subproblem at price q*xi + lam."""
    _check_q_lambda(q, lam)
    if gain <= 0.0 or noise_gap <= 0.0:
        raise ValueError("gain and noise_gap must be positive")
    alpha = gain / noise_gap
    level = 1.0 / (LN2 * (q * xi_bs + lam))
    p = max(0.0, level - 1.0 / alpha)
    marg = float(_marginal(alpha * p)) if p > 0.0 else 0.0
    return Candidate(user=-1, protocol="direct", marginal=marg,
                     effective_gain=alpha, p_d=p)


def af_beta(q: float, lam: float, g1: float, g2: float,
            xi_bs: float, xi_rn: float) -> float:
    """Optimal first-hop share of an AF pair's total power.

    Algebraically equal to the textbook quotient
    (-g2*b + sqrt(g1*g2*a*b)) / (g1*a - g2*b) but free of its 0/0 at
    g1*a = g2*b: with x = sqrt(g1*a), y = sqrt(g2*b) the quotient
    collapses to y/(x+y).
    """
    _check_q_lambda(q, lam)
    if g1 <= 0.0 or g2 <= 0.0:
        raise ValueError("hop gains must be positive")
    a = q * xi_bs + 2.0 * lam
    b = q * xi_rn + 2.0 * lam
    x = math.sqrt(g1 * a)
    y = math.sqrt(g2 * b)
    return y / (x + y)


def af_candidate(q: float, lam: float, g1: float, g2: float, noise_gap: float,
                 xi_bs: float, xi_rn: float) -> Candidate:
    """Closed-form AF subproblem: split beta, then water-fill the total power."""
    beta = af_beta(q, lam, g1, g2, xi_bs, xi_rn)
    if noise_gap <= 0.0:
        raise ValueError("noise_gap must be positive")
    a = q * xi_bs + 2.0 * lam
    b = q * xi_rn + 2.0 * lam
    alpha = beta * (1.0 - beta) * g1 * g2 / ((beta * g1 + (1.0 - beta) * g2) * noise_gap)
    level = 1.0 / (LN2 * (beta * a + (1.0 - beta) * b))
    p = max(0.0, level - 1.0 / alpha)
    marg = 0.5 * float(_marginal(alpha * p)) if p > 0.0 else 0.0
    return Candidate(user=-1, protocol="af", marginal=marg, effective_gain=alpha,
                     p_bs=beta * p, p_rn=(1.0 - beta) * p, beta=beta)


def assign_subcarriers(candidates, tie_break: str = "lowest-index",
                       rng: Optional[np.random.Generator] = None):
    """Winner-take-all over one subcarrier's candidate list.

    Returns the candidate with the largest marginal, or None if every
    marginal is negative (the subcarrier idles).  Ties go to the first
    candidate in list order, or to a random maximal candidate when
    tie_break == "seeded-random".
    """
    if not candidates:
        return None
    best = max(c.marginal for c in candidates)
    if best < 0.0:
        return None
    winners = [c for c in candidates if c.marginal == best]
    if tie_break == "seeded-random" and len(winners) > 1:
        rng = rng or np.random.default_rng(0)
        return winners[int(rng.integers(len(winners)))]
    return winners[0]


def update_lambda_subgradient(lam: float, step: float, p_max: float,
                              p_used: float) -> float:
    """Projected subgradient step on the budget multiplier."""
    return max(0.0, lam - step * (p_max - p_used))


def _check_gains(name: str, gains) -> None:
    g = np.asarray(gains, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError(f"{name} holds NaN or infinite gains")
    if np.any(g < 0.0):
        raise ValueError(f"{name} holds negative gains")


class _Problem:
    """Per-instance constants, precomputed once per solve.

    The candidate shortlist (see the module docstring) has one row per
    contest: row 0 holds each subcarrier's strongest direct user, and
    with relays one further row per occupied sector holds its strongest
    AF user.  flat[r, n] is that candidate's index in the full
    user-major candidate order (2k direct, 2k+1 AF; k without relays),
    which fixes the lowest-index tie-break.
    """

    def __init__(self, chan: "ChannelRealization", cfg: "SystemConfig"):
        if not (math.isfinite(chan.noise_gap) and chan.noise_gap > 0.0):
            raise ValueError("noise_gap must be positive and finite")
        _check_gains("g_bs_ue", chan.g_bs_ue)
        self.chan = chan
        self.cfg = cfg
        pm = cfg.power_model()
        self.pm = pm
        self.radio = cfg.radio()
        self.p_max = pm.p_max
        self.p_fixed = pm.p_c_bs + cfg.n_relays * pm.p_c_rn
        self.xi_bs = pm.xi_bs
        self.xi_rn = pm.xi_rn
        self.ngap = chan.noise_gap
        self.n_users = cfg.n_users
        self.n_subcarriers = cfg.n_subcarriers
        self.has_af = cfg.n_relays > 0 and chan.g_rn_ue is not None
        self.cols = np.arange(self.n_subcarriers)

        k_d = np.argmax(chan.g_bs_ue, axis=0)  # first max: lowest user
        with np.errstate(divide="ignore"):
            # (N,) water-level floors 1/alpha; inf for a dead link: no power
            self.inv_alpha_d = 1.0 / (chan.g_bs_ue[k_d, self.cols] / self.ngap)
        self.af_dead = None
        if self.has_af:
            _check_gains("g_bs_rn", chan.g_bs_rn)
            _check_gains("g_rn_ue", chan.g_rn_ue)
            # sector_row[k]: shortlist row of user k's AF contest
            sectors, sector_row = np.unique(chan.sector_of_ue,
                                            return_inverse=True)
            self.sector_row = 1 + sector_row.reshape(-1)
            k_a = np.empty((len(sectors), self.n_subcarriers), dtype=np.intp)
            for r, m in enumerate(sectors):
                members = np.flatnonzero(chan.sector_of_ue == m)
                k_a[r] = members[np.argmax(chan.g_rn_ue[members], axis=0)]
            self.flat = np.vstack([2 * k_d, 2 * k_a + 1])
            g1 = chan.g_bs_rn[sectors]  # (M', N) feeder gain per row
            g2 = chan.g_rn_ue[k_a, self.cols]
            dead = (g1 == 0.0) | (g2 == 0.0)
            if np.any(dead):
                # a pair with a dead hop carries nothing; stand-in unit
                # gains keep its closed forms finite and _sweep zeroes
                # its power
                self.af_dead = dead
                g1 = np.where(dead, 1.0, g1)
                g2 = np.where(dead, 1.0, g2)
            self.sqrt_g1 = np.sqrt(g1)
            self.sqrt_g2 = np.sqrt(g2)
            self.g1 = g1
            self.g2 = g2
        else:
            self.flat = k_d[None, :]
        self.wf_price = _water_filling_price(self.inv_alpha_d, self.p_max)

    def lambda_start(self, q: float) -> float:
        """Direct-only water-filling multiplier at q; exact when M = 0 and q = 0."""
        lam = self.wf_price - q * self.xi_bs
        return lam if lam > 0.0 else self.wf_price

    @cached_property
    def twins(self):
        """(twin, row_of, count) for drawing among exactly tied candidates.

        twin[f, n] marks full-order candidate f whose gain on subcarrier
        n equals its shortlist row's (so its marginal does too), row_of[f]
        is that row, and count[r, n] counts row r's twins.  Built on the
        first seeded-random sweep only.
        """
        chan = self.chan
        users = self.flat // 2 if self.has_af else self.flat
        twin_d = chan.g_bs_ue == chan.g_bs_ue[users[0], self.cols]
        if not self.has_af:
            row_of = np.zeros(self.n_users, dtype=np.intp)
            return twin_d, row_of, twin_d.sum(axis=0)[None, :]
        g2_row = chan.g_rn_ue[users[1:], self.cols]  # real gains, dead ones too
        twin = np.empty((2 * self.n_users, self.n_subcarriers), dtype=bool)
        twin[0::2] = twin_d
        twin[1::2] = chan.g_rn_ue == g2_row[self.sector_row - 1]
        row_of = np.zeros(2 * self.n_users, dtype=np.intp)
        row_of[1::2] = self.sector_row
        count = np.zeros(self.flat.shape, dtype=np.intp)
        np.add.at(count, row_of, twin)
        return twin, row_of, count


def _water_filling_price(floors, p_max: float) -> float:
    """Water-filling price 1/(ln2*L) of a budget over floors 1/alpha.

    Exact water-filling by sorting: with the floors ascending, the level
    L = (p_max + sum of the m lowest floors) / m for the largest m whose
    m-th floor lies below it.  With no live link there is no level; any
    positive price then serves as a start.
    """
    floors = np.sort(floors[np.isfinite(floors)])
    if floors.size == 0:
        return 1.0
    levels = (p_max + np.cumsum(floors)) / np.arange(1, floors.size + 1)
    level = levels[np.nonzero(levels > floors)[0][-1]]
    return 1.0 / (LN2 * level)


@dataclass
class _SweepResult:
    """One candidate sweep at fixed (q, lambda)."""

    lam: float
    winner_user: np.ndarray     # (N,)
    winner_af: np.ndarray       # (N,) bool
    winner_row: np.ndarray      # (N,) shortlist row of the winner
    p_d: np.ndarray             # (N,) direct power of the winner (0 if AF)
    p_bs: np.ndarray            # (N,)
    p_rn: np.ndarray            # (N,)
    rate_sum: float
    cons_sum: float             # amplifier drain, W
    p_used: float               # radiated power against the budget, W
    def f_value(self, q: float, p_fixed: float) -> float:
        return self.rate_sum - q * (p_fixed + self.cons_sum)


_NO_CANDIDATE = np.iinfo(np.intp).max  # sorts after every candidate index


def _af_terms(prob: _Problem, q: float, lam: float, sqrt_g1, sqrt_g2, g1, g2):
    """Split beta, effective gain and water level of AF pairs at (q, lam).

    _sweep passes the (M', N) shortlist arrays, _candidate one element's
    gains as floats; both run the same floating-point operations.
    """
    a = q * prob.xi_bs + 2.0 * lam
    b = q * prob.xi_rn + 2.0 * lam
    sx = sqrt_g1 * math.sqrt(a)
    sy = sqrt_g2 * math.sqrt(b)
    beta = sy / (sx + sy)
    alpha = beta * (1.0 - beta) * g1 * g2 / (
        (beta * g1 + (1.0 - beta) * g2) * prob.ngap)
    wl = 1.0 / (LN2 * (beta * a + (1.0 - beta) * b))
    return beta, alpha, wl


def _sweep(prob: _Problem, q: float, lam: float,
           params: SolverParams) -> _SweepResult:
    """Pick each subcarrier's winner among the shortlisted candidates."""
    p = np.empty(prob.flat.shape)  # power per shortlisted candidate
    x = np.empty_like(p)           # alpha * power
    wl_d = 1.0 / (LN2 * (q * prob.xi_bs + lam))
    np.maximum(0.0, wl_d - prob.inv_alpha_d, out=p[0])
    np.divide(p[0], prob.inv_alpha_d, out=x[0])
    if prob.has_af:
        beta, alpha_a, wl_a = _af_terms(prob, q, lam, prob.sqrt_g1,
                                        prob.sqrt_g2, prob.g1, prob.g2)
        np.maximum(0.0, wl_a - 1.0 / alpha_a, out=p[1:])
        if prob.af_dead is not None:
            p[1:][prob.af_dead] = 0.0
        np.multiply(alpha_a, p[1:], out=x[1:])
    marg = _marginal(x)
    marg[1:] *= 0.5  # AF occupies two slots

    # exact ties go to the lowest candidate index, as in the full order
    best = marg.max(axis=0)
    row = np.argmin(np.where(marg == best, prob.flat, _NO_CANDIDATE), axis=0)
    cols = prob.cols
    if params.tie_break == "seeded-random":
        flat = _retie_random(prob, marg, best, row)
    else:
        flat = prob.flat[row, cols]

    wp = p[row, cols]
    lg = np.log1p(x[row, cols])
    if prob.has_af:
        winner_user = flat // 2
        winner_af = row > 0
        wbeta = beta[np.maximum(row - 1, 0), cols]  # read only where AF wins
        wp_d = np.where(winner_af, 0.0, wp)
        wp_tot = np.where(winner_af, wp, 0.0)
        wp_bs = wp_tot * wbeta
        wp_rn = wp_tot * (1.0 - wbeta)
        rate = np.where(winner_af, 0.5 * lg / LN2, lg / LN2)
        cons = np.where(winner_af,
                        0.5 * wp * (wbeta * prob.xi_bs + (1.0 - wbeta) * prob.xi_rn),
                        prob.xi_bs * wp)
    else:
        winner_user = flat
        winner_af = np.zeros(prob.n_subcarriers, dtype=bool)
        wp_d = wp
        wp_bs = np.zeros(prob.n_subcarriers)
        wp_rn = np.zeros(prob.n_subcarriers)
        rate = lg / LN2
        cons = prob.xi_bs * wp

    return _SweepResult(
        lam=lam,
        winner_user=winner_user,
        winner_af=winner_af,
        winner_row=row,
        p_d=wp_d,
        p_bs=wp_bs,
        p_rn=wp_rn,
        rate_sum=float(rate.sum()),
        cons_sum=float(cons.sum()),
        p_used=float(wp_d.sum() + wp_bs.sum() + wp_rn.sum()),
    )


def _retie_random(prob: _Problem, marg: np.ndarray, best: np.ndarray,
                  row: np.ndarray) -> np.ndarray:
    """Full-order index of each winner, drawn at random on exact ties.

    Where several candidates, shortlisted or folded twins, tie for a
    positive best marginal, a generator seeded with 0 at every sweep
    draws one of them; `row` is moved to the drawn candidate's row.
    """
    flat = prob.flat[row, prob.cols]
    tied = marg == best
    twin, row_of, count = prob.twins
    pool_size = np.where(tied, count, 0).sum(axis=0)
    draw = np.flatnonzero((pool_size > 1) & (best > 0.0))
    if draw.size:
        rng = np.random.default_rng(0)
        for n in draw:
            pool = np.flatnonzero(twin[:, n] & tied[row_of, n])
            flat[n] = pool[rng.integers(len(pool))]
            row[n] = row_of[flat[n]]
    return flat


def _to_allocation(prob: _Problem, sweep: _SweepResult) -> Allocation:
    """Materialize the winners with positive power; the rest idle."""
    entries = {}
    for n in range(prob.n_subcarriers):
        k = int(sweep.winner_user[n])
        if sweep.winner_af[n]:
            if sweep.p_bs[n] + sweep.p_rn[n] > 0.0:
                entries[(k, n)] = Af(float(sweep.p_bs[n]), float(sweep.p_rn[n]))
        elif sweep.p_d[n] > 0.0:
            entries[(k, n)] = Direct(float(sweep.p_d[n]))
    return Allocation(prob.n_users, prob.n_subcarriers, entries)


_PIN_REL = 1e-15      # bracket width, relative to max(1, hi), that pins lambda
_LAMBDA_CEIL = 1e300  # multiplier past which a bracket counts as failed


def _candidate(prob: _Problem, q: float, lam: float, row: int, n: int):
    """Marginal and radiated power of shortlist row `row` on subcarrier n.

    Runs the floating-point operations of that element of _sweep, so the
    two agree bit for bit and a tie falls where the sweep puts it.
    """
    if row == 0:
        inv_alpha = prob.inv_alpha_d.item(n)
        p = max(0.0, 1.0 / (LN2 * (q * prob.xi_bs + lam)) - inv_alpha)
        return _marginal(p / inv_alpha), p
    at = (row - 1, n)
    if prob.af_dead is not None and prob.af_dead[at]:
        return 0.0, 0.0
    _, alpha, wl = _af_terms(prob, q, lam, *(
        v.item(at) for v in (prob.sqrt_g1, prob.sqrt_g2, prob.g1, prob.g2)))
    p = max(0.0, wl - 1.0 / alpha)
    return 0.5 * _marginal(alpha * p), p


def _tie_bracket(prob: _Problem, q: float, lo: float, hi: float,
                 r_lo: _SweepResult, r_hi: _SweepResult, memo: dict):
    """Pinned multipliers lo <= a < b <= hi across one subcarrier's switch.

    Where the winners of the sweeps at lo and hi differ in shortlist row
    on exactly one subcarrier n, and there the winner at lo has the
    larger marginal at lo and the winner at hi at hi (strictly, so both
    carry power at the switch and p_used jumps), the switch is where
    their two marginals tie.  Brent's method finds it on those two
    candidates' closed forms alone, no sweep, until the bracket is
    pinned as _search_water_level pins lambda.  Returns (a, b, jump),
    with the winner at lo still winning at a, the winner at hi at b, and
    jump the drop in n's radiated power across the switch; or None.
    memo keeps the switches found in one search.
    """
    differ = np.flatnonzero(r_lo.winner_row != r_hi.winner_row)
    if differ.size != 1:
        return None
    n = int(differ[0])
    row_lo, row_hi = int(r_lo.winner_row[n]), int(r_hi.winner_row[n])
    key = (n, row_lo, row_hi)
    if key in memo and lo <= memo[key][0] and memo[key][1] <= hi:
        return memo[key]

    # Exact ties go to the lower candidate index, as in _sweep; under
    # "seeded-random" _sweep draws, so a pinned end may come out on the
    # wrong side, and the next call starts from that sweep's verdict.
    tie_sign = 1.0 if prob.flat[row_lo, n] < prob.flat[row_hi, n] else -1.0

    def gap(lam, ties=tie_sign):  # > 0 where the winner at lo wins
        m_lo = _candidate(prob, q, lam, row_lo, n)[0]
        m_hi = _candidate(prob, q, lam, row_hi, n)[0]
        if m_lo != m_hi or m_hi == 0.0:
            return float(m_lo - m_hi)
        return math.copysign(math.ulp(m_hi), ties)

    # the sweeps at lo and hi have settled any tie there
    g_lo, g_hi = gap(lo, 1.0), gap(hi, -1.0)
    if not g_lo > 0.0 > g_hi:
        return None
    x, y = _brent(gap, lo, hi, g_lo, g_hi)
    a, b = min(x, y), max(x, y)
    jump = (_candidate(prob, q, b, row_lo, n)[1]
            - _candidate(prob, q, b, row_hi, n)[1])
    memo[key] = a, b, jump
    return memo[key]


def _brent(f, a: float, b: float, fa: float, fb: float):
    """Brent's (1973) method: narrow a sign change of f to a pinned pair.

    f is never 0, and fa and fb have opposite signs.  Inverse quadratic
    interpolation or a secant step is taken where it stays well inside
    the bracket and shrinks it fast enough, a midpoint step otherwise,
    and no step is shorter than a quarter of the pin width, so the
    bracket closes once the interpolation lands on the root.  Returns
    the last two points, which straddle the sign change at most half a
    pin width _PIN_REL * max(1, |x|) apart.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.25 * _PIN_REL * max(1.0, abs(b))
        xm = 0.5 * (c - b)
        if abs(xm) <= tol:
            return b, c
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p = 2.0 * xm * s
                q = 1.0 - s
            else:       # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, xm)
        fb = f(b)


@dataclass
class _Search:
    """One multiplier search (one inner solve)."""

    sweep: _SweepResult   # best-F(q) feasible iterate
    bracket_sweeps: int   # lambda = 0 check, start point, bracket expansion
    search_sweeps: int    # steps inside the bracket
    # interior: lambda = 0 is feasible; tolerance: budget slack <= 1e-12
    # p_max; jump-point: lambda pinned to float resolution where p_used
    # jumps across the budget; iteration-cap: i_inner_max sweeps spent;
    # bracket-failure: bracketing alone took more than i_inner_max sweeps
    # (subgradient: no feasible iterate, so the price was doubled to one)
    stop: str

    @property
    def evals(self) -> int:
        return self.bracket_sweeps + self.search_sweeps

    @property
    def converged(self) -> bool:
        return self.stop in ("interior", "tolerance", "jump-point")


def _search_water_level(prob: _Problem, q: float, params: SolverParams,
                        lam_hint: Optional[float] = None) -> _Search:
    """Find the budget multiplier by a bracketed secant search.

    p_used is non-increasing in lambda (it is the negated subgradient of
    the convex dual), so a bracket [lo, hi] with p_used(lo) > p_max >=
    p_used(hi) always closes.  Inside it, Illinois regula falsi runs on
    the water level u = 1/(q*xi_bs + lambda), in which p_used is
    piecewise-linear, with a midpoint step whenever the bracket fails to
    halve over two steps.  Where p_used jumps across p_max (an
    assignment switch) the bracket collapses instead and the best
    feasible iterate seen wins; when the ends differ on one subcarrier,
    the switch is located by _tie_bracket and settled in one or two
    sweeps (see the module docstring).
    """
    p_max = prob.p_max
    over = p_max * (1.0 + _FEAS_SLACK)  # p_used above this is infeasible
    # Budget slack at exit.  Kept near float resolution so that rates
    # reported for different q parameters differ through the objective,
    # not through leftover line-search slack (the rate error of an
    # iterate is ~lambda * (p_max - p_used)).
    tol_p = 1e-12 * p_max
    price0 = q * prob.xi_bs  # direct price at lambda = 0
    best = None
    evals = 0

    def ev(lam):
        nonlocal best, evals
        evals += 1
        r = _sweep(prob, q, lam, params)
        if r.p_used <= over and (best is None or r.f_value(q, prob.p_fixed)
                                 > best.f_value(q, prob.p_fixed)):
            best = r
        return r

    def stop_rule(lo, hi, r_hi):
        if p_max - r_hi.p_used <= tol_p:
            return "tolerance"
        if hi - lo <= _PIN_REL * max(1.0, hi):
            return "jump-point"  # multiplier pinned to float resolution
        return None

    if q > 0.0 and ev(0.0).p_used <= over:
        return _Search(best, 1, 0, "interior")  # budget slack at zero price
    # else: p_used(0+) is unbounded at q=0, never evaluate lambda=0

    lam = lam_hint or prob.lambda_start(q)
    r = ev(lam)
    stop = None
    if r.p_used > over:  # double up to the first feasible multiplier
        while r.p_used > over:
            lo, r_lo = lam, r
            lam *= 2.0
            if lam > _LAMBDA_CEIL:  # unreachable: p_used -> 0 as lambda grows
                raise RuntimeError("lambda bracket failed to close")
            r = ev(lam)
        hi, r_hi = lam, r
    else:  # halve down to the first infeasible multiplier
        hi, r_hi = lam, r
        while True:
            stop = stop_rule(0.0, hi, r_hi)
            if stop:
                break
            lam = 0.5 * hi
            r = ev(lam)
            if r.p_used > over:
                lo, r_lo = lam, r
                break
            hi, r_hi = lam, r
    bracket_sweeps = evals

    if stop is None:
        u_lo, g_lo = 1.0 / (price0 + lo), r_lo.p_used - p_max
        u_hi, g_hi = 1.0 / (price0 + hi), r_hi.p_used - p_max
        side = 0           # which end moved last: +1 lo, -1 hi
        widths = [hi - lo]
        ties = {}
        while True:
            stop = stop_rule(lo, hi, r_hi)
            if stop:
                break
            if evals >= params.i_inner_max:
                stop = "iteration-cap"
                break
            tie = _tie_bracket(prob, q, lo, hi, r_lo, r_hi, ties)
            if tie is not None:
                # Model p_used as linear in u on both sides of the
                # switch, a constant `jump` apart: the lo end's
                # assignment then exceeds the budget at the switch by
                # `excess`, and the hi end's by excess - jump.
                a, b, jump = tie
                w = (u_lo - 1.0 / (price0 + b)) / (u_lo - u_hi)
                excess = ((1.0 - w) * (r_lo.p_used - p_max)
                          + w * (r_hi.p_used - p_max + jump))
                if 0.0 < excess <= jump:  # the budget lies in the jump
                    # Sweep just above the switch, then just below it if
                    # that still splits the bracket.  A pinned bracket
                    # stops at the jump point; otherwise the budget lies
                    # on one side's piece, where the secant restarts.
                    for lam in (b, a):
                        if lo < lam < hi and evals < params.i_inner_max:
                            r = ev(lam)
                            if r.p_used > over:
                                lo, r_lo = lam, r
                            else:
                                hi, r_hi = lam, r
                    u_lo, g_lo = 1.0 / (price0 + lo), r_lo.p_used - p_max
                    u_hi, g_hi = 1.0 / (price0 + hi), r_hi.p_used - p_max
                    side = 0
                    widths.append(hi - lo)
                    continue
            lam = 0.5 * (lo + hi)
            if len(widths) < 3 or widths[-1] <= 0.5 * widths[-3]:
                u = (u_lo * g_hi - u_hi * g_lo) / (g_hi - g_lo)
                secant = 1.0 / u - price0
                if lo < secant < hi:
                    lam = secant
            if not lo < lam < hi:
                stop = "jump-point"  # bracket no longer splits in float
                break
            r = ev(lam)
            if r.p_used > over:
                lo, r_lo = lam, r
                u_lo, g_lo = 1.0 / (price0 + lam), r.p_used - p_max
                if side == 1:
                    g_hi *= 0.5  # Illinois: pull the stale end toward the root
                side = 1
            else:
                hi, r_hi = lam, r
                u_hi, g_hi = 1.0 / (price0 + lam), r.p_used - p_max
                if side == -1:
                    g_lo *= 0.5
                side = -1
            widths.append(hi - lo)
    if bracket_sweeps > params.i_inner_max:
        stop = "bracket-failure"
    return _Search(best, bracket_sweeps, evals - bracket_sweeps, stop)


def _search_subgradient(prob: _Problem, q: float, params: SolverParams) -> _Search:
    """Constant-step projected subgradient on the budget multiplier."""
    p_max = prob.p_max
    step = params.lambda_step if params.lambda_step > 0.0 else 0.05 / p_max
    lam_floor = 1e-18 if q == 0.0 else 0.0  # zero price at q=0 is undefined
    lam = max(params.lambda_init, lam_floor)
    best = None
    evals = 0
    stop = "iteration-cap"
    for _ in range(params.i_inner_max):
        r = _sweep(prob, q, lam, params)
        evals += 1
        if r.p_used <= p_max * (1.0 + _FEAS_SLACK):
            if best is None or r.f_value(q, prob.p_fixed) > best.f_value(q, prob.p_fixed):
                best = r
        new_lam = update_lambda_subgradient(lam, step, p_max, r.p_used)
        new_lam = max(new_lam, lam_floor)
        if abs(new_lam - lam) <= params.eps_inner:
            lam = new_lam
            stop = "tolerance"
            break
        lam = new_lam
    search_sweeps = evals
    if best is None:
        # no feasible iterate seen; raise the price until one appears
        lam = max(lam, 1e-12)
        while True:
            r = _sweep(prob, q, lam, params)
            evals += 1
            if r.p_used <= p_max * (1.0 + _FEAS_SLACK):
                best = r
                break
            lam *= 2.0
            if lam > _LAMBDA_CEIL:
                raise RuntimeError("lambda bracket failed to close")
        stop = "bracket-failure"
    return _Search(best, evals - search_sweeps, search_sweeps, stop)


def _search_lambda(prob: _Problem, q: float, params: SolverParams,
                   lam_hint: Optional[float] = None) -> _Search:
    """One inner solve's multiplier search.

    lam_hint, a positive multiplier, seeds the secant search; None or 0
    starts it from the water-filling multiplier.
    """
    if params.lambda_mode == "bisection":
        return _search_water_level(prob, q, params, lam_hint)
    return _search_subgradient(prob, q, params)


def solve_inner(q: float, chan: "ChannelRealization", cfg: "SystemConfig",
                params: Optional[SolverParams] = None):
    """Maximize F(q) = R - q*P over assignments and powers at fixed q.

    Returns (Allocation, lambda*, InnerTrace).  The returned allocation
    is integral and feasible; non-convergence of the multiplier search
    is reported in the trace, not raised.
    """
    if q < 0.0:
        raise ValueError("q must be >= 0")
    params = params if params is not None else cfg.solver_params()
    params.validate()
    prob = _Problem(chan, cfg)
    search = _search_lambda(prob, q, params)
    sweep = search.sweep
    alloc = _to_allocation(prob, sweep)
    trace = InnerTrace(iterations=search.evals, converged=search.converged,
                       p_used=sweep.p_used,
                       f_value=sweep.f_value(q, prob.p_fixed))
    return alloc, sweep.lam, trace


@dataclass
class _OuterStep:
    """One outer (Dinkelbach) iteration's inner solve, before acceptance."""

    q: float                # ratio parameter the sweep was solved at
    search: _Search
    f_val: float            # F(q) of the sweep
    q_new: float            # rate/power ratio of the sweep
    accepted: bool          # False for the safeguard-rejected final solve

    @property
    def sweep(self) -> _SweepResult:
        return self.search.sweep


def _dinkelbach_steps(prob: _Problem, params: SolverParams):
    """Run the Dinkelbach outer loop, recording every inner solve.

    Returns (steps, termination).  A step with accepted=False is the
    safeguard case: the inexact inner solve at the updated q came back
    with F < 0, i.e. worse than the incumbent allocation (whose F at
    that q is 0 by construction), so the ratio cannot improve further.
    Each search after the first starts from the previous multiplier,
    shifted so that the direct water level q*xi_bs + lambda is kept.
    """
    steps = []
    q = 0.0
    hint = None
    termination = "outer-limit"
    for _ in range(params.i_outer_max):
        search = _search_lambda(prob, q, params, hint)
        sweep = search.sweep
        f_val = sweep.f_value(q, prob.p_fixed)
        p_total = prob.p_fixed + sweep.cons_sum
        q_new = sweep.rate_sum / p_total if p_total > 0.0 else 0.0
        if steps and f_val < 0.0:
            steps.append(_OuterStep(q, search, f_val, q_new, accepted=False))
            termination = "converged"
            break
        steps.append(_OuterStep(q, search, f_val, q_new, accepted=True))
        delta = q_new - q
        hint = sweep.lam - delta * prob.xi_bs
        if hint <= 0.0:
            hint = sweep.lam
        q = q_new
        if delta <= params.eps_outer:
            termination = "converged" if search.converged else "inner-limit"
            break
    return steps, termination


def _record_searches(trace: SolverTrace, steps) -> None:
    for s in steps:
        trace.bracket_sweeps.append(s.search.bracket_sweeps)
        trace.search_sweeps.append(s.search.search_sweeps)
        trace.stop_reasons.append(s.search.stop)


class _Trajectory(NamedTuple):
    """One Dinkelbach run and what it was solved for."""

    prob: _Problem
    params: SolverParams
    steps: list
    incumbent: _OuterStep   # last accepted step: the EEM answer


def solve_eem(chan: "ChannelRealization", cfg: "SystemConfig",
              params: Optional[SolverParams] = None) -> Solution:
    """Energy-efficiency maximization via the Dinkelbach outer loop."""
    params = params if params is not None else cfg.solver_params()
    params.validate()
    prob = _Problem(chan, cfg)
    steps, termination = _dinkelbach_steps(prob, params)

    trace = SolverTrace()
    for s in steps:
        if not s.accepted:
            trace.f_residual = 0.0
            break
        trace.q_params.append(s.q)
        trace.q_sequence.append(s.q_new)
        trace.inner_iterations_per_outer.append(s.search.evals)
        trace.lambda_final.append(s.sweep.lam)
        trace.f_sequence.append(s.f_val)
        trace.f_residual = s.f_val
    trace.termination = termination
    _record_searches(trace, steps)

    incumbent = [s for s in steps if s.accepted][-1]
    alloc = _to_allocation(prob, incumbent.sweep)
    metrics = compute_metrics(alloc, chan, prob.radio, prob.pm)
    return Solution(alloc, metrics, trace,
                    _Trajectory(prob, params, steps, incumbent))


def solve_sem(chan: "ChannelRealization", cfg: "SystemConfig",
              params: Optional[SolverParams] = None, *,
              eem: Optional[Solution] = None) -> Solution:
    """Spectral-efficiency maximization.

    Runs the same outer trajectory as the energy-efficiency solve and
    returns the highest-rate feasible iterate.  The q=0 solve alone is
    the textbook answer, but at a budget-crossing assignment switch its
    dual search cannot exhaust the budget, and an iterate solved at
    q > 0 (whose water levels tilt slightly toward the cheap hops) can
    land closer to the budget and carry more rate; taking the best
    iterate keeps the returned rate a true upper envelope.  Ties pick
    the earliest iterate, so away from those switch points this is
    exactly the q=0 solution.  The trace describes the chosen iterate:
    q_params holds the ratio parameter it was solved at, f_residual its
    plain rate (F at q=0).  Its search counters cover the whole
    trajectory.

    eem, a solve_eem(chan, cfg, params) result for this very `chan`
    object (unchanged since) and an equal cfg and params, hands over
    that solve's trajectory: no search is run again, and the EEM
    answer's allocation and metrics stand for its own iterate.  The
    result is the same as without it.  An eem that carries no
    trajectory, or was solved for another channel, config or solver
    parameters, raises ValueError.
    """
    params = params if params is not None else cfg.solver_params()
    params.validate()
    if eem is None:
        prob = _Problem(chan, cfg)
        steps, _ = _dinkelbach_steps(prob, params)
        reused = None
    else:
        traj = eem._trajectory
        if traj is None:
            raise ValueError("eem carries no Dinkelbach trajectory")
        if traj.prob.chan is not chan:
            raise ValueError("eem was solved for another channel")
        if traj.prob.cfg != cfg or traj.params != params:
            raise ValueError("eem was solved for another config or "
                             "solver parameters")
        prob, steps, reused = traj.prob, traj.steps, traj.incumbent

    best = None
    best_alloc = None
    best_metrics = None
    for s in steps:
        if s is reused:
            alloc, metrics = eem.allocation, eem.metrics
        else:
            alloc = _to_allocation(prob, s.sweep)
            metrics = compute_metrics(alloc, chan, prob.radio, prob.pm)
        if best is None or metrics.rate_total > best_metrics.rate_total:
            best, best_alloc, best_metrics = s, alloc, metrics

    trace = SolverTrace(
        q_sequence=[best_metrics.ee],
        inner_iterations_per_outer=[best.search.evals],
        lambda_final=[best.sweep.lam],
        termination="converged" if best.search.converged else "inner-limit",
        f_residual=best.sweep.f_value(0.0, prob.p_fixed),  # F(0): the rate
        f_sequence=[best.sweep.f_value(0.0, prob.p_fixed)],
        q_params=[best.q],
    )
    _record_searches(trace, steps)
    return Solution(best_alloc, best_metrics, trace)
