"""Energy-efficient power/subcarrier allocation solver.

Outer loop: Dinkelbach iteration on the rate/power ratio — repeatedly
maximize F(q) = R - q*P and update q until the ratio stops improving.
Inner loop: Lagrangian dual decomposition of the budget constraint;
for a given multiplier every subcarrier solves a closed-form
water-filling subproblem per (user, protocol) candidate and the best
marginal wins the subcarrier.

The search keeps one bracket on the multiplier and files every sweep as
its new lo end (budget exceeded) or hi end (budget met).  On a frozen
assignment a powered winner's power is its water level minus its floor
1/alpha, both read off the sweep's p and x, so each step water-fills, by
sorting, the one factor on all levels that spends the budget; the direct
level 1/(ln2*(q*xi_bs + lambda)) maps it to the next multiplier.  At
q = 0 an AF split does not depend on lambda, so the step is exact on the
frozen assignment; at q > 0 the next sweep corrects it.  While one end
is missing, lambda doubles going up, and going down halves at q = 0 and
drops to 0 at q > 0 (a feasible 0 stops the search: interior), where
the step finds no powered winner or does not move; where the budget gap
fails to halve over two steps the next step doubles the last move
(halving lambda at most); inside the bracket a midpoint step is taken
whenever the step leaves it or it fails to halve over two steps, until
no float lies strictly between the ends.  Where the winning assignment
switches the power jumps, and the budget may lie inside the jump, where
no multiplier meets it.  So whenever the bracket's two ends differ on
one subcarrier only, and each end's winner leads there at its end, the
adjacent floats across which the two candidates tie are found on their
closed forms alone, by the same rule and pin: secant steps on the gap
between their marginals, midpoint steps where the secant leaves the
bracket or it fails to halve over two steps.  If a piecewise-linear
model of p_used puts the budget in that jump, the search sweeps just
either side of the tie: then the bracket is pinned, or the fill steps
resume on the budget's piece.

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
are those of the full sweep.  The shortlisted rows run the same
floating-point operations as the full sweep would, so answers match it
bit for bit.
Only rounding could tell the two apart: where two gains of one contest
lie within a few ulps, so that the rounded marginals could order them
either way, or where every marginal of a subcarrier rounds to zero
while the shortlisted winner has a positive power (one below about
1.1e-16/alpha), since the full sweep then picks candidate 0.

A sweep writes the shortlist's powers, alpha*power and splits into one
scratch block that the per-instance _Problem holds, whose four rows p,
x, beta and half (the slot weight) it views as (rows, N) arrays, and the
next sweep overwrites them.  The winners are read off at one flat index
row*N + n per subcarrier, all four rows in one gather, so a result holds
only fresh arrays.  A direct candidate counts as split 1 and weight 1
(AF: weight 1/2, for its two slots), so one expression gives both
protocols' rates and consumption: the extra *1, +0*xi_rn and *1/2 are
exact.  The per-sweep code calls ndarray and ufunc methods rather than
numpy's Python-level wrappers (np.argsort, np.cumsum, np.flatnonzero):
at desk size a call's dispatch costs more than its arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, TYPE_CHECKING

import numpy as np

from .model import (
    LN2,
    Allocation,
    Metrics,
    circuit_power,
    compute_metrics,
)

if TYPE_CHECKING:
    from .channel import ChannelRealization
    from .config import SystemConfig

_FEAS_SLACK = 1e-12  # relative slack when classifying an iterate as feasible
_AF_DEN_LOW = -900   # binary exponent of min(g1, g2)*ngap that nears underflow


@dataclass
class SolverTrace:
    """Outer-loop record of one solve: one _Search record per multiplier search.

    searches holds every search the call ran, in order, including a
    final one the Dinkelbach safeguard rejected, so their sweep counts
    add up to every candidate sweep of the call.  iterations holds the
    records the answer stands on: for EEM the accepted searches; for SEM
    the returned iterate alone, with its ratio read as metrics.ee and its
    F as its rate.  f_residual is F at the last solved q parameter (0.0
    after a rejection, whose q the incumbent solves with F = 0).
    """

    searches: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    termination: str = "converged"   # converged | outer-limit | inner-limit
    f_residual: float = 0.0


@dataclass
class Solution:
    allocation: Allocation
    metrics: Metrics
    trace: SolverTrace
    # solve_eem's problem, for solve_sem(..., eem=) to read its searches
    _prob: Optional["_Problem"] = field(default=None, repr=False,
                                        compare=False)


def _check_q_lambda(q: float, lam: float) -> None:
    if q < 0.0 or lam < 0.0:
        raise ValueError("q and lambda must be >= 0")
    if q == 0.0 and lam == 0.0:
        raise ValueError("q = lambda = 0 gives an unbounded water level")


def _marginal(x):
    """Objective increase of a winning candidate: log2(1+x) - x/(ln2*(1+x)).

    Always numpy's log1p: on one element it matches numpy's array loop
    bit for bit, while math.log1p differs from that loop in the last bit
    on a few percent of inputs on some CPUs (AVX-512), which would put
    _candidate's ties where _sweep has none.
    """
    m = np.log1p(x)  # no buffer: out= would leave numpy's fast scalar path
    m -= x / (1.0 + x)
    m /= LN2
    return m


def _direct_terms(q, lam, xi_bs, inv_alpha, p=None, x=None):
    """Water-filling power p and alpha*p of direct links at (q, lam).

    inv_alpha is the water-level floor 1/alpha (inf for a dead link,
    which gets no power).  This, _af_split and _af_terms are the only
    home of the closed forms: _sweep passes shortlist arrays and the
    problem's scratch buffers p and x, _candidate one element's floats
    (and no buffers), and both run the same numpy operations.
    """
    wl = 1.0 / (LN2 * (q * xi_bs + lam))
    fill = wl - inv_alpha  # water above the floor
    p = np.maximum(0.0, fill, out=p)
    return p, np.divide(p, inv_alpha, out=x)


def _af_split(q, lam, xi_bs, xi_rn, sqrt_g1, sqrt_g2, beta=None):
    """Optimal first-hop share beta of AF pairs, and their prices a, b.

    Algebraically equal to the textbook quotient
    (-g2*b + sqrt(g1*g2*a*b)) / (g1*a - g2*b) but free of its 0/0 at
    g1*a = g2*b: with x = sqrt(g1*a), y = sqrt(g2*b) the quotient
    collapses to y/(x+y).  x is taken as sqrt(g1)*sqrt(a), so a solve
    takes the gains' roots once.  Kept apart from _af_terms for af_beta,
    which must not form alpha: g1*g2 underflows to 0 for tiny gains.
    beta, if given, is the buffer that receives the split.
    """
    a = q * xi_bs + 2.0 * lam
    b = q * xi_rn + 2.0 * lam
    sx = sqrt_g1 * math.sqrt(a)
    sy = sqrt_g2 * math.sqrt(b)
    sx += sy
    beta = np.divide(sy, sx, out=beta)
    return beta, a, b


def _af_terms(q, lam, xi_bs, xi_rn, ngap, sqrt_g1, sqrt_g2, g1, g2,
              p=None, x=None, beta=None):
    """Split beta, water-filling total power p and alpha*p of AF pairs.

    Arrays or floats, as _direct_terms; beta, if given, receives the
    split.
    alpha = beta*(1-beta)*g1*g2 / ((beta*g1 + (1-beta)*g2)*ngap)
    and the water level 1/(ln2*(beta*a + (1-beta)*b)) are formed in
    place on the kernel's own temporaries, in that operation order.
    Where beta rounds to 0 or 1 (xi_rn = 1e300 at q > 0) alpha is 0, and
    where it is subnormal 1/alpha overflows: the floor is infinite, as
    for a dead direct link, and the pair gets no power.  solve_eem runs
    its searches with 1/0 and overflow quiet, so neither warns there.
    """
    beta, a, b = _af_split(q, lam, xi_bs, xi_rn, sqrt_g1, sqrt_g2, beta)
    omb = 1.0 - beta
    alpha = beta * omb
    alpha *= g1
    alpha *= g2
    den = beta * g1
    den += omb * g2
    den *= ngap
    alpha /= den
    wl = beta * a
    wl += omb * b
    wl *= LN2
    wl = 1.0 / wl
    wl -= 1.0 / alpha
    p = np.maximum(0.0, wl, out=p)
    return beta, p, np.multiply(alpha, p, out=x)


def af_beta(q: float, lam: float, g1: float, g2: float,
            xi_bs: float, xi_rn: float) -> float:
    """Optimal first-hop share of an AF pair's total power.

    The solver's own split (see _af_split), bit for bit.
    """
    _check_q_lambda(q, lam)
    if g1 <= 0.0 or g2 <= 0.0:
        raise ValueError("hop gains must be positive")
    return _af_split(q, lam, xi_bs, xi_rn, math.sqrt(g1),
                     math.sqrt(g2))[0].item()


def _check_gains(name: str, gains, ngap: float, p_max: float) -> None:
    g = np.asarray(gains, dtype=float)
    # NaN propagates through both reductions; initial=0.0 passes an empty
    # array.  The ufunc methods, not ndarray.min and max, which reach them
    # through numpy's Python-level wrappers
    lo = np.minimum.reduce(g, axis=None, initial=0.0)
    hi = np.maximum.reduce(g, axis=None, initial=0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} holds NaN or infinite gains")
    if lo < 0.0:
        raise ValueError(f"{name} holds negative gains")
    snr = hi.item() / ngap  # the largest SNR per watt of these links
    if not math.isfinite(snr):
        raise ValueError(f"{name} over noise_gap {ngap:g} overflows")
    if not math.isfinite(snr * p_max):
        raise ValueError(f"{name} times p_max over noise_gap overflows: "
                         "p_max_dbm is too large")


class _Problem:
    """Per-instance constants, precomputed once per solve.

    The candidate shortlist (see the module docstring) has one row per
    contest: row 0 holds each subcarrier's strongest direct user, and
    with relays one further row per occupied sector holds its strongest
    AF user.  user[r, n] is that candidate's user and flat[r, n] its
    index in the full user-major candidate order (2k direct, 2k+1 AF; k
    without relays), which fixes the lowest-index tie-break.  g1, g2
    (stand-in 1 where af_dead), their roots and af_ngap are the AF pairs'
    hop gains and noise gap, all scaled by one power of 4 where their
    closed forms would underflow; ngap is the noise gap itself.
    """

    def __init__(self, chan: "ChannelRealization", cfg: "SystemConfig"):
        cfg.validate()
        if not (math.isfinite(chan.noise_gap) and chan.noise_gap > 0.0):
            raise ValueError("noise_gap must be positive and finite")
        pm = cfg.power_model()
        _check_gains("g_bs_ue", chan.g_bs_ue, chan.noise_gap, pm.p_max)
        self.chan = chan
        self.cfg = cfg
        self.pm = pm
        self.radio = cfg.radio()
        self.p_max = pm.p_max
        self.p_fixed = circuit_power(pm, cfg.n_relays)
        self.xi_bs = pm.xi_bs
        self.xi_rn = pm.xi_rn
        self.ngap = chan.noise_gap
        self.n_users = cfg.n_users
        self.n_subcarriers = cfg.n_subcarriers
        self.has_af = cfg.n_relays > 0 and chan.g_rn_ue is not None
        self.cols = np.arange(self.n_subcarriers)

        k_d = chan.g_bs_ue.argmax(axis=0)  # first max: lowest user
        with np.errstate(divide="ignore", over="ignore"):
            # (N,) water-level floors 1/alpha; inf for a dead link, or one
            # whose SNR per watt is subnormal: no power
            self.inv_alpha_d = 1.0 / (chan.g_bs_ue[k_d, self.cols] / self.ngap)
        self.af_dead = None
        if self.has_af:
            _check_gains("g_bs_rn", chan.g_bs_rn, chan.noise_gap, pm.p_max)
            _check_gains("g_rn_ue", chan.g_rn_ue, chan.noise_gap, pm.p_max)
            # sector_row[k]: shortlist row of user k's AF contest, one row
            # per occupied sector in ascending order: 1 + the place of
            # user k's sector among them
            sector = chan.sector_of_ue
            counts = np.bincount(sector)
            sectors = counts.nonzero()[0]
            self.sector_row = sectors.searchsorted(sector) + 1
            # an AF row's user is its sector's strongest access link; the
            # members of each sector are one slice of the users sorted by
            # sector, in user order, and their gains one block of rows
            self.user = np.empty((1 + len(sectors), self.n_subcarriers),
                                 dtype=np.intp)
            self.user[0] = k_d
            order = sector.argsort(kind="stable")
            ranked = chan.g_rn_ue.take(order, axis=0)
            end = 0
            for r, size in enumerate(counts.take(sectors).tolist(), 1):
                start, end = end, end + size
                best = ranked[start:end].argmax(axis=0)
                order[start:end].take(best, out=self.user[r])
            self.flat = 2 * self.user
            self.flat[1:] += 1
            # full-order candidate index -> shortlist row; the last index,
            # 2K, stands for no candidate and maps to row 0
            self.row_of = np.zeros(2 * self.n_users + 1, dtype=np.intp)
            self.row_of[1::2] = self.sector_row
            g1 = chan.g_bs_rn.take(sectors, axis=0)  # (M', N) per row
            g2 = chan.g_rn_ue[self.user[1:], self.cols]
            weak = np.minimum(g1, g2)
            weakest = np.minimum.reduce(weak, axis=None)
            if weakest == 0.0:
                # a pair with a dead hop carries nothing; stand-in unit
                # gains keep its closed forms finite and _sweep zeroes
                # its power
                dead = weak == 0.0
                self.af_dead = dead
                g1 = np.where(dead, 1.0, g1)
                g2 = np.where(dead, 1.0, g2)
                weakest = np.where(dead, 1.0, weak).min()
            # _af_terms' den = (beta*g1 + (1-beta)*g2)*ngap is at least
            # min(g1, g2)*ngap.  Where that nears underflow, g1, g2 and the
            # AF noise gap are scaled by one power of 4, s = 4**k: den and
            # alpha's numerator both scale by s*s, and the roots by 2**k,
            # so beta and alpha keep every bit while den stays normal
            self.af_ngap = self.ngap
            low = math.frexp(weakest)[1] + math.frexp(self.ngap)[1]
            if low < _AF_DEN_LOW:
                top = math.frexp(max(g1.max(), g2.max(), self.ngap))[1]
                # lift den to about 2**-500, keep s*g below 2**500
                k = min((-500 - low) // 4, (500 - top) // 2)
                if k > 0:
                    scale = 4.0 ** k
                    g1 = g1 * scale
                    g2 = g2 * scale
                    self.af_ngap *= scale
            self.sqrt_g1 = np.sqrt(g1)
            self.sqrt_g2 = np.sqrt(g2)
            self.g1 = g1
            self.g2 = g2
        else:
            self.user = self.flat = k_d[None, :]
        # _sweep's scratch, one block that a sweep gathers its winners from
        # in one take: rows candidate power p, alpha * power x, beta (of
        # each candidate, refilled per sweep; a direct link's whole power
        # is on the first hop) and half (AF occupies two slots)
        block = np.empty((4, *self.flat.shape))
        self.p, self.x, self.beta, self.half = block
        self.block = block.reshape(4, -1)
        self.beta.fill(1.0)
        self.half.fill(0.5)
        self.half[0] = 1.0
        # direct-only water level, on unit slopes (beta's direct row); with
        # no live link any price is a start
        self.wf_price = 1.0 / (LN2 * _water_fill(
            -self.inv_alpha_d, self.beta[0], self.p_max)) or 1.0


def _water_fill(base, slopes, budget: float) -> float:
    """The t with sum(max(0, base + t*slopes)) = budget, slopes > 0.

    Exact water-filling by sorting (Palomar & Fonollosa, IEEE Trans.
    Signal Process. 53(2), 2005): with the thresholds -base/slopes
    ascending, t = (budget - sum of the m lowest bases) / (sum of their
    slopes) for the largest m whose m-th threshold lies below it.  A
    budget below the float resolution of the lowest threshold fills no
    term; t is then that threshold.  A term with base -inf never fills,
    and without a finite threshold t is inf.
    """
    thresholds = -base / slopes
    # stable: at desk size the default kind adds ~0.3 MB of peak memory
    order = thresholds.argsort(kind="stable")
    t = budget - np.add.accumulate(base.take(order))
    t /= np.add.accumulate(slopes.take(order))
    filled = (t > thresholds.take(order)).nonzero()[0]
    # a Python float: the searches do their scalar arithmetic off numpy
    return t.item(filled[-1]) if filled.size else thresholds.item(order[0])


@dataclass
class _SweepResult:
    """One candidate sweep at fixed (q, lambda)."""

    lam: float
    winner_user: np.ndarray     # (N,)
    winner_af: np.ndarray       # (N,) bool
    winner_row: np.ndarray      # (N,) shortlist row of the winner
    p_win: np.ndarray           # (N,) the winner's power p, both hops
    x_win: np.ndarray           # (N,) the winner's alpha * p
    p_bs: np.ndarray            # (N,)
    p_rn: np.ndarray            # (N,)
    rate_sum: float
    cons_sum: float             # amplifier drain, W
    p_used: float               # radiated power against the budget, W
    def f_value(self, q: float, p_fixed: float) -> float:
        return self.rate_sum - q * (p_fixed + self.cons_sum)


def _sweep(prob: _Problem, q: float, lam: float) -> _SweepResult:
    """Pick each subcarrier's winner among the shortlisted candidates.

    The candidate arrays live in prob's scratch buffers, overwritten by
    the next sweep; the result holds only fresh arrays.
    """
    p, x, beta = prob.p, prob.x, prob.beta
    _direct_terms(q, lam, prob.xi_bs, prob.inv_alpha_d, p[0], x[0])
    if prob.has_af:
        _af_terms(q, lam, prob.xi_bs, prob.xi_rn, prob.af_ngap,
                  prob.sqrt_g1, prob.sqrt_g2, prob.g1, prob.g2,
                  p[1:], x[1:], beta[1:])
        if prob.af_dead is not None:
            p[1:][prob.af_dead] = 0.0
            x[1:][prob.af_dead] = 0.0
        marg = _marginal(x)
        marg *= prob.half
        # exact ties go to the lowest candidate index, as in the full
        # order; a subcarrier with a NaN marginal matches none: row 0
        best = marg.max(axis=0)
        key = np.where(marg == best, prob.flat, 2 * prob.n_users)
        row = prob.row_of.take(key.min(axis=0))
    else:  # one candidate per subcarrier: it wins
        row = np.zeros(prob.n_subcarriers, dtype=np.intp)
    at = row * prob.n_subcarriers  # flat index of each winner
    at += prob.cols

    # a direct winner has beta 1 and half 1, so one expression serves
    # both protocols: *1.0, +0*xi_rn and *0.5 are exact.  One reduction
    # sums the five per-winner rows, each as it would sum alone.
    winner_af = row > 0
    wp, wx, wbeta, whalf = prob.block.take(at, axis=1)
    wp_tot = np.where(winner_af, wp, 0.0)  # AF power; wp - wp_tot: direct
    omb = 1.0 - wbeta
    per_winner = np.empty((5, prob.n_subcarriers))
    rate, cons, wp_d, wp_bs, wp_rn = per_winner
    np.multiply(whalf, np.log1p(wx), out=rate)
    rate /= LN2
    np.multiply(wbeta, prob.xi_bs, out=cons)
    cons += omb * prob.xi_rn
    cons *= whalf * wp
    np.subtract(wp, wp_tot, out=wp_d)
    np.multiply(wp_tot, wbeta, out=wp_bs)
    np.multiply(wp_tot, omb, out=wp_rn)
    rate_sum, cons_sum, d_sum, bs_sum, rn_sum = (
        per_winner.sum(axis=1).tolist())

    return _SweepResult(
        lam=lam,
        winner_user=prob.user.take(at),
        winner_af=winner_af,
        winner_row=row,
        p_win=wp,
        x_win=wx,
        p_bs=wp_bs,
        p_rn=wp_rn,
        rate_sum=rate_sum,
        cons_sum=cons_sum,
        p_used=d_sum + bs_sum + rn_sum,
    )


def _to_allocation(prob: _Problem, sweep: _SweepResult) -> Allocation:
    """Materialize the winners with positive power; the rest idle.

    A direct winner's p_rn is already exactly 0 (_sweep forms it from an
    AF power of 0 and a split of 1), so only p_bs needs the protocol split.
    """
    af = sweep.winner_af
    p_bs = np.where(af, sweep.p_bs, sweep.p_win)
    on = (p_bs + sweep.p_rn > 0.0).nonzero()[0]
    return Allocation.from_arrays(prob.n_users, prob.n_subcarriers,
                                  sweep.winner_user.take(on), on, af.take(on),
                                  p_bs.take(on), sweep.p_rn.take(on))


_LAMBDA_FLOOR = 1e-15  # feasible multiplier at which a descent stops
_LAMBDA_CEIL = 1e300   # multiplier past which a bracket counts as failed


def _candidate(prob: _Problem, q: float, lam: float, row: int, n: int):
    """Marginal and radiated power of shortlist row `row` on subcarrier n.

    Runs _sweep's kernel on that element's floats, so the two agree bit
    for bit and a tie falls where the sweep puts it.
    """
    if row == 0:
        p, x = _direct_terms(q, lam, prob.xi_bs, prob.inv_alpha_d.item(n))
        return _marginal(x), p
    at = (row - 1, n)
    if prob.af_dead is not None and prob.af_dead[at]:
        return 0.0, 0.0
    _, p, x = _af_terms(q, lam, prob.xi_bs, prob.xi_rn, prob.af_ngap, *(
        v.item(at) for v in (prob.sqrt_g1, prob.sqrt_g2, prob.g1, prob.g2)))
    return 0.5 * _marginal(x), p


def _tie_bracket(prob: _Problem, q: float, lo: float, hi: float,
                 r_lo: _SweepResult, r_hi: _SweepResult):
    """Pinned multipliers lo <= a < b <= hi across one subcarrier's switch.

    Where the winners of the sweeps at lo and hi differ in shortlist row
    on exactly one subcarrier n, and there the winner at lo has the
    larger marginal at lo and the winner at hi at hi (strictly, so both
    carry power at the switch and p_used jumps), the switch is where
    their two marginals tie.  The gap between them is read off the two
    candidates' closed forms alone (_candidate, no sweep), exact ties
    signed as _sweep breaks them, and its sign change is narrowed by the
    stepping rule of _search_lambda: a secant step on the two end gaps,
    and a midpoint step wherever that step does not lie strictly inside
    (a, b), a NaN step included, or the bracket failed to halve over two
    steps.  So the width halves at least once every three steps, and the
    search stops at the pin of _search_lambda: no float lies strictly
    between a and b.  Returns (a, b, jump), with the winner at lo still
    winning at a, the winner at hi at b, and jump the drop in n's
    radiated power across the switch; or None.
    """
    differ = (r_lo.winner_row != r_hi.winner_row).nonzero()[0]
    if differ.size != 1:
        return None
    n = int(differ[0])
    row_lo, row_hi = int(r_lo.winner_row[n]), int(r_hi.winner_row[n])
    # exact ties go to the lower candidate index, as in _sweep
    tie_sign = 1.0 if prob.flat[row_lo, n] < prob.flat[row_hi, n] else -1.0

    def gap(lam):  # > 0 where the winner at lo wins
        m_lo = _candidate(prob, q, lam, row_lo, n)[0]
        m_hi = _candidate(prob, q, lam, row_hi, n)[0]
        if m_lo != m_hi or m_hi == 0.0:
            return float(m_lo - m_hi)
        return math.copysign(math.ulp(m_hi), tie_sign)

    a, b = lo, hi
    g_a, g_b = gap(a), gap(b)
    if not g_a > 0.0 > g_b:
        return None
    widths = []  # bracket width before each step
    while math.nextafter(a, b) != b:
        widths.append(b - a)
        lam = a + g_a / (g_a - g_b) * (b - a)  # secant
        if not a < lam < b or len(widths) > 2 and widths[-1] > 0.5 * widths[-3]:
            lam = 0.5 * (a + b)
        g = gap(lam)
        if g > 0.0:
            a, g_a = lam, g
        else:
            b, g_b = lam, g
    jump = (_candidate(prob, q, b, row_lo, n)[1]
            - _candidate(prob, q, b, row_hi, n)[1])
    return a, b, jump


@dataclass
class _Search:
    """One multiplier search: one secondary problem of Dinkelbach's method.

    Scalars only, and records compare by them; the iterate's sweep rides
    along outside == and repr.
    """

    q: float              # ratio parameter: the search maximizes F(q) = R - qP
    lam: float            # multiplier of the iterate
    f_val: float          # F(q) of the iterate
    ratio: float          # rate/power ratio of the iterate
    bracket_sweeps: int   # start point, bracket expansion
    search_sweeps: int    # steps inside the bracket
    # interior: the feasible end is lambda = 0 (q > 0 only); tolerance:
    # budget slack <= 1e-12 p_max; jump-point: no float lies between the
    # last infeasible and the last feasible multiplier, or none down to
    # _LAMBDA_FLOOR is infeasible; iteration-cap: i_inner_max sweeps in
    # all, bracketing included, spent before either of those;
    # bracket-failure: bracketing, which the cap never cuts short, took
    # more on its own
    stop: str
    # the iterate: the best-F(q) feasible sweep
    sweep: _SweepResult = field(repr=False, compare=False)
    accepted: bool = True  # False: the Dinkelbach safeguard rejected it

    @classmethod
    def of(cls, prob: _Problem, q: float, sweep: _SweepResult,
           bracket_sweeps: int, search_sweeps: int, stop: str) -> "_Search":
        """The record of a search at q whose iterate is `sweep`."""
        power = prob.p_fixed + sweep.cons_sum
        return cls(q, sweep.lam, sweep.f_value(q, prob.p_fixed),
                   sweep.rate_sum / power if power > 0.0 else 0.0,
                   bracket_sweeps, search_sweeps, stop, sweep)

    @property
    def evals(self) -> int:
        return self.bracket_sweeps + self.search_sweeps

    @property
    def converged(self) -> bool:
        return self.stop in ("interior", "tolerance", "jump-point")


def _search_lambda(prob: _Problem, q: float,
                   lam_hint: Optional[float] = None) -> _Search:
    """Find the budget multiplier by water-filling each sweep's winners.

    p_used is non-increasing in lambda (it is the negated subgradient of
    the convex dual), so a bracket [lo, hi] with p_used(lo) > p_max >=
    p_used(hi) always closes.  One bracket holds the last infeasible and
    the last feasible sweep; one loop closes it and a second steps
    inside it (see the module docstring).  The iterate is the first
    best-F(q) feasible sweep.  lam_hint, >= 0 (> 0 at q = 0), seeds the
    search; None starts it at wf_price - q*xi_bs, clipped at 0.
    i_inner_max binds only once the bracket is closed: no step inside it
    follows i_inner_max sweeps in all.  Bracketing runs to its end, and
    a search whose bracketing alone took more is labelled
    bracket-failure.  Bracketing is bounded all the same: every step
    moves lambda toward the budget, so the gap |p_used - p_max| never
    grows and can halve only so often before it falls below 1e-12 *
    p_max, and where it fails to, each step doubles the last move.
    """
    if q == 0.0 and lam_hint is not None and lam_hint <= 0.0:
        raise ValueError("lam_hint must be > 0 at q = 0: q = lambda = 0 "
                         "gives an unbounded water level")
    p_max = prob.p_max
    i_inner_max = prob.cfg.i_inner_max
    over = p_max * (1.0 + _FEAS_SLACK)  # p_used above this is infeasible
    # Budget slack at exit.  Kept near float resolution so that rates
    # reported for different q parameters differ through the objective,
    # not through leftover line-search slack (the rate error of an
    # iterate is ~lambda * (p_max - p_used)).
    tol_p = 1e-12 * p_max
    price0 = q * prob.xi_bs  # direct price at lambda = 0
    evals = 0
    best = None
    ends = [None, None]  # [lo, hi], each as (lambda, sweep)

    def ev(lam):
        """Sweep at lam, file it as the lo or hi end; return the sweep."""
        nonlocal best, evals
        evals += 1
        r = _sweep(prob, q, lam)
        end = int(r.p_used <= over)
        if end and (best is None or r.f_value(q, prob.p_fixed)
                    > best.f_value(q, prob.p_fixed)):
            best = r
        ends[end] = lam, r
        return r

    def stop_rule(lo):
        hi, r_hi = ends[1]
        if hi == 0.0:  # q > 0 only: p_used(0+) is unbounded at q = 0
            return "interior"
        if p_max - r_hi.p_used <= tol_p:
            return "tolerance"
        if hi <= _LAMBDA_FLOOR or math.nextafter(lo, hi) == hi:
            return "jump-point"  # no float lies between the ends
        return None

    def fill(lo, hi):  # the step from the last sweep r, if it splits (lo, hi)
        on = r.x_win > 0.0
        p = r.p_win[on]
        if not p.size:
            return None
        floors = p / r.x_win[on]
        k = _water_fill(-floors, p + floors, p_max)
        lam = (price0 + r.lam) / k - price0
        # on an end the budget lies within float resolution: one float in
        if lam == lo or lam == hi:
            lam = math.nextafter(lam, lo + hi - lam)
        return lam if lo < lam < hi else None

    lam = max(prob.wf_price - price0, 0.0) if lam_hint is None else lam_hint
    stop = None
    trail = []  # (lambda, |p_used - p_max|) of each bracketing sweep
    # bracket: step from the one end until the other exists
    while True:
        r = ev(lam)
        trail.append((lam, abs(r.p_used - p_max)))
        if ends[0] and ends[1]:
            break
        if ends[1]:  # down to the first infeasible multiplier
            stop = stop_rule(0.0)
            if stop:
                break
        if len(trail) > 2 and trail[-1][1] > 0.5 * trail[-3][1]:
            # the gap failed to halve over two steps: double the last move
            lam = max(lam + 2.0 * (lam - trail[-2][0]), 0.5 * lam)
        elif ends[1]:
            lam = fill(0.0, lam) or (0.0 if q > 0.0 else 0.5 * lam)
        else:  # up to the first feasible multiplier; 0 steps to price0
            lam = fill(lam, math.inf) or 2.0 * lam or price0
        if not lam <= _LAMBDA_CEIL:  # NaN, or p_used never fell to the budget
            raise RuntimeError("lambda bracket failed to close")
    bracket_sweeps = evals

    widths = []  # bracket width before each step
    while stop is None:
        (lo, r_lo), (hi, r_hi) = ends
        widths.append(hi - lo)
        stop = stop_rule(lo)
        if stop:
            break
        if evals >= i_inner_max:
            stop = "iteration-cap"
            break
        tie = _tie_bracket(prob, q, lo, hi, r_lo, r_hi)
        if tie is not None:
            # Model p_used as linear in u = 1/(q*xi_bs + lambda) on both
            # sides of the switch, a constant `jump` apart: the lo end's
            # assignment then exceeds the budget at the switch by `excess`,
            # and the hi end's by excess - jump.
            a, b, jump = tie
            u_lo = 1.0 / (price0 + lo)
            w = (u_lo - 1.0 / (price0 + b)) / (u_lo - 1.0 / (price0 + hi))
            excess = ((1.0 - w) * (r_lo.p_used - p_max)
                      + w * (r_hi.p_used - p_max + jump))
            if 0.0 < excess <= jump:  # the budget lies in the jump
                # Sweep just above the switch, then just below it if that
                # still splits the bracket.  A pinned bracket stops at the
                # jump point; otherwise the budget lies on one side's
                # piece, where the fill steps resume.
                for lam in (b, a):
                    if ends[0][0] < lam < ends[1][0] and evals < i_inner_max:
                        r = ev(lam)
                continue
        lam = 0.5 * (lo + hi)  # strictly inside: the ends are not adjacent
        if len(widths) < 3 or widths[-1] <= 0.5 * widths[-3]:
            lam = fill(lo, hi) or lam
        r = ev(lam)
    if bracket_sweeps > i_inner_max:
        stop = "bracket-failure"
    return _Search.of(prob, q, best, bracket_sweeps, evals - bracket_sweeps,
                      stop)


def _dinkelbach_steps(prob: _Problem):
    """Run the Dinkelbach outer loop, recording every multiplier search.

    Returns (searches, termination).  A search with accepted=False is the
    safeguard case: the inexact inner solve at the updated q came back
    with F < 0, i.e. worse than the incumbent allocation (whose F at
    that q is 0 by construction), so the ratio cannot improve further.
    Each search after the first starts from the previous multiplier,
    shifted so that the direct price q*xi_bs + lambda is kept (clipped at
    0).  The termination reads the stop of the search whose iterate is
    returned.
    """
    searches = []
    q = 0.0
    hint = None
    for _ in range(prob.cfg.i_outer_max):
        search = _search_lambda(prob, q, hint)
        searches.append(search)
        if len(searches) > 1 and search.f_val < 0.0:
            search.accepted = False
            search = searches[-2]  # the incumbent stands
            break
        delta = search.ratio - q
        hint = max(search.lam - delta * prob.xi_bs, 0.0)
        q = search.ratio
        if delta <= prob.cfg.eps_outer:
            break
    else:
        return searches, "outer-limit"
    return searches, "converged" if search.converged else "inner-limit"


def solve_eem(chan: "ChannelRealization", cfg: "SystemConfig") -> Solution:
    """Energy-efficiency maximization via the Dinkelbach outer loop."""
    prob = _Problem(chan, cfg)
    # an infinite AF floor 1/alpha (see _af_terms) is an answer, not a
    # fault: 1/0 and overflow are quiet in the searches, once per solve
    with np.errstate(divide="ignore", over="ignore"):
        searches, termination = _dinkelbach_steps(prob)
    accepted = [s for s in searches if s.accepted]
    incumbent = accepted[-1]
    f_residual = incumbent.f_val if incumbent is searches[-1] else 0.0
    trace = SolverTrace(searches, accepted, termination, f_residual)
    alloc = _to_allocation(prob, incumbent.sweep)
    metrics = compute_metrics(alloc, chan, prob.radio, prob.pm)
    return Solution(alloc, metrics, trace, prob)


def solve_sem(chan: "ChannelRealization", cfg: "SystemConfig", *,
              eem: Optional[Solution] = None) -> Solution:
    """Spectral-efficiency maximization, read off an EEM solve.

    Reads the searches of solve_eem(chan, cfg) and returns the
    highest-rate feasible iterate.  The q=0 solve alone is
    the textbook answer, but at a budget-crossing assignment switch its
    dual search cannot exhaust the budget, and an iterate solved at
    q > 0 (whose water levels tilt slightly toward the cheap hops) can
    land closer to the budget and carry more rate; taking the best
    iterate keeps the returned rate a true upper envelope.  Ties pick
    the earliest iterate, so away from those switch points this is
    exactly the q=0 solution.  The trace's searches are EEM's; its one
    iteration is the chosen search's record, with its ratio replaced by
    metrics.ee and its F by its plain rate (F at q=0), which is also
    f_residual.

    eem, a solve_eem(chan, cfg) result for this very `chan` object
    (unchanged since) and an equal cfg, is the solve to read: no search
    is run again, and the EEM answer's allocation and metrics stand for
    its own iterate.  Without it, solve_eem(chan, cfg) runs first.  An
    eem that solve_eem did not return, or that was solved for another
    channel or config, raises ValueError.
    """
    if eem is None:
        eem = solve_eem(chan, cfg)
    prob = eem._prob
    if prob is None:
        raise ValueError("eem carries no Dinkelbach trajectory")
    if prob.chan is not chan:
        raise ValueError("eem was solved for another channel")
    if prob.cfg != cfg:
        raise ValueError("eem was solved for another config")

    best = None
    best_alloc = None
    best_metrics = None
    for s in eem.trace.searches:
        if s is eem.trace.iterations[-1]:
            alloc, metrics = eem.allocation, eem.metrics
        else:
            alloc = _to_allocation(prob, s.sweep)
            metrics = compute_metrics(alloc, chan, prob.radio, prob.pm)
        if best is None or metrics.rate_total > best_metrics.rate_total:
            best, best_alloc, best_metrics = s, alloc, metrics

    rate = best.sweep.f_value(0.0, prob.p_fixed)  # F(0): the rate
    trace = SolverTrace(eem.trace.searches,
                        [replace(best, ratio=best_metrics.ee, f_val=rate)],
                        "converged" if best.converged else "inner-limit",
                        rate)
    return Solution(best_alloc, best_metrics, trace)
