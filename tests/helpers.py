"""Shared independent re-implementations used to cross-check the solver.

Everything here is deliberately scalar and naive: the point is to agree
with the vectorized production code without sharing its code paths.
"""

import math

import numpy as np

from relayopt import oracle, solver
from relayopt.model import LN2, Direct
from relayopt.solver import af_candidate, assign_subcarriers, direct_candidate


def beta_quotient(q, lam, g1, g2, xi_bs, xi_rn):
    """Textbook closed form for the AF power split; 0/0 at g1*a == g2*b."""
    a = q * xi_bs + 2.0 * lam
    b = q * xi_rn + 2.0 * lam
    num = -g2 * b + math.sqrt(g1 * g2 * a * b)
    den = g1 * a - g2 * b
    return num / den


def candidates_on(chan, cfg, n, q, lam):
    """Every (user, protocol) candidate for subcarrier n at fixed prices."""
    ngap = chan.noise_gap
    out = []
    for k in range(cfg.n_users):
        c = direct_candidate(q, lam, float(chan.g_bs_ue[k, n]), ngap, cfg.xi_bs)
        out.append((k, "direct", c))
        if cfg.n_relays > 0 and chan.g_rn_ue is not None:
            m = int(chan.sector_of_ue[k])
            c = af_candidate(q, lam, float(chan.g_bs_rn[m, n]),
                             float(chan.g_rn_ue[k, n]), ngap,
                             cfg.xi_bs, cfg.xi_rn)
            out.append((k, "af", c))
    return out


def sweep_at(chan, cfg, q, lam):
    """Scalar winner-take-all sweep: (rate, tx_power, amp_consumption)."""
    rate = 0.0
    tx = 0.0
    cons = 0.0
    for n in range(cfg.n_subcarriers):
        cands = [c for _, _, c in candidates_on(chan, cfg, n, q, lam)]
        win = assign_subcarriers(cands)
        if win is None or win.tx_power <= 0.0:
            continue
        x = win.effective_gain * win.tx_power
        if win.protocol == "direct":
            rate += math.log1p(x) / LN2
            cons += cfg.xi_bs * win.p_d
        else:
            rate += 0.5 * math.log1p(x) / LN2
            cons += 0.5 * (cfg.xi_bs * win.p_bs + cfg.xi_rn * win.p_rn)
        tx += win.tx_power
    return rate, tx, cons


def best_feasible_f_on_grid(chan, cfg, q, lams):
    """max over a multiplier grid of F(q) among budget-feasible sweeps."""
    p_fixed = cfg.p_c_bs_w + cfg.n_relays * cfg.p_c_rn_w
    best = -math.inf
    for lam in lams:
        rate, tx, cons = sweep_at(chan, cfg, q, lam)
        if tx <= cfg.p_max_w * (1.0 + 1e-12):
            best = max(best, rate - q * (p_fixed + cons))
    return best


def kkt_residuals(sol, chan, cfg):
    """Relative stationarity residuals of every powered subcarrier."""
    q = sol.trace.q_params[-1]
    lam = sol.trace.lambda_final[-1]
    ngap = chan.noise_gap
    out = []
    for (k, n), e in sol.allocation.entries.items():
        if isinstance(e, Direct):
            alpha = chan.g_bs_ue[k, n] / ngap
            price = q * cfg.xi_bs + lam
            lhs = alpha / (LN2 * (1.0 + alpha * e.p_d))
        else:
            m = int(chan.sector_of_ue[k])
            g1 = chan.g_bs_rn[m, n]
            g2 = chan.g_rn_ue[k, n]
            p = e.p_bs + e.p_rn
            beta = e.p_bs / p
            a = q * cfg.xi_bs + 2.0 * lam
            b = q * cfg.xi_rn + 2.0 * lam
            alpha = beta * (1.0 - beta) * g1 * g2 / (
                (beta * g1 + (1.0 - beta) * g2) * ngap)
            price = beta * a + (1.0 - beta) * b
            lhs = alpha / (LN2 * (1.0 + alpha * p))
        out.append(abs(lhs - price) / price)
    return out


def dominance_holds(sol, chan, cfg, rel=1e-9):
    """Winner-take-all optimality of the final allocation, re-derived."""
    q = sol.trace.q_params[-1]
    lam = sol.trace.lambda_final[-1]
    chosen = {}
    for (k, n), e in sol.allocation.entries.items():
        chosen[n] = (k, "direct" if isinstance(e, Direct) else "af")
    for n in range(cfg.n_subcarriers):
        cands = candidates_on(chan, cfg, n, q, lam)
        top = max(c.marginal for _, _, c in cands)
        if n not in chosen:
            if top > 1e-12:
                return False
            continue
        k, proto = chosen[n]
        mine = next(c.marginal for kk, pp, c in cands
                    if kk == k and pp == proto)
        if mine < top - rel * max(1.0, abs(top)):
            return False
    return True


def bisection_search(prob, q, params, lam_hint=None):
    """Reference multiplier search: plain bisection on p_used(lambda).

    Doubles lambda up from params.lambda_init until the budget holds,
    then halves the bracket until the budget slack is <= 1e-12 p_max,
    the bracket is pinned to float resolution, or i_inner_max sweeps
    are spent, returning the best-F feasible iterate.  It shares only
    the candidate sweep with the library search and ignores lam_hint,
    so it can stand in for solver._search_lambda.
    """
    p_max = prob.p_max
    over = p_max * (1.0 + solver._FEAS_SLACK)
    tol_p = 1e-12 * p_max
    evals = 0

    def ev(lam):
        nonlocal evals
        evals += 1
        return solver._sweep(prob, q, lam, params)

    if q > 0.0:
        r = ev(0.0)
        if r.p_used <= over:
            return solver._Search(r, 1, 0, "interior")

    lo = 0.0
    hi = params.lambda_init
    r_hi = ev(hi)
    while r_hi.p_used > over:
        lo = hi
        hi *= 2.0
        r_hi = ev(hi)
        if hi > 1e300:
            raise RuntimeError("lambda bracket failed to close")
    bracket_sweeps = evals

    best = r_hi
    while True:
        if p_max - r_hi.p_used <= tol_p:
            stop = "tolerance"
            break
        if hi - lo <= 1e-15 * max(1.0, hi):
            stop = "jump-point"
            break
        if evals >= params.i_inner_max:
            stop = "iteration-cap"
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            stop = "jump-point"
            break
        r = ev(mid)
        if r.p_used > over:
            lo = mid
        else:
            hi, r_hi = mid, r
            if r.f_value(q, prob.p_fixed) > best.f_value(q, prob.p_fixed):
                best = r
    if bracket_sweeps > params.i_inner_max:
        stop = "bracket-failure"
    return solver._Search(best, bracket_sweeps, evals - bracket_sweeps, stop)


def reference_candidates(prob, q, lam):
    """All 2KN candidates of the full sweep at (q, lam).

    Returns (marg, c): marg is the (2K, N) marginal matrix in user-major
    order (row 2k direct, 2k+1 AF), or (K, N) without relays, and c
    holds the (K, N) power, rate and consumption arrays per protocol.
    """
    chan = prob.chan
    with np.errstate(divide="ignore"):
        inv_alpha_d = 1.0 / (chan.g_bs_ue / prob.ngap)
    wl_d = 1.0 / (LN2 * (q * prob.xi_bs + lam))
    p_d = np.maximum(0.0, wl_d - inv_alpha_d)
    x_d = p_d / inv_alpha_d
    marg_d = solver._marginal(x_d)
    c = {"p_d": p_d, "rate_d": np.log1p(x_d) / LN2, "cons_d": prob.xi_bs * p_d}
    if not prob.has_af:
        return marg_d, c

    g1 = chan.g_bs_rn[chan.sector_of_ue]  # (K, N) feeder gain per user
    g2 = chan.g_rn_ue
    dead = (g1 == 0.0) | (g2 == 0.0)
    g1 = np.where(dead, 1.0, g1)
    g2 = np.where(dead, 1.0, g2)
    a = q * prob.xi_bs + 2.0 * lam
    b = q * prob.xi_rn + 2.0 * lam
    x = np.sqrt(g1) * math.sqrt(a)
    y = np.sqrt(g2) * math.sqrt(b)
    beta = y / (x + y)
    alpha_a = beta * (1.0 - beta) * g1 * g2 / (
        (beta * g1 + (1.0 - beta) * g2) * prob.ngap)
    wl_a = 1.0 / (LN2 * (beta * a + (1.0 - beta) * b))
    p_a = np.maximum(0.0, wl_a - 1.0 / alpha_a)
    p_a[dead] = 0.0
    x_a = alpha_a * p_a
    marg_a = 0.5 * solver._marginal(x_a)
    c.update(p_a=p_a, beta=beta, rate_a=0.5 * np.log1p(x_a) / LN2,
             cons_a=0.5 * p_a * (beta * prob.xi_bs + (1.0 - beta) * prob.xi_rn))
    marg = np.stack([marg_d, marg_a], axis=1).reshape(2 * prob.n_users, -1)
    return marg, c


def reference_sweep(prob, q, lam, params):
    """Reference candidate sweep: winner-take-all over all 2KN candidates.

    The full sweep that the shortlisted solver._sweep must reproduce.
    Exact ties go to the lowest candidate index, or under
    "seeded-random" to a draw, from a generator seeded with 0 at every
    sweep, in every column where several candidates tie for the best
    marginal.  It can stand in for solver._sweep.
    """
    marg, c = reference_candidates(prob, q, lam)
    cols = np.arange(prob.n_subcarriers)
    flat = np.argmax(marg, axis=0)  # first max = lowest user, direct first
    if params.tie_break == "seeded-random":
        best = marg[flat, cols]
        rng = np.random.default_rng(0)
        for n in np.nonzero((marg == best).sum(axis=0) > 1)[0]:
            pool = np.nonzero(marg[:, n] == best[n])[0]
            flat[n] = pool[rng.integers(len(pool))]

    if prob.has_af:
        winner_user = flat // 2
        winner_af = (flat % 2).astype(bool)
        wp_d = np.where(winner_af, 0.0, c["p_d"][winner_user, cols])
        wp_tot = np.where(winner_af, c["p_a"][winner_user, cols], 0.0)
        wbeta = c["beta"][winner_user, cols]
        wp_bs = wp_tot * wbeta
        wp_rn = wp_tot * (1.0 - wbeta)
        rate = np.where(winner_af, c["rate_a"][winner_user, cols],
                        c["rate_d"][winner_user, cols])
        cons = np.where(winner_af, c["cons_a"][winner_user, cols],
                        c["cons_d"][winner_user, cols])
        winner_row = np.where(winner_af, prob.sector_row[winner_user], 0)
    else:
        winner_user = flat
        winner_af = np.zeros(prob.n_subcarriers, dtype=bool)
        wp_d = c["p_d"][winner_user, cols]
        wp_bs = np.zeros(prob.n_subcarriers)
        wp_rn = np.zeros(prob.n_subcarriers)
        rate = c["rate_d"][winner_user, cols]
        cons = c["cons_d"][winner_user, cols]
        winner_row = np.zeros(prob.n_subcarriers, dtype=np.intp)

    return solver._SweepResult(
        lam=lam,
        winner_user=winner_user,
        winner_af=winner_af,
        winner_row=winner_row,
        p_d=wp_d,
        p_bs=wp_bs,
        p_rn=wp_rn,
        rate_sum=float(np.sum(rate)),
        cons_sum=float(np.sum(cons)),
        p_used=float(np.sum(wp_d) + np.sum(wp_bs) + np.sum(wp_rn)),
    )


def reference_scan_product(menus, p_max, p_fixed):
    """Reference oracle product scan: every combo of the full menus.

    The unpruned scan the frontier-pruned oracle._scan_product must
    reproduce, winning indices and tie-breaking included.  It can stand
    in for oracle._scan_product.
    """
    best_ee, best_rate = oracle._Best(), oracle._Best()
    sizes = [len(m.rate) for m in menus]
    total = math.prod(sizes)
    if total > oracle._PRODUCT_CAP:
        raise ValueError("assignment power grid too large; reduce grid points")

    def offer_block(rate, tx, cons, mapper):
        feas = tx <= p_max * (1.0 + 1e-12)
        if not np.any(feas):
            return
        rate = np.where(feas, rate, -1.0)
        ee = rate / (p_fixed + cons)
        j = int(np.argmax(ee))
        if rate.flat[j] >= 0.0:
            best_ee.offer(float(ee.flat[j]), mapper(j))
        j = int(np.argmax(rate))
        if rate.flat[j] >= 0.0:
            best_rate.offer(float(rate.flat[j]), mapper(j))

    if len(menus) == 1:
        m0 = menus[0]
        offer_block(m0.rate, m0.tx, m0.cons, lambda j: (j,))
    elif len(menus) == 2:
        m0, m1 = menus
        step = max(1, oracle._CHUNK // sizes[1])
        for i0 in range(0, sizes[0], step):
            sl = slice(i0, min(i0 + step, sizes[0]))
            rate = m0.rate[sl, None] + m1.rate[None, :]
            tx = m0.tx[sl, None] + m1.tx[None, :]
            cons = m0.cons[sl, None] + m1.cons[None, :]

            def mapper(j, base=i0):
                return (base + j // sizes[1], j % sizes[1])

            offer_block(rate, tx, cons, mapper)
    elif len(menus) == 3:
        m0, m1, m2 = menus
        for i0 in range(sizes[0]):
            rate = m0.rate[i0] + m1.rate[:, None] + m2.rate[None, :]
            tx = m0.tx[i0] + m1.tx[:, None] + m2.tx[None, :]
            cons = m0.cons[i0] + m1.cons[:, None] + m2.cons[None, :]

            def mapper(j, base=i0):
                return (base, j // sizes[2], j % sizes[2])

            offer_block(rate, tx, cons, mapper)
    else:
        raise ValueError(
            "budget coupling is searched exactly only up to 3 active subcarriers")
    return best_ee, best_rate
