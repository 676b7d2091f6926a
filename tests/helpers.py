"""Shared independent re-implementations used to cross-check the solver.

Each is a plain, unpruned version of a library computation: the full
2KN candidate sweep written out afresh (it shares the marginal formula
and the per-instance constants with the solver, not its closed-form
kernel or its shortlist), bisection for the multiplier, the
water-filling on numpy's Python-level wrappers, the oracle's menus in
their broadcast form and every combo of them, and per-entry loops for
the allocation metrics.
Also the dead-hop instances that several of those checks run on, and
the golden files' kernel-set key, reader and writer.
"""

import dataclasses
import hashlib
import json
import math
import sys

import numpy as np

from relayopt import oracle, solver
from relayopt.channel import generate_instance
from relayopt.config import SystemConfig
from relayopt.model import (LN2, Af, Allocation, Direct, Metrics, energy_efficiency,
                            link_rate_af, link_rate_direct, snr_af_exact)


def kernel_set():
    """(key, description) of the float64 kernels numpy runs here, keyed by
    the bits they return on a fixed probe.

    numpy computes float64 log1p, log10 and power with vectorized kernels
    (SVML) on AVX-512 machines and with the C library elsewhere, and the
    two differ in the last bit on some inputs, so the golden files keep
    one set of answers per key.
    """
    x = np.linspace(1e-3, 1e3, 4001)
    out = [np.log1p(x), np.log10(x), np.power(10.0, np.log10(x))]
    key = hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest()[:16]
    libm = all(np.array_equal(a, [f(v) for v in x.tolist()])
               for a, f in zip(out[:2], (math.log1p, math.log10)))
    return key, (f"numpy {np.__version__}, log1p and log10 "
                 + ("as" if libm else "unlike") + " the C library")


def golden_answers(path):
    """This machine's pinned answers in a golden file: case name -> records.

    LookupError if the file pins none for this machine's kernel set.
    """
    key, _ = kernel_set()
    sets = json.loads(path.read_text())
    if key not in sets:
        raise LookupError(f"{path.name} pins no answers for kernel set {key}")
    return sets[key]["answers"]


def write_golden(path, answers):
    """Add (or replace) this machine's kernel set in a golden file, one
    record per line; answers maps each case name to its records."""
    sets = json.loads(path.read_text()) if path.exists() else {}
    key, about = kernel_set()
    sets[key] = {"kernels": about, "answers": answers}
    lines = []
    for key, entry in sets.items():
        cases = [f'   {json.dumps(name)}: [\n'
                 + ",\n".join(f"    {json.dumps(r)}" for r in records) + "\n   ]"
                 for name, records in entry["answers"].items()]
        lines.append(f' {json.dumps(key)}: {{\n'
                     f'  "kernels": {json.dumps(entry["kernels"])},\n'
                     '  "answers": {\n' + ",\n".join(cases) + "\n  }\n }")
    path.parent.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def beta_quotient(q, lam, g1, g2, xi_bs, xi_rn):
    """Textbook closed form for the AF power split; 0/0 at g1*a == g2*b."""
    a = q * xi_bs + 2.0 * lam
    b = q * xi_rn + 2.0 * lam
    num = -g2 * b + math.sqrt(g1 * g2 * a * b)
    den = g1 * a - g2 * b
    return num / den


def dead_hop_channels():
    """(seed, cfg, chan) for K=6, N=12, M=3 seeds 1-4 with about 30% of
    every gain array zeroed and subcarriers 0-2 unable to carry anything:
    0 has no direct link and only dead feeders, 1 no direct link and only
    dead access links, 2 strong access links behind dead feeders."""
    cfg = SystemConfig(n_users=6, n_subcarriers=12, n_relays=3)
    found = []
    for seed in (1, 2, 3, 4):
        _, chan = generate_instance(cfg, seed)
        rng = np.random.default_rng(seed)
        g_bs_ue = np.where(rng.random(chan.g_bs_ue.shape) < 0.3, 0.0,
                           chan.g_bs_ue)
        g_bs_rn = np.where(rng.random(chan.g_bs_rn.shape) < 0.3, 0.0,
                           chan.g_bs_rn)
        g_rn_ue = np.where(rng.random(chan.g_rn_ue.shape) < 0.3, 0.0,
                           chan.g_rn_ue)
        g_bs_ue[:, 0] = 0.0
        g_bs_rn[:, 0] = 0.0
        g_bs_ue[:, 1] = 0.0
        g_rn_ue[:, 1] = 0.0
        g_bs_ue[:, 2] = 0.0
        g_rn_ue[:, 2] = np.where(np.arange(6) % 2 == 0, 1.0, 0.0)
        g_bs_rn[:, 2] = 0.0
        found.append((seed, cfg, dataclasses.replace(
            chan, g_bs_ue=g_bs_ue, g_bs_rn=g_bs_rn, g_rn_ue=g_rn_ue)))
    return found


def sweep_at(chan, cfg, q, lam):
    """Full winner-take-all sweep: (rate, tx_power, amp_consumption)."""
    r = reference_sweep(solver._Problem(chan, cfg), q, lam)
    return r.rate_sum, r.p_used, r.cons_sum


def best_feasible_f_on_grid(chan, cfg, q, lams):
    """max over a multiplier grid of F(q) among budget-feasible full sweeps."""
    prob = solver._Problem(chan, cfg)
    best = -math.inf
    for lam in lams:
        r = reference_sweep(prob, q, float(lam))
        if r.p_used <= prob.p_max * (1.0 + 1e-12):
            best = max(best, r.f_value(q, prob.p_fixed))
    return best


def kkt_residuals(sol, chan, cfg):
    """Relative stationarity residuals of every powered subcarrier."""
    q = sol.trace.iterations[-1].q
    lam = sol.trace.iterations[-1].lam
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
    prob = solver._Problem(chan, cfg)
    last = sol.trace.iterations[-1]
    marg, _ = reference_candidates(prob, last.q, last.lam)
    top = marg.max(axis=0)
    alloc = sol.allocation
    idle = np.ones(cfg.n_subcarriers, dtype=bool)
    idle[alloc.subcarrier] = False
    row = 2 * alloc.user + alloc.af if prob.has_af else alloc.user
    mine = marg[row, alloc.subcarrier]
    top_on = top[alloc.subcarrier]
    return bool(np.all(top[idle] <= 1e-12) and np.all(
        mine >= top_on - rel * np.maximum(1.0, np.abs(top_on))))


def bisection_search(prob, q, lam_hint=None):
    """Reference multiplier search: plain bisection on p_used(lambda).

    Doubles lambda up from 1 until the budget holds, then halves the
    bracket until the budget slack is <= 1e-12 p_max, the bracket is
    pinned to float resolution, or i_inner_max sweeps are spent,
    returning the best-F feasible iterate.  It shares only the candidate
    sweep with the library search and ignores lam_hint, so it can stand
    in for solver._search_lambda.
    """
    p_max = prob.p_max
    over = p_max * (1.0 + solver._FEAS_SLACK)
    tol_p = 1e-12 * p_max
    evals = 0

    def ev(lam):
        nonlocal evals
        evals += 1
        return solver._sweep(prob, q, lam)

    if q > 0.0:
        r = ev(0.0)
        if r.p_used <= over:
            return solver._Search.of(prob, q, r, 1, 0, "interior")

    lo = 0.0
    hi = 1.0
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
        if evals >= prob.cfg.i_inner_max:
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
    if bracket_sweeps > prob.cfg.i_inner_max:
        stop = "bracket-failure"
    return solver._Search.of(prob, q, best, bracket_sweeps,
                             evals - bracket_sweeps, stop)


def reference_water_fill(base, slopes, budget):
    """solver._water_fill as it was written on numpy's Python-level
    wrappers (np.argsort, np.cumsum, np.flatnonzero): the solver's form,
    on the methods those wrappers call, must match it bit for bit."""
    thresholds = -base / slopes
    order = np.argsort(thresholds, kind="stable")
    t = (budget - np.cumsum(base.take(order))) / np.cumsum(slopes.take(order))
    filled = np.flatnonzero(t > thresholds.take(order))
    return t.item(filled[-1]) if filled.size else thresholds.item(order[0])


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
    c = {"p_d": p_d, "x_d": x_d, "rate_d": np.log1p(x_d) / LN2,
         "cons_d": prob.xi_bs * p_d}
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
    c.update(p_a=p_a, x_a=x_a, beta=beta, rate_a=0.5 * np.log1p(x_a) / LN2,
             cons_a=0.5 * p_a * (beta * prob.xi_bs + (1.0 - beta) * prob.xi_rn))
    marg = np.stack([marg_d, marg_a], axis=1).reshape(2 * prob.n_users, -1)
    return marg, c


def reference_sweep(prob, q, lam):
    """Reference candidate sweep: winner-take-all over all 2KN candidates.

    The full sweep that the shortlisted solver._sweep must reproduce.
    Exact ties go to the lowest candidate index.  It can stand in for
    solver._sweep.
    """
    marg, c = reference_candidates(prob, q, lam)
    cols = np.arange(prob.n_subcarriers)
    flat = np.argmax(marg, axis=0)  # first max = lowest user, direct first

    if prob.has_af:
        winner_user = flat // 2
        winner_af = (flat % 2).astype(bool)
        wp_d = np.where(winner_af, 0.0, c["p_d"][winner_user, cols])
        wp_tot = np.where(winner_af, c["p_a"][winner_user, cols], 0.0)
        wbeta = c["beta"][winner_user, cols]
        wp_bs = wp_tot * wbeta
        wp_rn = wp_tot * (1.0 - wbeta)
        p_win = np.where(winner_af, wp_tot, wp_d)
        x_win = np.where(winner_af, c["x_a"][winner_user, cols],
                         c["x_d"][winner_user, cols])
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
        p_win = wp_d
        x_win = c["x_d"][winner_user, cols]
        rate = c["rate_d"][winner_user, cols]
        cons = c["cons_d"][winner_user, cols]
        winner_row = np.zeros(prob.n_subcarriers, dtype=np.intp)

    return solver._SweepResult(
        lam=lam,
        winner_user=winner_user,
        winner_af=winner_af,
        winner_row=winner_row,
        p_win=p_win,
        x_win=x_win,
        p_bs=wp_bs,
        p_rn=wp_rn,
        rate_sum=float(np.sum(rate)),
        cons_sum=float(np.sum(cons)),
        p_used=float(np.sum(wp_d) + np.sum(wp_bs) + np.sum(wp_rn)),
    )


def reference_menu_direct(gain, ngap, xi_bs, p_lo, p_hi, points):
    """Reference direct menu: rate, tx, cons and per-point (p_bs, p_rn,
    beta) arrays, as the oracle built them before it built menus in place."""
    p = np.geomspace(p_lo, p_hi, points)
    rate = np.log1p(p * gain / ngap) / LN2
    return dict(rate=rate, tx=p, cons=xi_bs * p, p_bs=p, p_rn=np.zeros_like(p),
                beta=None)


def reference_menu_af(g1, g2, ngap, xi_bs, xi_rn, p_lo, p_hi, p_points,
                      b_lo, b_hi, b_points):
    """Reference AF menu over the broadcast (power, split) grid, power-major."""
    p = np.geomspace(p_lo, p_hi, p_points)[:, None]
    b = np.linspace(b_lo, b_hi, b_points)[None, :]
    s1 = b * p * g1 / ngap
    s2 = (1.0 - b) * p * g2 / ngap
    tot = s1 + s2
    safe = np.where(tot > 0.0, tot, 1.0)
    # where s1*s2 can overflow the oracle forms s1*(s2/(s1 + s2))
    if float(s1.max()) * float(s2.max()) >= sys.float_info.max:
        snr = np.where(tot > 0.0, s1 * (s2 / safe), 0.0)
    else:
        snr = np.where(tot > 0.0, s1 * s2 / safe, 0.0)
    rate = 0.5 * np.log1p(snr) / LN2
    cons = 0.5 * (xi_bs * b + xi_rn * (1.0 - b)) * p
    tx = np.broadcast_to(p, rate.shape)
    bb = np.broadcast_to(b, rate.shape)
    return dict(rate=rate.ravel(), tx=tx.ravel(), cons=cons.ravel(),
                p_bs=(bb * tx).ravel(), p_rn=((1.0 - bb) * tx).ravel(),
                beta=bb.ravel())


def reference_tail(menu):
    """Reference menu tail: the points sorted by tx, then the distinct tx
    values with the prefix best rate and least cons at each."""
    order = np.argsort(menu["tx"], kind="stable")
    tx = menu["tx"][order]
    ends = np.flatnonzero(np.append(tx[1:] != tx[:-1], True))
    return (tx[ends], np.maximum.accumulate(menu["rate"][order])[ends],
            np.minimum.accumulate(menu["cons"][order])[ends])


def reference_scan_product(menus, p_max, p_fixed):
    """Reference oracle product scan: every combo of the full menus.

    The unpruned scan the bound-pruned oracle._scan_product must
    reproduce, winning indices and tie-breaking included.  Returns the
    max-EE and the max-rate _Best; either one can stand in for
    oracle._scan_product's answer for its objective.
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


def reference_brute_force(chan, cfg, grid=None):
    """Reference oracle: every assignment scanned in enumeration order.

    The loop the assignment-pruned oracle._brute_force must reproduce:
    strict > keeps the first assignment among equal scores.  Returns the
    (EEM, SEM) solutions.
    """
    grid = grid if grid is not None else oracle.GridSpec()
    pm = cfg.power_model()
    best_ee = best_rate = (-math.inf, None, None)   # score, active, point
    memo = {}
    for assignment in oracle.enumerate_assignments(cfg.n_users, cfg.n_subcarriers,
                                                   cfg.n_relays):
        active = [(n, slot[0], slot[1]) for n, slot in enumerate(assignment)
                  if slot is not None]
        ee, ee_point = oracle._scan_assignment(active, chan, cfg, pm, grid,
                                               True, memo)
        rate, rate_point = oracle._scan_assignment(active, chan, cfg, pm, grid,
                                                   False, memo)
        if ee > best_ee[0]:
            best_ee = (ee, active, ee_point)
        if rate > best_rate[0]:
            best_rate = (rate, active, rate_point)
    return tuple(oracle._solution_from(oracle._point_to_allocation(active, point, cfg),
                                       chan, cfg, pm)
                 for _, active, point in (best_ee, best_rate))


def reference_allocation(prob, sweep):
    """Per-subcarrier loop: the allocation solver._to_allocation must build."""
    entries = {}
    for n in range(prob.n_subcarriers):
        k = int(sweep.winner_user[n])
        if sweep.winner_af[n]:
            if sweep.p_bs[n] + sweep.p_rn[n] > 0.0:
                entries[(k, n)] = Af(float(sweep.p_bs[n]), float(sweep.p_rn[n]))
        elif sweep.p_win[n] > 0.0:
            entries[(k, n)] = Direct(float(sweep.p_win[n]))
    return Allocation(prob.n_users, prob.n_subcarriers, entries)


def reference_system_rate(alloc, chan, exact_snr=False):
    """Per-entry loop over alloc.entries: the sum model.system_rate must match."""
    if alloc.entries and chan.noise_gap <= 0.0:
        raise ValueError("noise_gap must be positive")
    ngap = chan.noise_gap
    total = 0.0
    for (k, n), e in alloc.entries.items():
        if isinstance(e, Direct):
            total += float(link_rate_direct(e.p_d * chan.g_bs_ue[k, n] / ngap))
            continue
        m = chan.sector_of_ue[k]
        s1 = e.p_bs * chan.g_bs_rn[m, n] / ngap
        s2 = e.p_rn * chan.g_rn_ue[k, n] / ngap
        if s1 + s2 <= 0.0:
            continue  # dead pair, carries nothing
        s = snr_af_exact(s1, s2) if exact_snr else s1 * s2 / (s1 + s2)
        total += float(link_rate_af(s))
    return total


def reference_system_power(alloc, pm, n_relays):
    total = pm.p_c_bs + n_relays * pm.p_c_rn
    for e in alloc.entries.values():
        if isinstance(e, Direct):
            total += pm.xi_bs * e.p_d
        else:
            total += 0.5 * (pm.xi_bs * e.p_bs + pm.xi_rn * e.p_rn)
    return total


def reference_tx_power_used(alloc):
    total = 0.0
    for e in alloc.entries.values():
        total += e.p_d if isinstance(e, Direct) else e.p_bs + e.p_rn
    return total


def reference_af_fraction(alloc):
    af_subcarriers = {n for (_, n), e in alloc.entries.items() if isinstance(e, Af)}
    return len(af_subcarriers) / alloc.n_subcarriers


def reference_check_feasibility(alloc, cfg, pm, tol=1e-9):
    """Per-entry loop: the violation list model.check_feasibility must match."""
    violations = []
    per_subcarrier = {}
    for k, n in alloc.entries:
        if not (0 <= k < alloc.n_users and 0 <= n < alloc.n_subcarriers):
            violations.append(
                f"index-range: user {k} subcarrier {n} outside "
                f"{alloc.n_users} users x {alloc.n_subcarriers} subcarriers")
    for (k, n), e in alloc.entries.items():
        powers = (e.p_d,) if isinstance(e, Direct) else (e.p_bs, e.p_rn)
        if any(p < 0.0 for p in powers):
            violations.append(f"negative-power: user {k} subcarrier {n}")
        per_subcarrier.setdefault(n, []).append(k)
    for n, users in sorted(per_subcarrier.items()):
        if len(users) > 1:
            violations.append(
                f"subcarrier-exclusivity: subcarrier {n} assigned to users {sorted(users)}"
            )
    used = reference_tx_power_used(alloc)
    if used > pm.p_max * (1.0 + tol):
        violations.append(
            f"power-budget: radiated {used:.6e} W exceeds budget {pm.p_max:.6e} W"
        )
    return violations


def reference_metrics(alloc, chan, cfg, pm, exact_snr=False):
    """model.compute_metrics assembled from the per-entry loops above."""
    rate = reference_system_rate(alloc, chan, exact_snr=exact_snr)
    power = reference_system_power(alloc, pm, cfg.n_relays)
    n = cfg.n_subcarriers
    return Metrics(
        rate_total=rate,
        rate_per_subcarrier=rate / n,
        power_total=power,
        ee=energy_efficiency(rate, power),
        ee_per_subcarrier=rate / n / power,
        rho=reference_af_fraction(alloc),
        tx_power_used=reference_tx_power_used(alloc),
    )
