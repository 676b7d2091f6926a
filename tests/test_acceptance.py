"""End-to-end acceptance gate.

Eight numbered criteria covering oracle equivalence, solver invariants,
EEM/SEM orderings, Monte-Carlo trends, and closed-form identities.
Each test records one `criterion N: PASS/FAIL` line; conftest echoes
them after the run.
"""

import math
import time

import numpy as np
from scipy.stats import spearmanr

from helpers import beta_quotient, dominance_holds, kkt_residuals
from relayopt.channel import generate_instance
from relayopt.config import SystemConfig
from relayopt.experiments import SweepSpec, run_sweep
from relayopt.model import (Af, Allocation, Direct, PowerModel, snr_af_approx,
                            snr_af_exact, system_power)
from relayopt.oracle import brute_force_eem
from relayopt.solver import af_beta, solve_eem, solve_sem

import pytest

VERDICTS = {}


def _verdict(n: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    VERDICTS[n] = line
    print(line)


@pytest.fixture(scope="module")
def dinkelbach_set():
    """100 solved instances at K=8, N=16, M=2 (stock everything else)."""
    cfg = SystemConfig(n_users=8, n_subcarriers=16, n_relays=2)
    rows = []
    for i in range(100):
        seed = cfg.master_seed + i
        _, chan = generate_instance(cfg, seed)
        rows.append((seed, chan, solve_eem(chan, cfg)))
    return cfg, rows


@pytest.fixture(scope="module")
def sem_set(dinkelbach_set):
    cfg, rows = dinkelbach_set
    return [solve_sem(chan, cfg) for _, chan, _ in rows]


def test_criterion_1_oracle_certification():
    cfg = SystemConfig(n_users=2, n_subcarriers=2, n_relays=1, p_max_dbm=0.0)
    t0 = time.perf_counter()
    worst = math.inf
    for i in range(20):
        _, chan = generate_instance(cfg, cfg.master_seed + i)
        sol = solve_eem(chan, cfg)
        ora = brute_force_eem(chan, cfg)
        worst = min(worst, (sol.metrics.ee - ora.metrics.ee) / ora.metrics.ee)
    elapsed = time.perf_counter() - t0
    ok = worst >= -0.01 and elapsed <= 60.0
    _verdict(1, ok, f"min relative gap {worst:+.2e}, {elapsed:.1f}s")
    assert worst >= -0.01
    assert elapsed <= 60.0


def test_criterion_2_dinkelbach_invariants(dinkelbach_set):
    _, rows = dinkelbach_set
    monotone = residual_ok = converged = 0
    for _, _, sol in rows:
        q = [s.ratio for s in sol.trace.iterations]
        monotone += all(b - a >= -1e-12 for a, b in zip(q, q[1:]))
        residual_ok += (abs(sol.trace.f_residual)
                        <= 1e-6 * sol.metrics.power_total)
        converged += sol.trace.termination == "converged"
    ok = monotone == 100 and residual_ok == 100 and converged >= 99
    _verdict(2, ok, f"monotone {monotone}/100, residual {residual_ok}/100, "
                    f"converged {converged}/100")
    assert monotone == 100
    assert residual_ok == 100
    assert converged >= 99


def test_criterion_3_kkt_residuals(dinkelbach_set):
    cfg, rows = dinkelbach_set
    worst_resid = 0.0
    dominated = total = 0
    for _, chan, sol in rows:
        if sol.trace.termination != "converged":
            continue
        total += 1
        resids = kkt_residuals(sol, chan, cfg)
        if resids:
            worst_resid = max(worst_resid, max(resids))
        dominated += dominance_holds(sol, chan, cfg)
    ok = worst_resid <= 1e-6 and dominated == total and total > 0
    _verdict(3, ok, f"max KKT residual {worst_resid:.2e}, "
                    f"dominance {dominated}/{total}")
    assert total > 0
    assert worst_resid <= 1e-6
    assert dominated == total


def test_criterion_4_eem_sem_ordering(dinkelbach_set, sem_set):
    cfg, rows = dinkelbach_set

    orderings = 0
    for (_, _, eem), sem in zip(rows, sem_set):
        ee_ok = eem.metrics.ee >= sem.metrics.ee * (1.0 - 1e-9)
        se_ok = sem.metrics.rate_total >= eem.metrics.rate_total * (1.0 - 1e-9)
        orderings += ee_ok and se_ok

    # below the EE threshold the two problems coincide
    low = SystemConfig(n_users=8, n_subcarriers=16, n_relays=2,
                       p_max_dbm=-30.0)
    agree = 0
    n_low = 50
    for i in range(n_low):
        _, chan = generate_instance(low, low.master_seed + i)
        eem = solve_eem(chan, low).metrics
        sem = solve_sem(chan, low).metrics
        ee_close = abs(eem.ee - sem.ee) <= 1e-3 * sem.ee
        se_close = abs(eem.rate_total - sem.rate_total) \
            <= 1e-3 * sem.rate_total
        agree += ee_close and se_close

    # EE saturates as the budget opens up
    grid_ok = saturated = 0
    n_sweep = 10
    budgets = list(range(-10, 61, 5))
    for i in range(n_sweep):
        _, chan = generate_instance(cfg, cfg.master_seed + i)
        ees = []
        for dbm in budgets:
            cfg_b = SystemConfig(n_users=8, n_subcarriers=16, n_relays=2,
                                 p_max_dbm=float(dbm))
            ees.append(solve_eem(chan, cfg_b).metrics.ee)
        grid_ok += all(b >= a * (1.0 - 1e-9) for a, b in zip(ees, ees[1:]))
        saturated += abs(ees[-1] - ees[-2]) < 1e-3 * ees[-2]

    ok = (orderings == 100 and agree == n_low
          and grid_ok == n_sweep and saturated == n_sweep)
    _verdict(4, ok, f"orderings {orderings}/100, low-budget agreement "
                    f"{agree}/{n_low}, monotone budget sweeps "
                    f"{grid_ok}/{n_sweep}, saturated {saturated}/{n_sweep}")
    assert orderings == 100
    assert agree == n_low
    assert grid_ok == n_sweep
    assert saturated == n_sweep


def test_criterion_5_relaying_and_cell_size():
    radii = [0.75, 1.0, 1.5, 2.0]
    spec = SweepSpec(
        name="radius-acceptance",
        base=SystemConfig(n_users=8, n_subcarriers=32, master_seed=1),
        axes={"cell_radius_km": radii, "n_relays": [0, 3]},
        samples=200, algorithms=("EEM",))
    records = run_sweep(spec)
    by_key = {(r.cell_radius_km, r.n_relays): r for r in records}
    rho = [by_key[(r, 3)].rho_mean for r in radii]
    corr = float(spearmanr(radii, rho).statistic)
    ee_below = all(by_key[(r, 3)].ee_mean < by_key[(r, 0)].ee_mean
                   for r in radii)
    ok = corr >= 0.9 and ee_below
    _verdict(5, ok, f"rho {['%.3f' % v for v in rho]}, spearman {corr:.2f}, "
                    f"EE(M=3) < EE(M=0) at all radii: {ee_below}")
    assert corr >= 0.9
    assert ee_below


def test_criterion_6_relay_placement():
    ratios = [0.1, 0.3, 0.5, 0.7, 0.9]
    t0 = time.perf_counter()
    spec = SweepSpec(
        name="placement-acceptance",
        base=SystemConfig(n_users=8, n_subcarriers=32, n_relays=3,
                          cell_radius_km=1.5, p_max_dbm=0.0, master_seed=1),
        axes={"d_r": ratios},
        samples=200, algorithms=("EEM",))
    records = run_sweep(spec)
    elapsed = time.perf_counter() - t0
    ee = [r.ee_mean for r in records]
    best = ratios[int(np.argmax(ee))]
    ok = best <= 0.5 and elapsed <= 600.0
    _verdict(6, ok, f"EE argmax at d_r={best}, {elapsed:.1f}s")
    assert best <= 0.5
    assert elapsed <= 600.0


def test_criterion_7_beta_equivalence():
    rng = np.random.default_rng(2026)
    n = 10_000
    q = 10.0 ** rng.uniform(-4.0, 1.0, n)
    q[rng.random(n) < 0.1] = 0.0
    lam = 10.0 ** rng.uniform(-6.0, 4.0, n)
    g1 = 10.0 ** rng.uniform(-14.0, -4.0, n)
    g2 = 10.0 ** rng.uniform(-14.0, -4.0, n)
    xi_b = rng.uniform(1.1, 8.0, n)
    xi_r = rng.uniform(1.1, 8.0, n)

    checked = skipped = 0
    worst = 0.0
    for i in range(n):
        a = q[i] * xi_b[i] + 2.0 * lam[i]
        b = q[i] * xi_r[i] + 2.0 * lam[i]
        if abs(g1[i] * a - g2[i] * b) < 1e-5 * (g1[i] * a + g2[i] * b):
            skipped += 1  # the quotient form is near its 0/0 there
            continue
        stable = af_beta(q[i], lam[i], g1[i], g2[i], xi_b[i], xi_r[i])
        ref = beta_quotient(q[i], lam[i], g1[i], g2[i], xi_b[i], xi_r[i])
        worst = max(worst, abs(stable - ref) / ref)
        checked += 1

    # symmetric tuples: the quotient is 0/0 but the split is exactly 1/2
    symmetric_exact = True
    for i in range(100):
        g = float(10.0 ** rng.uniform(-12.0, -4.0))
        lam_s = float(10.0 ** rng.uniform(-4.0, 2.0))
        qq = float(10.0 ** rng.uniform(-3.0, 0.0))
        xi = float(rng.uniform(1.1, 8.0))
        a = qq * xi + 2.0 * lam_s
        assert g * a - g * a == 0.0  # quotient denominator vanishes
        symmetric_exact &= af_beta(qq, lam_s, g, g, xi, xi) == 0.5
        symmetric_exact &= af_beta(0.0, lam_s, g, g, 2.6, 5.0) == 0.5

    ok = worst <= 1e-9 and symmetric_exact and skipped <= 0.01 * n
    _verdict(7, ok, f"checked {checked}, max relative error {worst:.2e}, "
                    f"symmetric exact: {symmetric_exact}")
    assert checked > 0.99 * n
    assert worst <= 1e-9
    assert symmetric_exact


def test_criterion_8_model_identities():
    pm = PowerModel()  # 60 W, 20 W, 2.6, 5.0
    idle = system_power(Allocation(1, 1, {}), pm, n_relays=3)
    direct = system_power(Allocation(1, 1, {(0, 0): Direct(1.0)}), pm,
                          n_relays=0)
    af = system_power(Allocation(1, 1, {(0, 0): Af(2.0, 2.0)}), pm,
                      n_relays=1)
    hand_ok = idle == 120.0 and direct == 62.6 and af == 87.6

    rng = np.random.default_rng(99)
    g1 = 10.0 ** rng.uniform(-12.0, 8.0, 100_000)
    g2 = 10.0 ** rng.uniform(-12.0, 8.0, 100_000)
    exact = snr_af_exact(g1, g2)
    approx = snr_af_approx(g1, g2)
    strict = bool(np.all(exact < approx))
    degenerate_equal = (snr_af_exact(0.0, 5.0) == snr_af_approx(0.0, 5.0)
                        and snr_af_exact(7.0, 0.0) == snr_af_approx(7.0, 0.0))

    ok = hand_ok and strict and degenerate_equal
    _verdict(8, ok, f"hand values exact: {hand_ok}, strict bound on 1e5 "
                    f"pairs: {strict}, degenerate equality: {degenerate_equal}")
    assert hand_ok
    assert strict
    assert degenerate_equal
