import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayopt.model import (Af, Allocation, Direct, PowerModel, RadioConfig,
                            af_fraction, check_feasibility, compute_metrics,
                            dbm_to_watts, energy_efficiency, link_rate_af,
                            link_rate_direct, snr_af_approx, snr_af_exact,
                            snr_direct, system_power, system_rate,
                            tx_power_used, watts_to_dbm)


def test_dbm_to_watts_anchor_points():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1.0e-3, rel=1e-12)
    # thermal noise floor reference, cross-checked at high precision
    assert dbm_to_watts(-174.0) == pytest.approx(3.981071705534972e-21, rel=1e-12)


def test_watts_to_dbm_roundtrip():
    for dbm in (-174.0, -30.0, 0.0, 17.5, 46.0):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-9)
    for p_w in (0.0, -1.0):
        with pytest.raises(ValueError, match="p > 0"):
            watts_to_dbm(p_w)


def test_snr_direct():
    assert snr_direct(2.0, 3.0, 6.0) == 1.0
    assert snr_direct(0.0, 5.0, 1.0) == 0.0
    assert snr_direct(1.0, 1e-10, 4.7776e-17) == pytest.approx(2.0931e6, rel=1e-4)
    with pytest.raises(ValueError):
        snr_direct(1.0, 1.0, 0.0)


def test_snr_af_exact_values():
    assert snr_af_exact(1.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert snr_af_exact(0.0, 7.0) == 0.0
    v = snr_af_exact(1e6, 1e6)
    assert v == pytest.approx(499999.75, rel=1e-6)
    assert v < min(1e6, 1e6)


def test_snr_af_approx_values():
    assert snr_af_approx(1.0, 1.0) == 0.5
    assert snr_af_approx(3.0, 6.0) == 2.0
    assert snr_af_approx(1e6, 1e6) == pytest.approx(5e5, rel=1e-12)
    assert abs(snr_af_approx(1e6, 1e6) - snr_af_exact(1e6, 1e6)) \
        / snr_af_exact(1e6, 1e6) <= 1e-6
    with pytest.raises(ValueError):
        snr_af_approx(0.0, 0.0)


@given(st.floats(min_value=0.0, max_value=1e12),
       st.floats(min_value=1e-12, max_value=1e12))
@settings(max_examples=300, deadline=None)
def test_af_exact_bounded_by_approx_and_min(g1, g2):
    exact = snr_af_exact(g1, g2)
    assert exact <= snr_af_approx(g1, g2) + 1e-12
    assert exact <= min(g1, g2) + 1e-12


@given(st.floats(min_value=10.0, max_value=1e9),
       st.floats(min_value=10.0, max_value=1e9))
@settings(max_examples=200, deadline=None)
def test_af_approx_error_bound_high_snr(g1, g2):
    exact = snr_af_exact(g1, g2)
    approx = snr_af_approx(g1, g2)
    assert abs(approx - exact) / exact <= 2.0 / min(g1, g2)


def test_link_rates():
    assert link_rate_direct(1.0) == 1.0
    assert link_rate_direct(3.0) == pytest.approx(2.0, rel=1e-15)
    assert link_rate_af(1.0) == 0.5
    assert link_rate_direct(0.0) == 0.0


def _tiny_channel(k=2, n=2, m=1, noise_gap=1.0):
    """Hand-built deterministic gains for value-level checks."""
    from relayopt.channel import ChannelRealization
    g_bs_ue = np.arange(1.0, 1.0 + k * n).reshape(k, n)
    g_bs_rn = np.full((m, n), 8.0) if m else np.zeros((0, n))
    g_rn_ue = np.full((k, n), 4.0) if m else None
    sectors = np.zeros(k, dtype=int) if m else None
    return ChannelRealization(g_bs_ue=g_bs_ue, g_bs_rn=g_bs_rn,
                              g_rn_ue=g_rn_ue, sector_of_ue=sectors,
                              noise_gap=noise_gap)


def test_system_rate_idle_and_single_entry():
    chan = _tiny_channel()
    empty = Allocation(2, 2, {})
    assert system_rate(empty, chan) == 0.0
    # direct entry arranged for snr exactly 1: p*g/ngap = 1
    alloc = Allocation(2, 2, {(0, 0): Direct(1.0)})  # g_bs_ue[0,0] = 1
    assert system_rate(alloc, chan) == pytest.approx(1.0, rel=1e-15)


def test_system_rate_matches_hand_summation():
    chan = _tiny_channel()
    alloc = Allocation(2, 2, {(0, 0): Direct(0.7), (1, 1): Af(0.3, 0.2)})
    g1 = chan.g_bs_rn[0, 1] * 0.3 / chan.noise_gap
    g2 = chan.g_rn_ue[1, 1] * 0.2 / chan.noise_gap
    expect = (math.log2(1.0 + 0.7 * chan.g_bs_ue[0, 0] / chan.noise_gap)
              + 0.5 * math.log2(1.0 + g1 * g2 / (g1 + g2)))
    assert system_rate(alloc, chan) == pytest.approx(expect, rel=1e-12)
    exact = system_rate(alloc, chan, exact_snr=True)
    assert exact <= system_rate(alloc, chan)


@pytest.mark.parametrize("noise_gap", [0.0, -1.0])
@pytest.mark.parametrize("entries", [{(0, 0): Direct(0.7)},
                                     {(1, 1): Af(0.3, 0.2)}])
def test_system_rate_rejects_a_non_positive_noise_gap(noise_gap, entries):
    # system_rate checks the gap once and skips the public SNR checks
    alloc = Allocation(2, 2, entries)
    for exact_snr in (False, True):
        with pytest.raises(ValueError, match="noise_gap"):
            system_rate(alloc, _tiny_channel(noise_gap=noise_gap),
                        exact_snr=exact_snr)


def test_system_power_hand_values():
    pm = PowerModel()  # 60 W / 20 W / 2.6 / 5.0
    idle = Allocation(1, 1, {})
    assert system_power(idle, pm, n_relays=3) == 120.0
    one_direct = Allocation(1, 1, {(0, 0): Direct(1.0)})
    assert system_power(one_direct, pm, n_relays=0) == 62.6
    one_af = Allocation(1, 1, {(0, 0): Af(2.0, 2.0)})
    assert system_power(one_af, pm, n_relays=1) == 87.6


def test_system_power_affine_in_powers():
    pm = PowerModel()
    rng = np.random.default_rng(5)
    entries = {(0, n): Direct(float(rng.uniform(0.1, 2))) for n in range(3)}
    entries[(1, 3)] = Af(0.4, 0.9)
    alloc = Allocation(2, 4, entries)
    doubled = Allocation(2, 4, {
        kn: (Direct(e.p_d * 2) if isinstance(e, Direct) else Af(e.p_bs * 2, e.p_rn * 2))
        for kn, e in entries.items()})
    fixed = system_power(Allocation(2, 4, {}), pm, n_relays=2)
    var = system_power(alloc, pm, n_relays=2) - fixed
    var2 = system_power(doubled, pm, n_relays=2) - fixed
    assert var2 == pytest.approx(2.0 * var, rel=1e-12)


def test_tx_power_used_is_raw_sum():
    alloc = Allocation(2, 3, {(0, 0): Direct(0.25), (1, 2): Af(0.5, 0.125)})
    assert tx_power_used(alloc) == pytest.approx(0.875, rel=1e-15)


def test_energy_efficiency():
    assert energy_efficiency(0.0, 120.0) == 0.0
    assert energy_efficiency(2.0, 100.0) == 0.02
    with pytest.raises(ValueError):
        energy_efficiency(1.0, 0.0)
    # ratio scaling: scaling the rate by c scales EE by c
    assert energy_efficiency(3.0 * 7.0, 50.0) == pytest.approx(
        7.0 * energy_efficiency(3.0, 50.0), rel=1e-12)


def test_af_fraction_counting():
    assert af_fraction(Allocation(2, 4, {})) == 0.0
    all_af = Allocation(1, 2, {(0, 0): Af(0.1, 0.1), (0, 1): Af(0.1, 0.1)})
    assert af_fraction(all_af) == 1.0
    one = Allocation(2, 4, {(0, 0): Af(0.1, 0.1), (1, 1): Direct(0.2)})
    assert af_fraction(one) == 0.25


def test_check_feasibility_cases():
    cfg = RadioConfig(n_subcarriers=2, n_relays=1)
    pm = PowerModel(p_max=1.0)
    assert check_feasibility(Allocation(2, 2, {}), cfg, pm) == []
    # double booking one subcarrier
    clash = Allocation(2, 2, {(0, 0): Direct(0.1), (1, 0): Direct(0.1)})
    viols = check_feasibility(clash, cfg, pm)
    assert any("subcarrier-exclusivity" in v for v in viols)
    # budget boundary is feasible
    edge = Allocation(2, 2, {(0, 0): Direct(0.5), (1, 1): Af(0.25, 0.25)})
    assert check_feasibility(edge, cfg, pm) == []
    # beyond it is not
    over = Allocation(2, 2, {(0, 0): Direct(0.9), (1, 1): Direct(0.2)})
    assert any("power-budget" in v for v in check_feasibility(over, cfg, pm))
    neg = Allocation(2, 2, {(0, 0): Direct(-0.1)})
    assert any("negative-power" in v for v in check_feasibility(neg, cfg, pm))


def test_radio_config_noise_gap():
    cfg = RadioConfig()
    # -174 dBm/Hz over 12 kHz, no SNR gap
    assert cfg.noise_gap_watts == pytest.approx(4.777286046641966e-17, rel=1e-12)
    gapped = RadioConfig(snr_gap_db=3.0)
    assert gapped.noise_gap_watts == pytest.approx(
        cfg.noise_gap_watts * 10 ** 0.3, rel=1e-12)


def test_compute_metrics_consistency():
    cfg = RadioConfig(n_subcarriers=2, n_relays=1)
    pm = PowerModel(p_max=2.0)
    chan = _tiny_channel()
    alloc = Allocation(2, 2, {(0, 0): Direct(0.7), (1, 1): Af(0.3, 0.2)})
    met = compute_metrics(alloc, chan, cfg, pm)
    assert met.rate_total == pytest.approx(system_rate(alloc, chan), rel=1e-15)
    assert met.power_total == pytest.approx(system_power(alloc, pm, 1), rel=1e-15)
    assert met.ee == pytest.approx(met.rate_total / met.power_total, rel=1e-15)
    assert met.rate_per_subcarrier == pytest.approx(met.rate_total / 2, rel=1e-15)
    assert met.ee_per_subcarrier == pytest.approx(met.ee / 2, rel=1e-15)
    assert met.rho == 0.5
    assert met.tx_power_used == pytest.approx(1.2, rel=1e-12)
