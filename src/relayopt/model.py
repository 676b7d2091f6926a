"""Physical-layer math for a relay-aided OFDMA downlink.

SNR, rate, power-consumption and energy-efficiency formulas, plus
feasibility checking of allocations.  Pure functions throughout: watts
in, watts out; dBm only at the interface layer (see cli).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

LN2 = math.log(2.0)


def dbm_to_watts(x_dbm: float) -> float:
    """10^((x-30)/10); 30 dBm = 1 W."""
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watts_to_dbm(p_w: float) -> float:
    if p_w <= 0.0:
        raise ValueError("watts_to_dbm requires p > 0")
    return 10.0 * math.log10(p_w) + 30.0


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass
class PowerModel:
    """Consumed-power model: fixed circuitry plus amplifier drain."""

    p_c_bs: float = 60.0  # W, fixed BS consumption
    p_c_rn: float = 20.0  # W, fixed consumption per relay
    xi_bs: float = 2.6    # drain-efficiency reciprocal, BS amplifier
    xi_rn: float = 5.0    # drain-efficiency reciprocal, relay amplifier
    p_max: float = 1e-3   # W, total instantaneous transmit budget

    def validate(self) -> None:
        if not (self.xi_bs > 1.0 and self.xi_rn > 1.0):
            raise ValueError("drain-efficiency reciprocals must exceed 1")
        if self.p_c_bs < 0.0 or self.p_c_rn < 0.0:
            raise ValueError("fixed consumption terms must be >= 0")
        if not self.p_max > 0.0:
            raise ValueError("transmit budget must be positive")


@dataclass
class RadioConfig:
    """OFDMA dimensions and noise description."""

    n_subcarriers: int = 32
    n_users: int = 8
    n_relays: int = 3
    subcarrier_bw_hz: float = 12e3      # Hz per subcarrier
    noise_psd_dbm_hz: float = -174.0    # thermal noise floor
    snr_gap_db: float = 0.0             # gap to capacity of the transceiver

    @property
    def noise_gap_watts(self) -> float:
        """Per-subcarrier noise power scaled by the linear SNR gap."""
        return (
            db_to_linear(self.snr_gap_db)
            * dbm_to_watts(self.noise_psd_dbm_hz)
            * self.subcarrier_bw_hz
        )


@dataclass(frozen=True)
class Direct:
    """Single-hop BS->UE transmission on one subcarrier."""

    p_d: float  # W


@dataclass(frozen=True)
class Af:
    """Two-hop BS->RN->UE amplify-and-forward transmission."""

    p_bs: float  # W, first hop
    p_rn: float  # W, second hop

    @property
    def p_total(self) -> float:
        return self.p_bs + self.p_rn


Entry = Union[Direct, Af]


@dataclass
class Allocation:
    """Joint subcarrier/protocol/power assignment.

    `entries` maps (user, subcarrier) -> Direct or Af.  A feasible
    allocation has at most one entry per subcarrier; the representation
    deliberately allows invalid states so check_feasibility has
    something to do.
    """

    n_users: int
    n_subcarriers: int
    entries: dict = field(default_factory=dict)


@dataclass
class Metrics:
    rate_total: float           # bits/s/Hz, sum over allocated subcarriers
    rate_per_subcarrier: float  # bits/s/Hz, rate_total / N
    power_total: float          # W consumed
    ee: float                   # bits/Joule/Hz, rate_total / power_total
    ee_per_subcarrier: float    # bits/Joule/Hz, rate_per_subcarrier / power_total
    rho: float                  # fraction of subcarriers carrying AF
    tx_power_used: float        # W radiated, the budget-constraint sum


def snr_direct(power, gain, noise_gap):
    """Receiver SNR of a single hop: p*G / (gap * N0 * W)."""
    if np.any(np.asarray(noise_gap) <= 0.0):
        raise ValueError("noise_gap must be positive")
    return power * gain / noise_gap


def snr_af_exact(g1, g2):
    """End-to-end SNR of an amplify-and-forward pair of hops."""
    return g1 * g2 / (g1 + g2 + 1.0)


def snr_af_approx(g1, g2):
    """High-SNR approximation g1*g2/(g1+g2) of snr_af_exact.

    Undefined when both hop SNRs vanish.
    """
    s = g1 + g2
    if np.any(np.asarray(s) <= 0.0):
        raise ValueError("snr_af_approx requires g1 + g2 > 0")
    return g1 * g2 / s


def link_rate_direct(snr):
    return np.log1p(snr) / LN2


def link_rate_af(snr):
    # AF occupies two time slots, hence the half duty cycle
    return 0.5 * np.log1p(snr) / LN2


def _entry_rate(k: int, n: int, e: Entry, chan, exact_snr: bool) -> float:
    """snr_direct, snr_af_* and link_rate_* of one entry, minus their input
    checks: system_rate checks the noise gap once, and a pair with no
    hop SNR returns before the AF formulas."""
    ngap = chan.noise_gap
    if isinstance(e, Direct):
        return float(link_rate_direct(e.p_d * chan.g_bs_ue[k, n] / ngap))
    m = chan.sector_of_ue[k]
    s1 = e.p_bs * chan.g_bs_rn[m, n] / ngap
    s2 = e.p_rn * chan.g_rn_ue[k, n] / ngap
    if s1 + s2 <= 0.0:
        return 0.0  # dead pair, carries nothing
    s = snr_af_exact(s1, s2) if exact_snr else s1 * s2 / (s1 + s2)
    return float(link_rate_af(s))


def system_rate(alloc: Allocation, chan, cfg: RadioConfig, exact_snr: bool = False) -> float:
    """Sum rate over allocated subcarriers, bits/s/Hz.

    Un-normalized sum; divide by N for the per-subcarrier average that
    figures are usually plotted in.  AF terms use the harmonic-mean SNR
    approximation unless exact_snr is set.
    """
    if alloc.entries and chan.noise_gap <= 0.0:
        raise ValueError("noise_gap must be positive")
    total = 0.0
    for (k, n), e in alloc.entries.items():
        total += _entry_rate(k, n, e, chan, exact_snr)
    return total


def system_power(alloc: Allocation, pm: PowerModel, n_relays: int) -> float:
    """Total consumed power in watts: fixed circuitry + amplifier drain.

    AF amplifier terms carry a factor 1/2 because each hop is active for
    only half of the frame.
    """
    total = pm.p_c_bs + n_relays * pm.p_c_rn
    for e in alloc.entries.values():
        if isinstance(e, Direct):
            total += pm.xi_bs * e.p_d
        else:
            total += 0.5 * (pm.xi_bs * e.p_bs + pm.xi_rn * e.p_rn)
    return total


def tx_power_used(alloc: Allocation) -> float:
    """Radiated power summed as the budget constraint counts it (no duty factor)."""
    total = 0.0
    for e in alloc.entries.values():
        total += e.p_d if isinstance(e, Direct) else e.p_bs + e.p_rn
    return total


def energy_efficiency(rate: float, power: float) -> float:
    if power <= 0.0:
        raise ValueError("energy_efficiency requires positive power")
    return rate / power


def af_fraction(alloc: Allocation) -> float:
    af_subcarriers = {n for (_, n), e in alloc.entries.items() if isinstance(e, Af)}
    return len(af_subcarriers) / alloc.n_subcarriers


def check_feasibility(alloc: Allocation, cfg: RadioConfig, pm: PowerModel,
                      tol: float = 1e-9) -> list:
    """Return a list of violation strings; empty means feasible.

    Checks: non-negative powers, at most one active entry per
    subcarrier, and the radiated-power budget (with relative slack tol,
    since multiplier searches converge inexactly).
    """
    violations = []
    per_subcarrier: dict = {}
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
    used = tx_power_used(alloc)
    if used > pm.p_max * (1.0 + tol):
        violations.append(
            f"power-budget: radiated {used:.6e} W exceeds budget {pm.p_max:.6e} W"
        )
    return violations


def compute_metrics(alloc: Allocation, chan, cfg: RadioConfig, pm: PowerModel,
                    exact_snr: bool = False) -> Metrics:
    """Assemble the full metric set for one allocation."""
    rate = system_rate(alloc, chan, cfg, exact_snr=exact_snr)
    power = system_power(alloc, pm, cfg.n_relays)
    n = cfg.n_subcarriers
    return Metrics(
        rate_total=rate,
        rate_per_subcarrier=rate / n,
        power_total=power,
        ee=energy_efficiency(rate, power),
        ee_per_subcarrier=rate / n / power,
        rho=af_fraction(alloc),
        tx_power_used=tx_power_used(alloc),
    )
