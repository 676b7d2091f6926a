"""Physical-layer math for a relay-aided OFDMA downlink.

SNR, rate, power-consumption and energy-efficiency formulas, plus
feasibility checking of allocations.  Pure functions throughout: watts
in, watts out; dBm only at the interface layer (see cli).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Optional

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


@dataclass
class RadioConfig:
    """OFDMA dimensions and noise description."""

    n_subcarriers: int = 32
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


class Allocation:
    """Joint subcarrier/protocol/power assignment, one array slot per entry.

    Entry i gives subcarrier[i] to user[i], over two amplify-and-forward
    hops if af[i] is set; p_bs[i] is its BS power (the whole power of a
    direct entry) and p_rn[i] its relay power (0 for a direct entry).
    Allocation(n_users, n_subcarriers, {(user, subcarrier): Direct or
    Af}) lays the entries out in the dict's order, and `entries` reads
    them back as a read-only (user, subcarrier) -> Direct or Af view.
    A feasible allocation has at most one entry per subcarrier; the
    representation deliberately allows invalid states so
    check_feasibility has something to do.
    """

    def __init__(self, n_users: int, n_subcarriers: int,
                 entries: Optional[dict] = None):
        rows = [(k, n, True, e.p_bs, e.p_rn) if isinstance(e, Af)
                else (k, n, False, e.p_d, 0.0)
                for (k, n), e in (entries or {}).items()]
        self._set(n_users, n_subcarriers, *(zip(*rows) if rows else [()] * 5))

    @classmethod
    def from_arrays(cls, n_users: int, n_subcarriers: int, user, subcarrier,
                    af, p_bs, p_rn) -> "Allocation":
        """The allocation whose entry i is (user[i], subcarrier[i], ...).

        Copies every column, so the caller's arrays stay its own.
        """
        alloc = cls.__new__(cls)
        alloc._set(n_users, n_subcarriers, user, subcarrier, af, p_bs, p_rn)
        return alloc

    def _set(self, n_users, n_subcarriers, *columns):
        self.n_users = n_users
        self.n_subcarriers = n_subcarriers
        arrays = [np.array(c, dtype=t) for c, t in
                  zip(columns, (np.intp, np.intp, bool, float, float))]
        if any(a.ndim != 1 or a.shape != arrays[0].shape for a in arrays):
            raise ValueError("allocation arrays must be 1-D and of one length")
        for name, arr in zip(_ENTRY_FIELDS, arrays):
            arr.flags.writeable = False
            setattr(self, name, arr)
        self._view = None

    @property
    def entries(self):
        """(user, subcarrier) -> Direct or Af, in entry order; read-only."""
        if self._view is None:
            self._view = {
                (k, n): Af(pb, pr) if a else Direct(pb)
                for k, n, a, pb, pr in zip(*(getattr(self, f).tolist()
                                             for f in _ENTRY_FIELDS))}
        return MappingProxyType(self._view)

    def __eq__(self, other):
        if not isinstance(other, Allocation):
            return NotImplemented
        return (self.n_users == other.n_users
                and self.n_subcarriers == other.n_subcarriers
                and all(np.array_equal(getattr(self, f), getattr(other, f))
                        for f in _ENTRY_FIELDS))

    def __repr__(self) -> str:
        return (f"Allocation({self.n_users!r}, {self.n_subcarriers!r}, "
                f"{dict(self.entries)!r})")


_ENTRY_FIELDS = ("user", "subcarrier", "af", "p_bs", "p_rn")


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
    _check_noise_gap(noise_gap)
    return _snr_direct(power, gain, noise_gap)


def _check_noise_gap(noise_gap):
    if (np.asarray(noise_gap) <= 0.0).any():
        raise ValueError("noise_gap must be positive")


def _snr_direct(power, gain, noise_gap):  # snr_direct, unchecked
    return power * gain / noise_gap


def snr_af_exact(g1, g2):
    """End-to-end SNR of an amplify-and-forward pair of hops."""
    return g1 * g2 / (g1 + g2 + 1.0)


def snr_af_approx(g1, g2):
    """High-SNR approximation g1*g2/(g1+g2) of snr_af_exact.

    Undefined when both hop SNRs vanish.
    """
    if (np.asarray(g1 + g2) <= 0.0).any():
        raise ValueError("snr_af_approx requires g1 + g2 > 0")
    return _snr_af_approx(g1, g2)


def _snr_af_approx(g1, g2):  # snr_af_approx, unchecked
    return g1 * g2 / (g1 + g2)


def link_rate_direct(snr):
    return np.log1p(snr) / LN2


def link_rate_af(snr):
    # AF occupies two time slots, hence the half duty cycle
    return 0.5 * np.log1p(snr) / LN2


def _sum_in_order(terms: np.ndarray, start: float = 0.0) -> float:
    """start + terms[0] + terms[1] + ..., one addition at a time.

    np.add.accumulate adds strictly left to right, as a loop over the
    entries would; ndarray.sum adds pairwise and the builtin sum is
    compensated on Python >= 3.12, so either could move the last bit.
    """
    return float(np.add.accumulate(np.concatenate(([start], terms)))[-1])


def system_rate(alloc: Allocation, chan, exact_snr: bool = False) -> float:
    """Sum rate over allocated subcarriers, bits/s/Hz.

    Un-normalized sum; divide by N for the per-subcarrier average that
    figures are usually plotted in.  AF terms use the harmonic-mean SNR
    approximation unless exact_snr is set.
    """
    if not alloc.user.size:
        return 0.0
    k, n, af, ngap = alloc.user, alloc.subcarrier, alloc.af, chan.noise_gap
    _check_noise_gap(ngap)  # once: the SNRs below skip the public checks
    rate = np.zeros(k.shape)
    d = ~af
    rate[d] = link_rate_direct(
        _snr_direct(alloc.p_bs[d], chan.g_bs_ue[k[d], n[d]], ngap))
    if af.any():
        k, n = k[af], n[af]
        s1 = _snr_direct(alloc.p_bs[af], chan.g_bs_rn[chan.sector_of_ue[k], n],
                         ngap)
        s2 = _snr_direct(alloc.p_rn[af], chan.g_rn_ue[k, n], ngap)
        live = ~(s1 + s2 <= 0.0)  # a pair with no hop SNR carries nothing
        snr = (snr_af_exact if exact_snr else _snr_af_approx)(s1[live], s2[live])
        rate[af.nonzero()[0][live]] = link_rate_af(snr)
    return _sum_in_order(rate)


def circuit_power(pm: PowerModel, n_relays: int) -> float:
    """Fixed consumption in watts: the BS plus n_relays relays."""
    return pm.p_c_bs + n_relays * pm.p_c_rn


def system_power(alloc: Allocation, pm: PowerModel, n_relays: int) -> float:
    """Total consumed power in watts: fixed circuitry + amplifier drain.

    AF amplifier terms carry a factor 1/2 because each hop is active for
    only half of the frame.
    """
    drain = np.where(alloc.af,
                     0.5 * (pm.xi_bs * alloc.p_bs + pm.xi_rn * alloc.p_rn),
                     pm.xi_bs * alloc.p_bs)
    return _sum_in_order(drain, circuit_power(pm, n_relays))


def tx_power_used(alloc: Allocation) -> float:
    """Radiated power summed as the budget constraint counts it (no duty factor)."""
    return _sum_in_order(alloc.p_bs + alloc.p_rn)


def energy_efficiency(rate: float, power: float) -> float:
    if power <= 0.0:
        raise ValueError("energy_efficiency requires positive power")
    return rate / power


def af_fraction(alloc: Allocation) -> float:
    # a set, not np.unique, here and in check_feasibility: the first
    # np.unique call imports numpy.ma, about 1 MB of peak memory
    return len(set(alloc.subcarrier[alloc.af].tolist())) / alloc.n_subcarriers


# relative slack of the budget check: multiplier searches converge inexactly
_BUDGET_RTOL = 1e-9


def _out_of_range(alloc: Allocation) -> np.ndarray:
    """Mask of the entries whose user or subcarrier lies outside the
    allocation's n_users x n_subcarriers."""
    return ((alloc.user < 0) | (alloc.user >= alloc.n_users)
            | (alloc.subcarrier < 0) | (alloc.subcarrier >= alloc.n_subcarriers))


def _entries_at(alloc: Allocation, mask: np.ndarray) -> list:
    if not np.count_nonzero(mask):  # the common case: no index, no list
        return []
    return [f"user {k} subcarrier {n}" for k, n in
            zip(alloc.user[mask].tolist(), alloc.subcarrier[mask].tolist())]


def check_feasibility(alloc: Allocation, cfg: RadioConfig, pm: PowerModel) -> list:
    """Return a list of violation strings; empty means feasible.

    Checks: user and subcarrier indices within the allocation's
    dimensions, non-negative powers, at most one active entry per
    subcarrier, and the radiated-power budget (with relative slack
    _BUDGET_RTOL).  `cfg` is not read; it stays for callers that pass
    the radio configuration by position.
    """
    violations = [f"index-range: {e} outside {alloc.n_users} users x "
                  f"{alloc.n_subcarriers} subcarriers"
                  for e in _entries_at(alloc, _out_of_range(alloc))]
    neg = (alloc.p_bs < 0.0) | (alloc.p_rn < 0.0)
    violations += [f"negative-power: {e}" for e in _entries_at(alloc, neg)]
    carriers = np.sort(alloc.subcarrier)
    for n in sorted(set(carriers[1:][carriers[1:] == carriers[:-1]].tolist())):
        users = sorted(alloc.user[alloc.subcarrier == n].tolist())
        violations.append(
            f"subcarrier-exclusivity: subcarrier {n} assigned to users {users}"
        )
    used = tx_power_used(alloc)
    if used > pm.p_max * (1.0 + _BUDGET_RTOL):
        violations.append(
            f"power-budget: radiated {used:.6e} W exceeds budget {pm.p_max:.6e} W"
        )
    return violations


def compute_metrics(alloc: Allocation, chan, cfg: RadioConfig, pm: PowerModel,
                    exact_snr: bool = False) -> Metrics:
    """Assemble the full metric set for one allocation.

    An entry whose user or subcarrier lies outside the allocation's
    dimensions raises ValueError: it would index the channel arrays
    out of range, or wrap around from their end.
    """
    bad = _entries_at(alloc, _out_of_range(alloc))
    if bad:
        raise ValueError(f"allocation entry {bad[0]} outside "
                         f"{alloc.n_users} users x {alloc.n_subcarriers} "
                         "subcarriers")
    rate = system_rate(alloc, chan, exact_snr=exact_snr)
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
