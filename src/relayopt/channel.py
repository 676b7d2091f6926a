"""Cell geometry and channel realizations.

BS at the origin, relays on a ring, UEs uniform over the disc.  Gains
are distance path loss times i.i.d. unit-mean exponential fading
(squared Rayleigh envelope), drawn per link and subcarrier.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # avoid a runtime import cycle with config
    from .config import SystemConfig

LINK_CLASSES = ("bs_rn_los", "bs_ue_nlos", "rn_ue_nlos")


@dataclass
class PathLossClass:
    intercept_db: float
    slope_db: float  # dB per decade of distance

    def loss_db(self, d_m, min_loss_db):
        d_m = np.asarray(d_m, dtype=float)
        if (d_m <= 0.0).any():
            raise ValueError("path loss undefined for non-positive distance")
        return np.maximum(self.intercept_db + self.slope_db * np.log10(d_m / 1000.0),
                          min_loss_db)


@dataclass
class PathLossModel:
    """Per-link-class log-distance curves (3GPP-style relay-scenario defaults)."""

    bs_rn_los: PathLossClass = field(default_factory=lambda: PathLossClass(100.7, 23.5))
    bs_ue_nlos: PathLossClass = field(default_factory=lambda: PathLossClass(131.1, 42.8))
    # effective access curve between the pure LOS (103.8 + 20.9) and pure
    # NLOS (145.4 + 37.5) relay-UE curves: street-level relays see their own
    # sector with high LOS probability, and under the pure-NLOS curve relayed
    # links carry negligible rate at milliwatt budgets
    rn_ue_nlos: PathLossClass = field(default_factory=lambda: PathLossClass(125.0, 36.0))
    min_coupling_loss_db: float = 40.0  # floor; UEs can land arbitrarily close

    def validate(self) -> None:
        for name in LINK_CLASSES:
            cls = getattr(self, name)
            _require_real(f"pathloss.{name}.intercept_db", cls.intercept_db)
            _require_real(f"pathloss.{name}.slope_db", cls.slope_db)
            if not math.isfinite(cls.intercept_db):
                raise ValueError(f"pathloss.{name}.intercept_db must be finite")
            if not 0.0 < cls.slope_db < math.inf:
                raise ValueError(f"pathloss.{name}.slope_db must be positive")
        _require_real("pathloss.min_coupling_loss_db", self.min_coupling_loss_db)
        if not math.isfinite(self.min_coupling_loss_db):
            raise ValueError("pathloss.min_coupling_loss_db must be finite")


def is_real(v) -> bool:
    """v is a real number; an exact float skips the slow numbers.Real check."""
    return type(v) is float or isinstance(v, numbers.Real)


def _require_real(key: str, v) -> None:
    if not is_real(v):
        raise ValueError(f"{key} must be a real number")


def path_loss_db(distance_m, link_class: str, plm: PathLossModel):
    """Distance -> loss in dB for one link class, clamped at the coupling floor."""
    if link_class not in LINK_CLASSES:
        raise ValueError(f"unknown link class {link_class!r}")
    return getattr(plm, link_class).loss_db(distance_m, plm.min_coupling_loss_db)


@dataclass
class Topology:
    rn_positions: np.ndarray            # (M, 2) meters
    ue_positions: np.ndarray            # (K, 2) meters
    sector_of_ue: Optional[np.ndarray]  # (K,) relay index, None when M == 0


@dataclass
class ChannelRealization:
    g_bs_ue: np.ndarray            # (K, N) direct-link gains
    g_bs_rn: np.ndarray            # (M, N) feeder-link gains
    g_rn_ue: Optional[np.ndarray]  # (K, N) access-link gains via the serving relay
    sector_of_ue: Optional[np.ndarray]
    noise_gap: float               # W, per-subcarrier noise power x SNR gap


def assign_sector(ue_angle, n_relays: int):
    """Angularly nearest relay; sectors are centered on the relay angles."""
    if n_relays < 1:
        raise ValueError("sector assignment needs at least one relay")
    half = np.pi / n_relays
    width = 2.0 * np.pi / n_relays
    idx = np.floor((np.asarray(ue_angle) + half) % (2.0 * np.pi) / width).astype(int)
    return idx % n_relays


def build_topology(cfg: "SystemConfig", seed) -> Topology:
    """Place M relays on the D_r ring and K UEs uniformly over the disc."""
    m = cfg.n_relays
    radius_m = cfg.cell_radius_km * 1000.0
    if m > 0 and not (0.0 < cfg.d_r < 1.0):
        raise ValueError("d_r must lie in (0, 1) when relays are present")
    rng = np.random.default_rng(seed)

    if m > 0:
        angles = 2.0 * np.pi * np.arange(m) / m
        ring = cfg.d_r * radius_m
        rn = np.empty((m, 2))
        np.multiply(ring, np.cos(angles), out=rn[:, 0])
        np.multiply(ring, np.sin(angles), out=rn[:, 1])
    else:
        rn = np.empty((0, 2))

    # area-uniform disc sampling: radius R*sqrt(u), angle 2*pi*v
    u = rng.random(cfg.n_users)
    v = rng.random(cfg.n_users)
    r = radius_m * np.sqrt(u)
    theta = 2.0 * np.pi * v
    ue = np.empty((cfg.n_users, 2))
    np.multiply(r, np.cos(theta), out=ue[:, 0])
    np.multiply(r, np.sin(theta), out=ue[:, 1])

    sectors = assign_sector(theta, m) if m > 0 else None
    return Topology(rn, ue, sectors)


def _gains(dist_m, link_class, plm, rng, n_subcarriers, fading):
    pl = path_loss_db(dist_m, link_class, plm)
    mean = 10.0 ** (-pl / 10.0)
    if not fading:
        return np.repeat(mean[:, None], n_subcarriers, axis=1)
    # the same stream and products as mean[:, None] * exponential(1.0, size),
    # without the scale-by-1 pass and the second array
    e = rng.standard_exponential(size=(len(dist_m), n_subcarriers))
    e *= mean[:, None]
    return e


def sample_channel(topo: Topology, cfg: "SystemConfig", seed,
                   fading: bool = True) -> ChannelRealization:
    """Draw one fading realization on top of the topology's path losses.

    Path losses follow cfg.pathloss.  Deterministic in (topo, cfg,
    seed).  `fading=False` is a test hook that returns the bare
    path-loss gains.
    """
    rng = np.random.default_rng(seed)
    n = cfg.n_subcarriers
    m = len(topo.rn_positions)
    plm = cfg.pathloss

    # UEs can land arbitrarily close to a transmitter; keep distances
    # positive and let the coupling-loss clamp bound the gain
    d_bs_ue = np.maximum(np.hypot(topo.ue_positions[:, 0], topo.ue_positions[:, 1]), 1e-3)
    # draw order is fixed (direct, feeder, access) so seeds stay comparable
    g_bs_ue = _gains(d_bs_ue, "bs_ue_nlos", plm, rng, n, fading)

    if m > 0:
        d_bs_rn = np.hypot(topo.rn_positions[:, 0], topo.rn_positions[:, 1])
        g_bs_rn = _gains(d_bs_rn, "bs_rn_los", plm, rng, n, fading)
        serving = topo.rn_positions[topo.sector_of_ue]
        d_rn_ue = np.hypot(*(topo.ue_positions - serving).T)
        # each UE lands exactly on top of its relay with probability 0,
        # and the coupling-loss clamp keeps the gain finite if it does
        d_rn_ue = np.maximum(d_rn_ue, 1e-3)
        g_rn_ue = _gains(d_rn_ue, "rn_ue_nlos", plm, rng, n, fading)
    else:
        g_bs_rn = np.empty((0, n))
        g_rn_ue = None

    return ChannelRealization(
        g_bs_ue=g_bs_ue,
        g_bs_rn=g_bs_rn,
        g_rn_ue=g_rn_ue,
        sector_of_ue=topo.sector_of_ue,
        noise_gap=cfg.noise_gap_watts,
    )


def generate_instance(cfg: "SystemConfig", seed):
    """(Topology, ChannelRealization) for one Monte-Carlo sample.

    Seeds independent child streams for geometry and fading so the two
    draws never alias, while staying bit-reproducible from `seed`: the
    children `SeedSequence(seed).spawn(2)` would give, built directly.
    """
    topo_seed, fade_seed = (np.random.SeedSequence(seed, spawn_key=(i,))
                            for i in range(2))
    topo = build_topology(cfg, topo_seed)
    chan = sample_channel(topo, cfg, fade_seed)
    return topo, chan
