"""Cell geometry and channel realizations.

BS at the origin, relays on a ring, UEs uniform over the disc.  Gains
are distance path loss times i.i.d. unit-mean exponential fading
(squared Rayleigh envelope), drawn per link and subcarrier.

A realization is one (2K+M, N) array with a row per link, in the draw
order direct (K), feeder (M), access (K, with relays only): every
link's distance and path loss are computed in one pass, on per-row
curve coefficients, and its fading in one draw, which reads the same
stream as one draw per link class in that order.  The three gain arrays
of a ChannelRealization are its row blocks.

This module holds path-loss data and geometry only: the config values it
reads, path-loss curves included, are checked by SystemConfig.validate.
"""

from __future__ import annotations

import functools
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
    # the remainder lies in [0, 2*pi), so truncating to int floors it; one
    # that rounds up to n_relays wraps to sector 0
    idx = ((np.asarray(ue_angle) + half) % (2.0 * np.pi) / width).astype(int)
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
    u, v = rng.random((2, cfg.n_users))  # the stream of two draws of K each
    r = radius_m * np.sqrt(u)
    theta = 2.0 * np.pi * v
    ue = np.empty((cfg.n_users, 2))
    np.multiply(r, np.cos(theta), out=ue[:, 0])
    np.multiply(r, np.sin(theta), out=ue[:, 1])

    sectors = assign_sector(theta, m) if m > 0 else None
    return Topology(rn, ue, sectors)


def sample_channel(topo: Topology, cfg: "SystemConfig", seed,
                   fading: bool = True) -> ChannelRealization:
    """Draw one fading realization on top of the topology's path losses.

    Path losses follow cfg.pathloss.  Deterministic in (topo, cfg,
    seed).  `fading=False` is a test hook that returns the bare
    path-loss gains.
    """
    rng = np.random.default_rng(seed)
    plm = cfg.pathloss
    ue, rn = topo.ue_positions, topo.rn_positions
    k, m = len(ue), len(rn)
    if m > 0:
        # One row per link, in the fixed draw order direct (K), feeder
        # (M), access (K), so seeds stay comparable: the link's offset
        # vector, and its class's curve and distance floor
        offsets = np.concatenate((ue, rn, ue - rn.take(topo.sector_of_ue, axis=0)))
        rows = np.array([(c.intercept_db, c.slope_db, floor) for c, floor in (
            (plm.bs_ue_nlos, 1e-3), (plm.bs_rn_los, 0.0),
            (plm.rn_ue_nlos, 1e-3))]).repeat((k, m, k), axis=0)
        # every link's path loss in one pass, on per-row coefficients
        curve, floor = PathLossClass(rows[:, 0], rows[:, 1]), rows[:, 2]
    else:
        offsets, curve, floor = ue, plm.bs_ue_nlos, 1e-3
    # UEs can land arbitrarily close to a transmitter (or exactly on their
    # relay, with probability 0): their floor keeps distances positive and
    # the coupling-loss clamp bounds the gain.  A relay's ring distance
    # needs none (floor 0).
    dist = np.maximum(np.hypot(offsets[:, 0], offsets[:, 1]), floor)
    mean = 10.0 ** (-curve.loss_db(dist, plm.min_coupling_loss_db) / 10.0)
    if fading:
        # one draw for every link: the same stream as one draw per link
        # class in row order, and the same products as
        # mean[:, None] * exponential(1.0, size) without the scale-by-1
        # pass and the second array
        gains = rng.standard_exponential(size=(len(mean), cfg.n_subcarriers))
        gains *= mean[:, None]
    else:
        gains = np.repeat(mean[:, None], cfg.n_subcarriers, axis=1)

    # each link class's gains are its block of rows
    return ChannelRealization(
        g_bs_ue=gains[:k],
        g_bs_rn=gains[k:k + m],
        g_rn_ue=gains[k + m:] if m > 0 else None,
        sector_of_ue=topo.sector_of_ue,
        noise_gap=cfg.noise_gap_watts,
    )


@functools.lru_cache(maxsize=1024)
def _child_seeds(seed) -> tuple:
    """The children `SeedSequence(seed).spawn(2)` would give, built directly."""
    return tuple(np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(2))


def generate_instance(cfg: "SystemConfig", seed):
    """(Topology, ChannelRealization) for one Monte-Carlo sample.

    Seeds independent child streams for geometry and fading so the two
    draws never alias, while staying bit-reproducible from `seed`: the
    children `SeedSequence(seed).spawn(2)` would give.  A sweep draws the
    same sample seeds at every grid point, so the children of an int seed
    are built once and kept (generators never change them); any other
    seed, None included, gets children of its own.
    """
    children = _child_seeds if type(seed) is int else _child_seeds.__wrapped__
    topo_seed, fade_seed = children(seed)
    topo = build_topology(cfg, topo_seed)
    chan = sample_channel(topo, cfg, fade_seed)
    return topo, chan
