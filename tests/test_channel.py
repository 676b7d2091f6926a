import numpy as np
import pytest

from relayopt import channel
from relayopt.channel import (PathLossModel, assign_sector, build_topology,
                              generate_instance, path_loss_db, sample_channel)
from relayopt.config import SystemConfig


@pytest.fixture
def plm():
    return PathLossModel()


def test_path_loss_intercepts(plm):
    # at the 1 km reference distance the loss is the intercept itself
    assert path_loss_db(1000.0, "bs_rn_los", plm) == 100.7
    assert path_loss_db(1000.0, "bs_ue_nlos", plm) == 131.1
    assert path_loss_db(1000.0, "rn_ue_nlos", plm) == 125.0


def test_path_loss_decade_step(plm):
    for cls in ("bs_rn_los", "bs_ue_nlos", "rn_ue_nlos"):
        slope = getattr(plm, cls).slope_db
        step = path_loss_db(10_000.0, cls, plm) - path_loss_db(1000.0, cls, plm)
        assert step == pytest.approx(slope, abs=1e-9)


def test_path_loss_coupling_floor(plm):
    # close-in distances clamp at the minimum coupling loss
    assert path_loss_db(1e-3, "bs_ue_nlos", plm) == 40.0
    assert path_loss_db(1e-3, "rn_ue_nlos", plm) == 40.0


def test_path_loss_rejects_bad_input(plm):
    with pytest.raises(ValueError):
        path_loss_db(0.0, "bs_ue_nlos", plm)
    with pytest.raises(ValueError):
        path_loss_db(-5.0, "bs_rn_los", plm)
    with pytest.raises(ValueError):
        path_loss_db(100.0, "bs_ue", plm)


def test_assign_sector_single_relay():
    angles = np.linspace(0.0, 2.0 * np.pi, 17, endpoint=False)
    assert np.all(assign_sector(angles, 1) == 0)


def test_assign_sector_four_relays():
    # relays sit at 0, pi/2, pi, 3pi/2; sectors are centered on them
    assert assign_sector(0.0, 4) == 0
    assert assign_sector(np.pi / 2, 4) == 1
    assert assign_sector(np.pi, 4) == 2
    assert assign_sector(3 * np.pi / 2, 4) == 3
    assert assign_sector(np.pi / 4 - 1e-9, 4) == 0
    assert assign_sector(np.pi / 4 + 1e-9, 4) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_assign_sector_is_angular_nearest(m):
    rng = np.random.default_rng(42)
    angles = rng.uniform(0.0, 2.0 * np.pi, 1000)
    relay_angles = 2.0 * np.pi * np.arange(m) / m
    diff = np.abs((angles[:, None] - relay_angles[None, :] + np.pi)
                  % (2.0 * np.pi) - np.pi)
    assert np.array_equal(assign_sector(angles, m), np.argmin(diff, axis=1))


def test_assign_sector_needs_relays():
    with pytest.raises(ValueError):
        assign_sector(0.5, 0)


def test_build_topology_relay_ring():
    cfg = SystemConfig(n_users=8, n_relays=3, cell_radius_km=1.0, d_r=0.5)
    topo = build_topology(cfg, seed=1)
    assert topo.rn_positions.shape == (3, 2)
    dist = np.hypot(topo.rn_positions[:, 0], topo.rn_positions[:, 1])
    assert dist == pytest.approx([500.0, 500.0, 500.0], rel=1e-9)
    # relays are equally spaced starting at angle 0
    assert topo.rn_positions[0] == pytest.approx([500.0, 0.0], abs=1e-9)
    assert topo.sector_of_ue.shape == (8,)


def test_build_topology_ues_inside_cell():
    cfg = SystemConfig(n_users=500, n_relays=0, cell_radius_km=2.0)
    topo = build_topology(cfg, seed=7)
    r = np.hypot(topo.ue_positions[:, 0], topo.ue_positions[:, 1])
    assert np.all(r <= 2000.0 + 1e-9)
    assert topo.rn_positions.shape == (0, 2)
    assert topo.sector_of_ue is None


def test_build_topology_is_area_uniform():
    # under area-uniform placement P(r <= R/2) = 1/4
    cfg = SystemConfig(n_users=20000, n_relays=0, cell_radius_km=1.0)
    topo = build_topology(cfg, seed=11)
    r = np.hypot(topo.ue_positions[:, 0], topo.ue_positions[:, 1])
    assert np.mean(r <= 500.0) == pytest.approx(0.25, abs=0.015)


def test_build_topology_validates_ring_ratio():
    with pytest.raises(ValueError):
        build_topology(SystemConfig(n_relays=3, d_r=1.5), seed=0)
    with pytest.raises(ValueError):
        build_topology(SystemConfig(n_relays=3, d_r=0.0), seed=0)
    # no relays -> the ratio is unused
    build_topology(SystemConfig(n_relays=0, d_r=1.5), seed=0)


def test_build_topology_deterministic():
    cfg = SystemConfig(n_users=16, n_relays=3)
    a = build_topology(cfg, seed=123)
    b = build_topology(cfg, seed=123)
    assert np.array_equal(a.ue_positions, b.ue_positions)
    assert np.array_equal(a.sector_of_ue, b.sector_of_ue)


def test_sample_channel_deterministic():
    cfg = SystemConfig(n_users=4, n_subcarriers=8, n_relays=2)
    topo = build_topology(cfg, seed=3)
    a = sample_channel(topo, cfg, seed=9)
    b = sample_channel(topo, cfg, seed=9)
    assert np.array_equal(a.g_bs_ue, b.g_bs_ue)
    assert np.array_equal(a.g_bs_rn, b.g_bs_rn)
    assert np.array_equal(a.g_rn_ue, b.g_rn_ue)
    c = sample_channel(topo, cfg, seed=10)
    assert not np.array_equal(a.g_bs_ue, c.g_bs_ue)


def test_sample_channel_no_fading_equals_pathloss():
    cfg = SystemConfig(n_users=4, n_subcarriers=8, n_relays=2)
    topo = build_topology(cfg, seed=3)
    chan = sample_channel(topo, cfg, seed=9, fading=False)
    d = np.maximum(np.hypot(topo.ue_positions[:, 0], topo.ue_positions[:, 1]), 1e-3)
    expect = 10.0 ** (-path_loss_db(d, "bs_ue_nlos", cfg.pathloss) / 10.0)
    assert np.array_equal(chan.g_bs_ue, np.repeat(expect[:, None], 8, axis=1))
    # flat across subcarriers without fading
    assert np.all(chan.g_rn_ue == chan.g_rn_ue[:, :1])


def test_sample_channel_fading_statistics():
    cfg = SystemConfig(n_users=200, n_subcarriers=64, n_relays=0)
    topo = build_topology(cfg, seed=21)
    faded = sample_channel(topo, cfg, seed=22)
    flat = sample_channel(topo, cfg, seed=22, fading=False)
    ratio = faded.g_bs_ue / flat.g_bs_ue  # unit-mean exponential draws
    assert np.all(faded.g_bs_ue > 0.0)
    assert np.mean(ratio) == pytest.approx(1.0, abs=0.05)
    assert np.var(ratio) == pytest.approx(1.0, abs=0.1)


def test_sample_channel_shapes_without_relays():
    cfg = SystemConfig(n_users=3, n_subcarriers=5, n_relays=0)
    topo = build_topology(cfg, seed=4)
    chan = sample_channel(topo, cfg, seed=5)
    assert chan.g_bs_ue.shape == (3, 5)
    assert chan.g_bs_rn.shape == (0, 5)
    assert chan.g_rn_ue is None
    assert chan.sector_of_ue is None


def test_sample_channel_noise_gap_matches_config():
    cfg = SystemConfig(n_users=2, n_subcarriers=2, n_relays=0, snr_gap_db=3.0)
    topo = build_topology(cfg, seed=1)
    chan = sample_channel(topo, cfg, seed=2)
    assert chan.noise_gap == cfg.noise_gap_watts


def test_generate_instance_reproducible():
    cfg = SystemConfig(n_users=6, n_subcarriers=4, n_relays=3)
    topo_a, chan_a = generate_instance(cfg, seed=77)
    topo_b, chan_b = generate_instance(cfg, seed=77)
    assert np.array_equal(topo_a.ue_positions, topo_b.ue_positions)
    assert np.array_equal(chan_a.g_bs_ue, chan_b.g_bs_ue)
    assert np.array_equal(chan_a.g_rn_ue, chan_b.g_rn_ue)
    _, chan_c = generate_instance(cfg, seed=78)
    assert not np.array_equal(chan_a.g_bs_ue, chan_c.g_bs_ue)


def test_generate_instance_seeds_the_spawned_children(monkeypatch):
    # the geometry and fading streams are SeedSequence(seed).spawn(2)
    cfg = SystemConfig(n_users=2, n_subcarriers=2, n_relays=1)
    seen = []
    monkeypatch.setattr(channel, "build_topology", lambda cfg, seed: seen.append(seed))
    monkeypatch.setattr(channel, "sample_channel",
                        lambda topo, cfg, seed: seen.append(seed))
    for seed in range(1, 200):
        seen.clear()
        generate_instance(cfg, seed)
        for new, ref in zip(seen, np.random.SeedSequence(seed).spawn(2),
                            strict=True):
            assert new.generate_state(8).tobytes() == ref.generate_state(8).tobytes()
            assert (np.random.default_rng(new).integers(1 << 62, size=4).tobytes()
                    == np.random.default_rng(ref).integers(1 << 62, size=4).tobytes())


def _scaled_exponential_gains(dist_m, link_class, plm, rng, n_subcarriers, fading):
    mean = 10.0 ** (-path_loss_db(dist_m, link_class, plm) / 10.0)
    return mean[:, None] * rng.exponential(1.0, size=(len(dist_m), n_subcarriers))


@pytest.mark.parametrize("n_relays", [0, 3])
def test_fading_draws_match_scaled_exponential(monkeypatch, n_relays):
    # the in-place draw keeps every gain of the scaled exponential draw
    cfg = SystemConfig(n_users=6, n_subcarriers=16, n_relays=n_relays)
    for seed in (1, 2, 77):
        _, chan = generate_instance(cfg, seed)
        with monkeypatch.context() as m:
            m.setattr(channel, "_gains", _scaled_exponential_gains)
            _, ref = generate_instance(cfg, seed)
        for name in ("g_bs_ue", "g_bs_rn", "g_rn_ue"):
            new, old = getattr(chan, name), getattr(ref, name)
            assert (new is None) == (old is None)
            if new is not None:
                assert new.shape == old.shape and new.tobytes() == old.tobytes()


def test_generate_instance_mean_gain_tracks_pathloss():
    # Monte-Carlo mean of the faded gain approaches the path-loss mean
    cfg = SystemConfig(n_users=1, n_subcarriers=256, n_relays=0)
    ratios = []
    for seed in range(40):
        topo, chan = generate_instance(cfg, seed)
        plm = cfg.pathloss
        d = max(float(np.hypot(*topo.ue_positions[0])), 1e-3)
        mean = 10.0 ** (-float(path_loss_db(d, "bs_ue_nlos", plm)) / 10.0)
        ratios.append(np.mean(chan.g_bs_ue[0]) / mean)
    assert np.mean(ratios) == pytest.approx(1.0, abs=0.04)
