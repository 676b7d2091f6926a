import copy
import dataclasses

import numpy as np
import pytest

from relayopt.config import ConfigError, SystemConfig, load_config
from relayopt.experiments import AXIS_NAMES, SweepSpec, run_sweep


def test_defaults_match_reference_parameters():
    cfg = SystemConfig()
    assert cfg.n_users == 8
    assert cfg.n_subcarriers == 32
    assert cfg.n_relays == 3
    assert cfg.cell_radius_km == 1.5
    assert cfg.d_r == 0.5
    assert cfg.p_max_dbm == 0.0
    assert cfg.subcarrier_bw_hz == 12e3
    assert cfg.noise_psd_dbm_hz == -174.0
    assert cfg.snr_gap_db == 0.0
    assert (cfg.p_c_bs_w, cfg.p_c_rn_w) == (60.0, 20.0)
    assert (cfg.xi_bs, cfg.xi_rn) == (2.6, 5.0)
    assert (cfg.i_outer_max, cfg.i_inner_max) == (10, 100)
    assert cfg.eps_outer == 1e-8
    assert cfg.master_seed == 1
    cfg.validate()


def test_derived_views():
    cfg = SystemConfig(p_max_dbm=0.0)
    assert cfg.p_max_w == pytest.approx(1e-3, rel=1e-12)
    assert cfg.power_model().p_max == cfg.p_max_w
    assert cfg.radio().n_subcarriers == 32


def test_load_config_defaults_equal_stock():
    assert load_config() == SystemConfig()


def test_load_config_file_and_sections(tmp_path):
    path = tmp_path / "sim.ini"
    path.write_text(
        "n_users = 4\n"
        "p_max_dbm = 10\n"
        "eps_outer = 1e-6\n"
        "[pathloss.rn_ue_nlos]\n"
        "intercept_db = 145.4\n"
        "slope_db = 37.5\n")
    cfg = load_config(str(path))
    assert cfg.n_users == 4 and isinstance(cfg.n_users, int)
    assert cfg.p_max_dbm == 10.0
    assert cfg.eps_outer == 1e-6
    assert cfg.pathloss.rn_ue_nlos.intercept_db == 145.4
    assert cfg.pathloss.rn_ue_nlos.slope_db == 37.5
    # the stock defaults must not be mutated through the shared factory
    assert SystemConfig().pathloss.rn_ue_nlos.intercept_db == 125.0


def test_override_precedence(tmp_path):
    path = tmp_path / "sim.ini"
    path.write_text("p_max_dbm = 10\nn_users = 4\n")
    cfg = load_config(str(path), {"p_max_dbm": 20.0})
    assert cfg.p_max_dbm == 20.0
    assert cfg.n_users == 4
    # None-valued overrides are "flag not given", not "reset"
    cfg = load_config(str(path), {"p_max_dbm": None})
    assert cfg.p_max_dbm == 10.0


def test_base_layer(tmp_path):
    base = SystemConfig(n_subcarriers=16, n_relays=0, cell_radius_km=1.0)
    cfg = load_config(None, {"n_users": 4}, base=base)
    assert cfg.n_subcarriers == 16
    assert cfg.n_relays == 0
    assert cfg.cell_radius_km == 1.0
    assert cfg.n_users == 4
    # the provided base object stays untouched
    assert base.n_users == 8


def test_string_coercion():
    cfg = load_config(None, {"n_users": "4", "p_max_dbm": "-30",
                             "eps_outer": " 1e-6 "})
    assert cfg.n_users == 4
    assert cfg.p_max_dbm == -30.0
    assert cfg.eps_outer == 1e-6
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(None, {"n_users": "four"})


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, {"n_user": 4})
    path = tmp_path / "sim.ini"
    path.write_text("snr_gap = 3\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(str(path))
    # the tie-break knob is gone: lowest index is the only rule
    path.write_text("tie_break = lowest-index\n")
    with pytest.raises(ConfigError, match="unknown config key: tie_break"):
        load_config(str(path))
    # one multiplier search, with no mode or tuning knobs of its own
    for key in ("lambda_mode", "lambda_step", "lambda_init", "eps_inner"):
        with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
            load_config(None, {key: "1"})
    # a nested group is no key: only its leaf fields are
    for key in ("pathloss", "pathloss.rn_ue_nlos"):
        with pytest.raises(ConfigError, match=f"unknown config key: {key}$"):
            load_config(None, {key: "3"})


def test_validation_failures_are_config_errors():
    with pytest.raises(ConfigError, match="drain-efficiency"):
        load_config(None, {"xi_bs": 0.9})
    with pytest.raises(ConfigError, match="d_r"):
        load_config(None, {"d_r": 1.5})
    with pytest.raises(ConfigError, match="tolerances must be positive"):
        load_config(None, {"eps_outer": 0})
    with pytest.raises(ConfigError):
        load_config(None, {"n_subcarriers": 0})
    with pytest.raises(ConfigError, match="slope_db"):
        load_config(None, {"pathloss.bs_ue_nlos.slope_db": -1.0})


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.ini"))
    bad = tmp_path / "bad.ini"
    bad.write_text("n_users 4\n")
    with pytest.raises(ConfigError, match="cannot parse config"):
        load_config(str(bad))


def _leaf_fields(obj, path=()):
    """(field path, annotation) of every leaf field under a dataclass."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_fields(value, path + (f.name,))
        else:
            yield path + (f.name,), f.type


_LEAF_FIELDS = dict(_leaf_fields(SystemConfig()))


def _get(cfg, path):
    for name in path:
        cfg = getattr(cfg, name)
    return cfg


@pytest.mark.parametrize("path", list(_LEAF_FIELDS), ids=".".join)
def test_every_leaf_key_lands_on_its_field(path, tmp_path):
    key = ".".join(path)
    stock = SystemConfig()
    # a valid value off the default: one more for an int, +0.25 for a float
    kind = int if _LEAF_FIELDS[path] == "int" else float
    value = kind(_get(stock, path) + (1 if kind is int else 0.25))
    file = tmp_path / "sim.ini"
    file.write_text(("" if len(path) == 1 else f"[{'.'.join(path[:-1])}]\n")
                    + f"{path[-1]} = {value}\n")
    base = SystemConfig(n_users=3)
    before = copy.deepcopy(base)
    for cfg, bottom in ((load_config(None, {key: str(value)}), stock),
                        (load_config(str(file)), stock),
                        (load_config(None, {key: value}, base=base), before)):
        got = _get(cfg, path)
        assert got == value and type(got) is kind
        # every other leaf keeps its bottom layer's value
        for other in _LEAF_FIELDS:
            if other != path:
                assert _get(cfg, other) == _get(bottom, other), other
    # neither the base nor the stock defaults are touched
    assert base == before
    assert SystemConfig() == stock
    assert _get(SystemConfig(), path) != value


def test_pathloss_updates_do_not_alias(tmp_path):
    cfg = load_config(None, {"pathloss.min_coupling_loss_db": 50.0})
    assert cfg.pathloss.min_coupling_loss_db == 50.0
    assert SystemConfig().pathloss.min_coupling_loss_db == 40.0
    # replace() copies must not share the mutated class either
    other = dataclasses.replace(SystemConfig())
    assert other.pathloss.rn_ue_nlos.intercept_db == 125.0


@pytest.mark.parametrize("key", ["n_users", "n_subcarriers", "n_relays",
                                 "i_outer_max", "i_inner_max", "master_seed"])
def test_integer_keys_reject_non_integers(key):
    msg = f"invalid config: {key}: must be an integer"
    for value in (2.5, 4.0, True):
        with pytest.raises(ConfigError, match=msg):
            load_config(overrides={key: value})
    assert getattr(load_config(overrides={key: np.int64(3)}), key) == 3
    # a sweep axis, or the sweep's base for a key that is no axis
    if key in AXIS_NAMES:
        spec = SweepSpec(name="x", axes={key: [4.0]}, samples=1)
    else:
        spec = SweepSpec(name="x", base=SystemConfig(**{key: 4.0}),
                         samples=1)
    with pytest.raises(ConfigError, match=msg):
        run_sweep(spec)


def test_real_keys_reject_non_numbers():
    # strings from files and --set are parsed first; values that library
    # callers pass reach validate as they are
    msg = "invalid config: p_max_dbm: must be a real number"
    for value in ([0.0], 1j, True, None, "-30"):
        if value is not None and type(value) is not str:
            with pytest.raises(ConfigError, match=msg):
                load_config(overrides={"p_max_dbm": value})
        spec = SweepSpec(name="x", axes={"p_max_dbm": [value]}, samples=1)
        with pytest.raises(ConfigError, match=msg):
            run_sweep(spec)
    with pytest.raises(ConfigError, match="pathloss.bs_rn_los.slope_db: must "
                                          "be a real number"):
        load_config(overrides={"pathloss.bs_rn_los.slope_db": [1.0]})
    for ok in (-30, np.float64(-30.0), np.int64(-30)):
        assert load_config(overrides={"p_max_dbm": ok}).p_max_dbm == -30.0


@pytest.mark.parametrize("key, value, match", [
    ("n_users", 0, "n_users: must be >= 1"),
    ("n_users", 8.0, "n_users: must be an integer"),  # equal value, new type
    ("d_r", 1.0, "d_r"),
    ("eps_outer", float("nan"), "eps_outer"),
    ("xi_bs", [2.6], "xi_bs: must be a real number"),  # unhashable
    ("pathloss.rn_ue_nlos.slope_db", -36.0, "rn_ue_nlos.slope_db"),
    ("pathloss.min_coupling_loss_db", float("inf"), "min_coupling_loss_db"),
])
def test_validate_rechecks_a_config_changed_after_it_passed(key, value, match):
    # validate skips its checks for values and types that passed before;
    # a change to any leaf, nested or not, is checked again, every time
    cfg = SystemConfig()
    cfg.validate()
    bad = copy.deepcopy(cfg)
    *path, name = key.split(".")
    obj = bad
    for part in path:
        obj = getattr(obj, part)
    setattr(obj, name, value)
    for _ in range(2):
        with pytest.raises(ConfigError, match=match):
            bad.validate()
    cfg.validate()
