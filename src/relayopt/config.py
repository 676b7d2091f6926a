"""System configuration: one flat object covering geometry, radio,
power model, path loss and solver knobs, with defaults matching the
reference simulation parameters.

Every leaf field of SystemConfig is a config key; a nested one is
dotted (``pathloss.rn_ue_nlos.intercept_db``).  Config files are flat
``key = value`` documents; INI/TOML-style sections are allowed and are
flattened into dotted keys, e.g.::

    n_users = 8
    [pathloss.rn_ue_nlos]
    intercept_db = 145.4
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

from .channel import PathLossModel, is_real
from .model import PowerModel, RadioConfig, dbm_to_watts


class ConfigError(ValueError):
    """Bad config file or invalid parameter combination."""


@dataclass
class SystemConfig:
    # population / geometry
    n_users: int = 8
    n_subcarriers: int = 32
    n_relays: int = 3
    cell_radius_km: float = 1.5
    d_r: float = 0.5                 # relay ring radius over cell radius

    # radio
    p_max_dbm: float = 0.0
    subcarrier_bw_hz: float = 12e3   # Hz
    noise_psd_dbm_hz: float = -174.0
    snr_gap_db: float = 0.0

    # power model
    p_c_bs_w: float = 60.0
    p_c_rn_w: float = 20.0
    xi_bs: float = 2.6
    xi_rn: float = 5.0

    # solver
    i_outer_max: int = 10
    i_inner_max: int = 100
    eps_outer: float = 1e-8
    master_seed: int = 1

    # propagation
    pathloss: PathLossModel = field(default_factory=PathLossModel)

    # --- derived views -------------------------------------------------
    @property
    def p_max_w(self) -> float:
        return dbm_to_watts(self.p_max_dbm)

    @property
    def noise_gap_watts(self) -> float:
        return self.radio().noise_gap_watts

    def radio(self) -> RadioConfig:
        return RadioConfig(
            n_subcarriers=self.n_subcarriers,
            n_relays=self.n_relays,
            subcarrier_bw_hz=self.subcarrier_bw_hz,
            noise_psd_dbm_hz=self.noise_psd_dbm_hz,
            snr_gap_db=self.snr_gap_db,
        )

    def power_model(self) -> PowerModel:
        return PowerModel(
            p_c_bs=self.p_c_bs_w,
            p_c_rn=self.p_c_rn_w,
            xi_bs=self.xi_bs,
            xi_rn=self.xi_rn,
            p_max=self.p_max_w,
        )

    def validate(self) -> None:
        """Raise ConfigError naming the first bad key.

        Every check is written so that NaN fails it.
        """
        def bad(key, why):
            raise ConfigError(f"invalid config: {key}: {why}")

        # exact ints and floats skip the numbers ABC checks, the slowest
        # step here; validate runs on every load and every solve
        for key in _INT_FIELDS:
            v = getattr(self, key)
            if type(v) is not int and (isinstance(v, bool) or
                                       not isinstance(v, numbers.Integral)):
                bad(key, "must be an integer")
        for key in _REAL_FIELDS:
            v = getattr(self, key)
            if not is_real(v):
                bad(key, "must be a real number")
            if not math.isfinite(v):
                bad(key, "must be finite")
        if not self.n_users >= 1:
            bad("n_users", "must be >= 1")
        if not self.n_subcarriers >= 1:
            bad("n_subcarriers", "must be >= 1")
        if not self.n_relays >= 0:
            bad("n_relays", "must be >= 0")
        if not self.master_seed >= 0:
            bad("master_seed", "must be >= 0")
        if not self.cell_radius_km > 0.0:
            bad("cell_radius_km", "must be positive")
        if self.n_relays > 0 and not (0.0 < self.d_r < 1.0):
            bad("d_r", "must lie in (0, 1) when n_relays > 0")
        if not self.subcarrier_bw_hz > 0.0:
            bad("subcarrier_bw_hz", "must be positive")
        if not self.xi_bs > 1.0:
            bad("xi_bs", "drain-efficiency reciprocal must exceed 1")
        if not self.xi_rn > 1.0:
            bad("xi_rn", "drain-efficiency reciprocal must exceed 1")
        if not self.p_c_bs_w >= 0.0:
            bad("p_c_bs_w", "must be >= 0")
        if not self.p_c_rn_w >= 0.0:
            bad("p_c_rn_w", "must be >= 0")
        for key in ("i_outer_max", "i_inner_max"):
            if not getattr(self, key) >= 1:
                bad(key, "iteration caps must be >= 1")
        if not self.eps_outer > 0.0:
            bad("eps_outer", "tolerances must be positive")
        # dB figures whose watts underflow to 0 or overflow are rejected
        noise = "noise_psd_dbm_hz, snr_gap_db, subcarrier_bw_hz"
        for key, watts in (("p_max_dbm", lambda: self.p_max_w),
                           (noise, lambda: self.noise_gap_watts)):
            try:
                w = watts()
            except OverflowError:
                w = math.inf
            if not 0.0 < w < math.inf:
                bad(key, "power in watts must be positive and finite")
        # and a subnormal noise power, whose few significant bits round
        # every SNR formed from it and whose products with gains underflow
        if self.noise_gap_watts < sys.float_info.min:
            bad(noise, f"power in watts must be at least "
                       f"{sys.float_info.min:g}")
        # the most any allocation can draw; past the float range the
        # solve would report an infinite power and a NaN residual
        try:
            most = (self.p_c_bs_w + self.n_relays * self.p_c_rn_w
                    + max(self.xi_bs, self.xi_rn) * self.p_max_w)
        except OverflowError:  # an int n_relays past the float range
            most = math.inf
        if not most < math.inf:
            bad("p_c_bs_w, n_relays, p_c_rn_w, xi_bs, xi_rn, p_max_dbm",
                "the largest consumed power must be finite")
        try:
            self.pathloss.validate()
        except ValueError as exc:
            raise ConfigError(f"invalid config: {exc}") from exc


def _leaf_keys(obj, prefix: str = "") -> dict:
    """Dotted key -> annotation of every leaf field under a dataclass."""
    keys = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            keys.update(_leaf_keys(value, f"{prefix}{f.name}."))
        else:
            keys[prefix + f.name] = f.type
    return keys


_KEYS = _leaf_keys(SystemConfig())
# annotations are strings: config and channel defer their evaluation
_INT_FIELDS = tuple(key for key, kind in _KEYS.items() if kind == "int")
# the nested keys are checked by their own dataclass's validate
_REAL_FIELDS = tuple(sorted(key for key in _KEYS
                            if "." not in key and key not in _INT_FIELDS))


def _coerce(key: str, raw) -> object:
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        if key in _INT_FIELDS:
            return int(text)
        return float(text)
    except ValueError:
        raise ConfigError(f"invalid config: {key}: cannot parse {text!r}") from None


def _parse_file(path: str) -> dict:
    import configparser  # here, so that loading the defaults does not import it

    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep keys as written
    try:
        with open(path) as fh:
            # allow bare top-level keys by injecting a default section
            parser.read_string("[__top__]\n" + fh.read(), source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    out = {}
    for section in parser.sections():
        prefix = "" if section == "__top__" else section + "."
        for key, value in parser.items(section):
            out[prefix + key] = value
    return out


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None,
                base: Optional[SystemConfig] = None) -> SystemConfig:
    """defaults <- file <- overrides, validated before use.

    `base` replaces the stock defaults as the bottom layer (used for
    scenario presets).  Unknown keys are rejected rather than ignored: a
    typo silently reverting a parameter to its default is the worst
    failure mode a simulation config can have.
    """
    merged: dict = {}
    if path:
        merged.update(_parse_file(path))
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})

    cfg = SystemConfig() if base is None else dataclasses.replace(base)
    for key, raw in merged.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key: {key}")
        *path, name = key.split(".")
        obj = cfg
        for part in path:  # copy each nested level: share no preset or default
            setattr(obj, part, dataclasses.replace(getattr(obj, part)))
            obj = getattr(obj, part)
        setattr(obj, name, _coerce(key, raw))

    cfg.validate()
    return cfg
