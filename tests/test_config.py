"""Config file parsing, validation, and preset contents."""

import math
from dataclasses import fields, replace

import pytest

from cfpower.config import NetworkConfig, config_from_dict, load_config, \
    save_config
from cfpower.errors import ConfigError


def test_large_preset_values(large_cfg):
    cfg = large_cfg
    assert (cfg.L, cfg.K, cfg.N) == (16, 20, 4)
    assert cfg.area_m == 1000.0
    assert (cfg.tau_c, cfg.tau_p) == (200, 10)
    assert cfg.p_ul == 0.1
    assert cfg.p_max_dl == 1.0
    assert cfg.noise_power == pytest.approx(10.0 ** (-12.4), rel=1e-12)
    assert cfg.pathloss_offset_db == -30.5
    assert cfg.pathloss_exponent == 36.7


def test_desk_preset_values(desk_cfg):
    cfg = desk_cfg
    assert (cfg.L, cfg.K, cfg.N) == (4, 6, 2)
    assert cfg.area_m == 500.0
    assert cfg.tau_p == 3
    assert cfg.p_max_dl == 1.0


def test_prelog_and_tau_d():
    cfg = NetworkConfig(tau_c=200, tau_p=10)
    assert cfg.tau_d == 190
    assert cfg.prelog == pytest.approx(0.95)


def test_roundtrip_through_file(tmp_path, desk_cfg):
    path = tmp_path / "net.cfg"
    save_config(desk_cfg, path)
    assert load_config(path) == desk_cfg


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("# header\n\nL = 4\nK = 6   # trailing comment\nN=2\n")
    cfg = load_config(path)
    assert (cfg.L, cfg.K, cfg.N) == (4, 6, 2)
    # unspecified keys keep their defaults
    assert cfg.tau_c == NetworkConfig().tau_c


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("n_antennas = 4\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("L = 4\nL = 9\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("L = four\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


def test_missing_file_raises():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/net.cfg")


def test_line_without_assignment(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("L 4\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(path)


@pytest.mark.parametrize("kw", [
    {"L": 0}, {"K": 0}, {"N": 0},
    {"area_m": -1.0},
    {"tau_p": 0}, {"tau_p": 201},
    {"p_ul": 0.0}, {"p_max_dl": -2.0}, {"noise_power": 0.0},
    {"v_exponent": 0.0},
    {"correlation_model": "rayleigh"},
    {"ap_placement": "hexagon"},
    {"L": 5, "ap_placement": "grid"},
    {"seed": -1},
])
def test_validation_rejects(kw):
    with pytest.raises(ConfigError):
        NetworkConfig(**kw)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(NetworkConfig)
                                  if f.type is float])
def test_non_finite_numbers_rejected(tmp_path, name, value):
    message = f"{name} must be finite"
    with pytest.raises(ConfigError, match=message):
        NetworkConfig(**{name: value})
    # a dataset header's config and a text config go the same way
    with pytest.raises(ConfigError, match=message):
        config_from_dict({name: value})
    path = tmp_path / "net.cfg"
    path.write_text(f"{name} = {value}\n")
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_config_from_dict_unknown_key():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"bandwidth": 20e6})


def test_replace_returns_new_config(desk_cfg):
    other = replace(desk_cfg, K=8)
    assert other.K == 8
    assert desk_cfg.K == 6
    assert other.L == desk_cfg.L


def test_to_dict_roundtrip(desk_cfg):
    assert config_from_dict(desk_cfg.to_dict()) == desk_cfg
