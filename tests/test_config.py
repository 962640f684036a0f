import json

import pytest

from neighborrank.config import (
    Config,
    ConfigError,
    config_from_dict,
    config_hash,
    default_config,
    deep_mlp_config,
    load_config,
    set_by_dotted_key,
    wide_pool_config,
)


def test_default_round_trip(tmp_path):
    cfg = default_config()
    path = tmp_path / "c.json"
    path.write_text(cfg.to_json())
    loaded = load_config(path)
    assert loaded == cfg
    assert config_hash(loaded) == config_hash(cfg)


def test_presets():
    wide = wide_pool_config()
    assert wide.data.num_candidates == 12 and wide.data.list_size == 4
    deep = deep_mlp_config()
    assert deep.model.mlp_hidden == [1024, 256, 128]
    assert deep.training.batch_size == 1024


def test_unknown_top_key_rejected():
    with pytest.raises(ConfigError, match="unknown key extras"):
        config_from_dict({"version": 1, "extras": {}})


def test_unknown_nested_key_named():
    with pytest.raises(ConfigError, match="unknown key data.foo"):
        config_from_dict({"version": 1, "data": {"foo": 3}})


def test_missing_version():
    with pytest.raises(ConfigError, match="version"):
        config_from_dict({"data": {}})


def test_wrong_version():
    with pytest.raises(ConfigError, match="unsupported config version"):
        config_from_dict({"version": 99})


@pytest.mark.parametrize("section,key,value,hint", [
    ("training", "alpha", -0.1, "alpha"),
    ("training", "beta", 1.5, "beta"),
    ("training", "tau_end", 0.0, "tau"),
    ("training", "theta_p", 1.5, "theta_p"),
    ("training", "cvr_total_mode", "mean", "cvr_total_mode"),
    ("training", "ablation", "bogus", "ablation"),
    ("training", "k1", -1.0, "k1"),
    ("training", "theta_c", 1.5, "theta_c"),
    ("training", "hr_validation_records", 0, "hr_validation_records"),
    pytest.param("training", ("k1", "k2"), 0.0, "k1/k2", id="training-k1-k2-0.0-k1/k2"),
    ("model", "num_fields", 4, "num_fields"),
    ("data", "list_size", 9, "list_size"),
    ("data", "position_slope", 0.0, "position_slope"),
    ("data", "num_brands", 0, "num_brands"),
])
def test_validation_errors(section, key, value, hint):
    keys = key if isinstance(key, tuple) else (key,)
    payload = {"version": 1, section: dict.fromkeys(keys, value)}
    with pytest.raises(ConfigError, match=hint):
        config_from_dict(payload)


@pytest.mark.parametrize("beta", [0.1, 0.5, 1, 2, 5])
def test_canonical_beta_sweep_values_validate(beta):
    cfg = config_from_dict({"version": 1, "training": {"beta": beta}})
    assert cfg.training.beta == beta


def test_set_by_dotted_key():
    cfg = default_config()
    out = set_by_dotted_key(cfg, "training.alpha", 0.5)
    assert out.training.alpha == 0.5
    assert cfg.training.alpha == 0.2  # original untouched
    with pytest.raises(ConfigError, match="not a config key"):
        set_by_dotted_key(cfg, "training.bogus", 1)
    with pytest.raises(ConfigError, match="not a config key"):
        set_by_dotted_key(cfg, "nope", 1)


def test_hash_changes_with_content():
    a = default_config()
    b = set_by_dotted_key(a, "training.alpha", 0.9)
    assert config_hash(a) != config_hash(b)


def test_hash_ignores_output_directory():
    a = default_config()
    b = default_config()
    b.paths.out_dir = "elsewhere/run"
    assert config_hash(a) == config_hash(b)


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_config("/nonexistent/config.json")
