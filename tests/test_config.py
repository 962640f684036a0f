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
    # integer fields take integers only: no floats, integral or not, and no booleans
    ("data", "seed", 7.0, "data.seed: expected int"),
    ("data", "num_items", 200.5, "data.num_items: expected int"),
    ("data", "num_categories", True, "data.num_categories: expected int"),
    ("data", "num_brands", 12.0, "data.num_brands: expected int"),
    ("data", "num_users", 400.5, "data.num_users: expected int"),
    ("data", "history_sessions", 3.0, "data.history_sessions: expected int"),
    ("data", "list_size", False, "data.list_size: expected int"),
    ("data", "num_candidates", 5.5, "data.num_candidates: expected int"),
    ("data", "num_records", 100.5, "data.num_records: expected int"),
    ("model", "embed_dim", 4.5, "model.embed_dim: expected int"),
    ("model", "num_fields", 3.0, "model.num_fields: expected int"),
    ("model", "mlp_hidden", [8.5], r"model.mlp_hidden: expected list\[int\]"),
    ("training", "batch_size", 16.5, "training.batch_size: expected int"),
    ("training", "eval_epochs", True, "training.eval_epochs: expected int"),
    ("training", "gen_epochs", 2.0, "training.gen_epochs: expected int"),
    ("training", "max_steps", 1.5, r"training.max_steps: expected int \| None"),
    ("training", "hr_validation_records", 10.0, "training.hr_validation_records: expected int"),
    ("training", "seed", False, "training.seed: expected int"),
    # float fields take an int or a float, never a bool or a string (one row
    # per float field); str fields take a string
    ("data", "quality_sigma", "abc", "data.quality_sigma: expected float"),
    ("data", "affinity_sigma", False, "data.affinity_sigma: expected float"),
    ("data", "position_intercept", "1", "data.position_intercept: expected float"),
    ("data", "position_slope", True, "data.position_slope: expected float"),
    ("data", "cannibalization", None, "data.cannibalization: expected float"),
    ("data", "exposure_noise", [0.5], "data.exposure_noise: expected float"),
    ("data", "conversion_scale", True, "data.conversion_scale: expected float"),
    ("data", "conversion_intercept", "-1", "data.conversion_intercept: expected float"),
    ("data", "train_fraction", False, "data.train_fraction: expected float"),
    ("training", "lr", True, "training.lr: expected float"),
    ("training", "alpha", True, "training.alpha: expected float"),
    ("training", "beta", "1", "training.beta: expected float"),
    ("training", "tau_start", False, "training.tau_start: expected float"),
    ("training", "tau_end", {"v": 1}, "training.tau_end: expected float"),
    ("training", "theta_p", True, r"training.theta_p: expected float \| None"),
    ("training", "theta_c", "0.5", r"training.theta_c: expected float \| None"),
    ("training", "k1", True, "training.k1: expected float"),
    ("training", "k2", None, "training.k2: expected float"),
    ("training", "cvr_total_mode", 1, "training.cvr_total_mode: expected str"),
    ("training", "ablation", None, "training.ablation: expected str"),
    ("paths", "out_dir", 5, "paths.out_dir: expected str"),
])
def test_validation_errors(section, key, value, hint):
    keys = key if isinstance(key, tuple) else (key,)
    payload = {"version": 1, section: dict.fromkeys(keys, value)}
    with pytest.raises(ConfigError, match=hint):
        config_from_dict(payload)


def test_integer_fields_reject_floats_and_bools_everywhere():
    cfg = config_from_dict({"version": 1, "model": {"mlp_hidden": [8, 4]},
                            "training": {"max_steps": None, "alpha": 1, "theta_p": None}})
    # an int in a float field stays an int, so config_hash keeps its bytes
    assert type(cfg.training.alpha) is int and cfg.training.alpha == 1
    assert cfg.training.max_steps is None and cfg.training.theta_p is None
    for bad in ([8, True], (8.0, 4), 8, "8"):
        with pytest.raises(ConfigError, match="model.mlp_hidden: expected list"):
            config_from_dict({"version": 1, "model": {"mlp_hidden": bad}})
    with pytest.raises(ConfigError, match="unsupported config version 1.0"):
        config_from_dict({"version": 1.0})
    with pytest.raises(ConfigError, match="training.gen_epochs: expected int"):
        set_by_dotted_key(default_config(), "training.gen_epochs", 2.0)
    with pytest.raises(ConfigError, match="training.alpha: expected float"):
        set_by_dotted_key(default_config(), "training.alpha", True)


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


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_rejected(tmp_path, constant):
    # NaN compares false with every bound, so it would pass the range checks
    path = tmp_path / "nan.json"
    path.write_text('{"version": 1, "training": {"alpha": %s}}' % constant)
    with pytest.raises(ConfigError, match=f"non-finite number {constant}"):
        load_config(path)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_config("/nonexistent/config.json")
