import json
import threading
from pathlib import Path

import pytest

from neighborrank import autodiff as ad
from neighborrank.cli import main

TINY = {
    "version": 1,
    "data": {"seed": 5, "num_items": 40, "num_categories": 5, "num_brands": 6,
             "num_users": 30, "num_records": 260},
    "model": {"embed_dim": 4, "mlp_hidden": [16, 8]},
    "training": {"eval_epochs": 2, "gen_epochs": 2, "seed": 11,
                 "hr_validation_records": 40},
}


def write_config(tmp_path, out_name="run", **overrides):
    payload = json.loads(json.dumps(TINY))
    for section, values in overrides.items():
        payload.setdefault(section, {}).update(values)
    payload["paths"] = {"out_dir": str(tmp_path / out_name)}
    path = tmp_path / f"cfg_{out_name}.json"
    path.write_text(json.dumps(payload))
    return path, tmp_path / out_name


def run_pipeline(cfg_path, upto="bench"):
    commands = ["gen-data", "train-eval", "train-gen", "rerank", "bench"]
    for cmd in commands[: commands.index(upto) + 1]:
        rc = main([cmd, "--config", str(cfg_path)])
        assert rc == 0, f"{cmd} failed"


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg_path, out_dir = write_config(tmp)
    run_pipeline(cfg_path)
    return cfg_path, out_dir


class TestPipeline:
    def test_all_artifacts_written(self, pipeline_run):
        _, out = pipeline_run
        for name in ("dataset.jsonl", "dataset.jsonl.manifest.json", "eval.ckpt",
                     "eval_history.csv", "gen.ckpt", "gen_history.csv",
                     "trace.jsonl", "report.csv"):
            assert (out / name).exists(), name

    def test_report_embeds_provenance(self, pipeline_run):
        _, out = pipeline_run
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[1].startswith("# eval_ckpt_sha256=")
        assert lines[2].startswith("# gen_ckpt_sha256=")
        header = lines[3].split(",")
        assert header[:7] == ["model", "auc", "logloss", "ndcg5", "ndcg10", "hr10", "hr1"]
        models = [line.split(",")[0] for line in lines[4:]]
        assert models == ["evaluator", "input", "random", "greedy", "generator"]

    def test_trace_lines_parse(self, pipeline_run):
        _, out = pipeline_run
        lines = (out / "trace.jsonl").read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert set(first) >= {"record", "initial", "final", "steps", "stop_reason"}
        for step in first["steps"]:
            assert set(step) >= {"step", "position", "candidate", "max_rp", "max_rc", "stop"}

    def test_eval_history_columns(self, pipeline_run):
        _, out = pipeline_run
        lines = (out / "eval_history.csv").read_text().splitlines()
        data_lines = [l for l in lines if not l.startswith("#")]
        assert data_lines[0] == "epoch,split,auc,logloss,ndcg5,ndcg10"
        assert len(data_lines) == 1 + 2 * TINY["training"]["eval_epochs"]

    def test_gen_history_columns(self, pipeline_run):
        _, out = pipeline_run
        lines = (out / "gen_history.csv").read_text().splitlines()
        data_lines = [l for l in lines if not l.startswith("#")]
        assert data_lines[0] == "epoch,loss_main,loss_aux,loss_total,hr10_val"
        assert len(data_lines) == 1 + TINY["training"]["gen_epochs"]


class TestIdentitySmoke:
    def test_theta_one_returns_inputs_unchanged(self, tmp_path):
        cfg_path, out = write_config(tmp_path, "identity", training={"theta_p": 1.0})
        run_pipeline(cfg_path, upto="rerank")
        for line in (out / "trace.jsonl").read_text().splitlines():
            obj = json.loads(line)
            assert obj["initial"] == obj["final"]
            assert obj["stop_reason"] == "low-confidence"


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        cfg_a, out_a = write_config(tmp_path, "run_a")
        cfg_b, out_b = write_config(tmp_path, "run_b")
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        for name in ("dataset.jsonl", "eval.ckpt", "gen.ckpt", "trace.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        # reports differ only in the embedded config hash (paths differ)
        strip = lambda p: "\n".join(l for l in (p / "report.csv").read_text().splitlines()
                                    if not l.startswith("# config_sha256"))
        assert strip(out_a) == strip(out_b)


class TestExitCodes:
    def test_missing_dataset_is_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, "nodata")
        assert main(["train-eval", "--config", str(cfg_path)]) == 2

    def test_missing_checkpoint_is_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, "nockpt")
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        assert main(["train-gen", "--config", str(cfg_path)]) == 2
        assert main(["bench", "--config", str(cfg_path)]) == 2

    def test_config_violation_is_3(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "training": {"alpha": -1}}))
        assert main(["gen-data", "--config", str(path)]) == 3

    def test_unknown_key_is_3(self, tmp_path):
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps({"version": 1, "data": {"wat": 1}}))
        assert main(["gen-data", "--config", str(path)]) == 3

    def test_training_that_changes_nothing_is_1(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, "stalled")
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        with ad.no_grad():
            assert main(["train-eval", "--config", str(cfg_path)]) == 1
        assert "unchanged" in capsys.readouterr().err

    def test_missing_config_is_2(self, tmp_path):
        assert main(["gen-data", "--config", str(tmp_path / "none.json")]) == 2


class TestSeedOverride:
    def test_seed_flag_changes_dataset(self, tmp_path):
        cfg_path, out = write_config(tmp_path, "seeded")
        assert main(["gen-data", "--config", str(cfg_path), "--seed", "99"]) == 0
        first = (out / "dataset.jsonl").read_bytes()
        assert main(["gen-data", "--config", str(cfg_path), "--seed", "100"]) == 0
        assert (out / "dataset.jsonl").read_bytes() != first


class TestSweep:
    def test_alpha_sweep_canonical_values(self, tmp_path):
        base = json.loads(json.dumps(TINY))
        base["paths"] = {"out_dir": str(tmp_path / "unused")}
        values = [0, 0.01, 0.2, 0.5, 1.0]
        spec = {"version": 1, "param": "training.alpha", "values": values, "base": base}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()
        for v in values:
            assert (out / f"value_{v}" / "report.csv").exists()
        lines = [l for l in (out / "summary.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 1 + len(values)  # header + one row per setting
        # generator training is the only swept stage, so the dataset and the
        # evaluator checkpoint are shared bit for bit across settings
        ref = (out / "value_0" / "eval.ckpt").read_bytes()
        assert (out / "value_1.0" / "eval.ckpt").read_bytes() == ref

    def test_bad_sweep_param_is_3(self, tmp_path):
        base = json.loads(json.dumps(TINY))
        base["paths"] = {"out_dir": str(tmp_path / "unused")}
        spec = {"version": 1, "param": "training.nope", "values": [1], "base": base}
        spec_path = tmp_path / "sweep_bad.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--config", str(spec_path), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("spec", [
        pytest.param({"param": "training.alpha", "values": []}, id="empty-values"),
        pytest.param({"param": "training.alpha", "values": 0.5}, id="values-not-a-list"),
        pytest.param({"param": 5, "values": [1]}, id="param-not-a-string"),
        pytest.param({"param": "training.alpha", "values": [0.1, "high"]}, id="bad-value-type"),
        pytest.param({"param": "training.alpha", "values": [0.1, -1]}, id="invalid-value"),
        pytest.param("{not json", id="invalid-json"),
        pytest.param([1, 2], id="not-an-object"),
    ])
    def test_malformed_sweep_spec_is_3(self, tmp_path, spec):
        base = json.loads(json.dumps(TINY))
        base["paths"] = {"out_dir": str(tmp_path / "unused")}
        if isinstance(spec, dict):
            spec = {"version": 1, "base": base, **spec}
        spec_path = tmp_path / "sweep_malformed.json"
        spec_path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == 3
        assert not (out / "dataset.jsonl").exists()  # rejected before any stage ran


class TestSingleThreaded:
    def test_rerank_and_bench_start_no_threads(self, pipeline_run, monkeypatch):
        cfg_path, out = pipeline_run
        before = {name: (out / name).read_bytes() for name in ("trace.jsonl", "report.csv")}

        def refuse(self):
            raise AssertionError(f"thread started: {self!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for cmd in ("rerank", "bench"):
            assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
        for name, data in before.items():
            assert (out / name).read_bytes() == data, name
