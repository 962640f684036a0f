import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neighborrank import autodiff as ad
from neighborrank import cli, datagen
from neighborrank.checkpoint import load_arrays, save_arrays
from neighborrank.cli import main
from neighborrank.config import config_from_dict, config_hash, load_config
from neighborrank.datagen import load_dataset, write_dataset

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


RUN_FILES = ("dataset.jsonl", "dataset.jsonl.manifest.json", "eval.ckpt", "gen.ckpt")


def copy_run(src: Path, out: Path) -> Path:
    """Copy the inputs of rerank and bench from one run directory to another."""
    out.mkdir(parents=True, exist_ok=True)
    for name in RUN_FILES:
        (out / name).write_bytes((src / name).read_bytes())
    return out


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
        # the config hash leaves out paths, so the reports match to the byte too
        for name in ("dataset.jsonl", "eval.ckpt", "gen.ckpt", "trace.jsonl", "report.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


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

    @pytest.mark.parametrize("fraction", [1.5, 0, -0.5])
    def test_train_fraction_outside_unit_interval_is_3(self, tmp_path, capsys, fraction):
        cfg_path, out = write_config(tmp_path, "fraction", data={"train_fraction": fraction})
        assert main(["gen-data", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "train_fraction" in err
        assert not out.exists()

    def test_empty_train_split_is_3(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path, "empty",
                                     data={"num_records": 60, "train_fraction": 0.01})
        assert main(["gen-data", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "split empty" in err
        assert not out.exists()

    def test_more_categories_than_items_is_3(self, tmp_path, capsys):
        cfg_path, out = write_config(tmp_path, "categories",
                                     data={"num_items": 5, "num_categories": 9})
        assert main(["gen-data", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "num_categories" in err
        assert not out.exists()

    def test_training_that_changes_nothing_is_1(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, "stalled")
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        with ad.no_grad():
            assert main(["train-eval", "--config", str(cfg_path)]) == 1
        assert "unchanged" in capsys.readouterr().err

    # checkpoint, array, its damaged value (None deletes it), what the error names
    DAMAGE = {
        "missing": ("eval.ckpt", "head.cvr.b", None, "'head.cvr.b'"),
        "wrong-shape": ("eval.ckpt", "head.cvr.b", np.zeros(2), "'head.cvr.b'"),
        "no-dims": ("eval.ckpt", "meta.dims", None, "'meta.dims'"),
        "short-dims": ("eval.ckpt", "meta.dims", np.ones(5), "meta.dims"),
        # vocabularies 40/5/6, slate 5 of 5, 3 sessions, width 4, then num_fields, MLP
        "four-fields-dims": ("eval.ckpt", "meta.dims",
                             np.array([40, 5, 6, 5, 5, 3, 4, 4, 16, 8.0]), "meta.dims"),
        "slate-over-pool-dims": ("gen.ckpt", "meta.dims",
                                 np.array([40, 5, 6, 6, 5, 3, 4, 3, 16, 8.0]), "meta.dims"),
        "nan-scale": ("gen.ckpt", "meta.reward_scale", np.array(np.nan), "meta.reward_scale"),
        "nan-tensor": ("gen.ckpt", "pdu.b", np.array([np.nan]), "'pdu.b'"),
    }

    @pytest.mark.parametrize("damage", list(DAMAGE))
    def test_damaged_checkpoint_tensor_is_1(self, pipeline_run, tmp_path, capsys, damage):
        cfg_path, src = pipeline_run
        out = copy_run(src, tmp_path / "damaged")
        ckpt, name, value, named = self.DAMAGE[damage]
        arrays = load_arrays(out / ckpt)
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
        save_arrays(out / ckpt, arrays)
        capsys.readouterr()
        assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "report.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_training_is_1(self, pipeline_run, tmp_path, capsys):
        # a step size this large sends the generator's logits to infinity
        _, src = pipeline_run
        cfg_path, out = write_config(tmp_path, "diverged", training={"lr": 1e300})
        copy_run(src, out)
        capsys.readouterr()
        assert main(["train-gen", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_evaluator_training_is_1(self, pipeline_run, tmp_path, capsys):
        # one Adam step of this size sends the evaluator's MLP to inf - inf;
        # larger steps fail earlier, inside the list attention's softmax
        _, src = pipeline_run
        cfg_path, out = write_config(tmp_path, "eval-diverged", training={"lr": 1e70})
        copy_run(src, out)
        (out / "eval.ckpt").unlink()
        capsys.readouterr()
        assert main(["train-eval", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "eval.ckpt").exists()

    def test_one_label_test_split_is_1(self, pipeline_run, tmp_path, capsys):
        cfg_path, src = pipeline_run
        out = copy_run(src, tmp_path / "one-label")
        (out / "eval.ckpt").unlink()
        records, manifest = load_dataset(out / "dataset.jsonl")
        test = records[manifest["num_train"]:]
        test.clicks[:] = 0
        test.convs[:] = 0
        write_dataset(records, load_config(cfg_path).data, out / "dataset.jsonl")
        capsys.readouterr()
        assert main(["train-eval", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "test clicks are all one label" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "eval.ckpt").exists()

    def test_overflow_prints_one_stderr_line(self, pipeline_run, tmp_path):
        # in a fresh interpreter numpy's overflow warnings would reach stderr
        _, src = pipeline_run
        cfg_path, out = write_config(tmp_path, "overflow", training={"lr": 1e300})
        copy_run(src, out)
        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "neighborrank", "train-gen",
                               "--config", str(cfg_path)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "non-finite" in proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("command,section,values", [
        ("gen-data", "data", {"num_records": 100.5}),
        ("train-eval", "training", {"batch_size": 16.5}),
        ("train-eval", "model", {"embed_dim": 4.5}),
        ("train-eval", "model", {"mlp_hidden": [8.5]}),
        ("train-eval", "training", {"eval_epochs": True}),
    ])
    def test_non_integer_in_an_integer_field_is_3(self, tmp_path, command, section, values):
        cfg_path, _ = write_config(tmp_path, **{section: values})
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main([command, "--config", str(cfg_path)]) == 3
        assert err.getvalue().startswith("error: config: ") and "expected" in err.getvalue()
        assert err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("command,section,values", [
        ("gen-data", "data", {"quality_sigma": "abc"}),
        ("gen-data", "data", {"quality_sigma": False}),
        ("train-gen", "training", {"alpha": True}),
        ("gen-data", "paths", {"out_dir": 5}),     # and no --out
    ])
    def test_wrong_type_in_a_typed_field_is_3(self, tmp_path, monkeypatch, command, section,
                                              values):
        payload = {**TINY, section: {**TINY.get(section, {}), **values}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        monkeypatch.chdir(tmp_path)   # where a default out_dir would be made
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main([command, "--config", str(cfg_path)]) == 3
        key = next(iter(values))
        assert err.getvalue().startswith(f"error: config: {section}.{key}: expected ")
        assert err.getvalue().count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_missing_config_is_2(self, tmp_path):
        assert main(["gen-data", "--config", str(tmp_path / "none.json")]) == 2


class TestAtomicWrites:
    """A write that fails halfway leaves the previous file and no temp file."""

    class Halfway:
        def get(self, name):
            raise RuntimeError("halfway")

    def test_csv(self, tmp_path):
        path = tmp_path / "report.csv"
        cli._write_csv(path, ["model"], [{"model": "old"}])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="halfway"):
            cli._write_csv(path, ["model"], [{"model": "new"}, self.Halfway()])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    class HalfwayFile:
        """A file handle that takes five lines, then fails inside the sixth."""

        def __init__(self, fh):
            self.fh, self.lines = fh, 0

        def write(self, text):
            for line in text.splitlines(keepends=True):
                if self.lines == 5:
                    self.fh.write(line[: len(line) // 2])
                    raise RuntimeError("halfway")
                self.fh.write(line)
                self.lines += line.endswith("\n")

        def writelines(self, lines):
            for line in lines:
                self.write(line)

    def test_dataset(self, pipeline_run, tmp_path, monkeypatch):
        cfg_path, src = pipeline_run
        records, _ = load_dataset(src / "dataset.jsonl")
        out = copy_run(src, tmp_path / "data")
        before = sorted((p.name, p.read_bytes()) for p in out.iterdir())
        cfg = load_config(cfg_path).data
        real_atomic_write, handles = datagen.atomic_write, []

        @contextlib.contextmanager
        def halfway_write(path, *args, **kwargs):
            with real_atomic_write(path, *args, **kwargs) as fh:
                handles.append(self.HalfwayFile(fh))
                yield handles[-1]

        monkeypatch.setattr(datagen, "atomic_write", halfway_write)
        with pytest.raises(RuntimeError, match="halfway"):
            write_dataset(records, cfg, out / "dataset.jsonl")
        assert [h.lines for h in handles] == [5]   # the write failed midway through the data
        assert sorted((p.name, p.read_bytes()) for p in out.iterdir()) == before


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    """A tiny finished run (60 records) whose inputs the fuzz test damages."""
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg_path, out_dir = write_config(
        tmp, data={"num_records": 60},
        training={"eval_epochs": 1, "gen_epochs": 1, "hr_validation_records": 6})
    run_pipeline(cfg_path)
    return cfg_path, out_dir


class TestFuzzInputs:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("target", RUN_FILES)
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_input_exits_with_a_code(self, fuzz_run, target, data):
        """One-byte substitutions and truncations of a run's inputs end in a
        documented exit code with one error line, never an exception."""
        cfg_path, src = fuzz_run
        raw = bytearray((src / target).read_bytes())
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        if data.draw(st.booleans(), label="truncate"):
            del raw[pos:]
        else:
            # digits keep most JSON valid and reach the range checks
            raw[pos] = data.draw(st.sampled_from(b"0123456789") | st.integers(0, 255),
                                 label="byte")
        with tempfile.TemporaryDirectory() as tmp:
            out = copy_run(src, Path(tmp))
            (out / target).write_bytes(bytes(raw))
            commands = ["bench"] if target.endswith(".ckpt") else ["train-eval", "bench"]
            for cmd in commands:
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    rc = main([cmd, "--config", str(cfg_path), "--out", str(out)])
                assert rc in (0, 1, 2, 3), (cmd, rc)
                if rc:
                    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


FUZZ_BASE = {**TINY, "data": {**TINY["data"], "num_records": 60},
             "training": {**TINY["training"], "eval_epochs": 1, "gen_epochs": 1,
                          "hr_validation_records": 6}}
FUZZ_SOURCES = {
    "config": ("gen-data", json.dumps(FUZZ_BASE, indent=1)),
    "sweep-spec": ("sweep", json.dumps({"version": 1, "param": "training.alpha",
                                        "values": [0.2], "base": FUZZ_BASE}, indent=1)),
}


class TestFuzzConfigs:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("source", sorted(FUZZ_SOURCES))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_damaged_config_exits_with_a_code(self, source, data):
        """One-byte substitutions and truncations of a config or a sweep spec
        end in a documented exit code with one error line, never an exception."""
        command, text = FUZZ_SOURCES[source]
        raw = bytearray(text.encode("utf-8"))
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        if data.draw(st.booleans(), label="truncate"):
            del raw[pos:]
        else:
            raw[pos] = data.draw(st.sampled_from(b"0123456789") | st.integers(0, 255),
                                 label="byte")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_bytes(bytes(raw))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                # --out keeps a damaged paths.out_dir from choosing where to write
                rc = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert rc in (0, 1, 2, 3), rc
        if rc:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestNotUtf8:
    @pytest.mark.parametrize("source", sorted(FUZZ_SOURCES))
    def test_undecodable_byte_exits_3_naming_the_file(self, tmp_path, source):
        command, text = FUZZ_SOURCES[source]
        raw = bytearray(text.encode("utf-8"))
        raw[text.index("version")] = 0x8E
        path = tmp_path / f"undecodable_{source}.json"
        path.write_bytes(bytes(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert path.name in err.getvalue() and "0x8e" in err.getvalue()


def write_sweep_spec(tmp_path, param, values, data_seed=5):
    base = json.loads(json.dumps(TINY))
    base["data"]["seed"] = data_seed
    base["paths"] = {"out_dir": str(tmp_path / "unused")}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({"version": 1, "param": param, "values": values,
                                     "base": base}))
    return spec_path, base


def report_config_hash(run_dir):
    first = (run_dir / "report.csv").read_text().splitlines()[0]
    assert first.startswith("# config_sha256=")
    return first.split("=", 1)[1]


class TestSeedOverride:
    def test_seed_flag_changes_dataset(self, tmp_path):
        cfg_path, out = write_config(tmp_path, "seeded")
        assert main(["gen-data", "--config", str(cfg_path), "--seed", "99"]) == 0
        first = (out / "dataset.jsonl").read_bytes()
        assert main(["gen-data", "--config", str(cfg_path), "--seed", "100"]) == 0
        assert (out / "dataset.jsonl").read_bytes() != first

    @pytest.mark.parametrize("param,value,data_seed", [
        ("training.alpha", 0.2, 99),
        ("data.seed", 3, 3),     # a swept seed wins over the flag
    ])
    def test_seed_flag_reaches_the_sweep_base(self, tmp_path, param, value, data_seed):
        spec_path, base = write_sweep_spec(tmp_path, param, [value])
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(spec_path), "--out", str(out), "--seed", "99"]) == 0
        run_dir = out / f"value_{value}"
        manifest = json.loads((run_dir / "dataset.jsonl.manifest.json").read_text())
        assert manifest["seed"] == data_seed
        base["data"]["seed"], base["training"]["seed"] = 99, 99
        section, key = param.split(".")
        base[section][key] = value
        assert report_config_hash(run_dir) == config_hash(config_from_dict(base))


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

    def test_rerun_into_one_out_replaces_shared_artifacts(self, tmp_path):
        out = tmp_path / "sweep_out"
        previous = None
        for data_seed in (7, 8):
            spec_path, _ = write_sweep_spec(tmp_path, "training.alpha", [0, 0.2], data_seed)
            assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == 0
            shared = {name: (out / name).read_bytes() for name in
                      ("dataset.jsonl", "dataset.jsonl.manifest.json", "eval.ckpt")}
            for value in ("0", "0.2"):
                for name, data in shared.items():
                    assert (out / f"value_{value}" / name).read_bytes() == data, (value, name)
            assert shared != previous
            previous = shared

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
        pytest.param({"param": "training.alpha", "values": [0.1, float("nan")]}, id="nan-value"),
        pytest.param({"param": "training.lr", "values": [float("inf")]}, id="infinite-value"),
        pytest.param({"version": True, "param": "training.alpha", "values": [0.2]},
                     id="version-true"),
        pytest.param({"version": 1.0, "param": "training.alpha", "values": [0.2]},
                     id="version-float"),
        pytest.param({"param": "training.alpha", "values": [0.2, True]}, id="bool-value"),
    ])
    def test_malformed_sweep_spec_is_3(self, tmp_path, capsys, spec):
        base = json.loads(json.dumps(TINY))
        base["paths"] = {"out_dir": str(tmp_path / "unused")}
        if isinstance(spec, dict):
            spec = {"version": 1, "base": base, **spec}
        spec_path = tmp_path / "sweep_malformed.json"
        spec_path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1
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
