"""Command-line pipeline: data generation, training, reranking, benchmarks.

Every command reads one JSON config, writes fixed filenames under the output
directory and is deterministic given config plus seed. Reports embed the
config hash and checkpoint hashes so a result can always be traced back to
its inputs. Exit codes: 0 success, 2 missing input file or checkpoint,
3 invalid configuration, 1 a malformed dataset or checkpoint, a non-finite
value or any other runtime error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluator as ev
from . import pipeline as pl
from . import trainer as tr
from .checkpoint import CheckpointError, atomic_write
from .config import (
    Config,
    ConfigError,
    config_from_dict,
    config_hash,
    load_config,
    read_json,
    set_by_dotted_key,
)
from .datagen import DatasetError, gen_logs, load_dataset, split_records
from .generator import GeneratorParams, GumbelConfig

DATASET_FILE = "dataset.jsonl"
EVAL_CKPT = "eval.ckpt"
GEN_CKPT = "gen.ckpt"
EVAL_HISTORY = "eval_history.csv"
GEN_HISTORY = "gen_history.csv"
TRACE_FILE = "trace.jsonl"
REPORT_FILE = "report.csv"
SUMMARY_FILE = "summary.csv"


class MissingArtifact(FileNotFoundError):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict],
               provenance: dict[str, str] | None = None):
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in (provenance or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in fieldnames])


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise MissingArtifact(f"{what} not found: {path}")
    return path


def _model_dims(cfg: Config) -> ev.ModelDims:
    return ev.ModelDims(
        item_vocab=cfg.data.num_items,
        cat_vocab=cfg.data.num_categories,
        brand_vocab=cfg.data.num_brands,
        list_size=cfg.data.list_size,
        num_candidates=cfg.data.num_candidates,
        history_sessions=cfg.data.history_sessions,
        embed_dim=cfg.model.embed_dim,
        mlp_hidden=tuple(cfg.model.mlp_hidden),
    )


def _gumbel_config(cfg: Config) -> GumbelConfig:
    t = cfg.training
    return GumbelConfig(tau=t.tau_end, noise=False, theta_p=t.theta_p,
                        theta_c=t.theta_c, max_steps=t.max_steps)


def _load_split(cfg: Config, out_dir: Path):
    records, manifest = load_dataset(_require(out_dir / DATASET_FILE, "dataset"))
    for key in ("num_items", "num_categories", "num_brands", "history_sessions",
                "list_size", "num_candidates"):
        if manifest[key] != getattr(cfg.data, key):
            raise DatasetError(f"dataset has {key}={manifest[key]} but the config "
                               f"has data.{key}={getattr(cfg.data, key)}")
    return split_records(records, manifest)


def _load_evaluator(cfg: Config, out_dir: Path) -> ev.EvaluatorParams:
    params = ev.EvaluatorParams.load(_require(out_dir / EVAL_CKPT, "evaluator checkpoint"))
    if params.dims != _model_dims(cfg):
        raise CheckpointError(f"{EVAL_CKPT}: dims {params.dims} do not match the config")
    return params


def cmd_gen_data(cfg: Config, out_dir: Path) -> None:
    train, test = gen_logs(cfg.data, out_dir / DATASET_FILE)
    print(f"wrote {len(train) + len(test)} records ({len(train)} train / {len(test)} test) "
          f"to {out_dir / DATASET_FILE}")


def cmd_train_eval(cfg: Config, out_dir: Path) -> None:
    train, test = _load_split(cfg, out_dir)
    params, history = ev.train_evaluator(train, test, _model_dims(cfg), cfg.training)
    params.save(out_dir / EVAL_CKPT)
    _write_csv(out_dir / EVAL_HISTORY,
               ["epoch", "split", "auc", "logloss", "ndcg5", "ndcg10"],
               history, {"config_sha256": config_hash(cfg)})
    best = max(row["auc"] for row in history if row["split"] == "test")
    print(f"evaluator saved to {out_dir / EVAL_CKPT} (best test AUC {best:.4f})")


def cmd_train_gen(cfg: Config, out_dir: Path) -> None:
    train, test = _load_split(cfg, out_dir)
    eval_params = _load_evaluator(cfg, out_dir)
    val = test[: cfg.training.hr_validation_records]
    val_users = ev.user_vectors(val, eval_params)
    keys: list = []   # the validation cutoff keys, built once the reward scale is known
    gcfg = _gumbel_config(cfg)

    def epoch_cb(gp, epoch):
        if not keys:
            rc = tr.reward_config(cfg.training, gp.reward_scale)
            keys.append(pl.build_oracle_tables(val, eval_params, rc, val_users))
        lists, _ = pl.rerank_records(val, gp, gcfg, val_users)
        return {"hr10_val": pl.evaluate_rerankers(keys[0], {"gen": lists}).hr["gen"][10.0]}

    gp, history, reward_cfg = tr.train_generator(train, eval_params, cfg.training,
                                                 epoch_callback=epoch_cb)
    gp.save(out_dir / GEN_CKPT)
    rows = [{"epoch": r["epoch"], "loss_main": r["loss_main"], "loss_aux": r["loss_aux"],
             "loss_total": r["loss_total"], "hr10_val": r.get("hr10_val")} for r in history]
    _write_csv(out_dir / GEN_HISTORY,
               ["epoch", "loss_main", "loss_aux", "loss_total", "hr10_val"],
               rows, {"config_sha256": config_hash(cfg)})
    print(f"generator saved to {out_dir / GEN_CKPT} "
          f"(reward scale {reward_cfg.scale:.6g}, final val HR@10% "
          f"{rows[-1]['hr10_val']:.4f})")


def cmd_rerank(cfg: Config, out_dir: Path) -> None:
    _, test = _load_split(cfg, out_dir)
    gp = GeneratorParams.load(_require(out_dir / GEN_CKPT, "generator checkpoint"),
                              _load_evaluator(cfg, out_dir))
    lists, traces = pl.rerank_records(test, gp, _gumbel_config(cfg),
                                      ev.user_vectors(test, gp.shared))
    items = test.candidate_ids[..., 0]
    columns = (test.exposed, lists, test.exposed_ids[..., 0], np.take_along_axis(items, lists, 1))
    path = out_dir / TRACE_FILE
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for i, (initial, final, initial_items, final_items, trace) in enumerate(
                zip(*(c.tolist() for c in columns), traces)):
            obj = {"record": i, "initial": initial, "final": final, "initial_items": initial_items,
                   "final_items": final_items, "stop_reason": trace.stop_reason,
                   "steps": trace.to_json()}
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
    changed = int(np.count_nonzero((test.exposed != lists).any(axis=1)))
    print(f"wrote {len(lists)} reranked lists to {path} ({changed} changed)")


def _bench_report(cfg: Config, out_dir: Path) -> list[dict]:
    _, test = _load_split(cfg, out_dir)
    eval_params = _load_evaluator(cfg, out_dir)
    gp = GeneratorParams.load(_require(out_dir / GEN_CKPT, "generator checkpoint"), eval_params)
    reward_cfg = tr.reward_config(cfg.training, gp.reward_scale)

    e_user = ev.user_vectors(test, eval_params)
    eval_row = ev.evaluate_metrics(test, eval_params, e_user)
    lists = pl.baseline_lists(test, eval_params, cfg.training.seed, e_user)
    lists["generator"], _ = pl.rerank_records(test, gp, _gumbel_config(cfg), e_user)
    # each block of oracle tables is freed once reduced to its records' cutoff keys
    hr = pl.evaluate_rerankers(pl.build_oracle_tables(test, eval_params, reward_cfg, e_user),
                               lists)
    rows = [{"model": "evaluator", **eval_row}]
    for model in ("input", "random", "greedy", "generator"):
        rows.append({"model": model,
                     "hr10": hr.hr[model][10.0], "hr1": hr.hr[model][1.0]})
    return rows


REPORT_COLUMNS = ["model", "auc", "logloss", "ndcg5", "ndcg10", "hr10", "hr1"]


def cmd_bench(cfg: Config, out_dir: Path) -> list[dict]:
    """Write report.csv and print it; returns its rows."""
    rows = _bench_report(cfg, out_dir)
    provenance = {
        "config_sha256": config_hash(cfg),
        "eval_ckpt_sha256": _file_hash(out_dir / EVAL_CKPT),
        "gen_ckpt_sha256": _file_hash(out_dir / GEN_CKPT),
    }
    _write_csv(out_dir / REPORT_FILE, REPORT_COLUMNS, rows, provenance)
    print(f"wrote {out_dir / REPORT_FILE}")
    widths = [10, 8, 8, 8, 8, 8, 8]
    print("  " + " ".join(name.ljust(w) for name, w in zip(REPORT_COLUMNS, widths)))
    for row in rows:
        cells = [str(row.get("model", "")).ljust(widths[0])]
        for name, w in zip(REPORT_COLUMNS[1:], widths[1:]):
            v = row.get(name)
            cells.append(("" if v is None else f"{v:.4f}").ljust(w))
        print("  " + " ".join(cells))
    return rows


_EVAL_STAGE_KEYS = {
    "model.embed_dim", "model.mlp_hidden", "model.num_fields",
    "training.lr", "training.batch_size", "training.eval_epochs", "training.seed",
}


def cmd_sweep(spec_path: Path, out_dir: Path, seed: int | None) -> None:
    payload = read_json(_require(spec_path, "sweep spec"), f"sweep spec {spec_path}")
    if not isinstance(payload, dict):
        raise ConfigError("sweep spec: expected an object")
    for key in ("version", "param", "values", "base"):
        if key not in payload:
            raise ConfigError(f"sweep spec: missing key {key}")
    unknown = sorted(set(payload) - {"version", "param", "values", "base"})
    if unknown:
        raise ConfigError(f"sweep spec: unknown key {unknown[0]}")
    if type(payload["version"]) is not int or payload["version"] != 1:
        raise ConfigError(f"sweep spec: version: expected 1, got {payload['version']!r}")
    base = _apply_overrides(config_from_dict(payload["base"]), seed)
    param, values = payload["param"], payload["values"]
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep spec: values must be a nonempty list")
    for value in values:  # every setting must be valid before any stage runs
        set_by_dotted_key(base, param, value)

    shared_stages = not (param.startswith("data.") or param in _EVAL_STAGE_KEYS)
    if shared_stages:
        cmd_gen_data(base, out_dir)
        cmd_train_eval(base, out_dir)

    summary = []
    for value in values:
        cfg_v = set_by_dotted_key(base, param, value)
        tag = str(value).replace("/", "_")
        sub = out_dir / f"value_{tag}"
        sub.mkdir(parents=True, exist_ok=True)
        if shared_stages:
            for name in (DATASET_FILE, DATASET_FILE + ".manifest.json", EVAL_CKPT):
                with atomic_write(sub / name, "wb") as fh:
                    fh.write((out_dir / name).read_bytes())
        else:
            cmd_gen_data(cfg_v, sub)
            cmd_train_eval(cfg_v, sub)
        cmd_train_gen(cfg_v, sub)
        rows = cmd_bench(cfg_v, sub)
        gen_row = next(r for r in rows if r["model"] == "generator")
        eval_row = next(r for r in rows if r["model"] == "evaluator")
        summary.append({"param": param, "value": value,
                        "auc": eval_row.get("auc"), "logloss": eval_row.get("logloss"),
                        "ndcg5": eval_row.get("ndcg5"), "ndcg10": eval_row.get("ndcg10"),
                        "hr10": gen_row.get("hr10"), "hr1": gen_row.get("hr1")})
    _write_csv(out_dir / SUMMARY_FILE,
               ["param", "value", "auc", "logloss", "ndcg5", "ndcg10", "hr10", "hr1"],
               summary, {"sweep_param": param})
    print(f"wrote {out_dir / SUMMARY_FILE} ({len(values)} settings)")


def _apply_overrides(cfg: Config, seed: int | None) -> Config:
    if seed is not None:
        cfg = dataclasses.replace(cfg)
        cfg.data = dataclasses.replace(cfg.data, seed=seed)
        cfg.training = dataclasses.replace(cfg.training, seed=seed)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neighborrank",
        description="Synthetic-log reranking lab: simulate, train, rerank, benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("gen-data", "generate the synthetic session log"),
        ("train-eval", "train the list evaluator"),
        ("train-gen", "train the list generator against a frozen evaluator"),
        ("rerank", "run the generator on the test split and dump traces"),
        ("bench", "full metrics report including exhaustive hit ratios"),
        ("sweep", "run a parameter sweep from a sweep spec"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON config path "
                       "(sweep: a sweep spec with base config inside)")
        p.add_argument("--out", default=None, help="output directory "
                       "(default: paths.out_dir from the config)")
        p.add_argument("--seed", type=int, default=None,
                       help="override data and training seeds")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy reports overflow as warnings; the error line below says it once
        with np.errstate(all="ignore"):
            if args.command == "sweep":
                out_dir = Path(args.out) if args.out else Path("runs/sweep")
                out_dir.mkdir(parents=True, exist_ok=True)
                cmd_sweep(Path(args.config), out_dir, args.seed)
                return 0
            cfg = _apply_overrides(load_config(args.config), args.seed)
            out_dir = Path(args.out) if args.out else Path(cfg.paths.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            {"gen-data": cmd_gen_data, "train-eval": cmd_train_eval, "train-gen": cmd_train_gen,
             "rerank": cmd_rerank, "bench": cmd_bench}[args.command](cfg, out_dir)
            return 0
    except (MissingArtifact, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

