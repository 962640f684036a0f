"""Synthetic session logs with a known context-dependent click model.

Stands in for production interaction logs. A hidden ground-truth model drives
clicks: each item has a latent quality, users have per-category affinities,
positions carry a strictly decreasing bias, and same-category items earlier in
the list cannibalize clicks. The cannibalization term makes the best ordering
depend on list composition, so sorting by quality alone is measurably
suboptimal and reranking has headroom.

Datasets are written as JSONL (one record per line) with a sidecar manifest
carrying the schema version and the 9:1 train/test split point. Latent
quality never leaves this module: serialized records contain only ids and
labels.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write
from .rng import RngStream

SCHEMA_VERSION = 1
MANIFEST_SUFFIX = ".manifest.json"


class DatasetError(ValueError):
    pass


@dataclass
class Catalog:
    """Item universe: parallel arrays indexed by item id."""

    category: np.ndarray
    brand: np.ndarray
    quality: np.ndarray
    num_categories: int
    num_brands: int

    @property
    def num_items(self) -> int:
        return len(self.category)

    def feature_ids(self, item_ids: np.ndarray) -> np.ndarray:
        """(..., 3) int array of [item, category, brand] ids."""
        item_ids = np.asarray(item_ids)
        return np.stack(
            [item_ids, self.category[item_ids], self.brand[item_ids]], axis=-1
        ).astype(np.int64)


def gen_catalog(seed: int, num_items: int, num_categories: int, num_brands: int = 12) -> Catalog:
    if not (num_items >= num_categories >= 1):
        raise ValueError(f"need num_items >= num_categories >= 1, got {num_items} < {num_categories}")
    rs = RngStream(seed).split("catalog")
    category = rs.split("category").integers(0, num_categories, (num_items,))
    brand = rs.split("brand").integers(0, num_brands, (num_items,))
    quality = rs.split("quality").normal((num_items,))
    return Catalog(category=category, brand=brand, quality=quality,
                   num_categories=num_categories, num_brands=num_brands)


@dataclass
class GroundTruthModel:
    """Hidden click/conversion oracle used only by the simulator and tests."""

    catalog: Catalog
    position_bias: np.ndarray          # strictly decreasing over positions
    affinity_sigma: float
    cannibalization: float             # penalty per earlier same-category item
    conversion_scale: float
    conversion_intercept: float
    seed: int
    quality_scale: float = 1.0
    _affinity_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        diffs = np.diff(self.position_bias)
        if not (diffs < 0).all():
            raise ValueError("position_bias must be strictly decreasing")

    def affinity(self, user_id: int) -> np.ndarray:
        """Per-category affinity of one user; drawn once, then served read-only."""
        user_id = int(user_id)
        aff = self._affinity_cache.get(user_id)
        if aff is None:
            stream = RngStream(self.seed).split("affinity", user_id)
            aff = stream.normal((self.catalog.num_categories,)) * self.affinity_sigma
            aff.flags.writeable = False
            self._affinity_cache[user_id] = aff
        return aff

    def quality(self, item_ids) -> np.ndarray:
        return self.catalog.quality[np.asarray(item_ids)] * self.quality_scale

    def list_click_probs(self, item_ids, user_id: int) -> np.ndarray:
        """Click probability at every position of an ordered list."""
        item_ids = np.asarray(item_ids)
        cats = self.catalog.category[item_ids]
        aff = self.affinity(user_id)[cats]
        qual = self.quality(item_ids)
        m = len(item_ids)
        # earlier items sharing each slot's category
        dup = np.tril(cats[:, None] == cats[None, :], k=-1).sum(axis=1).astype(np.float64)
        logits = qual + aff + self.position_bias[:m] - self.cannibalization * dup
        return 0.5 * (1.0 + np.tanh(0.5 * logits))

    def conversion_prob(self, item_id: int, user_id: int) -> float:
        cat = int(self.catalog.category[item_id])
        z = self.conversion_intercept + self.conversion_scale * (
            float(self.quality([item_id])[0]) + float(self.affinity(user_id)[cat])
        )
        return 0.5 * (1.0 + math.tanh(0.5 * z))

    def expected_clicks(self, item_ids, user_id: int) -> float:
        return float(self.list_click_probs(item_ids, user_id).sum())


@dataclass
class InteractionRecord:
    """One logged impression: history sessions, candidates, exposed list, labels."""

    user_id: int
    session_ids: np.ndarray       # (H, m, 3) feature ids
    session_clicks: np.ndarray    # (H, m)
    session_convs: np.ndarray     # (H, m)
    candidate_ids: np.ndarray     # (n, 3) feature ids
    exposed: np.ndarray           # (m,) indices into candidates
    clicks: np.ndarray            # (m,)
    convs: np.ndarray             # (m,)

    @property
    def exposed_ids(self) -> np.ndarray:
        """(m, 3) feature ids of the exposed list."""
        return self.candidate_ids[self.exposed]


@dataclass
class DataConfig:
    seed: int = 7
    num_items: int = 200
    num_categories: int = 8
    num_brands: int = 12
    num_users: int = 400
    history_sessions: int = 3     # H
    list_size: int = 5            # m
    num_candidates: int = 5       # n
    num_records: int = 10_000
    quality_sigma: float = 1.0
    affinity_sigma: float = 0.8
    position_intercept: float = 1.0
    position_slope: float = 0.5
    cannibalization: float = 1.0
    exposure_noise: float = 0.5
    conversion_scale: float = 1.0
    conversion_intercept: float = -1.0
    train_fraction: float = 0.9

    def __post_init__(self):
        for name in ("num_items", "num_categories", "num_brands", "num_users",
                     "history_sessions", "list_size", "num_records"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.list_size > self.num_candidates:
            raise ValueError("list_size cannot exceed num_candidates")
        if self.num_candidates > self.num_items:
            raise ValueError("num_candidates cannot exceed num_items")
        if self.position_slope <= 0:
            raise ValueError("position_slope must be positive (position bias must decrease)")


def ground_truth(cfg: DataConfig, catalog: Catalog | None = None) -> GroundTruthModel:
    catalog = catalog or gen_catalog(cfg.seed, cfg.num_items, cfg.num_categories, cfg.num_brands)
    bias = cfg.position_intercept - cfg.position_slope * np.arange(cfg.list_size, dtype=np.float64)
    return GroundTruthModel(
        catalog=catalog,
        position_bias=bias,
        affinity_sigma=cfg.affinity_sigma,
        cannibalization=cfg.cannibalization,
        conversion_scale=cfg.conversion_scale,
        conversion_intercept=cfg.conversion_intercept,
        seed=cfg.seed,
        quality_scale=cfg.quality_sigma,
    )


def _sample_labels(model: GroundTruthModel, item_ids: np.ndarray, user_id: int,
                   rs: RngStream) -> tuple[np.ndarray, np.ndarray]:
    probs = model.list_click_probs(item_ids, user_id)
    clicks = (rs.uniform((len(item_ids),)) < probs).astype(np.int64)
    clicked = np.flatnonzero(clicks)
    conv_probs = [model.conversion_prob(int(item_ids[j]), user_id) for j in clicked]
    convs = np.zeros(len(item_ids), dtype=np.int64)
    convs[clicked] = rs.uniform((len(clicked),)) < conv_probs
    return clicks, convs


def _ranked_exposure(model: GroundTruthModel, pool: np.ndarray, user_id: int,
                     noise: float, m: int, rs: RngStream, personalized: bool) -> np.ndarray:
    score = model.quality(pool)
    if personalized:
        score += model.affinity(user_id)[model.catalog.category[pool]]
    score += rs.normal((len(pool),)) * noise
    order = np.argsort(-score, kind="stable")
    return pool[order[:m]]


def generate_records(cfg: DataConfig, model: GroundTruthModel | None = None) -> list[InteractionRecord]:
    model = model or ground_truth(cfg)
    cat = model.catalog
    root = RngStream(cfg.seed).split("records")
    records = []
    for i in range(cfg.num_records):
        rs = root.split(i)
        user_id = rs.split("user").integers(0, cfg.num_users)

        ses_ids = np.zeros((cfg.history_sessions, cfg.list_size, 3), dtype=np.int64)
        ses_clicks = np.zeros((cfg.history_sessions, cfg.list_size), dtype=np.int64)
        ses_convs = np.zeros((cfg.history_sessions, cfg.list_size), dtype=np.int64)
        for h in range(cfg.history_sessions):
            hs = rs.split("session", h)
            pool = hs.choice(cat.num_items, cfg.num_candidates)
            # history exposure was personalized, so session content reflects taste
            shown = _ranked_exposure(model, pool, user_id, cfg.exposure_noise,
                                     cfg.list_size, hs.split("rank"), personalized=True)
            ses_ids[h] = cat.feature_ids(shown)
            ses_clicks[h], ses_convs[h] = _sample_labels(model, shown, user_id, hs.split("labels"))

        cs = rs.split("current")
        pool = cs.choice(cat.num_items, cfg.num_candidates)
        shown = _ranked_exposure(model, pool, user_id, cfg.exposure_noise,
                                 cfg.list_size, cs.split("rank"), personalized=False)
        pool_pos = {int(item): idx for idx, item in enumerate(pool)}
        exposed = np.array([pool_pos[int(item)] for item in shown], dtype=np.int64)
        clicks, convs = _sample_labels(model, shown, user_id, cs.split("labels"))

        records.append(InteractionRecord(
            user_id=int(user_id),
            session_ids=ses_ids,
            session_clicks=ses_clicks,
            session_convs=ses_convs,
            candidate_ids=cat.feature_ids(pool),
            exposed=exposed,
            clicks=clicks,
            convs=convs,
        ))
    return records


def _record_to_json(rec: InteractionRecord) -> str:
    sessions = []
    for h in range(rec.session_ids.shape[0]):
        sessions.append([
            {
                "item": int(rec.session_ids[h, j, 0]),
                "cat": int(rec.session_ids[h, j, 1]),
                "brand": int(rec.session_ids[h, j, 2]),
                "click": int(rec.session_clicks[h, j]),
                "conv": int(rec.session_convs[h, j]),
            }
            for j in range(rec.session_ids.shape[1])
        ])
    obj = {
        "user_id": rec.user_id,
        "sessions": sessions,
        "candidates": [
            {"item": int(r[0]), "cat": int(r[1]), "brand": int(r[2])} for r in rec.candidate_ids
        ],
        "exposed": [int(x) for x in rec.exposed],
        "clicks": [int(x) for x in rec.clicks],
        "convs": [int(x) for x in rec.convs],
    }
    return json.dumps(obj, separators=(",", ":"))


def manifest_path(dataset_path) -> Path:
    p = Path(dataset_path)
    return p.with_name(p.name + MANIFEST_SUFFIX)


def write_dataset(records: list[InteractionRecord], cfg: DataConfig, path) -> Path:
    """Write records as JSONL plus a sidecar manifest; returns the data path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    num_train = int(math.floor(cfg.train_fraction * len(records)))
    try:
        with atomic_write(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(_record_to_json(rec))
                fh.write("\n")
    except OSError as exc:
        raise DatasetError(f"cannot write dataset at {path}: {exc}") from exc
    manifest = {"version": SCHEMA_VERSION, "num_records": len(records), "num_train": num_train,
                "num_test": len(records) - num_train,
                **{key: getattr(cfg, key) for key in ("seed", "list_size", "history_sessions",
                   "num_candidates", "num_items", "num_categories", "num_brands")}}
    with atomic_write(manifest_path(path), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
    return path


def gen_logs(cfg: DataConfig, path) -> tuple[list[InteractionRecord], list[InteractionRecord]]:
    """Generate, write and return the (train, test) record split."""
    records = generate_records(cfg)
    write_dataset(records, cfg, path)
    num_train = int(math.floor(cfg.train_fraction * len(records)))
    return records[:num_train], records[num_train:]


def _in_range(values, bound: int) -> bool:
    """Whether values is a nonempty run of JSON integers in [0, bound)."""
    return set(map(type, values)) == {int} and min(values) >= 0 and max(values) < bound


def _ints(values, length: int, bound: int, what: str, fail) -> np.ndarray:
    if not (isinstance(values, list) and len(values) == length and _in_range(values, bound)):
        fail(f"field {what!r} must hold {length} integers in [0, {bound})")
    return np.array(values, dtype=np.int64)


def _objects(items, length: int, fields: dict[str, int], what: str, fail) -> np.ndarray:
    """(length, len(fields)) int64 array of each object's named integer
    fields; each value must lie in [0, limit) of its field."""
    if not (isinstance(items, list) and len(items) == length
            and all(isinstance(item, dict) for item in items)):
        fail(f"field {what!r} must hold {length} objects")
    rows = [[item[name] for name in fields] for item in items]
    for (name, limit), column in zip(fields.items(), zip(*rows)):
        if not _in_range(column, limit):
            fail(f"field {what!r}: every {name!r} must be an integer in [0, {limit})")
    return np.array(rows, dtype=np.int64).reshape(length, len(fields))


def _parse_record(obj, line_no: int, manifest: dict) -> InteractionRecord:
    def fail(msg: str):
        raise DatasetError(f"line {line_no}: {msg}")

    if not isinstance(obj, dict):
        fail("not a JSON object")
    H, m, n = manifest["history_sessions"], manifest["list_size"], manifest["num_candidates"]
    features = {"item": manifest["num_items"], "cat": manifest["num_categories"],
                "brand": manifest["num_brands"]}
    sessions = obj.get("sessions")
    if not (isinstance(sessions, list) and len(sessions) == H
            and all(isinstance(s, list) and len(s) == m for s in sessions)):
        fail(f"field 'sessions' must hold {H} sessions of {m} items")
    ses = _objects([it for s in sessions for it in s], H * m,
                   {**features, "click": 2, "conv": 2}, "sessions", fail).reshape(H, m, 5)
    if (ses[..., 4] > ses[..., 3]).any():  # labels are 0/1
        fail("field 'sessions': conversion without click")
    exposed = _ints(obj.get("exposed"), m, n, "exposed", fail)
    if len(set(exposed.tolist())) != m:
        fail("field 'exposed': duplicate candidate index")
    clicks = _ints(obj.get("clicks"), m, 2, "clicks", fail)
    convs = _ints(obj.get("convs"), m, 2, "convs", fail)
    if (convs > clicks).any():
        fail("field 'convs': conversion without click")
    if type(obj.get("user_id")) is not int:
        fail("field 'user_id' must be an integer")
    return InteractionRecord(
        user_id=obj["user_id"], session_ids=ses[..., :3], session_clicks=ses[..., 3],
        session_convs=ses[..., 4], exposed=exposed, clicks=clicks, convs=convs,
        candidate_ids=_objects(obj.get("candidates"), n, features, "candidates", fail))


def _read_manifest(mpath: Path) -> dict:
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise DatasetError(f"{mpath}: unreadable manifest ({exc})") from exc
    version = manifest.get("version") if isinstance(manifest, dict) else None
    if version != SCHEMA_VERSION:
        raise DatasetError(f"{mpath}: schema version {version} != supported {SCHEMA_VERSION}")
    for key in ("num_records", "num_train", "history_sessions", "list_size",
                "num_candidates", "num_items", "num_categories", "num_brands"):
        if type(manifest.get(key)) is not int or manifest[key] < 0:
            raise DatasetError(f"{mpath}: {key!r} must be a nonnegative integer")
    if manifest["num_train"] > manifest["num_records"]:
        raise DatasetError(f"{mpath}: num_train exceeds num_records")
    return manifest


def load_dataset(path) -> tuple[list[InteractionRecord], dict]:
    """Load and validate a JSONL dataset; returns (records, manifest).

    Every malformed line or manifest raises DatasetError naming it,
    including feature ids outside the manifest's vocabulary sizes."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset not found: {path}")
    mpath = manifest_path(path)
    if not mpath.exists():
        raise DatasetError(f"manifest not found: {mpath}")
    manifest = _read_manifest(mpath)
    records = []
    with path.open("rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise DatasetError(f"line {line_no}: not UTF-8") from exc
            except json.JSONDecodeError as exc:
                raise DatasetError(f"line {line_no}: malformed JSON ({exc.msg})") from exc
            try:
                records.append(_parse_record(obj, line_no, manifest))
            except KeyError as exc:
                raise DatasetError(f"line {line_no}: missing field {exc}") from exc
    if len(records) != manifest["num_records"]:
        raise DatasetError(
            f"{path}: {len(records)} records but manifest says {manifest['num_records']}"
        )
    return records, manifest


def split_records(records: list[InteractionRecord], manifest: dict):
    return records[: manifest["num_train"]], records[manifest["num_train"] :]
