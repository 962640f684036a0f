"""Synthetic session logs with a known context-dependent click model.

Stands in for production interaction logs. A hidden ground-truth model drives
clicks: each item has a latent quality, users have per-category affinities,
positions carry a strictly decreasing bias, and same-category items earlier in
the list cannibalize clicks. The cannibalization term makes the best ordering
depend on list composition, so sorting by quality alone is measurably
suboptimal and reranking has headroom.

Records are columns: one `Records` holds every field as an array with a
leading record axis, from the simulator's blocks to every consumer. Datasets
are written as JSONL (one record per line) with a sidecar manifest carrying
the schema version and the 9:1 train/test split point. Latent quality never
leaves this module: serialized records contain only ids and labels.

Given the manifest's (H, m, n) every line has one shape, so one `%d` line
template codes the file both ways: the writer formats it per record. The
reader chooses once per file. When every line matches the template and every
value passes the vectorized checks, it parses all digits at once; any other
file goes line by line through the JSON reference (`_parse_record`), which
owns every error message.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write
from .rng import RngStream, StreamRows

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

    def affinities(self, users) -> np.ndarray:
        """(len(users), C) per-category affinity, one stream row per user."""
        rows = RngStream(self.seed).split_rows("affinity", rows=np.asarray(users))
        return rows.normal((self.catalog.num_categories,)) * self.affinity_sigma

    def affinity(self, user_id: int) -> np.ndarray:
        """Per-category affinity of one user; drawn once, then served read-only."""
        user_id = int(user_id)
        aff = self._affinity_cache.get(user_id)
        if aff is None:
            aff = self.affinities([user_id])[0]
            aff.flags.writeable = False
            self._affinity_cache[user_id] = aff
        return aff

    def quality(self, item_ids) -> np.ndarray:
        return self.catalog.quality[np.asarray(item_ids)] * self.quality_scale

    def click_model(self, item_ids: np.ndarray, aff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Click and conversion probabilities at every slot of (R, m) ordered
        lists, given each row's (R, C) category affinity."""
        cats = self.catalog.category[item_ids]
        qual, taste = self.quality(item_ids), np.take_along_axis(aff, cats, axis=-1)
        # earlier items sharing each slot's category
        dup = np.tril(cats[..., :, None] == cats[..., None, :], k=-1).sum(axis=-1).astype(np.float64)
        logits = qual + taste + self.position_bias[: item_ids.shape[-1]] - self.cannibalization * dup
        z = self.conversion_intercept + self.conversion_scale * (qual + taste)
        return 0.5 * (1.0 + np.tanh(0.5 * logits)), 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass(eq=False)
class Records:
    """Logged impressions as columns, one leading record axis per field.
    Indexing works as in numpy: an int gives one record (the same fields,
    record axis dropped), a slice or an index array gives Records. Iterating
    yields the records in order (indexing until numpy's IndexError)."""

    user_id: np.ndarray           # (N,)
    session_ids: np.ndarray       # (N, H, m, 3) feature ids
    session_clicks: np.ndarray    # (N, H, m)
    session_convs: np.ndarray     # (N, H, m)
    candidate_ids: np.ndarray     # (N, n, 3) feature ids
    exposed: np.ndarray           # (N, m) indices into candidates
    clicks: np.ndarray            # (N, m)
    convs: np.ndarray             # (N, m)

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def __len__(self) -> int:
        return len(self.user_id)

    def __getitem__(self, at) -> "Records":
        return Records(*(col[at] for col in self.columns()))

    @property
    def exposed_ids(self) -> np.ndarray:
        """(..., m, 3) feature ids of the exposed lists."""
        return np.take_along_axis(self.candidate_ids, self.exposed[..., None], axis=-2)


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
        if self.num_categories > self.num_items:
            raise ValueError("num_categories cannot exceed num_items")
        if self.position_slope <= 0:
            raise ValueError("position_slope must be positive (position bias must decrease)")
        if not 0 < self.train_fraction < 1:
            raise ValueError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        if not 0 < num_train(self, self.num_records) < self.num_records:
            raise ValueError(f"train_fraction {self.train_fraction} of {self.num_records} "
                             "records leaves the train or test split empty")


def num_train(cfg: DataConfig, num_records: int) -> int:
    """Records in the train split: the first floor(train_fraction * count)."""
    return int(math.floor(cfg.train_fraction * num_records))


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


def _sample_labels(model: GroundTruthModel, item_ids: np.ndarray, aff: np.ndarray,
                   rows: StreamRows) -> tuple[np.ndarray, np.ndarray]:
    """Clicks and conversions of (R, m) shown lists. Row i draws 2m uniforms:
    slot j clicks on draw j, and the k-th clicked slot converts on draw m + k."""
    m = item_ids.shape[1]
    click_p, conv_p = model.click_model(item_ids, aff)
    u = rows.uniform((2 * m,))
    clicks = (u[:, :m] < click_p).astype(np.int64)
    # a clicked slot's cumsum is 1 + the number of clicks before it
    conv_u = np.take_along_axis(u, m - 1 + np.cumsum(clicks, axis=1), axis=1)
    return clicks, clicks * (conv_u < conv_p)


def _ranked_exposure(model: GroundTruthModel, pool: np.ndarray, aff: np.ndarray | None,
                     noise: float, rows: StreamRows) -> np.ndarray:
    """(R, n) slot order of each pool by noisy score, personalized if aff is given."""
    score = model.quality(pool)
    if aff is not None:
        score += np.take_along_axis(aff, model.catalog.category[pool], axis=1)
    score += rows.normal((pool.shape[1],)) * noise
    return np.argsort(-score, axis=1, kind="stable")


SIM_BLOCK = 1 << 18   # pool draws (records x num_items) per lockstep pass; bounds the memory peak


def generate_records(cfg: DataConfig, model: GroundTruthModel | None = None) -> Records:
    """Simulate the records in lockstep, SIM_BLOCK // num_items at a time:
    record i draws from the stream RngStream(seed).split("records").split(i)."""
    model = model or ground_truth(cfg)
    root, step = RngStream(cfg.seed).split("records"), max(1, SIM_BLOCK // model.catalog.num_items)
    blocks = [_simulate(cfg, model, root.split_rows(rows=np.arange(
        start, min(start + step, cfg.num_records)))) for start in range(0, cfg.num_records, step)]
    return Records(*map(np.concatenate, zip(*(b.columns() for b in blocks))))


def _simulate(cfg: DataConfig, model: GroundTruthModel, rows: StreamRows) -> Records:
    """The records of one block of stream rows."""
    cat, m = model.catalog, cfg.list_size
    u = rows.split("user").uniform((1,))[:, 0]
    users = np.minimum(np.floor(u * cfg.num_users).astype(np.int64), cfg.num_users - 1)
    distinct, which = np.unique(users, return_inverse=True)
    aff = model.affinities(distinct)[which]

    def session(rs: StreamRows, personalized: bool):
        pool = rs.permutation(cat.num_items)[:, : cfg.num_candidates]
        exposed = _ranked_exposure(model, pool, aff if personalized else None,
                                   cfg.exposure_noise, rs.split("rank"))[:, :m]
        shown = np.take_along_axis(pool, exposed, axis=1)
        return (pool, exposed, cat.feature_ids(shown),
                *_sample_labels(model, shown, aff, rs.split("labels")))

    # history exposure was personalized, so session content reflects taste
    history = [session(rows.split("session", h), True) for h in range(cfg.history_sessions)]
    ses_ids, ses_clicks, ses_convs = (np.stack([s[k] for s in history], axis=1) for k in (2, 3, 4))
    pool, exposed, _, clicks, convs = session(rows.split("current"), False)
    return Records(users, ses_ids, ses_clicks, ses_convs, cat.feature_ids(pool), exposed, clicks, convs)


def _line_template(manifest: dict) -> str:
    """One record's JSONL line as json.dumps writes it, one `%d` per value of its `_flat` row."""
    H, m, n = manifest["history_sessions"], manifest["list_size"], manifest["num_candidates"]
    item = {"item": 0, "cat": 0, "brand": 0}
    obj = {"user_id": 0, "sessions": [[{**item, "click": 0, "conv": 0}] * m] * H,
           "candidates": [item] * n, "exposed": [0] * m, "clicks": [0] * m, "convs": [0] * m}
    return json.dumps(obj, separators=(",", ":")).replace("0", "%d")  # no key holds a digit


def _flat(records: Records) -> np.ndarray:
    """(R, F) int rows, one value per `%d` of `_line_template`, in its order."""
    ses = np.concatenate([records.session_ids, records.session_clicks[..., None],
                          records.session_convs[..., None]], axis=-1)
    cols = (records.user_id, ses, records.candidate_ids, records.exposed, records.clicks, records.convs)
    return np.concatenate([col.reshape(len(col), math.prod(col.shape[1:])) for col in cols], axis=1)


def manifest_path(dataset_path) -> Path:
    p = Path(dataset_path)
    return p.with_name(p.name + MANIFEST_SUFFIX)


def write_dataset(records: Records, cfg: DataConfig, path) -> Path:
    """Write records as JSONL plus a sidecar manifest; returns the data path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    train = num_train(cfg, len(records))
    manifest = {"version": SCHEMA_VERSION, "num_records": len(records), "num_train": train,
                "num_test": len(records) - train,
                **{key: getattr(cfg, key) for key in ("seed", "list_size", "history_sessions",
                   "num_candidates", "num_items", "num_categories", "num_brands")}}
    line = _line_template(manifest) + "\n"
    try:
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.writelines(line % tuple(row) for row in _flat(records).tolist())
    except OSError as exc:
        raise DatasetError(f"cannot write dataset at {path}: {exc}") from exc
    with atomic_write(manifest_path(path), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
    return path


def gen_logs(cfg: DataConfig, path) -> tuple[Records, Records]:
    """Generate, write and return the (train, test) record split."""
    records = generate_records(cfg)
    write_dataset(records, cfg, path)
    train = num_train(cfg, len(records))
    return records[:train], records[train:]


def _in_range(values, bound: int) -> bool:
    """Whether values is a nonempty run of JSON integers in [0, bound)."""
    return set(map(type, values)) == {int} and min(values) >= 0 and max(values) < bound


def _ints(values, length: int, bound: int, what: str, fail) -> list[int]:
    if not (isinstance(values, list) and len(values) == length and _in_range(values, bound)):
        fail(f"field {what!r} must hold {length} integers in [0, {bound})")
    return values


def _objects(items, length: int, names: dict[str, int], what: str, fail) -> list[list[int]]:
    """Each object's named integer fields, `length` rows of len(names); each
    value must lie in [0, limit) of its name."""
    if not (isinstance(items, list) and len(items) == length
            and all(isinstance(item, dict) for item in items)):
        fail(f"field {what!r} must hold {length} objects")
    try:
        rows = [[item[name] for name in names] for item in items]
    except KeyError as exc:
        fail(f"missing field {exc}")
    for (name, limit), column in zip(names.items(), zip(*rows)):
        if not _in_range(column, limit):
            fail(f"field {what!r}: every {name!r} must be an integer in [0, {limit})")
    return rows


def _parse_record(line: bytes, line_no: int, manifest: dict) -> list[int]:
    """One JSONL line's checked fields as its `_flat` row."""
    def fail(msg: str):
        raise DatasetError(f"line {line_no}: {msg}")

    try:
        obj = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError:
        fail("not UTF-8")
    except json.JSONDecodeError as exc:
        fail(f"malformed JSON ({exc.msg})")
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
                   {**features, "click": 2, "conv": 2}, "sessions", fail)
    if any(conv > click for *_, click, conv in ses):  # labels are 0/1
        fail("field 'sessions': conversion without click")
    exposed = _ints(obj.get("exposed"), m, n, "exposed", fail)
    if len(set(exposed)) != m:
        fail("field 'exposed': duplicate candidate index")
    clicks = _ints(obj.get("clicks"), m, 2, "clicks", fail)
    convs = _ints(obj.get("convs"), m, 2, "convs", fail)
    if any(conv > click for click, conv in zip(clicks, convs)):
        fail("field 'convs': conversion without click")
    user = obj.get("user_id")
    if type(user) is not int or not -(2**63) <= user < 2**63:
        fail("field 'user_id' must be a 64-bit integer")
    cands = _objects(obj.get("candidates"), n, features, "candidates", fail)
    return [user, *(v for row in ses + cands for v in row), *exposed, *clicks, *convs]


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
        if type(manifest.get(key)) is not int or not 0 <= manifest[key] < 2**63:
            raise DatasetError(f"{mpath}: {key!r} must be a nonnegative 64-bit integer")
    if manifest["num_train"] > manifest["num_records"]:
        raise DatasetError(f"{mpath}: num_train exceeds num_records")
    return manifest


def _accepted(records: Records, manifest: dict) -> np.ndarray:
    """Per record, whether `_parse_record` accepts its values, all in [0, 2**63)."""
    vocab = [manifest["num_items"], manifest["num_categories"], manifest["num_brands"]]
    checks = [records.session_ids < vocab, records.candidate_ids < vocab,
              records.session_clicks < 2, records.session_convs <= records.session_clicks,
              records.exposed < manifest["num_candidates"], records.clicks < 2,
              records.convs <= records.clicks, np.diff(np.sort(records.exposed), axis=1) > 0]
    ok = [check.all(axis=tuple(range(1, check.ndim))) for check in checks]
    return np.logical_and.reduce(ok) & (manifest["list_size"] > 0)  # exposed must be nonempty


_VALUE = rb"(?:0|[1-9][0-9]{0,17})"   # a JSON integer below 10**18: no sign, no leading zero
_NUMBERS_ONLY = bytes(c if chr(c) in "-0123456789" else 32 for c in range(256))


def _records(flat, manifest: dict) -> Records:
    """Records from (R, F) `_flat` rows: the inverse of `_flat`."""
    H, m, n = manifest["history_sessions"], manifest["list_size"], manifest["num_candidates"]
    widths = [1, 5 * H * m, 3 * n, m, m, m]
    flat = np.asarray(flat, dtype=np.int64).reshape(len(flat), sum(widths))
    user, ses, cand, exposed, clicks, convs = np.split(flat, np.cumsum(widths)[:-1], axis=1)
    ses, cand = ses.reshape(len(flat), H, m, 5), cand.reshape(len(flat), n, 3)
    return Records(user[:, 0], ses[..., :3], ses[..., 3], ses[..., 4], cand, exposed, clicks, convs)


def load_dataset(path) -> tuple[Records, dict]:
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
    H, m, n = manifest["history_sessions"], manifest["list_size"], manifest["num_candidates"]
    with path.open("rb") as fh:
        lines = fh.readlines()
    data, records = [line for line in lines if not line.isspace()], None
    if data and 2 * (1 + 5 * H * m + 3 * n + 3 * m) <= len(data[0]):  # 2+ bytes a value
        template = _line_template(manifest).encode()
        pattern = re.compile(_VALUE.join(map(re.escape, template.split(b"%d"))) + rb"\n?")
        if all(map(pattern.fullmatch, data)):
            flat = np.fromstring(b"".join(data).translate(_NUMBERS_ONLY), dtype=np.int64, sep=" ")
            records = _records(flat.reshape(len(data), -1), manifest)
    if records is None or not _accepted(records, manifest).all():   # the JSON reference
        records = _records([_parse_record(line, line_no, manifest) for line_no, line in
                            enumerate(lines, start=1) if not line.isspace()], manifest)
    if len(records) != manifest["num_records"]:
        raise DatasetError(f"{path}: {len(records)} records but manifest says {manifest['num_records']}")
    return records, manifest


def split_records(records: Records, manifest: dict) -> tuple[Records, Records]:
    return records[: manifest["num_train"]], records[manifest["num_train"] :]
