import dataclasses
import hashlib
import itertools
import json
import math
import re
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neighborrank import datagen
from neighborrank.config import deep_mlp_config, default_config, wide_pool_config
from neighborrank.datagen import (
    Catalog,
    DataConfig,
    DatasetError,
    gen_catalog,
    gen_logs,
    generate_records,
    ground_truth,
    load_dataset,
    manifest_path,
    split_records,
    write_dataset,
)
from neighborrank.rng import RngStream, StreamRows


def small_cfg(**overrides) -> DataConfig:
    base = dict(seed=11, num_items=40, num_categories=5, num_brands=6, num_users=30,
                history_sessions=2, list_size=4, num_candidates=4, num_records=50)
    base.update(overrides)
    return DataConfig(**base)


def test_catalog_deterministic():
    a = gen_catalog(1, 10, 3)
    b = gen_catalog(1, 10, 3)
    assert np.array_equal(a.category, b.category)
    assert np.array_equal(a.quality, b.quality)
    assert a.num_items == 10


def test_catalog_single_category():
    cat = gen_catalog(2, 12, 1)
    assert (cat.category == 0).all()


def test_catalog_quality_centered_monte_carlo():
    cat = gen_catalog(5, 100_000, 10)
    assert abs(cat.quality.mean()) < 0.02


def test_catalog_rejects_bad_sizes():
    with pytest.raises(ValueError):
        gen_catalog(1, 2, 5)


# One-list views of the batched click model, as references: the simulator
# and the oracle call click_model on (R, m) lists and affinities directly.
def list_click_probs(model, item_ids, user_id):
    """Click probability at every position of one ordered list."""
    return model.click_model(np.asarray(item_ids)[None], model.affinity(user_id)[None])[0][0]


def conversion_prob(model, item_id, user_id):
    return float(model.click_model(np.array([[item_id]]), model.affinity(user_id)[None])[1][0, 0])


def expected_clicks(model, item_ids, user_id):
    return float(list_click_probs(model, item_ids, user_id).sum())


def click_prob(model, item_ids, position, user_id):
    """Click probability of one slot, read from the whole-list simulator."""
    return float(list_click_probs(model, item_ids, user_id)[position])


def test_click_prob_all_terms_zero():
    cat = Catalog(category=np.array([0]), brand=np.array([0]), quality=np.array([0.0]),
                  num_categories=1, num_brands=1)
    model = datagen.GroundTruthModel(
        catalog=cat, position_bias=np.array([0.0, -0.5]), affinity_sigma=0.0,
        cannibalization=0.0, conversion_scale=1.0, conversion_intercept=0.0, seed=0)
    assert click_prob(model, [0, 0], 0, user_id=3) == pytest.approx(0.5)


def test_click_prob_cannibalization_sign():
    cat = Catalog(category=np.array([0, 0, 1]), brand=np.zeros(3, dtype=int),
                  quality=np.zeros(3), num_categories=2, num_brands=1)
    model = datagen.GroundTruthModel(
        catalog=cat, position_bias=np.array([0.2, 0.0]), affinity_sigma=0.0,
        cannibalization=1.5, conversion_scale=1.0, conversion_intercept=0.0, seed=0)
    same_cat = click_prob(model, [0, 1], 1, user_id=0)   # second item shares category
    diff_cat = click_prob(model, [0, 2], 1, user_id=0)
    assert same_cat < diff_cat


def test_click_prob_matches_hand_formula():
    cat = Catalog(category=np.array([1, 1]), brand=np.zeros(2, dtype=int),
                  quality=np.array([0.3, -0.2]), num_categories=3, num_brands=1)
    model = datagen.GroundTruthModel(
        catalog=cat, position_bias=np.array([0.7, 0.1]), affinity_sigma=0.5,
        cannibalization=0.9, conversion_scale=1.0, conversion_intercept=-1.0, seed=21)
    user = 4
    aff = model.affinity(user)[1]
    z = -0.2 + aff + 0.1 - 0.9 * 1  # quality + affinity + bias - penalty*dup
    expected = 1.0 / (1.0 + math.exp(-z))
    assert click_prob(model, [0, 1], 1, user) == pytest.approx(expected, abs=1e-12)


def test_position_bias_must_decrease():
    cat = gen_catalog(1, 5, 2)
    with pytest.raises(ValueError, match="decreasing"):
        datagen.GroundTruthModel(catalog=cat, position_bias=np.array([0.1, 0.1]),
                                 affinity_sigma=0.1, cannibalization=1.0,
                                 conversion_scale=1.0, conversion_intercept=0.0, seed=0)


def test_records_respect_invariants():
    cfg = small_cfg()
    records = generate_records(cfg)
    assert len(records) == cfg.num_records
    for rec in records[:10]:
        assert len(set(rec.exposed.tolist())) == cfg.list_size
        assert rec.exposed.min() >= 0 and rec.exposed.max() < cfg.num_candidates
        assert ((rec.convs == 1) <= (rec.clicks == 1)).all()
        assert rec.session_ids.shape == (cfg.history_sessions, cfg.list_size, 3)


def test_dataset_rerun_byte_identical(tmp_path):
    cfg = small_cfg(num_records=120)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_dataset(generate_records(cfg), cfg, p1)
    write_dataset(generate_records(cfg), cfg, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert manifest_path(p1).read_text() == manifest_path(p2).read_text()


def test_split_sizes_nine_to_one(tmp_path):
    cfg = small_cfg(num_records=1000)
    train, test = gen_logs(cfg, tmp_path / "d.jsonl")
    assert len(train) == 900 and len(test) == 100


def test_empirical_ctr_matches_model(tmp_path):
    cfg = small_cfg(num_records=1500)
    model = ground_truth(cfg)
    records = generate_records(cfg, model)
    clicked = sum(int(r.clicks.sum()) for r in records)
    expected = sum(
        list_click_probs(model, r.exposed_ids[:, 0], r.user_id).sum() for r in records
    )
    total = cfg.num_records * cfg.list_size
    assert abs(clicked / total - expected / total) < 0.02


def test_round_trip(tmp_path):
    cfg = small_cfg(num_records=40)
    records = generate_records(cfg)
    path = write_dataset(records, cfg, tmp_path / "d.jsonl")
    loaded, manifest = load_dataset(path)
    assert manifest["num_records"] == 40
    train, test = split_records(loaded, manifest)
    assert len(train) == 36 and len(test) == 4
    for f in dataclasses.fields(datagen.Records):
        a, b = getattr(records, f.name), getattr(loaded, f.name)
        assert a.dtype == b.dtype == np.int64 and a.shape == b.shape and a.shape[0] == 40, f.name
        assert np.array_equal(a, b), f.name
    # rows, slices, iteration and the split all read the same columns
    H, m, n = cfg.history_sessions, cfg.list_size, cfg.num_candidates
    rows = list(loaded)
    assert len(rows) == len(loaded) == 40
    for i in (0, 17, 39):
        for rec in (loaded[i], rows[i], (train if i < 36 else test)[i % 36]):
            for f in dataclasses.fields(datagen.Records):
                assert np.array_equal(getattr(rec, f.name), getattr(records, f.name)[i]), f.name
            assert rec.session_ids.shape == (H, m, 3) and rec.candidate_ids.shape == (n, 3)
            assert np.array_equal(rec.exposed_ids, rec.candidate_ids[rec.exposed])
    part = loaded[5:9]
    assert isinstance(part, datagen.Records) and len(part) == 4
    assert np.array_equal(part.exposed_ids, np.stack([r.exposed_ids for r in rows[5:9]]))
    assert np.array_equal(train.clicks, records.clicks[:36])
    assert np.array_equal(test.candidate_ids, records.candidate_ids[36:])
    assert np.array_equal(loaded[[3, 1]].user_id, records.user_id[[3, 1]])


def test_load_rejects_conversion_without_click(tmp_path):
    cfg = small_cfg(num_records=3)
    path = write_dataset(generate_records(cfg), cfg, tmp_path / "d.jsonl")
    lines = path.read_text().splitlines()
    import json

    obj = json.loads(lines[1])
    obj["clicks"] = [0] * cfg.list_size
    obj["convs"] = [1] + [0] * (cfg.list_size - 1)
    lines[1] = json.dumps(obj, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(path)


def test_load_rejects_truncated_line(tmp_path):
    cfg = small_cfg(num_records=3)
    path = write_dataset(generate_records(cfg), cfg, tmp_path / "d.jsonl")
    raw = path.read_text()
    path.write_text(raw[:-40])  # cut into the last record
    with pytest.raises(DatasetError, match="line 3"):
        load_dataset(path)


def test_load_missing_manifest(tmp_path):
    path = tmp_path / "orphan.jsonl"
    path.write_text("{}\n")
    with pytest.raises(DatasetError, match="manifest"):
        load_dataset(path)


def brute_force_best(model, pool, user_id, m):
    best, best_val = None, -1.0
    for perm in itertools.permutations(pool.tolist(), m):
        val = expected_clicks(model, np.array(perm), user_id)
        if val > best_val:
            best, best_val = perm, val
    return best


def test_reranking_headroom_over_greedy():
    # the oracle-best ordering must disagree with quality-sorted order often
    cfg = DataConfig(seed=7, num_records=150)
    model = ground_truth(cfg)
    records = generate_records(cfg, model)
    differs = 0
    for rec in records:
        pool = rec.candidate_ids[:, 0]
        greedy = tuple(pool[np.argsort(-model.quality(pool), kind="stable")][: cfg.list_size])
        best = brute_force_best(model, pool, rec.user_id, cfg.list_size)
        differs += int(best != greedy)
    assert differs / len(records) >= 0.30


# sha256 of dataset.jsonl for 40 records of default_config().data, taken before
# the Python-int fast paths landed. A change here means the stream layout (or
# the simulator) changed, and every dataset and checkpoint downstream with it.
STREAM_LAYOUT_SHA256 = "99e878ab1a0131408ee7f134769fff8d5e03d754ddee360af4d62624e3c80347"
# The same for wide_pool_config().data (m = 4 of n = 12 candidates), taken
# before the dataset writer became a line template: pins the line layout
# where the exposed slate is shorter than the candidate list.
WIDE_LAYOUT_SHA256 = "bbd9fb942ae96760b877a10428ccc364e91a6fb3063881d71f23b5f2833e7657"


def test_stream_layout_pinned(tmp_path):
    cfg = dataclasses.replace(default_config().data, num_records=40)
    path = write_dataset(generate_records(cfg), cfg, tmp_path / "dataset.jsonl")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == STREAM_LAYOUT_SHA256


def test_wide_layout_pinned(tmp_path):
    cfg = dataclasses.replace(wide_pool_config().data, num_records=40)
    assert (cfg.list_size, cfg.num_candidates) == (4, 12)
    path = write_dataset(generate_records(cfg), cfg, tmp_path / "dataset.jsonl")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WIDE_LAYOUT_SHA256


def test_cached_affinity_equals_fresh_draw_and_is_read_only():
    model = ground_truth(small_cfg())
    for user in (0, 7, 29):
        fresh = RngStream(model.seed).split("affinity", user).normal(
            (model.catalog.num_categories,)) * model.affinity_sigma
        first = model.affinity(user)
        assert np.array_equal(first, fresh)
        assert model.affinity(np.int64(user)) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
    assert np.array_equal(ground_truth(small_cfg()).affinity(7), model.affinity(7))


def loop_click_probs(model, item_ids, user_id):
    """Reference: the same-category count as an explicit loop."""
    item_ids = np.asarray(item_ids)
    cats = model.catalog.category[item_ids]
    dup = np.zeros(len(item_ids))
    for j in range(1, len(item_ids)):
        dup[j] = np.count_nonzero(cats[:j] == cats[j])
    logits = (model.quality(item_ids) + model.affinity(user_id)[cats]
              + model.position_bias[: len(item_ids)] - model.cannibalization * dup)
    return 0.5 * (1.0 + np.tanh(0.5 * logits))


def loop_labels(model, item_ids, user_id, rs):
    """Reference: one scalar conversion draw per clicked slot, in slot order."""
    probs = list_click_probs(model, item_ids, user_id)
    clicks = (rs.uniform((len(item_ids),)) < probs).astype(np.int64)
    convs = np.zeros(len(item_ids), dtype=np.int64)
    for j in np.flatnonzero(clicks):
        convs[j] = int(rs.uniform() < conversion_prob(model, int(item_ids[j]), user_id))
    return clicks, convs


@pytest.mark.parametrize("num_categories", [1, 3, 8])
def test_simulator_matches_loop_reference(num_categories):
    cfg = small_cfg(num_categories=num_categories, list_size=6, num_candidates=6)
    model = ground_truth(cfg)
    picks = [RngStream(trial).split("pick") for trial in range(200)]
    items = np.stack([pick.choice(cfg.num_items, cfg.list_size) for pick in picks])
    users = [pick.integers(0, cfg.num_users) for pick in picks]
    aff = np.stack([model.affinity(user) for user in users])
    rows = StreamRows([RngStream(trial).seed for trial in range(200)], counter=3)
    clicks, convs = datagen._sample_labels(model, items, aff, rows)
    assert clicks.dtype == convs.dtype == np.int64
    assert rows.counter == 3 + 2 * cfg.list_size
    for trial, user in enumerate(users):
        assert np.array_equal(list_click_probs(model, items[trial], user),
                              loop_click_probs(model, items[trial], user))
        want = loop_labels(model, items[trial], user, RngStream(trial, 3))
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip((clicks[trial], convs[trial]), want))


def reference_ranked_exposure(model, pool, user_id, noise, m, rs, personalized):
    score = model.quality(pool)
    if personalized:
        score += model.affinity(user_id)[model.catalog.category[pool]]
    score += rs.normal((len(pool),)) * noise
    order = np.argsort(-score, kind="stable")
    return pool[order[:m]]


def reference_sample_labels(model, item_ids, user_id, rs):
    probs = list_click_probs(model, item_ids, user_id)
    clicks = (rs.uniform((len(item_ids),)) < probs).astype(np.int64)
    clicked = np.flatnonzero(clicks)
    conv_probs = [conversion_prob(model, int(item_ids[j]), user_id) for j in clicked]
    convs = np.zeros(len(item_ids), dtype=np.int64)
    convs[clicked] = rs.uniform((len(clicked),)) < conv_probs
    return clicks, convs


def reference_generate_records(cfg, model):
    """Reference: the simulator one record at a time, each from its own stream."""
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
            shown = reference_ranked_exposure(model, pool, user_id, cfg.exposure_noise,
                                              cfg.list_size, hs.split("rank"), personalized=True)
            ses_ids[h] = cat.feature_ids(shown)
            ses_clicks[h], ses_convs[h] = reference_sample_labels(model, shown, user_id,
                                                                  hs.split("labels"))
        cs = rs.split("current")
        pool = cs.choice(cat.num_items, cfg.num_candidates)
        shown = reference_ranked_exposure(model, pool, user_id, cfg.exposure_noise,
                                          cfg.list_size, cs.split("rank"), personalized=False)
        pool_pos = {int(item): idx for idx, item in enumerate(pool)}
        exposed = np.array([pool_pos[int(item)] for item in shown], dtype=np.int64)
        clicks, convs = reference_sample_labels(model, shown, user_id, cs.split("labels"))
        records.append((int(user_id), ses_ids, ses_clicks, ses_convs, cat.feature_ids(pool),
                        exposed, clicks, convs))
    # the per-record fields stacked into columns (the user ids' column is int64)
    return datagen.Records(*map(np.stack, zip(*records)))


@st.composite
def data_configs(draw):
    num_items = draw(st.integers(1, 60))
    num_candidates = draw(st.integers(1, min(num_items, 12)))
    return DataConfig(
        seed=draw(st.integers(0, 2**64 - 1)), num_items=num_items,
        num_categories=draw(st.integers(1, num_items)), num_brands=draw(st.integers(1, 5)),
        num_users=draw(st.integers(1, 50)), history_sessions=draw(st.integers(1, 3)),
        list_size=draw(st.integers(1, num_candidates)), num_candidates=num_candidates,
        num_records=draw(st.integers(2, 12)),
        exposure_noise=draw(st.sampled_from([0.0, 0.5, 2.0])),
        affinity_sigma=draw(st.sampled_from([0.0, 0.8])),
        cannibalization=draw(st.sampled_from([0.0, 1.0])))


@given(cfg=data_configs(), block_rows=st.integers(1, 13))
@settings(max_examples=60, deadline=None)
def test_lockstep_simulator_matches_per_record_reference(cfg, block_rows):
    # block_rows below num_records runs the simulation over several blocks
    model = ground_truth(cfg)
    with mock.patch.object(datagen, "SIM_BLOCK", block_rows * cfg.num_items):
        got = generate_records(cfg, model)
    want = reference_generate_records(cfg, model)
    assert len(got) == len(want) == cfg.num_records
    for f in dataclasses.fields(datagen.Records):
        x, y = getattr(got, f.name), getattr(want, f.name)
        assert type(x) is type(y) is np.ndarray, f.name
        assert np.array_equal(x, y) and x.shape == y.shape, f.name
        assert x.dtype == y.dtype == np.int64, f.name


def test_affinity_is_one_row_of_the_user_table():
    model = ground_truth(small_cfg())
    users = np.array([29, 0, 7, 7])
    table = model.affinities(users)
    assert table.shape == (4, model.catalog.num_categories)
    for row, user in zip(table, users):
        assert np.array_equal(row, model.affinity(user))


def test_empty_train_split_rejected():
    with pytest.raises(ValueError, match="train or test split empty"):
        small_cfg(num_records=60, train_fraction=0.01)
    with pytest.raises(ValueError, match="train or test split empty"):
        small_cfg(num_records=1, train_fraction=0.9)
    assert datagen.num_train(small_cfg(num_records=60, train_fraction=0.02), 60) == 1


# References for the line-template codec: each record through json.dumps,
# and every line through json.loads and `_parse_record`.
def record_to_json(rec) -> str:
    """The JSONL line of one record, from its fields as Python ints."""
    user, ses_ids, ses_clicks, ses_convs, cands, exposed, clicks, convs = (
        col.tolist() for col in rec.columns())
    sessions = [[{"item": i, "cat": c, "brand": b, "click": k, "conv": v}
                 for (i, c, b), k, v in zip(*session)]
                for session in zip(ses_ids, ses_clicks, ses_convs)]
    obj = {"user_id": user, "sessions": sessions,
           "candidates": [{"item": i, "cat": c, "brand": b} for i, c, b in cands],
           "exposed": exposed, "clicks": clicks, "convs": convs}
    return json.dumps(obj, separators=(",", ":"))


def json_only_load(path):
    path = Path(path)
    manifest = datagen._read_manifest(manifest_path(path))
    rows = []
    with path.open("rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                rows.append(datagen._parse_record(line, line_no, manifest))
    if len(rows) != manifest["num_records"]:
        raise DatasetError(f"{path}: {len(rows)} records but manifest says {manifest['num_records']}")
    H, m, n = manifest["history_sessions"], manifest["list_size"], manifest["num_candidates"]
    widths = [1, 5 * H * m, 3 * n, m, m, m]
    flat = np.array(rows, dtype=np.int64).reshape(len(rows), sum(widths))
    user, ses, cand, exposed, clicks, convs = np.split(flat, np.cumsum(widths)[:-1], axis=1)
    ses, cand = ses.reshape(len(rows), H, m, 5), cand.reshape(len(rows), n, 3)
    return datagen.Records(user[:, 0], ses[..., :3], ses[..., 3], ses[..., 4], cand, exposed,
                           clicks, convs), manifest


def outcome(load, path):
    """Each column's (dtype, shape, values) and the manifest, or the DatasetError message."""
    try:
        records, manifest = load(path)
    except DatasetError as exc:
        return str(exc)
    return [(c.dtype, c.shape, c.tolist()) for c in records.columns()], manifest


def write_reference(records, cfg, path) -> Path:
    """The dataset as the json.dumps writer wrote it, with write_dataset's manifest."""
    path = write_dataset(records, cfg, path)
    path.write_text("".join(record_to_json(rec) + "\n" for rec in records), encoding="utf-8")
    return path


def assert_loads_agree(path):
    want = outcome(json_only_load, path)
    assert outcome(load_dataset, path) == want
    return want


@st.composite
def codec_cases(draw):
    n = draw(st.sampled_from([4, 2, 6, 1, 5, 3]))
    num_items = draw(st.integers(n, 30))
    return DataConfig(
        seed=draw(st.integers(0, 2**32)), num_items=num_items,
        num_categories=draw(st.integers(1, num_items)), num_brands=draw(st.integers(1, 6)),
        num_users=draw(st.integers(1, 40)), history_sessions=draw(st.integers(1, 3)),
        list_size=draw(st.integers(1, n)), num_candidates=n, num_records=draw(st.integers(2, 8)))


FIELDS = [f.name for f in dataclasses.fields(datagen.Records)]
# labels, then small ids for every range check, then the template's 18-digit limit
EDIT_VALUES = st.integers(0, 1) | st.integers(0, 14) | st.sampled_from([10**18 - 1, 10**18, 2**63 - 1])


@given(cfg=codec_cases(), data=st.data())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_template_codec_equals_json_reference(cfg, data):
    """The template writer writes json.dumps's bytes, and load_dataset agrees
    with the JSON-only reader (columns or error message) on clean files, field
    edits, one-byte substitutions, truncations and shrunk manifest sizes."""
    records = generate_records(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_dataset(records, cfg, Path(tmp) / "d.jsonl")
        clean = path.read_bytes()
        assert clean == "".join(record_to_json(rec) + "\n" for rec in records).encode()
        assert not isinstance(assert_loads_agree(path), str)
        damage = data.draw(st.sampled_from(["edit", "copy", "byte", "insert", "truncate",
                                            "manifest"]), label="damage")
        if damage in ("edit", "copy"):   # through the json.dumps writer
            for _ in range(data.draw(st.integers(1, 3), label="edits")):
                name = data.draw(st.sampled_from(FIELDS), label="field")
                i = data.draw(st.integers(0, len(records) - 1), label="record")
                row = getattr(records, name)[i : i + 1]   # a view of the record's field
                at = np.unravel_index(data.draw(st.integers(0, row.size - 1), label="at"), row.shape)
                if damage == "copy":   # another value of the record's field: duplicates, equal labels
                    row[at] = row.flat[data.draw(st.integers(0, row.size - 1), label="from")]
                else:
                    row[at] = data.draw(EDIT_VALUES | st.integers(-3, -1) if name == "user_id"
                                        else EDIT_VALUES, label="value")
            write_reference(records, cfg, path)
        elif damage == "manifest":
            mpath = manifest_path(path)
            manifest = json.loads(mpath.read_text())
            key = data.draw(st.sampled_from(["num_items", "num_categories", "num_brands",
                                             "history_sessions", "list_size", "num_candidates"]))
            manifest[key] = data.draw(st.integers(0, manifest[key]), label="size")
            mpath.write_text(json.dumps(manifest))
        else:
            raw = bytearray(clean)
            pos = data.draw(st.integers(0, len(raw) - 1), label="position")
            if damage == "truncate":
                del raw[pos:]
            elif damage == "insert":   # a sign, point, exponent or (leading) digit before a digit
                pos = data.draw(st.sampled_from([i for i, c in enumerate(raw) if chr(c).isdigit()]))
                raw.insert(pos, data.draw(st.sampled_from(b"0-.e0123456789"), label="byte"))
            else:
                raw[pos] = data.draw(st.sampled_from(b"0123456789") | st.integers(0, 255),
                                     label="byte")
            path.write_bytes(bytes(raw))
        assert_loads_agree(path)


def codec_file(tmp_path):
    cfg = small_cfg(num_records=6)   # H = 2, m = n = 4, vocabularies 40 / 5 / 6
    return write_dataset(generate_records(cfg), cfg, tmp_path / "d.jsonl")


def edit(path, line_no, pattern, repl):
    """Substitute the first match of a bytes regex on one line."""
    lines = path.read_bytes().split(b"\n")
    lines[line_no - 1], count = re.subn(pattern, repl, lines[line_no - 1], count=1)
    assert count == 1, (pattern, lines[line_no - 1][:80])
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("pattern, repl, error", [
    (rb'"item":\d+', b'"item":05', "malformed JSON"),
    (rb'"item":\d+', b'"item":-1', "field 'sessions': every 'item'"),
    (rb'"click":\d', b'"click":1.0', "field 'sessions': every 'click'"),
    (rb'"item":\d+', b'"item":1e2', "field 'sessions': every 'item'"),
    (rb'"click":\d', b'"click":true', "field 'sessions': every 'click'"),
    (rb'"user_id":\d+', b'"user_id":true', "field 'user_id' must be a 64-bit integer"),
    (rb'"user_id":\d+', b'"user_id":1234567890123456789', None),   # 19 digits fit int64
    (rb'"user_id":\d+', b'"user_id":12345678901234567890', "field 'user_id' must be a 64-bit"),
    (rb'"user_id":\d+', b'"user_id":9999999999999999999', "field 'user_id' must be a 64-bit"),
    (rb'"user_id":\d+', b'"user_id":-7', None),
    (rb'"user_id":', b'"user_id": ', None),
    (rb',"sessions":', b', "sessions" :', None),
    (rb'"item":\d+', b'"item":123456789012345678', "field 'sessions': every 'item'"),  # 18
    (rb'"item":\d+', b'"item":1234567890123456789', "field 'sessions': every 'item'"),
    (rb'"cat":\d+', b'"cat":5', "field 'sessions': every 'cat'"),
    (rb'"brand":\d+', b'"brand":6', "field 'sessions': every 'brand'"),
    (rb'"click":\d,"conv":\d', b'"click":0,"conv":1', "field 'sessions': conversion without"),
    (rb'"exposed":\[\d+', b'"exposed":[4', "field 'exposed' must hold 4 integers in [0, 4)"),
    (rb'"exposed":\[(\d+),\d+', rb'"exposed":[\1,\1', "field 'exposed': duplicate candidate"),
    (rb'"exposed":\[', b'"exposed":[0,', "field 'exposed' must hold"),
    (rb'"clicks":\[\d', b'"clicks":[2', "field 'clicks' must hold"),
    (rb'"clicks":\[\d,\d', b'"clicks":[0,0', None),
    (rb'"clicks":\[\d(.*)"convs":\[\d', rb'"clicks":[0\1"convs":[1', "field 'convs': conversion"),
    (rb'"candidates":\[\{"item":\d+', b'"candidates":[{"item":40', "field 'candidates': every"),
    (rb'"item"', b'"itme"', "missing field 'item'"),
])
def test_template_and_json_agree_on_hand_edits(tmp_path, pattern, repl, error):
    path = codec_file(tmp_path)
    edit(path, 2, pattern, repl)
    got = assert_loads_agree(path)
    if error is None:
        assert not isinstance(got, str), got
    else:
        assert isinstance(got, str) and got.startswith(f"line 2: {error}"), got


def test_template_and_json_agree_on_layout_edits(tmp_path):
    path = codec_file(tmp_path)
    clean = assert_loads_agree(path)
    raw = path.read_bytes()
    lines = raw.splitlines()
    reordered = json.dumps(dict(reversed(json.loads(lines[2]).items()))).encode()
    for variant in (raw.replace(b"\n", b"\r\n"), raw[:-1], b"\n \n" + raw.replace(b"\n", b"\n\n"),
                    b"\n".join(lines[:2] + [reordered] + lines[3:]) + b"\n"):
        path.write_bytes(variant)
        assert assert_loads_agree(path) == clean


def test_an_empty_slate_fails_on_both_paths(tmp_path):
    """A manifest may claim list_size 0 and lines may have that shape; the
    JSON checks reject the empty exposed list, and so must the template's."""
    path = tmp_path / "d.jsonl"
    path.write_text('{"user_id":1,"sessions":[[]],"candidates":[{"item":0,"cat":0,"brand":0}],'
                    '"exposed":[],"clicks":[],"convs":[]}\n')
    manifest_path(path).write_text(json.dumps({
        "version": 1, "num_records": 1, "num_train": 1, "history_sessions": 1, "list_size": 0,
        "num_candidates": 1, "num_items": 1, "num_categories": 1, "num_brands": 1}))
    assert assert_loads_agree(path) == "line 1: field 'exposed' must hold 0 integers in [0, 1)"


@pytest.mark.parametrize("first, second", [(2, 5), (5, 2)])
def test_the_earliest_bad_line_is_named(tmp_path, first, second):
    """An out-of-range id on a line the template matches, and malformed JSON
    on another: the error names whichever line comes first."""
    path = codec_file(tmp_path)
    edit(path, first, rb'"item":\d+', b'"item":99')   # num_items is 40
    edit(path, second, rb'"user_id":', b'"user_id":[')
    with pytest.raises(DatasetError, match=f"^line {min(first, second)}: "):
        load_dataset(path)
    assert assert_loads_agree(path).startswith(f"line {min(first, second)}: ")


@pytest.mark.parametrize("sizes", [{"num_candidates": 10**9},
                                   {"history_sessions": 10**12, "list_size": 10**12},
                                   {"num_candidates": 2**62, "list_size": 2**62}])
def test_a_huge_claimed_size_fails_on_line_one_fast(tmp_path, sizes):
    """The reader builds no template and no array by sizes that no line has
    shown: the first line's own error comes at once."""
    path = codec_file(tmp_path)
    mpath = manifest_path(path)
    mpath.write_text(json.dumps({**json.loads(mpath.read_text()), **sizes}))
    with mock.patch.object(datagen, "_line_template", wraps=datagen._line_template) as template:
        start = time.perf_counter()
        with pytest.raises(DatasetError, match="^line 1: "):
            load_dataset(path)
        assert time.perf_counter() - start < 1.0
    assert template.call_count == 0


def test_no_records_round_trip(tmp_path):
    cfg = small_cfg()
    path = write_dataset(generate_records(cfg)[:0], cfg, tmp_path / "d.jsonl")
    assert path.read_bytes() == b""
    records, manifest = load_dataset(path)
    assert len(records) == manifest["num_records"] == 0
    assert records.session_ids.shape == (0, cfg.history_sessions, cfg.list_size, 3)
    assert_loads_agree(path)


def test_manifest_sizes_must_fit_int64(tmp_path):
    """Every id the reader accepts then fits the int64 columns."""
    path = codec_file(tmp_path)
    mpath = manifest_path(path)
    mpath.write_text(json.dumps({**json.loads(mpath.read_text()), "num_items": 2**63}))
    with pytest.raises(DatasetError, match="'num_items' must be a nonnegative 64-bit integer"):
        load_dataset(path)


@pytest.mark.parametrize("preset", [default_config, wide_pool_config, deep_mlp_config])
@pytest.mark.parametrize("num_records", [40, 0])
def test_a_canonical_file_never_reaches_the_json_path(tmp_path, preset, num_records):
    """Every file the CLI reads is written by write_dataset: it loads through
    the template alone, to the JSON reference's columns."""
    cfg = dataclasses.replace(preset().data, num_records=40)
    path = write_dataset(generate_records(cfg)[:num_records], cfg, tmp_path / "d.jsonl")
    want = outcome(json_only_load, path)
    with mock.patch.object(datagen, "_parse_record", wraps=datagen._parse_record) as parse:
        assert outcome(load_dataset, path) == want
    assert parse.call_count == 0
    assert not isinstance(want, str) and len(want[0][0][2]) == num_records


def test_one_layout_edited_line_sends_the_whole_file_to_the_json_path(tmp_path):
    path = codec_file(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = json.dumps(dict(reversed(json.loads(lines[2]).items()))).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    want = outcome(json_only_load, path)
    with mock.patch.object(datagen, "_parse_record", wraps=datagen._parse_record) as parse:
        assert outcome(load_dataset, path) == want
    assert parse.call_count == len(lines) == 6
