import dataclasses
import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neighborrank import datagen
from neighborrank.config import default_config
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


def click_prob(model, item_ids, position, user_id):
    """Click probability of one slot, read from the whole-list simulator."""
    return float(model.list_click_probs(item_ids, user_id)[position])


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
        model.list_click_probs(r.exposed_ids[:, 0], r.user_id).sum() for r in records
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
        val = model.expected_clicks(np.array(perm), user_id)
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


def test_stream_layout_pinned(tmp_path):
    cfg = dataclasses.replace(default_config().data, num_records=40)
    path = write_dataset(generate_records(cfg), cfg, tmp_path / "dataset.jsonl")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == STREAM_LAYOUT_SHA256


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
    probs = model.list_click_probs(item_ids, user_id)
    clicks = (rs.uniform((len(item_ids),)) < probs).astype(np.int64)
    convs = np.zeros(len(item_ids), dtype=np.int64)
    for j in np.flatnonzero(clicks):
        convs[j] = int(rs.uniform() < model.conversion_prob(int(item_ids[j]), user_id))
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
        assert np.array_equal(model.list_click_probs(items[trial], user),
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
    probs = model.list_click_probs(item_ids, user_id)
    clicks = (rs.uniform((len(item_ids),)) < probs).astype(np.int64)
    clicked = np.flatnonzero(clicks)
    conv_probs = [model.conversion_prob(int(item_ids[j]), user_id) for j in clicked]
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
