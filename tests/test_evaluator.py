import math

import numpy as np
import pytest

from neighborrank import autodiff as ad
from neighborrank import evaluator as ev
from neighborrank.checkpoint import CheckpointError, load_arrays, save_arrays
from neighborrank.config import TrainingSection
from neighborrank.datagen import DataConfig, generate_records
from neighborrank.optim import TrainingStalled
from neighborrank.rng import RngStream


def tiny_dims(**overrides) -> ev.ModelDims:
    base = dict(item_vocab=12, cat_vocab=4, brand_vocab=3, list_size=3,
                num_candidates=4, history_sessions=2, embed_dim=2, mlp_hidden=(4, 3))
    base.update(overrides)
    return ev.ModelDims(**base)


def make_params(dims=None, seed=5) -> ev.EvaluatorParams:
    return ev.EvaluatorParams.init(dims or tiny_dims(), RngStream(seed))


def rand_ids(seed, lead_shape, dims) -> np.ndarray:
    """Random feature ids with each field inside its own vocabulary."""
    rng = RngStream(seed)
    fields = [rng.integers(0, v, lead_shape)
              for v in (dims.item_vocab, dims.cat_vocab, dims.brand_vocab)]
    return np.stack(fields, axis=-1)


def numpy_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def list_attention_oracle(x, params):
    """Independent step-by-step recomputation with explicit loops."""
    dims = params.dims
    b, m = x.shape[0], x.shape[1]
    att_all = np.zeros((b, m, m))
    for i in range(dims.num_fields):
        xi = x[:, :, i, :]
        q = xi @ params.ps[f"attn.q.{i}"].value
        k = xi @ params.ps[f"attn.k.{i}"].value
        att_all += numpy_softmax(q @ np.swapaxes(k, -1, -2) / math.sqrt(dims.embed_dim))
    att_all /= dims.num_fields
    v = x[:, :, 0, :] @ params.ps["attn.v"].value
    e_list = (att_all @ v).mean(axis=1)
    return att_all, e_list


class TestListAttention:
    def test_single_item_attention_is_one(self):
        dims = tiny_dims(list_size=1, num_candidates=2)
        params = make_params(dims)
        ids = np.array([[[3, 1, 0]]])
        x = ev.embed_lists(ids, params)
        att, _ = ev.list_attention(x, params)
        assert np.allclose(att.value, [[[1.0]]])

    def test_rows_are_stochastic(self):
        params = make_params()
        ids = rand_ids(3, (2, 3), tiny_dims())
        x = ev.embed_lists(ids, params)
        att, _ = ev.list_attention(x, params)
        assert (att.value >= 0).all()
        assert np.max(np.abs(att.value.sum(axis=-1) - 1.0)) < 1e-12

    def test_identical_fields_mean_equals_each(self):
        dims = tiny_dims()
        params = make_params(dims)
        # force every field to share embeddings and weights
        shared = RngStream(9).normal((dims.embed_dim, dims.embed_dim)) * 0.5
        for i in range(dims.num_fields):
            params.ps[f"attn.q.{i}"].value = shared.copy()
            params.ps[f"attn.k.{i}"].value = shared.T.copy()
        tables = params.ps["embed.item"].value
        params.ps["embed.cat"].value = tables[: dims.cat_vocab].copy()
        params.ps["embed.brand"].value = tables[: dims.brand_vocab].copy()
        ids = np.array([[[1, 1, 1], [2, 2, 2], [0, 0, 0]]])
        x = ev.embed_lists(ids, params)
        att_all, _ = ev.list_attention(x, params)
        xi = x.value[:, :, 0, :]
        q = xi @ shared
        k = xi @ shared.T
        single = numpy_softmax(q @ np.swapaxes(k, -1, -2) / math.sqrt(dims.embed_dim))
        assert np.allclose(att_all.value, single, atol=1e-12)

    def test_matches_hand_oracle(self):
        params = make_params(seed=11)
        ids = rand_ids(4, (2, 3), tiny_dims())
        x = ev.embed_lists(ids, params)
        att, e_list = ev.list_attention(x, params)
        att_ref, e_ref = list_attention_oracle(x.value, params)
        assert np.max(np.abs(att.value - att_ref)) < 1e-12
        assert np.max(np.abs(e_list.value - e_ref)) < 1e-12


class TestSessionEncoder:
    def test_deterministic_function_of_single_session(self):
        dims = tiny_dims(history_sessions=1)
        params = make_params(dims)
        ids = rand_ids(6, (1, 1, 3), dims)
        a = ev.encode_sessions(ids, params).value
        b = ev.encode_sessions(ids, params).value
        assert np.array_equal(a, b)

    def test_permuting_sessions_preserves_user_vector(self):
        params = make_params()
        ids = rand_ids(8, (1, 2, 3), tiny_dims())
        swapped = ids[:, ::-1].copy()
        a = ev.encode_sessions(ids, params).value
        b = ev.encode_sessions(swapped, params).value
        assert np.allclose(a, b, atol=1e-12)

    def test_matches_hand_oracle(self):
        params = make_params(seed=20)
        dims = params.dims
        ids = rand_ids(21, (2, 2, 3), dims)
        got = ev.encode_sessions(ids, params).value
        # oracle: encode each session with the list oracle, then one
        # self-attention layer over session vectors, mean-pooled
        x = ev.embed_lists(ids.reshape(4, 3, 3), params).value
        _, sess = list_attention_oracle(x, params)
        sess = sess.reshape(2, 2, dims.embed_dim)
        q = sess @ params.ps["sess.q"].value
        k = sess @ params.ps["sess.k"].value
        v = sess @ params.ps["sess.v"].value
        att = numpy_softmax(q @ np.swapaxes(k, -1, -2) / math.sqrt(dims.embed_dim))
        ref = (att @ v).mean(axis=1)
        assert np.max(np.abs(got - ref)) < 1e-12


def session_scores(list_ids, session_ids, params):
    """Scores of lists for the users behind the given session histories."""
    return ev.scores_for_lists(list_ids, ev.encode_sessions(session_ids, params).value, params)


@pytest.mark.parametrize("chunk", [1, 7])
def test_user_vectors_do_not_depend_on_chunk_size(monkeypatch, chunk):
    _, train, _ = small_dataset(num_records=40)
    params = make_params(tiny_dims(item_vocab=30, brand_vocab=5, list_size=3, num_candidates=3,
                                   history_sessions=2, embed_dim=4))
    want = ev.user_vectors(train, params)
    monkeypatch.setattr(ev, "SCORE_CHUNK", chunk)
    got = ev.user_vectors(train, params)
    assert got.shape == (36, 4) and np.array_equal(got, want)
    with ad.no_grad():
        assert np.array_equal(want, ev.encode_sessions(train.session_ids, params).value)


class TestPredict:
    def test_outputs_in_unit_interval(self):
        params = make_params()
        ids = rand_ids(2, (3, 3), params.dims)
        sess = rand_ids(3, (3, 2, 3), params.dims)
        pctr, pcvr = session_scores(ids, sess, params)
        assert pctr.shape == (3, 3)
        assert ((pctr > 0) & (pctr < 1)).all()
        assert ((pcvr > 0) & (pcvr < 1)).all()

    def test_zero_mlp_gives_half(self):
        params = make_params()
        for name in params.ps:
            if name.startswith(("mlp.", "head.")):
                params.ps[name].value = np.zeros_like(params.ps[name].value)
        ids = rand_ids(2, (1, 3), params.dims)
        sess = rand_ids(3, (1, 2, 3), params.dims)
        pctr, pcvr = session_scores(ids, sess, params)
        assert np.allclose(pctr, 0.5) and np.allclose(pcvr, 0.5)

    def test_oov_id_rejected(self):
        params = make_params()
        ids = np.array([[[50, 0, 0], [1, 1, 1], [2, 2, 2]]])
        with pytest.raises(ad.VocabError):
            ev.scores_for_lists(ids, np.zeros((1, params.dims.embed_dim)), params)

    def test_predict_list_single(self):
        params = make_params()
        ids = rand_ids(4, (1, 3), params.dims)
        sess = rand_ids(5, (1, 2, 3), params.dims)
        pctr, pcvr = session_scores(ids, sess, params)
        assert pctr.shape == (1, 3) and pcvr.shape == (1, 3)

    def test_whole_set_equals_one_list_at_a_time(self):
        # more lists than one chunk, so a chunk boundary is crossed
        params = make_params(seed=9)
        k = ev.SCORE_CHUNK + 37
        ids = rand_ids(6, (k, 3), params.dims)
        e_user = RngStream(7).normal((k, params.dims.embed_dim))
        pctr, pcvr = ev.scores_for_lists(ids, e_user, params)
        for i in range(k):
            p1, v1 = ev.scores_for_lists(ids[i : i + 1], e_user[i : i + 1], params)
            assert np.array_equal(p1[0], pctr[i]) and np.array_equal(v1[0], pcvr[i]), i

    def test_wrong_list_length_rejected(self):
        params = make_params()
        with pytest.raises(ad.ShapeError):
            ev.scores_for_lists(np.zeros((1, 5, 3), dtype=int),
                                np.zeros((1, 2)), params)


def evaluator_loss(pctr, pcvr, clicks, convs):
    """Loss of one scored list against its labels, through loss_graph."""
    with ad.no_grad():
        loss = ev.loss_graph(ad.constant(np.asarray(pctr)[None, :]),
                             ad.constant(np.asarray(pcvr)[None, :]),
                             np.asarray(clicks, dtype=np.float64)[None, :],
                             np.asarray(convs, dtype=np.float64)[None, :])
    return loss.item()


class TestLoss:
    def test_half_prediction_single_position(self):
        loss = evaluator_loss(np.array([0.5]), np.array([0.5]), clicks=[1], convs=[0])
        # click head ln2 plus conversion head ln2 on the clicked slot
        assert loss == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_perfect_prediction_near_zero(self):
        loss = evaluator_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                              clicks=[1, 0], convs=[1, 0])
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_matches_scalar_bce_oracle(self):
        rng = RngStream(15)
        pctr = rng.uniform((4,))
        pcvr = rng.uniform((4,))
        clicks = np.array([1, 0, 1, 0])
        convs = np.array([1, 0, 0, 0])
        expected = 0.0
        for j in range(4):
            y, p = clicks[j], pctr[j]
            expected += -(y * math.log(p) + (1 - y) * math.log(1 - p))
            if clicks[j]:
                yv, pv = convs[j], pcvr[j]
                expected += -(yv * math.log(pv) + (1 - yv) * math.log(1 - pv))
        got = evaluator_loss(pctr, pcvr, clicks, convs)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_unclicked_positions_carry_no_conversion_loss(self):
        pctr = np.array([0.7])
        a = evaluator_loss(pctr, np.array([0.2]), [0], [0])
        b = evaluator_loss(pctr, np.array([0.9]), [0], [0])
        assert a == pytest.approx(b)


class TestGradients:
    def test_full_forward_loss_gradcheck(self):
        dims = tiny_dims()
        params = make_params(dims, seed=33)
        # healthy parameter scale keeps relu pre-activations away from the
        # kink, where central differences disagree with subgradients
        scales = RngStream(99)
        for name, t in params.ps.items():
            t.value = scales.split(name).normal(t.value.shape) * 0.5
        ids = rand_ids(34, (2, 3), dims)
        sess = rand_ids(35, (2, 2, 3), dims)
        clicks = np.array([[1, 0, 1], [0, 1, 0]], dtype=float)
        convs = np.array([[1, 0, 0], [0, 0, 0]], dtype=float)

        def build():
            e_user = ev.encode_sessions(sess, params)
            pctr, pcvr = ev.predict_graph(ids, e_user, params)
            return ev.loss_graph(pctr, pcvr, clicks, convs)

        wrt = list(params.ps.trainable().values())
        err = ad.grad_check(build, wrt, h=1e-5)
        assert err < 1e-4


class TestCheckpointRoundTrip:
    def test_save_load_identical(self, tmp_path):
        params = make_params(seed=40)
        path = tmp_path / "eval.ckpt"
        params.save(path)
        loaded = ev.EvaluatorParams.load(path)
        assert loaded.dims == params.dims
        for name, tensor in params.ps.items():
            assert np.array_equal(tensor.value, loaded.ps[name].value)
        assert not loaded.ps["embed.item"].requires_grad

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        params = make_params(seed=41)
        path = tmp_path / "eval.ckpt"
        params.save(path)
        monkeypatch.setattr(RngStream, "normal", lambda *a, **k: pytest.fail("random init"))
        loaded = ev.EvaluatorParams.load(path)
        assert list(loaded.ps) == list(params.ps)
        loaded.save(tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("damage", ["missing", "wrong-shape"])
    def test_damaged_tensor_raises_checkpoint_error(self, tmp_path, damage):
        path = tmp_path / "eval.ckpt"
        make_params(seed=42).save(path)
        arrays = load_arrays(path)
        if damage == "missing":
            del arrays["mlp.1.w"]
        else:
            arrays["mlp.1.w"] = arrays["mlp.1.w"].T
        save_arrays(path, arrays)
        with pytest.raises(CheckpointError, match="'mlp.1.w'"):
            ev.EvaluatorParams.load(path)


def small_dataset(num_records=400):
    cfg = DataConfig(seed=3, num_items=30, num_categories=4, num_brands=5, num_users=20,
                     history_sessions=2, list_size=3, num_candidates=3,
                     num_records=num_records)
    records = generate_records(cfg)
    split = int(0.9 * num_records)
    return cfg, records[:split], records[split:]


class TestTraining:
    def test_learns_loss_decreases_and_auc_beats_chance(self):
        cfg, train, test = small_dataset(num_records=1200)
        dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                            brand_vocab=cfg.num_brands, list_size=cfg.list_size,
                            num_candidates=cfg.num_candidates,
                            history_sessions=cfg.history_sessions,
                            embed_dim=4, mlp_hidden=(16, 8))
        params, history = ev.train_evaluator(
            train, test, dims, TrainingSection(eval_epochs=3, batch_size=32, seed=1))
        train_rows = [row for row in history if row["split"] == "train"]
        assert train_rows[0]["loss"] > train_rows[1]["loss"] > train_rows[2]["loss"]
        test_rows = [row for row in history if row["split"] == "test"]
        assert test_rows[-1]["auc"] > 0.6

    def test_identical_seed_identical_history(self):
        cfg, train, test = small_dataset()
        dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                            brand_vocab=cfg.num_brands, list_size=cfg.list_size,
                            num_candidates=cfg.num_candidates,
                            history_sessions=cfg.history_sessions,
                            embed_dim=4, mlp_hidden=(8,))
        training = TrainingSection(eval_epochs=2, seed=9)
        _, h1 = ev.train_evaluator(train, test, dims, training)
        _, h2 = ev.train_evaluator(train, test, dims, training)
        assert h1 == h2

    def test_swapping_items_changes_predictions(self):
        cfg, train, test = small_dataset()
        dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                            brand_vocab=cfg.num_brands, list_size=cfg.list_size,
                            num_candidates=cfg.num_candidates,
                            history_sessions=cfg.history_sessions,
                            embed_dim=4, mlp_hidden=(16, 8))
        params, _ = ev.train_evaluator(train, test, dims, TrainingSection(eval_epochs=3, seed=1))
        ids = test[0].exposed_ids.copy()
        swapped = ids.copy()
        swapped[[0, 2]] = swapped[[2, 0]]
        e_user = ev.user_vectors(test[:1], params)
        base, _ = ev.scores_for_lists(ids[None], e_user, params)
        after, _ = ev.scores_for_lists(swapped[None], e_user, params)
        assert abs(base[0, 0] - after[0, 0]) > 1e-6
        assert abs(base[0, 2] - after[0, 2]) > 1e-6

    def test_epoch_without_graph_raises(self):
        # inside no_grad() no gradient reaches the weights, so the epoch
        # leaves them unchanged and training must say so
        cfg, train, test = small_dataset(num_records=200)
        dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                            brand_vocab=cfg.num_brands, list_size=cfg.list_size,
                            num_candidates=cfg.num_candidates,
                            history_sessions=cfg.history_sessions,
                            embed_dim=4, mlp_hidden=(8,))
        with ad.no_grad():
            with pytest.raises(TrainingStalled, match="evaluator epoch 0"):
                ev.train_evaluator(train, test, dims, TrainingSection(eval_epochs=1, seed=2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_is_floating_point_error(self):
        # the generator reports the same condition with the same type
        cfg, train, test = small_dataset(num_records=200)
        dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                            brand_vocab=cfg.num_brands, list_size=cfg.list_size,
                            num_candidates=cfg.num_candidates,
                            history_sessions=cfg.history_sessions,
                            embed_dim=4, mlp_hidden=(8,))
        with pytest.raises(FloatingPointError, match="non-finite loss at epoch 0"):
            ev.train_evaluator(train, test, dims, TrainingSection(eval_epochs=1, lr=1e70))

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_label_test_split_rejected(self, label):
        # test AUC would be NaN every epoch, and no epoch's snapshot could
        # beat the initial weights
        cfg, train, test = small_dataset(num_records=200)
        test.clicks[:] = label
        test.convs[:] = 0
        dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                            brand_vocab=cfg.num_brands, list_size=cfg.list_size,
                            num_candidates=cfg.num_candidates,
                            history_sessions=cfg.history_sessions,
                            embed_dim=4, mlp_hidden=(8,))
        with pytest.raises(ValueError, match="test clicks are all one label"):
            ev.train_evaluator(train, test, dims, TrainingSection(eval_epochs=2, seed=2))

    def test_empty_dataset_rejected(self):
        cfg, train, test = small_dataset()
        dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                            brand_vocab=cfg.num_brands, list_size=cfg.list_size,
                            num_candidates=cfg.num_candidates,
                            history_sessions=cfg.history_sessions)
        with pytest.raises(ValueError):
            ev.train_evaluator([], test, dims, TrainingSection())
