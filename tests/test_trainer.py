import math

import numpy as np
import pytest

from neighborrank import autodiff as ad
from neighborrank import evaluator as ev
from neighborrank import generator as gen
from neighborrank import trainer as tr
from neighborrank.config import TrainingSection
from neighborrank.datagen import DataConfig, generate_records
from neighborrank.generator import GumbelConfig, apply_move, gumbel_sample
from neighborrank.optim import TrainingStalled
from neighborrank.rng import RngStream


class TestShapedReward:
    def test_fixed_points(self):
        assert tr.shaped_reward(1.0) == 0.0
        assert tr.shaped_reward(2.0) == pytest.approx(math.e - 1.0, abs=1e-12)
        assert tr.shaped_reward(0.5) == pytest.approx(1.0 - math.exp(0.5), abs=1e-12)

    def test_strictly_increasing_on_grid(self):
        grid = np.arange(0.0, 3.0 + 1e-9, 0.01)
        vals = tr.shaped_reward(grid)
        assert (np.diff(vals) > 0).all()

    def test_vectorized(self):
        out = tr.shaped_reward(np.array([0.5, 1.0, 2.0]))
        assert out.shape == (3,)
        assert out[1] == 0.0


class TestListReward:
    def test_utility_formula(self):
        cfg = tr.RewardConfig(k1=2.0, k2=3.0, scale=1.0)
        pctr = np.array([0.2, 0.3])
        pcvr = np.array([0.1, 0.4])
        l_ctr, l_cvr = 0.5, 0.5
        expected = 2.0 * l_ctr + 3.0 * l_ctr * l_cvr
        assert tr.list_utility(pctr, pcvr, cfg) == pytest.approx(expected, abs=1e-12)

    def test_expected_conversion_mode(self):
        cfg = tr.RewardConfig(k1=1.0, k2=1.0, scale=1.0, cvr_mode="expected")
        pctr = np.array([0.2, 0.3])
        pcvr = np.array([0.1, 0.4])
        l_cvr = 0.2 * 0.1 + 0.3 * 0.4
        expected = 0.5 + 0.5 * l_cvr
        assert tr.list_utility(pctr, pcvr, cfg) == pytest.approx(expected, abs=1e-12)

    def test_scale_divides_utility(self):
        cfg = tr.RewardConfig(scale=2.0)
        assert tr.list_utility(np.array([1.0]), np.array([1.0]), cfg) == pytest.approx(1.0)

    def test_invalid_configs(self):
        # k1/k2 and cvr_mode are TrainingSection's to check; the scale may
        # come from a checkpoint
        for scale in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="scale"):
                tr.RewardConfig(scale=scale)

    def test_non_finite_utility_rejected(self):
        with pytest.raises(FloatingPointError):
            tr.list_utility(np.array([np.inf]), np.array([0.5]), tr.RewardConfig())


# Test-only copies of the scalar neighbor sampling that trainer.neighbor_edits
# replaced; the batched code must reproduce them draw for draw.
def ref_replacement_pool(list_idx, position, num_candidates):
    in_list = set(int(i) for i in list_idx)
    outside = [c for c in range(num_candidates) if c not in in_list]
    if outside:
        return np.asarray(outside, dtype=np.int64)
    pool = [c for c in range(num_candidates) if c != int(list_idx[position])]
    if not pool:
        raise ValueError("candidate pool too small: no replacement available")
    return np.asarray(pool, dtype=np.int64)


def ref_sampled_positions(m, beta, rng):
    if beta < 1:
        count = max(1, int(round(beta * m)))
        return sorted(int(i) for i in rng.choice(m, count))
    return list(range(m))


def ref_build_neighbors(list_idx, num_candidates, beta, rng):
    """The per-record build_neighbors before neighbor_edits: (slot, candidate,
    neighbor) per edit, one uniform((positions, reps)) draw."""
    origin = tuple(int(i) for i in list_idx)
    reps = 1 if beta < 1 else int(beta)
    positions = ref_sampled_positions(len(origin), beta, rng)
    pools = [ref_replacement_pool(origin, j, num_candidates) for j in positions]
    sizes = np.array([len(pool) for pool in pools])[:, None]
    picks = np.floor(rng.uniform((len(positions), reps)) * sizes).astype(np.int64)
    picks = np.minimum(picks, sizes - 1)
    return [(j, int(pool[p]), apply_move(origin, j, int(pool[p])))
            for j, pool, row in zip(positions, pools, picks.tolist()) for p in row]


def edits(list_idx, num_candidates, beta, rng):
    """build_neighbors as (slot, candidate, neighbor) per edit, in (slot, repeat) order."""
    positions, cands, lists = tr.build_neighbors(list_idx, num_candidates, beta, rng)
    return [(j, k, tuple(nb)) for j, row_k, row_lists in
            zip(positions.tolist(), cands.tolist(), lists.tolist())
            for k, nb in zip(row_k, row_lists)]


class TestBuildNeighbors:
    def test_counts_beta_one(self):
        positions, cands, lists = tr.build_neighbors((0, 1, 2), num_candidates=6, beta=1,
                                                     rng=RngStream(4))
        assert positions.shape == (3,) and cands.shape == (3, 1) and lists.shape == (3, 1, 3)

    def test_each_neighbor_distance_one(self):
        origin = (0, 2, 4)
        for _, k, neighbor in edits(origin, num_candidates=8, beta=2, rng=RngStream(5)):
            diff = sum(a != b for a, b in zip(origin, neighbor))
            assert diff == 1
            assert k not in origin
            assert len(set(neighbor)) == 3

    def test_counts_beta_two(self):
        samples = edits((0, 1, 2), num_candidates=6, beta=2, rng=RngStream(6))
        assert len(samples) == 6
        per_pos = {j: 0 for j in range(3)}
        for j, _, _ in samples:
            per_pos[j] += 1
        assert all(v == 2 for v in per_pos.values())

    def test_fractional_beta_samples_subset(self):
        samples = edits((0, 1, 2, 3), num_candidates=9, beta=0.5, rng=RngStream(7))
        assert len(samples) == 2  # round(0.5 * 4)
        assert len({j for j, _, _ in samples}) == 2

    def test_swap_fallback_when_pool_exhausted(self):
        # all candidates already in the list: neighbors are exchanges
        origin = (0, 1, 2)
        samples = edits(origin, num_candidates=3, beta=1, rng=RngStream(8))
        assert len(samples) == 3
        for _, _, neighbor in samples:
            assert sorted(neighbor) == [0, 1, 2]
            diff = sum(a != b for a, b in zip(origin, neighbor))
            assert diff == 2   # an exchange touches two slots

    def test_single_slot_single_candidate_fails(self):
        with pytest.raises(ValueError, match="pool too small"):
            tr.build_neighbors((0,), num_candidates=1, beta=1, rng=RngStream(9))

    @staticmethod
    def scalar_loop_neighbors(list_idx, num_candidates, beta, rng):
        """Reference: one scalar rng.integers call per edit, in loop order."""
        origin = tuple(int(i) for i in list_idx)
        reps = 1 if beta < 1 else int(beta)
        out = []
        for j in ref_sampled_positions(len(origin), beta, rng):
            pool = ref_replacement_pool(origin, j, num_candidates)
            for _ in range(reps):
                k = int(pool[rng.integers(0, len(pool))])
                out.append((j, k, apply_move(origin, j, k)))
        return out

    @pytest.mark.parametrize("beta", [0.2, 0.5, 1, 2])
    @pytest.mark.parametrize("n,m", [(5, 5), (8, 5), (12, 4)])
    def test_matches_scalar_loop_reference(self, n, m, beta):
        for trial in range(60):
            seed = RngStream(trial).split("pick", n, m).integers(0, 2**62)
            origin = tuple(RngStream(seed).choice(n, m).tolist())
            fast, ref = RngStream(seed, trial), RngStream(seed, trial)
            got = edits(origin, n, beta, fast)
            assert got == self.scalar_loop_neighbors(origin, n, beta, ref)
            assert fast.counter == ref.counter


def uniform_soft(*shape):
    return ad.softmax_rows(ad.constant(np.zeros(shape)))


def uniform_weights(b, k):
    return np.full((b, k), 1.0 / k)


class TestMainLoss:
    def test_zero_rewards_zero_loss(self):
        soft_c = uniform_soft(2, 3, 4)
        loss = tr.counterfactual_reward_loss(uniform_weights(2, 3), soft_c, np.zeros((2, 3, 4)))
        assert loss.item() == 0.0

    def test_symmetric_rewards_cancel(self):
        soft_c = uniform_soft(1, 1, 2)
        rewards = np.array([[[1.0, -1.0]]])
        loss = tr.counterfactual_reward_loss(np.array([[1.0]]), soft_c, rewards)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_value_equals_negative_reward(self):
        weights = np.array([[1.0, 0.0]])
        soft_c = ad.softmax_rows(ad.constant(np.array([[[0.0, 50.0], [0.0, 0.0]]])))
        rewards = np.zeros((1, 2, 2))
        rewards[0, 0, 1] = 0.7
        loss = tr.counterfactual_reward_loss(weights, soft_c, rewards)
        assert loss.item() == pytest.approx(-0.7, abs=1e-9)

    def test_scaling_rewards_scales_loss(self):
        rng = RngStream(11)
        weights = np.abs(rng.normal((2, 3)))
        soft_c = ad.softmax_rows(ad.constant(rng.normal((2, 3, 4))))
        rewards = rng.normal((2, 3, 4))
        l1 = tr.counterfactual_reward_loss(weights, soft_c, rewards).item()
        l2 = tr.counterfactual_reward_loss(weights, soft_c, 3.5 * rewards).item()
        assert l2 == pytest.approx(3.5 * l1, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        # combined objective, mirroring one training step: the position
        # weights of the main term are batch constants, the guidance term
        # carries the position head's gradient
        rng = RngStream(12)
        z_p = ad.param(rng.normal((2, 3)))
        z_c = ad.param(rng.normal((2, 3, 4)))
        rewards = rng.normal((2, 3, 4))
        pos_rewards = rng.normal((2, 3))
        noise_c = rng.gumbel((2, 3, 4))
        cfg = GumbelConfig(tau=0.8, noise=True)
        with ad.no_grad():
            weights = gumbel_sample(ad.constant(z_p.value), cfg, noise=rng.gumbel((2, 3)))[0].value

        def build():
            soft_c = gumbel_sample(z_c, cfg, noise=noise_c)[0]
            main = tr.counterfactual_reward_loss(weights, soft_c, rewards)
            aux = tr.position_guidance_loss(ad.softmax_rows(z_p), pos_rewards)
            return ad.add(main, ad.scale(aux, 0.2))

        err = ad.grad_check(build, [z_p, z_c], h=1e-5)
        assert err < 1e-4

    def test_moving_mass_toward_reward_lowers_loss(self):
        rewards = np.zeros((1, 2, 2))
        rewards[0, 0, 0] = 1.0   # only edit (slot 0, candidate 0) helps
        soft_c = uniform_soft(1, 2, 2)
        l_weak = tr.counterfactual_reward_loss(np.array([[0.5, 0.5]]), soft_c, rewards).item()
        l_strong = tr.counterfactual_reward_loss(np.array([[0.9, 0.1]]), soft_c, rewards).item()
        assert l_strong < l_weak

    def test_candidate_gradient_direction(self):
        # pushing candidate logits toward the rewarded edit must be downhill
        z = ad.param(np.zeros((1, 1, 3)))
        rewards = np.zeros((1, 1, 3))
        rewards[0, 0, 1] = 1.0
        cfg = GumbelConfig(tau=1.0, noise=False)

        def build():
            soft_c = gumbel_sample(z, cfg)[0]
            return tr.counterfactual_reward_loss(np.array([[1.0]]), soft_c, rewards)

        loss = build()
        loss.backward()
        assert z.grad[0, 0, 1] < 0  # increasing the rewarded logit lowers loss
        assert z.grad[0, 0, 0] > 0


class TestGuidanceLoss:
    def test_point_mass_example(self):
        soft_p = uniform_soft(1, 2)
        loss = tr.position_guidance_loss(soft_p, np.array([[1.0, 0.0]]))
        assert loss.item() == pytest.approx(math.log(2), abs=1e-9)

    def test_all_negative_rewards_skip(self):
        soft_p = uniform_soft(1, 3)
        loss = tr.position_guidance_loss(soft_p, np.array([[-1.0, -0.5, -2.0]]))
        assert loss.item() == 0.0

    def test_equal_positive_rewards(self):
        soft_p = uniform_soft(1, 2)
        loss = tr.position_guidance_loss(soft_p, np.array([[2.0, 2.0]]))
        assert loss.item() == pytest.approx(math.log(2), abs=1e-9)

    def test_norm_scale_invariance(self):
        r = np.array([[0.5, 2.0, -1.0]])
        assert np.allclose(tr.normalized_positive(r), tr.normalized_positive(4.0 * r))


def small_setup(num_records=500, n_candidates=3, seed=3):
    cfg = DataConfig(seed=seed, num_items=30, num_categories=4, num_brands=5, num_users=20,
                     history_sessions=2, list_size=3, num_candidates=n_candidates,
                     num_records=num_records)
    records = generate_records(cfg)
    split = int(0.9 * num_records)
    dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                        brand_vocab=cfg.num_brands, list_size=cfg.list_size,
                        num_candidates=cfg.num_candidates,
                        history_sessions=cfg.history_sessions,
                        embed_dim=4, mlp_hidden=(16, 8))
    eval_params, _ = ev.train_evaluator(records[:split], records[split:], dims,
                                        TrainingSection(eval_epochs=2, batch_size=32, seed=1))
    return records[:split], records[split:], eval_params


def test_ablation_resolution():
    # "no-l2" is alpha = 0; "no-relative-reward" changes what is learned
    train, _, eval_params = small_setup(num_records=200)

    def weights(**settings):
        training = TrainingSection(gen_epochs=1, batch_size=32, seed=5, **settings)
        return tr.train_generator(train, eval_params, training)[0].ps.values()

    full, no_l2 = weights(), weights(ablation="no-l2")
    alpha0, raw = weights(alpha=0.0), weights(ablation="no-relative-reward")
    for name, value in no_l2.items():
        assert value.tobytes() == alpha0[name].tobytes(), name
    assert any(not np.array_equal(no_l2[k], full[k]) for k in full)
    assert any(not np.array_equal(raw[k], full[k]) for k in full)


class TestTrainGenerator:
    def test_frozen_evaluator_bit_identical_and_history(self):
        train, test, eval_params = small_setup(num_records=300)
        before = {k: v.copy() for k, v in eval_params.ps.values().items()}
        training = TrainingSection(gen_epochs=2, batch_size=32, seed=5)
        gp, history, reward_cfg = tr.train_generator(train, eval_params, training)
        after = eval_params.ps.values()
        for name in before:
            assert before[name].tobytes() == after[name].tobytes(), name
        assert len(history) == 2
        assert all(np.isfinite(row["loss_total"]) for row in history)
        assert reward_cfg.scale > 0

    def test_alpha_zero_drops_auxiliary_term(self):
        train, test, eval_params = small_setup(num_records=300)
        training = TrainingSection(alpha=0.0, gen_epochs=1, batch_size=32, seed=5)
        _, history, _ = tr.train_generator(train, eval_params, training)
        row = history[0]
        assert row["loss_total"] == pytest.approx(row["loss_main"], abs=1e-12)

    def test_identical_seed_identical_history(self):
        train, test, eval_params = small_setup(num_records=300)
        training = TrainingSection(gen_epochs=2, batch_size=32, seed=8)
        _, h1, _ = tr.train_generator(train, eval_params, training)
        _, h2, _ = tr.train_generator(train, eval_params, training)
        assert h1 == h2

    def test_epoch_without_graph_raises(self):
        train, test, eval_params = small_setup(num_records=300)
        training = TrainingSection(gen_epochs=1, batch_size=32, seed=5)
        with ad.no_grad():
            with pytest.raises(TrainingStalled, match="generator epoch 0"):
                tr.train_generator(train, eval_params, training)

    def test_batch_mean_matches_per_record_sum(self):
        # the batched loss equals the mean of single-record losses
        rng = RngStream(13)
        b, m, n = 4, 3, 5
        weights = np.abs(rng.normal((b, m)))
        z_c = rng.normal((b, m, n))
        rewards = rng.normal((b, m, n))
        pos_rewards = rng.normal((b, m))
        cfg = GumbelConfig(tau=1.0, noise=False)

        def loss_for(rows):
            soft_c = gumbel_sample(ad.constant(z_c[rows]), cfg)[0]
            main = tr.counterfactual_reward_loss(weights[rows], soft_c, rewards[rows]).item()
            aux = tr.position_guidance_loss(uniform_soft(len(rows), m), pos_rewards[rows]).item()
            return main + 0.2 * aux

        batched = loss_for(np.arange(b))
        singles = [loss_for(np.array([i])) for i in range(b)]
        assert batched == pytest.approx(np.mean(singles), rel=1e-12)


def ref_batch_rewards(cache, baseline, idx, eval_params, reward_cfg, training, epoch):
    """Test-only copy of the per-record loop that _batch_rewards replaced."""
    dims = eval_params.dims
    b, m, n = len(idx), dims.list_size, dims.num_candidates
    rewards, pos_sum, pos_cnt = np.zeros((b, m, n)), np.zeros((b, m)), np.zeros((b, m))
    pdu_noise, cru_noise = np.zeros((b, m)), np.zeros((b, m, n))
    all_lists, sample_refs = [], []
    for row, rec_i in enumerate(idx):
        rstream = RngStream(training.seed).split("sampling", epoch, int(rec_i))
        pdu_noise[row] = rstream.gumbel((m,))
        cru_noise[row] = rstream.gumbel((m, n))
        for j, k, neighbor in ref_build_neighbors(cache.exposed_idx[rec_i], n, training.beta,
                                                  rstream.split("neighbors")):
            all_lists.append(cache.cand_ids[rec_i][list(neighbor)])
            sample_refs.append((row, j, k))
    rows = np.array([r for r, _, _ in sample_refs])
    pctr, pcvr = ev.scores_for_lists(np.stack(all_lists), cache.e_user[idx][rows], eval_params)
    for (row, j, k), value in zip(sample_refs, tr.list_reward(pctr, pcvr, reward_cfg)):
        rel = value - baseline[idx[row]]
        rewards[row, j, k] += rel
        pos_sum[row, j] += rel
        pos_cnt[row, j] += 1
    pos_rewards = np.divide(pos_sum, pos_cnt, out=np.zeros_like(pos_sum), where=pos_cnt > 0)
    return rewards, pos_rewards, pdu_noise, cru_noise


@pytest.mark.parametrize("n_candidates", [3, 6])
@pytest.mark.parametrize("beta", [0.4, 1, 2])
def test_batch_rewards_match_per_record_loop(beta, n_candidates):
    """All four reward arrays equal the per-record loop bit for bit, duplicate
    picks (beta = 2) included, on swap (3 of 3) and substitution (3 of 6) pools,
    through one memo carried over batches of epochs 0, 1 and 3 whose records
    overlap."""
    train, _, eval_params = small_setup(num_records=120, n_candidates=n_candidates)
    training = TrainingSection(beta=beta, seed=9)
    cache = tr._TrainCache(train, eval_params)
    reward_cfg = tr.fit_reward_scale(cache.exposed_pctr, cache.exposed_pcvr, training)
    baseline = tr.list_reward(cache.exposed_pctr, cache.exposed_pcvr, reward_cfg)
    order = RngStream(2).permutation(len(train))
    memo = np.full((len(train), 3, n_candidates), np.nan)
    scored = []
    for epoch, idx in ((0, order[:60]), (1, order[30:90]), (3, order[:60])):
        args = (cache, baseline, idx, eval_params, reward_cfg, training, epoch)
        *got, count = tr._batch_rewards(*args, memo)
        want = ref_batch_rewards(*args)
        assert len(got) == len(want) == 4
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        scored.append(count)
    assert np.count_nonzero(got[0]) > 0
    # one score fills both entries of an exchange
    assert np.count_nonzero(~np.isnan(memo)) == sum(scored) * (2 if n_candidates == 3 else 1)


def drawn_pairs(cache, training, n, epochs):
    """{(record, neighbor list): [(epoch, slot), ...]} of every edit training
    draws, from the per-record reference streams."""
    pairs = {}
    for epoch in range(epochs):
        for r in range(cache.n_records):
            stream = RngStream(training.seed).split("sampling", epoch, r).split("neighbors")
            for j, _, neighbor in ref_build_neighbors(cache.exposed_idx[r], n, training.beta,
                                                      stream):
                pairs.setdefault((r, tuple(neighbor)), []).append((epoch, j))
    return pairs


@pytest.mark.parametrize("n_candidates", [3, 6])
def test_each_neighbor_list_reaches_the_evaluator_at_most_once(monkeypatch, n_candidates):
    """Over 4 epochs at beta = 2 every drawn (record, neighbor list) pair is
    scored exactly once, a swap drawn from both of its slots in different
    epochs included, and `lists_scored` counts the lists sent per epoch."""
    train, _, eval_params = small_setup(num_records=100, n_candidates=n_candidates)
    training = TrainingSection(gen_epochs=4, beta=2, batch_size=16, seed=4)
    calls = []

    def scores(list_ids, e_user, params):
        calls.append((list_ids.copy(), e_user.copy()))
        return ev.scores_for_lists(list_ids, e_user, params)

    monkeypatch.setattr(tr, "scores_for_lists", scores)
    _, history, _ = tr.train_generator(train, eval_params, training)
    cache_call, *batch_calls = calls
    assert np.array_equal(cache_call[0], train.exposed_ids)
    assert len(batch_calls) == 4 * math.ceil(len(train) / 16)
    per_epoch = np.array([len(ids) for ids, _ in batch_calls]).reshape(4, -1).sum(axis=1)
    assert [row["lists_scored"] for row in history] == per_epoch.tolist()

    monkeypatch.undo()
    cache = tr._TrainCache(train, eval_params)
    users = {cache.e_user[r].tobytes(): r for r in range(len(train))}
    assert len(users) == len(train)          # a scored row's user vector names its record
    scored = [(users[u.tobytes()], ids.tobytes())
              for list_ids, e_user in batch_calls for ids, u in zip(list_ids, e_user)]
    assert len(scored) == len(set(scored))
    drawn = drawn_pairs(cache, training, n_candidates, 4)
    assert set(scored) == {(r, cache.cand_ids[r][list(neighbor)].tobytes())
                           for r, neighbor in drawn}
    assert len(scored) < sum(len(edits) for edits in drawn.values())
    if n_candidates == 3:
        assert any(e1 != e2 and j1 != j2 for edits in drawn.values()
                   for e1, j1 in edits for e2, j2 in edits)


def rescoring_batch_rewards(*args):
    """_batch_rewards without its memo: the per-record loop scores every draw."""
    return (*ref_batch_rewards(*args[:-1]), 0)


@pytest.mark.parametrize("ablation", ["none", "no-relative-reward"])
@pytest.mark.parametrize("n_candidates", [3, 6])
def test_memo_changes_no_generator_bit(monkeypatch, n_candidates, ablation):
    """Training with the memo gives the same parameter bytes, history and
    reward scale as rescoring every draw, on both pools and with raw rewards."""
    train, _, eval_params = small_setup(num_records=100, n_candidates=n_candidates)
    training = TrainingSection(gen_epochs=3, beta=2, batch_size=16, seed=6, ablation=ablation)
    gp, history, reward_cfg = tr.train_generator(train, eval_params, training)
    monkeypatch.setattr(tr, "_batch_rewards", rescoring_batch_rewards)
    ref_gp, ref_history, ref_cfg = tr.train_generator(train, eval_params, training)
    values, ref_values = gp.ps.values(), ref_gp.ps.values()
    assert values.keys() == ref_values.keys()
    for name, value in values.items():
        assert value.tobytes() == ref_values[name].tobytes(), name
    assert reward_cfg == ref_cfg
    for row in history + ref_history:
        del row["lists_scored"]
    assert history == ref_history


@pytest.mark.parametrize("chunk", [1, 7])
def test_train_cache_does_not_depend_on_chunk_size(monkeypatch, chunk):
    """Every cached array of a chunked pass equals the default pass exactly,
    and each exposed list's rows equal the embedding of its own items."""
    data = DataConfig(seed=4, num_items=30, num_categories=4, num_brands=5, num_users=20,
                      history_sessions=2, list_size=4, num_candidates=6, num_records=40)
    records = generate_records(data)
    dims = ev.ModelDims(item_vocab=30, cat_vocab=4, brand_vocab=5, list_size=4,
                        num_candidates=6, history_sessions=2, embed_dim=4, mlp_hidden=(8,))
    params = ev.EvaluatorParams.init(dims, RngStream(1), std=0.5)
    want = tr._TrainCache(records, params)
    with ad.no_grad():
        x = ev.embed_lists(records.exposed_ids, params)
        assert np.array_equal(want.list_flat, ev.flatten_items(records.exposed_ids, params).value)
        assert np.array_equal(want.e_list, ev.list_attention(x, params)[1].value)
    monkeypatch.setattr(ev, "SCORE_CHUNK", chunk)
    got = tr._TrainCache(records, params)
    for name in ("exposed_idx", "cand_ids", "e_user", "cand_flat", "list_flat", "e_list",
                 "exposed_pctr", "exposed_pcvr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# Test-only copies of the per-slot generator heads, forward loop and m-term
# loss that the one-graph _batch_forward and counterfactual_reward_loss
# replaced; the new path must match them at rounding level.
def ref_masked_list_encoding(list_flat, position, gp):
    b, m, fd = list_flat.shape
    token = ad.broadcast_to(ad.reshape(gp.ps["mask.token"], (1, 1, fd)), (b, 1, fd))
    rows = []
    if position > 0:
        rows.append(ad.slice_axis(list_flat, 1, 0, position))
    rows.append(token)
    if position < m - 1:
        rows.append(ad.slice_axis(list_flat, 1, position + 1, m))
    return ev.self_attention_pool(ad.concat(rows, axis=1),
                                  gp.ps["mask.q"], gp.ps["mask.k"], gp.ps["mask.v"])


def ref_tile(vec, n):
    b, d = vec.shape
    return ad.broadcast_to(ad.expand_dims(vec, 1), (b, n, d))


def ref_candidate_logits(cand_flat, e_mask, e_user, position, gp, blocked):
    b, n = cand_flat.shape[0], cand_flat.shape[1]
    pe_row = ad.slice_axis(gp.ps["pos"], 0, position, position + 1)
    pe = ad.broadcast_to(ad.expand_dims(pe_row, 0), (b, n, gp.dims.embed_dim))
    cand_repr = ad.relu(ad.affine(ad.concat([cand_flat, pe], axis=-1),
                                  gp.ps["cand.w"], gp.ps["cand.b"]))
    z = ad.concat([cand_repr, ref_tile(e_mask, n), ref_tile(e_user, n), pe], axis=-1)
    logits = ad.reshape(ad.affine(z, gp.ps["cru.w"], gp.ps["cru.b"]), (b, n))
    if blocked is not None and blocked.any():
        logits = ad.add(logits, ad.constant(np.where(blocked, -1e30, 0.0)))
    return logits


def ref_blocked_candidates(lists, position, n):
    b, m = lists.shape
    if n <= m:
        return None
    blocked = np.zeros((b, n), dtype=bool)
    rows = np.arange(b)
    blocked[rows[:, None], lists] = True
    blocked[rows, lists[rows, position]] = False
    return blocked


def ref_batch_forward(cache, idx, gp, gcfg, pdu_noise, cru_noise):
    """The per-slot loop: one candidate-head graph per slot, a list of (B, n)."""
    m, n = gp.dims.list_size, gp.dims.num_candidates
    list_flat = ad.constant(cache.list_flat[idx])
    cand_flat = ad.constant(cache.cand_flat[idx])
    e_user = ad.constant(cache.e_user[idx])
    h = gen.position_logits(list_flat, ad.constant(cache.e_list[idx]), e_user, gp)
    soft_p, _ = gumbel_sample(h, gcfg, noise=pdu_noise)
    soft_c = []
    for j in range(m):
        e_mask = ref_masked_list_encoding(list_flat, j, gp)
        blocked = ref_blocked_candidates(cache.exposed_idx[idx], j, n)
        g = ref_candidate_logits(cand_flat, e_mask, e_user, j, gp, blocked)
        soft_c.append(gumbel_sample(g, gcfg, noise=cru_noise[:, j, :])[0])
    return soft_p.value, ad.softmax_rows(h), soft_c


def ref_counterfactual_reward_loss(position_weights, soft_c, rewards):
    total = None
    for j, soft in enumerate(soft_c):
        inner = ad.reduce_sum(ad.mul(soft, ad.constant(rewards[:, j, :])), axis=1)
        term = ad.mul(ad.constant(position_weights[:, j]), inner)
        total = term if total is None else ad.add(total, term)
    return ad.neg(ad.reduce_mean(total, axis=0))


@pytest.mark.parametrize("n,m", [(5, 5), (12, 4)])
def test_one_graph_forward_matches_per_slot_loop(n, m):
    """Loss and every generator gradient of one training batch equal the
    per-slot loop's at rounding level, on a swap and a substitution pool."""
    data = DataConfig(seed=4, num_items=30, num_categories=4, num_brands=5, num_users=20,
                      history_sessions=2, list_size=m, num_candidates=n, num_records=48)
    records = generate_records(data)
    dims = ev.ModelDims(item_vocab=30, cat_vocab=4, brand_vocab=5, list_size=m,
                        num_candidates=n, history_sessions=2, embed_dim=4, mlp_hidden=(8,))
    eval_params = ev.EvaluatorParams.init(dims, RngStream(1))
    weights = RngStream(2)
    for name, t in eval_params.ps.items():
        t.value = weights.split("ev", name).normal(t.value.shape) * 0.5
    eval_params.ps.set_trainable(False)
    training = TrainingSection(beta=1, seed=6)
    cache = tr._TrainCache(records, eval_params)
    reward_cfg = tr.fit_reward_scale(cache.exposed_pctr, cache.exposed_pcvr, training)
    baseline = tr.list_reward(cache.exposed_pctr, cache.exposed_pcvr, reward_cfg)
    idx = RngStream(3).permutation(len(records))[:32]
    rewards, pos_rewards, pdu_noise, cru_noise, _ = tr._batch_rewards(
        cache, baseline, idx, eval_params, reward_cfg, training, 0, np.full((48, m, n), np.nan))
    assert np.count_nonzero(rewards) > 0
    gp = gen.GeneratorParams.init(eval_params, RngStream(5))
    for name, t in gp.ps.items():
        t.value = weights.split("gen", name).normal(t.value.shape) * 0.5
    gcfg = GumbelConfig(tau=0.7, noise=True)

    def run(forward, loss_fn):
        for t in gp.ps.trainable().values():
            t.zero_grad()
        sampled_p, policy_p, soft_c = forward(cache, idx, gp, gcfg, pdu_noise, cru_noise)
        main = loss_fn(sampled_p, soft_c, rewards)
        loss = ad.add(main, ad.scale(tr.position_guidance_loss(policy_p, pos_rewards), 0.3))
        loss.backward()
        return main.item(), loss.item(), {k: t.grad.copy() for k, t in gp.ps.trainable().items()}

    main, total, grads = run(tr._batch_forward, tr.counterfactual_reward_loss)
    ref_main, ref_total, ref_grads = run(ref_batch_forward, ref_counterfactual_reward_loss)
    assert main == pytest.approx(ref_main, rel=1e-12)
    assert total == pytest.approx(ref_total, rel=1e-12)
    for name, g in grads.items():
        assert np.allclose(g, ref_grads[name], rtol=1e-12, atol=1e-12), name
    assert any(np.abs(g).max() > 1e-3 for g in grads.values())
