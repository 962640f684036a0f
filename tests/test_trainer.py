import math

import numpy as np
import pytest

from neighborrank import autodiff as ad
from neighborrank import evaluator as ev
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


class TestBuildNeighbors:
    def test_counts_beta_one(self):
        nset = tr.build_neighbors((0, 1, 2), num_candidates=6, beta=1, rng=RngStream(4))
        assert len(nset.samples) == 3

    def test_each_neighbor_distance_one(self):
        rng = RngStream(5)
        nset = tr.build_neighbors((0, 2, 4), num_candidates=8, beta=2, rng=rng)
        for s in nset.samples:
            diff = sum(a != b for a, b in zip(nset.origin, s.neighbor))
            assert diff == 1
            assert s.candidate not in nset.origin
            assert len(set(s.neighbor)) == 3

    def test_counts_beta_two(self):
        nset = tr.build_neighbors((0, 1, 2), num_candidates=6, beta=2, rng=RngStream(6))
        assert len(nset.samples) == 6
        per_pos = {j: 0 for j in range(3)}
        for s in nset.samples:
            per_pos[s.position] += 1
        assert all(v == 2 for v in per_pos.values())

    def test_fractional_beta_samples_subset(self):
        nset = tr.build_neighbors((0, 1, 2, 3), num_candidates=9, beta=0.5, rng=RngStream(7))
        assert len(nset.samples) == 2  # round(0.5 * 4)
        positions = {s.position for s in nset.samples}
        assert len(positions) == 2

    def test_swap_fallback_when_pool_exhausted(self):
        # all candidates already in the list: neighbors are exchanges
        nset = tr.build_neighbors((0, 1, 2), num_candidates=3, beta=1, rng=RngStream(8))
        assert len(nset.samples) == 3
        for s in nset.samples:
            assert sorted(s.neighbor) == [0, 1, 2]
            diff = sum(a != b for a, b in zip(nset.origin, s.neighbor))
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
        for j in tr.sampled_positions(len(origin), beta, rng):
            pool = tr.replacement_pool(origin, j, num_candidates)
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
            nset = tr.build_neighbors(origin, n, beta, fast)
            got = [(s.position, s.candidate, s.neighbor) for s in nset.samples]
            assert got == self.scalar_loop_neighbors(origin, n, beta, ref)
            assert all(type(k) is int for _, k, _ in got)
            assert fast.counter == ref.counter


def uniform_soft(b, k):
    return ad.softmax_rows(ad.constant(np.zeros((b, k))))


def uniform_weights(b, k):
    return np.full((b, k), 1.0 / k)


class TestMainLoss:
    def test_zero_rewards_zero_loss(self):
        soft_c = [uniform_soft(2, 4) for _ in range(3)]
        loss = tr.counterfactual_reward_loss(uniform_weights(2, 3), soft_c, np.zeros((2, 3, 4)))
        assert loss.item() == 0.0

    def test_symmetric_rewards_cancel(self):
        soft_c = [uniform_soft(1, 2)]
        rewards = np.array([[[1.0, -1.0]]])
        loss = tr.counterfactual_reward_loss(np.array([[1.0]]), soft_c, rewards)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_value_equals_negative_reward(self):
        weights = np.array([[1.0, 0.0]])
        soft_c = [ad.softmax_rows(ad.constant(np.array([[0.0, 50.0]]))),
                  uniform_soft(1, 2)]
        rewards = np.zeros((1, 2, 2))
        rewards[0, 0, 1] = 0.7
        loss = tr.counterfactual_reward_loss(weights, soft_c, rewards)
        assert loss.item() == pytest.approx(-0.7, abs=1e-9)

    def test_scaling_rewards_scales_loss(self):
        rng = RngStream(11)
        weights = np.abs(rng.normal((2, 3)))
        soft_c = [ad.softmax_rows(ad.constant(rng.normal((2, 4)))) for _ in range(3)]
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
        z_c = [ad.param(rng.normal((2, 4))) for _ in range(3)]
        rewards = rng.normal((2, 3, 4))
        pos_rewards = rng.normal((2, 3))
        noise_c = [rng.gumbel((2, 4)) for _ in range(3)]
        cfg = GumbelConfig(tau=0.8, noise=True)
        with ad.no_grad():
            weights = gumbel_sample(ad.constant(z_p.value), cfg, noise=rng.gumbel((2, 3)))[0].value

        def build():
            soft_c = [gumbel_sample(z, cfg, noise=nc)[0] for z, nc in zip(z_c, noise_c)]
            main = tr.counterfactual_reward_loss(weights, soft_c, rewards)
            aux = tr.position_guidance_loss(ad.softmax_rows(z_p), pos_rewards)
            return ad.add(main, ad.scale(aux, 0.2))

        err = ad.grad_check(build, [z_p, *z_c], h=1e-5)
        assert err < 1e-4

    def test_moving_mass_toward_reward_lowers_loss(self):
        rewards = np.zeros((1, 2, 2))
        rewards[0, 0, 0] = 1.0   # only edit (slot 0, candidate 0) helps
        soft_c = [uniform_soft(1, 2), uniform_soft(1, 2)]
        l_weak = tr.counterfactual_reward_loss(np.array([[0.5, 0.5]]), soft_c, rewards).item()
        l_strong = tr.counterfactual_reward_loss(np.array([[0.9, 0.1]]), soft_c, rewards).item()
        assert l_strong < l_weak

    def test_candidate_gradient_direction(self):
        # pushing candidate logits toward the rewarded edit must be downhill
        z = ad.param(np.zeros((1, 3)))
        rewards = np.zeros((1, 1, 3))
        rewards[0, 0, 1] = 1.0
        cfg = GumbelConfig(tau=1.0, noise=False)

        def build():
            soft_c = [gumbel_sample(z, cfg)[0]]
            return tr.counterfactual_reward_loss(np.array([[1.0]]), soft_c, rewards)

        loss = build()
        loss.backward()
        assert z.grad[0, 1] < 0  # increasing the rewarded logit lowers loss
        assert z.grad[0, 0] > 0


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
        before = {k: v.copy() for k, v in eval_params.values().items()}
        training = TrainingSection(gen_epochs=2, batch_size=32, seed=5)
        gp, history, reward_cfg = tr.train_generator(train, eval_params, training)
        after = eval_params.values()
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
        z_c = rng.normal((m, b, n))
        rewards = rng.normal((b, m, n))
        pos_rewards = rng.normal((b, m))
        cfg = GumbelConfig(tau=1.0, noise=False)

        def loss_for(rows):
            soft_c = [gumbel_sample(ad.constant(z_c[j][rows]), cfg)[0] for j in range(m)]
            main = tr.counterfactual_reward_loss(weights[rows], soft_c, rewards[rows]).item()
            aux = tr.position_guidance_loss(uniform_soft(len(rows), m), pos_rewards[rows]).item()
            return main + 0.2 * aux

        batched = loss_for(np.arange(b))
        singles = [loss_for(np.array([i])) for i in range(b)]
        assert batched == pytest.approx(np.mean(singles), rel=1e-12)
