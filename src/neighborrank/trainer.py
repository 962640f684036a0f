"""Counterfactual neighbor-list training for the generator.

For every logged list we sample single-edit variants ("neighbors"), score
origin and neighbors with the frozen evaluator, shape the scores into rewards
and take relative rewards (neighbor minus origin). The generator's soft
position/candidate distributions are then pushed toward edits with positive
relative reward: the main loss is the negative expected relative reward under
those distributions, and an auxiliary cross-entropy nudges the position head
toward slots whose edits helped. Rewards enter as constants, so no gradient
reaches the evaluator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import evaluator
from .autodiff import Tensor
from .config import TrainingSection
from .datagen import Records
from .evaluator import (
    EvaluatorParams,
    flatten_items,
    list_attention,
    scores_for_lists,
    user_vectors,
)
from .generator import (
    GeneratorParams,
    GumbelConfig,
    apply_move,
    blocked_candidates,
    candidate_logits,
    gumbel_sample,
    masked_list_encoding,
    position_logits,
)
from .optim import Adam, raise_if_unchanged
from .rng import RngStream, StreamRows


@dataclass
class RewardConfig:
    """Business weighting of list utility and the shaping scale."""

    k1: float = 1.0
    k2: float = 1.0
    scale: float = 1.0          # divides utility so the train mean sits near 1
    cvr_mode: str = "sum"       # "sum" of per-slot values or "expected" conversions

    def __post_init__(self):
        # k1/k2 and cvr_mode arrive validated by TrainingSection; the scale
        # may come from a checkpoint
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


def reward_config(training: TrainingSection, scale: float) -> RewardConfig:
    """The reward weighting of a training config at one utility scale."""
    return RewardConfig(k1=training.k1, k2=training.k2, scale=scale,
                        cvr_mode=training.cvr_total_mode)


def shaped_reward(w):
    """Signed exponential shaping: zero at w=1, expm1 branches either side."""
    w = np.asarray(w, dtype=np.float64)
    out = np.zeros(w.shape)
    hi = w > 1.0
    lo = w < 1.0
    out[hi] = np.expm1(w[hi] - 1.0)
    out[lo] = -np.expm1(1.0 - w[lo])
    return out if out.ndim else float(out)


def list_utility(pctr: np.ndarray, pcvr: np.ndarray, cfg: RewardConfig):
    """Scaled business utility w of one or many lists (sum over slots)."""
    pctr = np.asarray(pctr, dtype=np.float64)
    pcvr = np.asarray(pcvr, dtype=np.float64)
    l_ctr = pctr.sum(axis=-1)
    l_cvr = (pctr * pcvr).sum(axis=-1) if cfg.cvr_mode == "expected" else pcvr.sum(axis=-1)
    w = (cfg.k1 * l_ctr + cfg.k2 * l_ctr * l_cvr) / cfg.scale
    if not np.isfinite(w).all():
        raise FloatingPointError("non-finite list utility")
    return w


def list_reward(pctr: np.ndarray, pcvr: np.ndarray, cfg: RewardConfig):
    """Shaped reward of one or many lists."""
    return shaped_reward(list_utility(pctr, pcvr, cfg))


def neighbor_edits(origins: np.ndarray, num_candidates: int, beta: float,
                   streams: StreamRows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-edit neighbors of (B, m) lists, one stream row per list: every
    slot beta times, or a beta fraction of the slots once. Replacements come
    from outside the list, or, when it holds the whole pool, from the other
    slots (an exchange). Returns the slots (B, P), the candidates (B, P, R)
    and the neighbor lists (B, P, R, m), in (slot, repeat) order."""
    origins = np.asarray(origins, dtype=np.int64)
    b, m = origins.shape
    ordered = np.sort(origins, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        raise ValueError(f"origin list has duplicates: {origins.tolist()}")
    size = num_candidates - m if num_candidates > m else num_candidates - 1
    if size < 1:
        raise ValueError("candidate pool too small: no replacement available")
    reps = 1 if beta < 1 else int(beta)
    if beta < 1:
        count = max(1, int(round(beta * m)))
        positions = np.sort(streams.permutation(m)[:, :count], axis=1)
    else:
        positions = np.broadcast_to(np.arange(m), (b, m))
    picks = streams.integers(0, size, (positions.shape[1], reps))     # one draw per edit
    rows = np.arange(b)[:, None]
    replaced = origins[rows, positions][..., None]                        # (B, P, 1)
    if num_candidates > m:
        in_list = np.zeros((b, num_candidates), dtype=bool)
        in_list[rows, origins] = True
        outside = np.argsort(in_list, axis=1, kind="stable")[:, :size]    # ascending
        cands = outside[rows[..., None], picks]
    else:
        cands = picks + (picks >= replaced)       # every candidate but the slot's own
    lists = apply_move(np.broadcast_to(origins[:, None, None, :], (*cands.shape, m)),
                       np.broadcast_to(positions[..., None], cands.shape), cands)
    return positions, cands, lists


def build_neighbors(list_idx, num_candidates: int, beta: float, rng: RngStream
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample single-edit neighbors of one list: neighbor_edits of a batch of
    one, returning its slots (P,), candidates (P, R) and neighbor lists (P, R, m)."""
    positions, cands, lists = rng.lockstep(
        lambda rows: neighbor_edits(np.array([list_idx]), num_candidates, beta, rows))
    return positions[0], cands[0], lists[0]


def counterfactual_reward_loss(position_weights: np.ndarray, soft_c: Tensor,
                               rewards: np.ndarray) -> Tensor:
    """Negative expected relative reward of one edit.

    position_weights (B, m) are the sampled position probabilities entering
    as constants: the slot choice is where the auxiliary loss steers, so this
    term trains only the candidate distributions soft_c (B, m, n). rewards is
    (B, m, n), zero at unsampled edits. At one-hot distributions the value
    equals minus the sampled edit's reward, and it scales linearly with the
    rewards.
    """
    weights = np.asarray(position_weights, dtype=np.float64)[..., None]
    expected = ad.reduce_sum(ad.mul(soft_c, ad.constant(weights * rewards)), axis=(1, 2))
    return ad.neg(ad.reduce_mean(expected, axis=0))


def normalized_positive(rewards: np.ndarray) -> np.ndarray:
    """Clamp negatives to zero and normalize rows; all-nonpositive rows stay zero."""
    pos = np.clip(np.asarray(rewards, dtype=np.float64), 0.0, None)
    sums = pos.sum(axis=-1, keepdims=True)
    return np.divide(pos, sums, out=np.zeros_like(pos), where=sums > 0)


def position_guidance_loss(soft_p: Tensor, position_rewards: np.ndarray) -> Tensor:
    """Cross-entropy from the positive-reward profile to the position head.

    This is the position head's training signal: records whose sampled edits
    all came out nonpositive contribute nothing.
    """
    weights = normalized_positive(position_rewards)
    logs = ad.log(ad.clamp(soft_p, 1e-12, 1.0))
    per_record = ad.neg(ad.reduce_sum(ad.mul(ad.constant(weights), logs), axis=1))
    return ad.reduce_mean(per_record, axis=0)


def fit_reward_scale(pctr: np.ndarray, pcvr: np.ndarray,
                     training: TrainingSection) -> RewardConfig:
    """Pick the scale that centers mean train utility at 1 (order-preserving)."""
    mean_w = float(list_utility(pctr, pcvr, reward_config(training, 1.0)).mean())
    return reward_config(training, max(mean_w, 1e-9))


class _TrainCache:
    """Frozen per-record quantities reused across epochs."""

    def __init__(self, records: Records, ev: EvaluatorParams):
        dims, n = ev.dims, len(records)
        self.n_records = n
        self.exposed_idx, self.cand_ids = records.exposed, records.candidate_ids   # (N, m), (N, n, F)
        self.e_user = user_vectors(records, ev)                                    # (N, D)
        self.cand_flat = np.empty((n, dims.num_candidates, dims.flat_dim))
        self.list_flat = np.empty((n, dims.list_size, dims.flat_dim))
        self.e_list = np.empty((n, dims.embed_dim))
        for blk in evaluator.passes(n):
            self.cand_flat[blk] = flatten_items(self.cand_ids[blk], ev).value
            # flatten_items is a lookup: an exposed list's rows are its candidates' rows
            self.list_flat[blk] = np.take_along_axis(self.cand_flat[blk],
                                                     self.exposed_idx[blk, :, None], axis=1)
            x = self.list_flat[blk].reshape(-1, dims.list_size, dims.num_fields, dims.embed_dim)
            self.e_list[blk] = list_attention(ad.constant(x), ev)[1].value
        self.exposed_pctr, self.exposed_pcvr = scores_for_lists(records.exposed_ids, self.e_user, ev)


def train_generator(train_records: Records,
                    eval_params: EvaluatorParams,
                    training: TrainingSection,
                    epoch_callback=None) -> tuple[GeneratorParams, list[dict], RewardConfig]:
    """Train the edit heads against the frozen evaluator.

    Runs `training.gen_epochs` epochs and resolves the ablation: "no-l2"
    trains with alpha = 0, "no-relative-reward" rewards neighbors by their
    raw shaped reward instead of its gain over the origin list.
    Returns the generator, a history row per epoch (mean main/auxiliary loss
    and anything the callback adds) and the fitted reward config. The shared
    evaluator parameters are never updated; only generator-owned tensors are
    handed to the optimizer.
    Raises TrainingStalled when an epoch leaves every generator parameter
    unchanged.
    """
    if not train_records:
        raise ValueError("train set must be nonempty")
    eval_params.ps.set_trainable(False)
    alpha = 0.0 if training.ablation == "no-l2" else training.alpha

    cache = _TrainCache(train_records, eval_params)
    reward_cfg = fit_reward_scale(cache.exposed_pctr, cache.exposed_pcvr, training)
    baseline = list_reward(cache.exposed_pctr, cache.exposed_pcvr, reward_cfg)
    if training.ablation == "no-relative-reward":
        baseline = np.zeros_like(baseline)

    rng = RngStream(training.seed).split("generator")
    gp = GeneratorParams.init(eval_params, rng.split("init"))
    gp.reward_scale = reward_cfg.scale
    opt = Adam(gp.ps.trainable(), lr=training.lr)

    n_records = cache.n_records
    batches_per_epoch = math.ceil(n_records / training.batch_size)
    total_steps = max(1, training.gen_epochs * batches_per_epoch)
    history: list[dict] = []
    step = 0
    for epoch in range(training.gen_epochs):
        order = rng.split("shuffle", epoch).permutation(n_records)
        start_values = {k: p.value.copy() for k, p in opt.params.items()}
        sums = {"main": 0.0, "aux": 0.0, "total": 0.0}
        for bstart in range(0, n_records, training.batch_size):
            idx = order[bstart : bstart + training.batch_size]
            b = len(idx)
            frac = step / max(1, total_steps - 1)
            tau = training.tau_start + (training.tau_end - training.tau_start) * frac
            gcfg = GumbelConfig(tau=tau, noise=True)

            rewards, pos_rewards, pdu_noise, cru_noise = _batch_rewards(
                cache, baseline, idx, eval_params, reward_cfg, training, epoch)

            sampled_p, policy_p, soft_c = _batch_forward(cache, idx, gp, gcfg,
                                                         pdu_noise, cru_noise)
            main = counterfactual_reward_loss(sampled_p, soft_c, rewards)
            aux = position_guidance_loss(policy_p, pos_rewards)
            loss = ad.add(main, ad.scale(aux, alpha))
            if not np.isfinite(loss.value).all():
                raise FloatingPointError(f"non-finite generator loss at epoch {epoch}, "
                                         f"batch {bstart // training.batch_size}")
            loss.backward()
            opt.step()
            opt.zero_grad()
            sums["main"] += main.item() * b
            sums["aux"] += aux.item() * b
            sums["total"] += loss.item() * b
            step += 1
        raise_if_unchanged(start_values, opt.params, f"generator epoch {epoch}")
        row = {"epoch": epoch,
               "loss_main": sums["main"] / n_records,
               "loss_aux": sums["aux"] / n_records,
               "loss_total": sums["total"] / n_records}
        if epoch_callback is not None:
            row.update(epoch_callback(gp, epoch))
        history.append(row)
    return gp, history, reward_cfg


def _batch_rewards(cache: _TrainCache, baseline: np.ndarray, idx: np.ndarray,
                   eval_params: EvaluatorParams, reward_cfg: RewardConfig,
                   training: TrainingSection, epoch: int):
    """Neighbor sampling, evaluator scoring and reward tensors for one batch.

    A neighbor's reward is its shaped reward minus its record's baseline
    (the origin list's reward, or zero for raw rewards).

    Uses one stream per (record, epoch), so results do not depend on batch
    composition or visit order. Every record's neighbors are scored in one
    call, and duplicate edits accumulate in (record, slot, repeat) order.
    """
    b, m, n = len(idx), eval_params.dims.list_size, eval_params.dims.num_candidates
    streams = RngStream(training.seed).split_rows("sampling", epoch, rows=idx)
    pdu_noise = streams.gumbel((m,))
    cru_noise = streams.gumbel((m, n))
    positions, cands, lists = neighbor_edits(cache.exposed_idx[idx], n, training.beta,
                                             streams.split("neighbors"))
    rows = np.repeat(np.arange(b), cands[0].size)
    slots = np.repeat(positions, cands.shape[2], axis=1).ravel()
    records = idx[rows]
    pctr, pcvr = scores_for_lists(cache.cand_ids[records[:, None], lists.reshape(-1, m)],
                                  cache.e_user[records], eval_params)
    rel = list_reward(pctr, pcvr, reward_cfg) - baseline[records]
    rewards = np.zeros((b, m, n))
    np.add.at(rewards, (rows, slots, cands.ravel()), rel)
    pos_sum, pos_cnt = np.zeros((2, b, m))
    np.add.at(pos_sum, (rows, slots), rel)
    np.add.at(pos_cnt, (rows, slots), 1.0)
    pos_rewards = np.divide(pos_sum, pos_cnt, out=np.zeros_like(pos_sum), where=pos_cnt > 0)
    return rewards, pos_rewards, pdu_noise, cru_noise


def _batch_forward(cache: _TrainCache, idx: np.ndarray, gp: GeneratorParams,
                   gcfg: GumbelConfig, pdu_noise: np.ndarray, cru_noise: np.ndarray):
    """Sampled position probabilities, the clean position policy and the
    candidate distributions of every slot, (B, m, n) from one graph.

    The sampled (noisy, tempered) position probabilities are returned as
    values: they weight the main loss. The clean softmax over position logits
    is the distribution the argmax sampling actually follows, and is what the
    guidance cross-entropy trains.
    """
    dims = gp.dims
    m, n = dims.list_size, dims.num_candidates
    list_flat = cache.list_flat[idx]
    cand_flat = ad.constant(cache.cand_flat[idx])
    e_list = ad.constant(cache.e_list[idx])
    e_user = ad.constant(cache.e_user[idx])

    h = position_logits(ad.constant(list_flat), e_list, e_user, gp)
    soft_p, _ = gumbel_sample(h, gcfg, noise=pdu_noise)
    policy_p = ad.softmax_rows(h)
    slots = np.broadcast_to(np.arange(m), (len(idx), m))
    e_mask = masked_list_encoding(list_flat, slots, gp)
    blocked = blocked_candidates(cache.exposed_idx[idx], slots, n)
    soft_c, _ = gumbel_sample(candidate_logits(cand_flat, e_mask, e_user, slots, gp, blocked),
                              gcfg, noise=cru_noise)
    return soft_p.value, policy_p, soft_c
