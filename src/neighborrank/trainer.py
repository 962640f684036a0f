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
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .datagen import InteractionRecord
from .evaluator import (
    EvaluatorParams,
    embed_lists,
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
from .rng import RngStream


@dataclass
class RewardConfig:
    """Business weighting of list utility and the shaping scale."""

    k1: float = 1.0
    k2: float = 1.0
    scale: float = 1.0          # divides utility so the train mean sits near 1
    cvr_mode: str = "sum"       # "sum" of per-slot values or "expected" conversions

    def __post_init__(self):
        if self.k1 < 0 or self.k2 < 0 or (self.k1 == 0 and self.k2 == 0):
            raise ValueError("k1 and k2 must be nonnegative and not both zero")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.cvr_mode not in ("sum", "expected"):
            raise ValueError(f"cvr_mode must be 'sum' or 'expected', got {self.cvr_mode!r}")


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


def relative_rewards(neighbor_rewards, origin_reward):
    """Neighbor reward minus origin reward, elementwise."""
    return np.asarray(neighbor_rewards, dtype=np.float64) - origin_reward


@dataclass
class NeighborReward:
    """One counterfactual edit and its scored outcome."""

    position: int
    candidate: int
    neighbor: tuple[int, ...]


@dataclass
class NeighborSet:
    origin: tuple[int, ...]
    samples: list[NeighborReward] = field(default_factory=list)


def replacement_pool(list_idx, position: int, num_candidates: int) -> np.ndarray:
    """Candidates eligible to replace one slot.

    Prefers candidates outside the list (edit distance 1). Only when the pool
    is exhausted by the list itself does it fall back to the other slots'
    items, which turns the edit into an exchange.
    """
    in_list = set(int(i) for i in list_idx)
    outside = [c for c in range(num_candidates) if c not in in_list]
    if outside:
        return np.asarray(outside, dtype=np.int64)
    pool = [c for c in range(num_candidates) if c != int(list_idx[position])]
    if not pool:
        raise ValueError("candidate pool too small: no replacement available")
    return np.asarray(pool, dtype=np.int64)


def sampled_positions(m: int, beta: float, rng: RngStream) -> list[int]:
    if 0 < beta < 1:
        count = max(1, int(round(beta * m)))
        return sorted(int(i) for i in rng.choice(m, count))
    if beta >= 1 and float(beta).is_integer():
        return list(range(m))
    raise ValueError(f"beta must be a fraction in (0,1) or a positive integer, got {beta}")


def build_neighbors(list_idx, num_candidates: int, beta: float, rng: RngStream) -> NeighborSet:
    """Sample single-edit neighbors: beta per slot, or a beta fraction of slots."""
    origin = tuple(int(i) for i in list_idx)
    m = len(origin)
    if len(set(origin)) != m:
        raise ValueError(f"origin list has duplicates: {origin}")
    reps = 1 if beta < 1 else int(beta)
    out = NeighborSet(origin=origin)
    for j in sampled_positions(m, beta, rng):
        pool = replacement_pool(origin, j, num_candidates)
        for _ in range(reps):
            k = int(pool[rng.integers(0, len(pool))])
            out.samples.append(NeighborReward(position=j, candidate=k,
                                              neighbor=apply_move(origin, j, k)))
    return out


def counterfactual_reward_loss(position_weights: np.ndarray, soft_c: list[Tensor],
                               rewards: np.ndarray) -> Tensor:
    """Negative expected relative reward of one edit.

    position_weights (B, m) are the sampled position probabilities entering
    as constants: the slot choice is where the auxiliary loss steers, so this
    term trains only the candidate distributions. rewards is (B, m, n), zero
    at unsampled edits. At one-hot distributions the value equals minus the
    sampled edit's reward, and it scales linearly with the rewards.
    """
    position_weights = np.asarray(position_weights, dtype=np.float64)
    b, m = position_weights.shape
    total = None
    for j in range(m):
        r_j = ad.constant(rewards[:, j, :])
        inner = ad.reduce_sum(ad.mul(soft_c[j], r_j), axis=1)             # (B,)
        term = ad.mul(ad.constant(position_weights[:, j]), inner)
        total = term if total is None else ad.add(total, term)
    return ad.neg(ad.reduce_mean(total, axis=0))


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


@dataclass
class TrainConfig:
    alpha: float = 0.2
    beta: float = 1.0
    lr: float = 1e-3
    batch_size: int = 64
    epochs: int = 4
    seed: int = 0
    tau_start: float = 1.0
    tau_end: float = 0.3
    k1: float = 1.0
    k2: float = 1.0
    cvr_mode: str = "sum"
    use_relative: bool = True    # False reproduces the raw-reward ablation

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if not (0 < self.beta < 1 or (self.beta >= 1 and float(self.beta).is_integer())):
            raise ValueError(f"beta must be a fraction in (0,1) or integer >= 1, got {self.beta}")
        if self.tau_start <= 0 or self.tau_end <= 0:
            raise ValueError("temperatures must be positive")


def fit_reward_scale(pctr: np.ndarray, pcvr: np.ndarray, cfg: TrainConfig) -> RewardConfig:
    """Pick the scale that centers mean train utility at 1 (order-preserving)."""
    raw = RewardConfig(k1=cfg.k1, k2=cfg.k2, scale=1.0, cvr_mode=cfg.cvr_mode)
    mean_w = float(list_utility(pctr, pcvr, raw).mean())
    return RewardConfig(k1=cfg.k1, k2=cfg.k2, scale=max(mean_w, 1e-9), cvr_mode=cfg.cvr_mode)


class _TrainCache:
    """Frozen per-record quantities reused across epochs."""

    def __init__(self, records: list[InteractionRecord], ev: EvaluatorParams):
        dims = ev.dims
        self.n_records = len(records)
        self.exposed_idx = np.stack([r.exposed for r in records])              # (N, m)
        self.cand_ids = np.stack([r.candidate_ids for r in records])           # (N, n, F)
        self.e_user = user_vectors(records, ev)                                # (N, D)
        with ad.no_grad():
            self.cand_flat = np.empty((self.n_records, dims.num_candidates, dims.flat_dim))
            self.list_flat = np.empty((self.n_records, dims.list_size, dims.flat_dim))
            self.e_list = np.empty((self.n_records, dims.embed_dim))
            batch = 512
            for s in range(0, self.n_records, batch):
                blk = slice(s, min(s + batch, self.n_records))
                size = blk.stop - blk.start
                self.cand_flat[blk] = flatten_items(self.cand_ids[blk], ev).value
                exposed_ids = np.take_along_axis(
                    self.cand_ids[blk], self.exposed_idx[blk][..., None], axis=1)
                x = embed_lists(exposed_ids, ev)
                _, e_list = list_attention(x, ev)
                self.list_flat[blk] = x.value.reshape(size, dims.list_size, dims.flat_dim)
                self.e_list[blk] = e_list.value
        self.exposed_pctr, self.exposed_pcvr = scores_for_lists(
            np.stack([r.exposed_ids for r in records]), self.e_user, ev)


def train_generator(train_records: list[InteractionRecord],
                    eval_params: EvaluatorParams,
                    cfg: TrainConfig,
                    epoch_callback=None) -> tuple[GeneratorParams, list[dict], RewardConfig]:
    """Train the edit heads against the frozen evaluator.

    Returns the generator, a history row per epoch (mean main/auxiliary loss
    and anything the callback adds) and the fitted reward config. The shared
    evaluator parameters are never updated; only generator-owned tensors are
    handed to the optimizer.
    Raises TrainingStalled when an epoch leaves every generator parameter
    unchanged.
    """
    if not train_records:
        raise ValueError("train set must be nonempty")
    if any(t.requires_grad for t in eval_params.ps.tensors().values()):
        eval_params.set_trainable(False)
    dims = eval_params.dims
    n, m = dims.num_candidates, dims.list_size

    cache = _TrainCache(train_records, eval_params)
    reward_cfg = fit_reward_scale(cache.exposed_pctr, cache.exposed_pcvr, cfg)
    origin_rewards = list_reward(cache.exposed_pctr, cache.exposed_pcvr, reward_cfg)

    rng = RngStream(cfg.seed).split("generator")
    gp = GeneratorParams.init(eval_params, rng.split("init"))
    gp.reward_scale = reward_cfg.scale
    opt = Adam(gp.trainable(), lr=cfg.lr)

    n_records = cache.n_records
    batches_per_epoch = math.ceil(n_records / cfg.batch_size)
    total_steps = max(1, cfg.epochs * batches_per_epoch)
    history: list[dict] = []
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.split("shuffle", epoch).permutation(n_records)
        start_values = {k: p.value.copy() for k, p in opt.params.items()}
        sums = {"main": 0.0, "aux": 0.0, "total": 0.0}
        for bstart in range(0, n_records, cfg.batch_size):
            idx = order[bstart : bstart + cfg.batch_size]
            b = len(idx)
            frac = step / max(1, total_steps - 1)
            tau = cfg.tau_start + (cfg.tau_end - cfg.tau_start) * frac
            gcfg = GumbelConfig(tau=tau, noise=True)

            rewards, pos_rewards, pdu_noise, cru_noise = _batch_rewards(
                cache, origin_rewards, idx, eval_params, reward_cfg, cfg, epoch)

            sampled_p, policy_p, soft_c = _batch_forward(cache, idx, gp, gcfg,
                                                         pdu_noise, cru_noise)
            main = counterfactual_reward_loss(sampled_p, soft_c, rewards)
            aux = position_guidance_loss(policy_p, pos_rewards)
            loss = ad.add(main, ad.scale(aux, cfg.alpha))
            if not np.isfinite(loss.value).all():
                raise FloatingPointError(f"non-finite generator loss at epoch {epoch}, "
                                         f"batch {bstart // cfg.batch_size}")
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


def _batch_rewards(cache: _TrainCache, origin_rewards: np.ndarray, idx: np.ndarray,
                   eval_params: EvaluatorParams, reward_cfg: RewardConfig,
                   cfg: TrainConfig, epoch: int):
    """Neighbor sampling, evaluator scoring and reward tensors for one batch.

    Uses one stream per (record, epoch), so results do not depend on batch
    composition or visit order.
    """
    dims = eval_params.dims
    b = len(idx)
    m, n = dims.list_size, dims.num_candidates
    rewards = np.zeros((b, m, n))
    pos_sum = np.zeros((b, m))
    pos_cnt = np.zeros((b, m))
    pdu_noise = np.zeros((b, m))
    cru_noise = np.zeros((b, m, n))

    all_lists = []
    sample_refs = []   # (row, position, candidate)
    for row, rec_i in enumerate(idx):
        rstream = RngStream(cfg.seed).split("sampling", epoch, int(rec_i))
        pdu_noise[row] = rstream.gumbel((m,))
        cru_noise[row] = rstream.gumbel((m, n))
        nset = build_neighbors(cache.exposed_idx[rec_i], n, cfg.beta, rstream.split("neighbors"))
        for s in nset.samples:
            all_lists.append(cache.cand_ids[rec_i][list(s.neighbor)])
            sample_refs.append((row, s.position, s.candidate))

    if all_lists:
        stacked = np.stack(all_lists)
        # user vector per sample follows its record
        rows = np.array([r for r, _, _ in sample_refs])
        e_user_rep = cache.e_user[idx][rows]
        pctr, pcvr = scores_for_lists(stacked, e_user_rep, eval_params)
        shaped = list_reward(pctr, pcvr, reward_cfg)
        for (row, j, k), value in zip(sample_refs, shaped):
            rec_i = idx[row]
            rel = value - origin_rewards[rec_i] if cfg.use_relative else value
            rewards[row, j, k] += rel
            pos_sum[row, j] += rel
            pos_cnt[row, j] += 1
    pos_rewards = np.divide(pos_sum, pos_cnt, out=np.zeros_like(pos_sum), where=pos_cnt > 0)
    return rewards, pos_rewards, pdu_noise, cru_noise


def _batch_forward(cache: _TrainCache, idx: np.ndarray, gp: GeneratorParams,
                   gcfg: GumbelConfig, pdu_noise: np.ndarray, cru_noise: np.ndarray):
    """Sampled position probabilities, the clean position policy and the
    per-slot candidate distributions.

    The sampled (noisy, tempered) position probabilities are returned as
    values: they weight the main loss. The clean softmax over position logits
    is the distribution the argmax sampling actually follows, and is what the
    guidance cross-entropy trains.
    """
    dims = gp.dims
    m, n = dims.list_size, dims.num_candidates
    list_flat = ad.constant(cache.list_flat[idx])
    cand_flat = ad.constant(cache.cand_flat[idx])
    e_list = ad.constant(cache.e_list[idx])
    e_user = ad.constant(cache.e_user[idx])

    h = position_logits(list_flat, e_list, e_user, gp)
    soft_p, _ = gumbel_sample(h, gcfg, noise=pdu_noise)
    policy_p = ad.softmax_rows(h)
    soft_c = []
    for j in range(m):
        e_mask = masked_list_encoding(list_flat, j, gp)
        blocked = blocked_candidates(cache.exposed_idx[idx], j, n)
        g = candidate_logits(cand_flat, e_mask, e_user, j, gp, blocked)
        soft, _ = gumbel_sample(g, gcfg, noise=cru_noise[:, j, :])
        soft_c.append(soft)
    return soft_p.value, policy_p, soft_c
