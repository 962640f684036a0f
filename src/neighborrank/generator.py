"""Sampling-based iterative list editor.

Rather than decoding a list left to right, the generator repeatedly edits the
current list: a position head scores which slot to replace, and a candidate
head scores which candidate to put there. Both heads sample through a
Gumbel-softmax relaxation, so the forward pass commits to hard argmax choices
while gradients flow through the soft distributions (straight-through).

Embedding tables, the list-attention trunk and the session encoder are shared
with a frozen evaluator; only the head weights, the mask token, the mask-list
attention and the generator's own position embeddings train.

Edit semantics: picking a candidate that is not in the list substitutes it at
the chosen slot (an edit-distance-1 move). When every candidate already sits
in the list (candidate pool size equals list size), substitution is
impossible, so picking a candidate from another slot exchanges the two items.
Lists therefore never contain duplicates. With a strictly larger pool,
in-list candidates at other slots are masked out and only distance-1 moves
remain.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .checkpoint import save_arrays
from .evaluator import (
    EvaluatorParams,
    ModelDims,
    _tile_vector,
    encode_sessions,
    flatten_items,
    list_attention,
    read_checkpoint,
    self_attention_pool,
)
from .params import Layout, ParamSet
from .rng import RngStream

_MASKED = -1e30


@dataclass
class GumbelConfig:
    """Sampling controls for both heads plus the stop rules."""

    tau: float = 1.0
    noise: bool = True
    theta_p: float | None = None     # defaults to 2/m
    theta_c: float | None = None     # defaults to 2/n
    max_steps: int | None = None     # defaults to 2m

    def resolved(self, dims: ModelDims) -> "GumbelConfig":
        return GumbelConfig(
            tau=self.tau,
            noise=self.noise,
            theta_p=self.theta_p if self.theta_p is not None else 2.0 / dims.list_size,
            theta_c=self.theta_c if self.theta_c is not None else 2.0 / dims.num_candidates,
            max_steps=self.max_steps if self.max_steps is not None else 2 * dims.list_size,
        )


def _layout(dims: ModelDims) -> Layout:
    d, fd = dims.embed_dim, dims.flat_dim
    return [
        ("pdu.w", (fd + 3 * d, 1), True), ("pdu.b", (1,), False),
        ("mask.token", (dims.num_fields, d), True),
        *((name, (fd, d), True) for name in ("mask.q", "mask.k", "mask.v")),
        ("cand.w", (fd + d, d), True), ("cand.b", (d,), False),
        ("cru.w", (4 * d, 1), True), ("cru.b", (1,), False),
        ("pos", (dims.list_size, d), True),
    ]


class GeneratorParams:
    """Generator-owned weights plus a reference to the frozen shared trunk."""

    def __init__(self, shared: EvaluatorParams, ps: ParamSet, reward_scale: float = 1.0):
        self.shared = shared
        self.dims = shared.dims
        self.ps = ps
        self.reward_scale = reward_scale

    @classmethod
    def init(cls, shared: EvaluatorParams, rng: RngStream, std: float = 0.01) -> "GeneratorParams":
        return cls(shared, ParamSet.init(_layout(shared.dims), rng, std))

    def save(self, path):
        arrays = {"meta.dims": self.dims.to_meta(),
                  "meta.reward_scale": np.array(self.reward_scale)}
        arrays.update(self.ps.values())
        save_arrays(path, arrays)

    @classmethod
    def load(cls, path, shared: EvaluatorParams) -> "GeneratorParams":
        dims, scale, arrays = read_checkpoint(path, with_scale=True)
        if dims != shared.dims:
            raise ValueError(f"generator dims {dims} do not match shared evaluator dims {shared.dims}")
        out = cls(shared, ParamSet.from_arrays(_layout(dims), arrays), scale)
        out.ps.set_trainable(False)
        return out


def gumbel_sample(logits: Tensor, cfg: GumbelConfig,
                  noise: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Gumbel-softmax over the last axis.

    Returns the soft distribution (gradients flow through it) and the hard
    argmax indices used by the forward pass; ties go to the lowest index.
    With noise disabled the soft distribution is the plain tempered softmax;
    with noise enabled the caller passes the Gumbel noise array.
    """
    if not np.isfinite(logits.value).all():
        raise FloatingPointError("gumbel_sample: non-finite logits")
    z = logits
    if cfg.noise:
        if noise is None:
            raise ValueError("noise enabled but no noise array given")
        z = ad.add(z, ad.constant(noise))
    soft = ad.softmax_rows(ad.scale(z, 1.0 / cfg.tau))
    hard = np.argmax(soft.value, axis=-1)
    return soft, hard


def position_logits(list_flat: Tensor, e_list: Tensor, e_user: Tensor,
                    gp: GeneratorParams) -> Tensor:
    """Replacement score per slot: (B, m) raw logits.

    list_flat is (B, m, F*D) flattened item embeddings of the current list.
    """
    b, m = list_flat.shape[0], list_flat.shape[1]
    pe = ad.broadcast_to(ad.expand_dims(gp.ps["pos"], 0), (b, m, gp.dims.embed_dim))
    z = ad.concat([list_flat, _tile_vector(e_list, m), _tile_vector(e_user, m), pe], axis=-1)
    return ad.reshape(ad.affine(z, gp.ps["pdu.w"], gp.ps["pdu.b"]), (b, m))


def masked_list_encoding(list_flat: np.ndarray, slots: np.ndarray, gp: GeneratorParams) -> Tensor:
    """Encode the list once per slot of `slots` (B, S), that slot blanked by
    the learned mask token: (B, S, D).

    list_flat is the (B, m, F*D) plain array of the current lists: they are
    frozen inputs, so no gradient can be lost on them.
    """
    b, m, fd = list_flat.shape
    at = (slots[..., None] == np.arange(m))[..., None]            # (B, S, m, 1) one-hot
    if np.count_nonzero(at) != slots.size:
        raise ValueError(f"slots {slots.tolist()} outside list of length {m}")
    # list rows where the slot is not, the token where it is: (B, S, m, F*D)
    rows = ad.constant(np.where(at, 0.0, list_flat[:, None]))
    token = ad.mul(ad.reshape(gp.ps["mask.token"], (fd,)), at)
    return self_attention_pool(ad.add(rows, token),
                               gp.ps["mask.q"], gp.ps["mask.k"], gp.ps["mask.v"])


def candidate_logits(cand_flat: Tensor, e_mask: Tensor, e_user: Tensor,
                     slots: np.ndarray, gp: GeneratorParams,
                     blocked: np.ndarray | None = None) -> Tensor:
    """Score every candidate for each slot of `slots` (B, S): (B, S, n) raw
    logits.

    cand_flat is (B, n, F*D) and e_mask (B, S, D). `blocked` (B, S, n) marks
    candidates that may not be chosen (already placed at another slot when
    substitution moves exist); their logits are pushed to -1e30.
    """
    b, n, fd = cand_flat.shape
    s, d = slots.shape[1], gp.dims.embed_dim
    pe = ad.broadcast_to(ad.expand_dims(ad.embed_lookup(gp.ps["pos"], slots), 2), (b, s, n, d))
    cands = ad.broadcast_to(ad.expand_dims(cand_flat, 1), (b, s, n, fd))
    cand_repr = ad.relu(ad.affine(ad.concat([cands, pe], axis=-1),
                                  gp.ps["cand.w"], gp.ps["cand.b"]))
    z = ad.concat([cand_repr, ad.broadcast_to(ad.expand_dims(e_mask, 2), (b, s, n, d)),
                   ad.broadcast_to(ad.reshape(e_user, (b, 1, 1, d)), (b, s, n, d)), pe], axis=-1)
    logits = ad.reshape(ad.affine(z, gp.ps["cru.w"], gp.ps["cru.b"]), (b, s, n))
    if blocked is not None and blocked.any():
        logits = ad.add(logits, ad.constant(np.where(blocked, _MASKED, 0.0)))
    return logits


def blocked_candidates(lists: np.ndarray, slots: np.ndarray, n: int) -> np.ndarray | None:
    """Mask (B, S, n) of the candidates placed at slots other than each of
    `slots` (B, S) in the (B, m) lists, or None in swap mode.

    With an all-in-list pool (n == m) nothing is blocked: choosing an item
    from another slot performs an exchange instead of creating a duplicate.
    """
    b, m = lists.shape
    if n <= m:
        return None
    rows = np.arange(b)[:, None]
    in_list = np.zeros((b, 1, n), dtype=bool)
    in_list[rows, 0, lists] = True
    return in_list & (lists[rows, slots][..., None] != np.arange(n))


def apply_move(list_idx, position, candidate):
    """One edit per list: substitute an unused candidate, or exchange with its slot.

    list_idx is one list (a tuple in, a tuple out) or an array (..., m) of
    lists, with position and candidate shaped like its leading axes.
    """
    lists = np.asarray(list_idx)
    pos, cand = np.asarray(position)[..., None], np.asarray(candidate)[..., None]
    at = np.arange(lists.shape[-1]) == pos
    old = (lists * at).sum(axis=-1, keepdims=True)          # the item at `position`
    out = np.where(at, cand, np.where(lists == cand, old, lists))
    return tuple(out.tolist()) if out.ndim == 1 else out


@dataclass
class TraceStep:
    step: int
    position: int
    candidate: int | None
    max_position_prob: float
    max_candidate_prob: float | None
    applied: bool
    stop: str | None

    def to_json(self) -> dict:
        keys = ("step", "position", "candidate", "max_rp", "max_rc", "applied", "stop")
        return dict(zip(keys, vars(self).values()))   # the fields in order, not copied


@dataclass
class GenerationTrace:
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def stop_reason(self) -> str | None:
        return self.steps[-1].stop if self.steps else None

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.steps]


def generate_batch(initial: np.ndarray, cand_ids: np.ndarray, e_user: np.ndarray,
                   gp: GeneratorParams, cfg: GumbelConfig
                   ) -> tuple[np.ndarray, list[GenerationTrace]]:
    """Edit B lists, (B, m) candidate indices into (B, n, F) pools, until a
    stop rule fires for each: low confidence, then the same item, then max
    steps. Rows still walking step together, and one candidate-head call
    scores each picked row's chosen slot. Returns the (B, m) int64 final
    lists and each row's trace, which do not depend on the other rows."""
    cfg = cfg.resolved(gp.dims)
    cur = np.array(initial, dtype=np.int64)
    if np.count_nonzero(cur[:, :, None] == cur[:, None, :]) != cur.size:
        raise ValueError(f"initial list has duplicates: {cur.tolist()}")
    traces = [GenerationTrace() for _ in cur]
    active = np.arange(len(cur))
    with no_grad():
        cand_flat = flatten_items(cand_ids, gp.shared).value
        for step in range(cfg.max_steps):
            # flatten_items is a lookup: a current list's rows are its candidates' rows
            flat = cand_flat[active[:, None], cur[active]]
            _, e_list = list_attention(ad.constant(flat.reshape(
                *flat.shape[:2], gp.dims.num_fields, gp.dims.embed_dim)), gp.shared)
            soft_p, slots = gumbel_sample(
                position_logits(ad.constant(flat), e_list, ad.constant(e_user[active]), gp), cfg)
            p_max = soft_p.value.max(axis=1)
            picked = p_max >= cfg.theta_p
            ks = np.zeros(len(active), dtype=np.int64)
            c_max = np.full(len(active), np.nan)      # stays NaN where no slot was picked
            if picked.any():
                rows, chosen = active[picked], slots[picked, None]
                e_mask = masked_list_encoding(flat[picked], chosen, gp)
                blocked = blocked_candidates(cur[rows], chosen, cand_ids.shape[1])
                g = candidate_logits(ad.constant(cand_flat[rows]), e_mask,
                                     ad.constant(e_user[rows]), chosen, gp, blocked)
                soft_c, hard_c = gumbel_sample(g, cfg)
                ks[picked], c_max[picked] = hard_c[:, 0], soft_c.value[:, 0].max(axis=1)
            sure = c_max >= cfg.theta_c
            moved = sure & (ks != cur[active, slots])
            for r, j, k, rp, rc, p_ok, c_ok, mv in zip(
                    active.tolist(), slots.tolist(), ks.tolist(), p_max.tolist(), c_max.tolist(),
                    picked.tolist(), sure.tolist(), moved.tolist()):
                stop = ("max-steps" if step == cfg.max_steps - 1 else None) if mv else (
                    "same-item" if c_ok else "low-confidence")
                traces[r].steps.append(TraceStep(step, j, k if p_ok else None, rp,
                                                 rc if p_ok else None, mv, stop))
            active = active[moved]
            if not active.size:
                break
            cur[active] = apply_move(cur[active], slots[moved], ks[moved])
    return cur, traces


def generate(initial_idx, candidate_ids: np.ndarray, session_ids: np.ndarray,
             gp: GeneratorParams, cfg: GumbelConfig,
             e_user: np.ndarray | None = None) -> tuple[tuple[int, ...], GenerationTrace]:
    """Walk one list, (m,) candidate indices into the (n, F) pool: a batch of
    one of generate_batch. The user vector comes from session_ids unless
    e_user is given."""
    if e_user is None:
        with no_grad():
            e_user = encode_sessions(session_ids[None, ...], gp.shared).value
    finals, traces = generate_batch(np.array([initial_idx]), candidate_ids[None, ...],
                                    np.reshape(e_user, (1, -1)), gp, cfg)
    return tuple(finals[0].tolist()), traces[0]
