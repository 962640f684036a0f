"""List-wise evaluator: per-position click/conversion probabilities in context.

The model embeds each item's feature fields, runs one self-attention pass per
field over the list (field-decoupled so features do not interfere), averages
the field attention maps into a single item-level map and pools a list vector
from the id-field values. User history is encoded by applying the same list
encoder to every past session and self-attending over the session vectors.
A position-aware shared MLP then scores every slot: the same weights are
applied at each position, with a learned position embedding concatenated to
the input, so predictions react to both list order and list composition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import metrics
from .autodiff import Tensor, no_grad
from .checkpoint import CheckpointError, load_arrays, save_arrays
from .config import TrainingSection
from .datagen import InteractionRecord
from .optim import Adam, raise_if_unchanged
from .params import Layout, ParamSet
from .rng import RngStream

FIELD_NAMES = ("item", "cat", "brand")


@dataclass(frozen=True)
class ModelDims:
    """Shape contract shared by the evaluator and generator."""

    item_vocab: int
    cat_vocab: int
    brand_vocab: int
    list_size: int = 5
    num_candidates: int = 5
    history_sessions: int = 3
    embed_dim: int = 8
    num_fields: int = 3
    mlp_hidden: tuple[int, ...] = (64, 32)

    def __post_init__(self):
        if self.num_fields != len(FIELD_NAMES):
            raise ValueError(f"num_fields must be {len(FIELD_NAMES)} (item, category, brand)")
        if self.list_size > self.num_candidates:
            raise ValueError("list_size cannot exceed num_candidates")

    @property
    def flat_dim(self) -> int:
        return self.num_fields * self.embed_dim

    @property
    def mlp_input(self) -> int:
        # flattened item fields + list vector + user vector + position embedding
        return self.flat_dim + 3 * self.embed_dim

    def to_meta(self) -> np.ndarray:
        return np.array(
            [self.item_vocab, self.cat_vocab, self.brand_vocab, self.list_size,
             self.num_candidates, self.history_sessions, self.embed_dim,
             self.num_fields, *self.mlp_hidden],
            dtype=np.float64,
        )

    @classmethod
    def from_meta(cls, meta: np.ndarray) -> "ModelDims":
        if meta.ndim != 1 or len(meta) < 9 or not ((meta >= 1) & (meta == np.round(meta))).all():
            raise CheckpointError(f"meta.dims {meta.tolist()} is not 9 or more positive integers")
        vals = [int(v) for v in meta.tolist()]
        return cls(item_vocab=vals[0], cat_vocab=vals[1], brand_vocab=vals[2],
                   list_size=vals[3], num_candidates=vals[4], history_sessions=vals[5],
                   embed_dim=vals[6], num_fields=vals[7], mlp_hidden=tuple(vals[8:]))


def _layout(dims: ModelDims) -> Layout:
    d = dims.embed_dim
    layout = [(f"embed.{name}", (vocab, d), True) for name, vocab in
              zip(FIELD_NAMES, (dims.item_vocab, dims.cat_vocab, dims.brand_vocab))]
    for i in range(dims.num_fields):
        layout += [(f"attn.q.{i}", (d, d), True), (f"attn.k.{i}", (d, d), True)]
    layout += [(name, (d, d), True) for name in ("attn.v", "sess.q", "sess.k", "sess.v")]
    layout.append(("pos", (dims.list_size, d), True))
    prev = dims.mlp_input
    for li, width in enumerate(dims.mlp_hidden):
        layout += [(f"mlp.{li}.w", (prev, width), True), (f"mlp.{li}.b", (width,), False)]
        prev = width
    for head in ("ctr", "cvr"):
        layout += [(f"head.{head}.w", (prev, 1), True), (f"head.{head}.b", (1,), False)]
    return layout


class EvaluatorParams:
    """All evaluator weights; also the shared trunk the generator reuses."""

    def __init__(self, dims: ModelDims, ps: ParamSet):
        self.dims = dims
        self.ps = ps

    @classmethod
    def init(cls, dims: ModelDims, rng: RngStream, std: float = 0.01) -> "EvaluatorParams":
        return cls(dims, ParamSet.init(_layout(dims), rng, std))

    def save(self, path):
        arrays = {"meta.dims": self.dims.to_meta()}
        arrays.update(self.ps.values())
        save_arrays(path, arrays)

    @classmethod
    def load(cls, path) -> "EvaluatorParams":
        dims, _, arrays = read_checkpoint(path, with_scale=False)
        params = cls(dims, ParamSet.from_arrays(_layout(dims), arrays))
        params.ps.set_trainable(False)
        return params


def read_checkpoint(path, with_scale: bool) -> tuple[ModelDims, float, dict[str, np.ndarray]]:
    """Parameter arrays of a checkpoint plus its checked metadata: the model
    dims and the reward scale (required with_scale, else 1.0 when absent).
    Raises CheckpointError for missing or malformed metadata."""
    arrays = load_arrays(path)
    for name in ("meta.dims", "meta.reward_scale")[: 1 + with_scale]:
        if name not in arrays:
            raise CheckpointError(f"{path}: missing {name!r}")
    dims = ModelDims.from_meta(arrays.pop("meta.dims"))
    scale = arrays.pop("meta.reward_scale", np.array(1.0))
    if scale.shape != () or not 0 < scale < math.inf:
        raise CheckpointError(f"{path}: meta.reward_scale {scale} is not positive and finite")
    return dims, float(scale), arrays


def embed_lists(ids: np.ndarray, params: EvaluatorParams) -> Tensor:
    """(..., F) int feature ids -> (..., F, D) embeddings."""
    parts = []
    for f, name in enumerate(FIELD_NAMES):
        emb = ad.embed_lookup(params.ps[f"embed.{name}"], ids[..., f])
        parts.append(ad.expand_dims(emb, axis=-2))
    return ad.concat(parts, axis=-2)


def flatten_items(ids: np.ndarray, params: EvaluatorParams) -> Tensor:
    """(..., F) ids -> (..., F*D) concatenated field embeddings."""
    x = embed_lists(ids, params)
    return ad.reshape(x, (*ids.shape[:-1], params.dims.flat_dim))


def self_attention_pool(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Scaled dot-product self-attention over axis -2, mean-pooled to a vector."""
    q = ad.matmul(x, wq)
    k = ad.matmul(x, wk)
    v = ad.matmul(x, wv)
    dim = wq.shape[-1]
    att = ad.softmax_rows(ad.scale(ad.matmul(q, ad.transpose_last2(k)), 1.0 / math.sqrt(dim)))
    return ad.reduce_mean(ad.matmul(att, v), axis=-2)


def list_attention(x: Tensor, params: EvaluatorParams) -> tuple[Tensor, Tensor]:
    """Field-decoupled attention over one list.

    x is (B, m, F, D). Returns the averaged item-level attention map (B, m, m),
    row-stochastic, and the pooled list vector (B, D) built from the id-field
    values.
    """
    dims = params.dims
    b, m = x.shape[0], x.shape[1]
    att_sum = None
    fields = []
    for i in range(dims.num_fields):
        xi = ad.reshape(ad.slice_axis(x, 2, i, i + 1), (b, m, dims.embed_dim))
        fields.append(xi)
        q = ad.matmul(xi, params.ps[f"attn.q.{i}"])
        k = ad.matmul(xi, params.ps[f"attn.k.{i}"])
        scores = ad.scale(ad.matmul(q, ad.transpose_last2(k)), 1.0 / math.sqrt(dims.embed_dim))
        att_i = ad.softmax_rows(scores)
        att_sum = att_i if att_sum is None else ad.add(att_sum, att_i)
    att_all = ad.scale(att_sum, 1.0 / dims.num_fields)
    values = ad.matmul(fields[0], params.ps["attn.v"])  # id field carries the content
    e_list = ad.reduce_mean(ad.matmul(att_all, values), axis=1)
    return att_all, e_list


def encode_sessions(session_ids: np.ndarray, params: EvaluatorParams) -> Tensor:
    """(B, H, m, F) session ids -> (B, D) user vector."""
    b, h, m, f = session_ids.shape
    flat_ids = session_ids.reshape(b * h, m, f)
    x = embed_lists(flat_ids, params)
    _, session_vecs = list_attention(x, params)
    stacked = ad.reshape(session_vecs, (b, h, params.dims.embed_dim))
    return self_attention_pool(stacked, params.ps["sess.q"], params.ps["sess.k"], params.ps["sess.v"])


def _tile_vector(vec: Tensor, positions: int) -> Tensor:
    b, d = vec.shape
    return ad.broadcast_to(ad.expand_dims(vec, 1), (b, positions, d))


def predict_graph(exposed_ids: np.ndarray, e_user: Tensor,
                  params: EvaluatorParams) -> tuple[Tensor, Tensor]:
    """Scores for a batch of lists given precomputed user vectors.

    exposed_ids is (B, m, F); returns (pctr, pcvr) tensors of shape (B, m).
    """
    dims = params.dims
    b, m = exposed_ids.shape[0], exposed_ids.shape[1]
    if m != dims.list_size:
        raise ad.ShapeError(f"list length {m} != model list size {dims.list_size}")
    x = embed_lists(exposed_ids, params)
    _, e_list = list_attention(x, params)
    flat = ad.reshape(x, (b, m, dims.flat_dim))
    pe = ad.broadcast_to(ad.expand_dims(params.ps["pos"], 0), (b, m, dims.embed_dim))
    h = ad.concat([flat, _tile_vector(e_list, m), _tile_vector(e_user, m), pe], axis=-1)
    return slot_heads(h, params)


def slot_heads(h: Tensor, params: EvaluatorParams) -> tuple[Tensor, Tensor]:
    """The shared per-slot MLP and both heads: (..., mlp_input) rows
    [item, e_list, e_user, pos] -> (pctr, pcvr), each shaped (...)."""
    for li in range(len(params.dims.mlp_hidden)):
        h = ad.relu(ad.affine(h, params.ps[f"mlp.{li}.w"], params.ps[f"mlp.{li}.b"]))
    return tuple(ad.sigmoid(ad.reshape(
        ad.affine(h, params.ps[f"head.{k}.w"], params.ps[f"head.{k}.b"]), h.shape[:-1]))
        for k in ("ctr", "cvr"))


def user_vectors(records: list[InteractionRecord], params: EvaluatorParams,
                 batch: int = 512) -> np.ndarray:
    """Frozen user vectors for many records, (N, D)."""
    out = np.empty((len(records), params.dims.embed_dim))
    with no_grad():
        for start in range(0, len(records), batch):
            block = records[start : start + batch]
            ids = np.stack([r.session_ids for r in block])
            out[start : start + len(block)] = encode_sessions(ids, params).value
    return out


SCORE_CHUNK = 1024   # lists per forward pass; bounds the activation peak


def scores_for_lists(list_ids: np.ndarray, e_user: np.ndarray,
                     params: EvaluatorParams) -> tuple[np.ndarray, np.ndarray]:
    """Inference scores for (K, m, F) lists with matching (K, D) user vectors.

    Training, metrics and the greedy baseline score here (the oracle uses
    slot_tables). Lists go through the network SCORE_CHUNK at a time, so memory
    stays bounded for any K; each list's scores do not depend on the chunking.
    """
    pctr, pcvr = np.empty((2, *list_ids.shape[:2]))
    with no_grad():
        for start in range(0, len(list_ids), SCORE_CHUNK):
            blk = slice(start, start + SCORE_CHUNK)
            p, v = predict_graph(list_ids[blk], ad.constant(e_user[blk]), params)
            pctr[blk], pcvr[blk] = p.value, v.value
    return pctr, pcvr


def slot_tables(set_ids: np.ndarray, e_user: np.ndarray,
                params: EvaluatorParams) -> tuple[np.ndarray, np.ndarray]:
    """(pctr, pcvr), each (S, item, slot): every item of (S, m, F) sorted sets
    at every slot, under one (D,) user vector. The list vector is pooled
    without positions, so any ordering of a set scores as a gather from here
    (up to the rounding of its pooling order). SCORE_CHUNK // m sets a pass."""
    s, m = set_ids.shape[:2]
    pctr, pcvr = np.empty((2, s, m, m))
    step = max(1, SCORE_CHUNK // m)
    with no_grad():
        for start in range(0, s, step):
            blk = slice(start, start + step)
            x = embed_lists(set_ids[blk], params)
            _, e_list = list_attention(x, params)
            b = len(e_list.value)
            parts = (x.value.reshape(b, m, 1, -1), e_list.value[:, None, None], e_user,
                     params.ps["pos"].value)   # rows [item, e_list, e_user, pos[slot]]
            h = np.concatenate([np.broadcast_to(a, (b, m, m, a.shape[-1])) for a in parts], -1)
            p, v = slot_heads(ad.constant(h), params)
            pctr[blk], pcvr[blk] = p.value, v.value
    return pctr, pcvr


_CLAMP = 1e-12


def _bce(p: Tensor, y: np.ndarray) -> Tensor:
    p = ad.clamp(p, _CLAMP, 1.0 - _CLAMP)
    pos = ad.mul(ad.constant(y), ad.log(p))
    negv = ad.mul(ad.constant(1.0 - y), ad.log(ad.sub(1.0, p)))
    return ad.neg(ad.add(pos, negv))


def loss_graph(pctr: Tensor, pcvr: Tensor, clicks: np.ndarray, convs: np.ndarray) -> Tensor:
    """Mean over records of the per-list loss: summed click cross-entropy over
    positions plus conversion cross-entropy on clicked positions only."""
    clicks = np.asarray(clicks, dtype=np.float64)
    convs = np.asarray(convs, dtype=np.float64)
    ctr_term = ad.reduce_sum(_bce(pctr, clicks), axis=-1)
    cvr_term = ad.reduce_sum(ad.mul(ad.constant(clicks), _bce(pcvr, convs)), axis=-1)
    total = ad.add(ctr_term, cvr_term)
    if total.ndim == 0:
        return total
    return ad.reduce_mean(total, axis=0)


def evaluate_metrics(records: list[InteractionRecord], params: EvaluatorParams) -> dict:
    exposed = np.stack([r.exposed_ids for r in records])
    pctr, _ = scores_for_lists(exposed, user_vectors(records, params), params)
    clicks = np.stack([r.clicks for r in records])
    auc = metrics.auc(pctr.ravel(), clicks.ravel())
    logloss = metrics.log_loss(pctr.ravel(), clicks.ravel())
    ndcg5 = metrics.mean_ignoring_undefined(metrics.ndcg_rows(pctr, clicks, 5))
    ndcg10 = metrics.mean_ignoring_undefined(metrics.ndcg_rows(pctr, clicks, 10))
    return {"auc": auc, "logloss": logloss, "ndcg5": ndcg5, "ndcg10": ndcg10}


def train_evaluator(train_records: list[InteractionRecord],
                    test_records: list[InteractionRecord],
                    dims: ModelDims,
                    training: TrainingSection) -> tuple[EvaluatorParams, list[dict]]:
    """Minibatch Adam training for `training.eval_epochs` epochs; returns the
    best-AUC snapshot and history.

    History carries one row per epoch and split with AUC, log loss and NDCG.
    Identical seed and data reproduce the history bit for bit.
    Raises TrainingStalled when an epoch leaves every parameter unchanged, and
    FloatingPointError when the loss is not finite.
    """
    if not train_records or not test_records:
        raise ValueError("train and test sets must be nonempty")
    rng = RngStream(training.seed).split("evaluator")
    params = EvaluatorParams.init(dims, rng.split("init"))
    opt = Adam(params.ps.trainable(), lr=training.lr)

    exposed = np.stack([r.exposed_ids for r in train_records])
    sessions = np.stack([r.session_ids for r in train_records])
    clicks = np.stack([r.clicks for r in train_records]).astype(np.float64)
    convs = np.stack([r.convs for r in train_records]).astype(np.float64)
    n = len(train_records)

    history: list[dict] = []
    best_auc = -1.0
    best_values = params.ps.values()
    for epoch in range(training.eval_epochs):
        order = rng.split("shuffle", epoch).permutation(n)
        start_values = {k: p.value.copy() for k, p in opt.params.items()}
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, training.batch_size):
            idx = order[start : start + training.batch_size]
            e_user = encode_sessions(sessions[idx], params)
            pctr, pcvr = predict_graph(exposed[idx], e_user, params)
            loss = loss_graph(pctr, pcvr, clicks[idx], convs[idx])
            if not np.isfinite(loss.value).all():
                raise FloatingPointError(f"non-finite loss at epoch {epoch}, batch {batches}")
            loss.backward()
            opt.step()
            opt.zero_grad()
            epoch_loss += loss.item()
            batches += 1
        raise_if_unchanged(start_values, opt.params, f"evaluator epoch {epoch}")
        train_row = evaluate_metrics(train_records, params)
        test_row = evaluate_metrics(test_records, params)
        mean_loss = epoch_loss / batches
        history.append({"epoch": epoch, "split": "train", "loss": mean_loss, **train_row})
        history.append({"epoch": epoch, "split": "test", "loss": None, **test_row})
        if test_row["auc"] > best_auc:
            best_auc = test_row["auc"]
            best_values = params.ps.values()
    params.ps.load_values(best_values)
    return params, history
