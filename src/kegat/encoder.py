"""Visibility-masked transformer encoder.

Attention logits at invisible pairs are dropped before the row softmax, so a
position is influenced only by the rows its visibility mask admits. Soft
positions index a learned position table, which handles the repeated position
values produced by parallel injected branches. A padded batch of sequences
runs as one pass: position-wise ops on its (B·T, d) rows, attention on
(B, H, T, d_h) stacks. A pass that reads only the pooled [CLS] states runs
each layer's queries, layer norms and FFN on the rows those states reach:
two rows per sequence in the last layer, and in an earlier one the rows the
next layer's query rows see, with keys and values from all T. Every step is an autodiff node whose
written-out backward pass keeps only what it reads: the token plus
soft-position embedding, each layer's attention sublayer and FFN sublayer,
the [CLS] pooler, and the LM projection of the rows the reconstruction
objective reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .kemb import InjectedSequence, PaddedBatch

LN_EPS = 1e-5


@dataclass
class LayerParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    ln2_g: Tensor
    ln2_b: Tensor


@dataclass
class EncoderParams:
    tok_emb: Tensor          # V x d
    pos_emb: Tensor          # P_max x d
    layers: List[LayerParams]
    pooler_w: Tensor
    pooler_b: Tensor
    lm_w: Optional[Tensor]   # d x V; None without the LM loss
    lm_b: Optional[Tensor]
    n_heads: int

    @property
    def vocab_size(self) -> int:
        return self.tok_emb.shape[0]

    @property
    def max_positions(self) -> int:
        return self.pos_emb.shape[0]


@dataclass
class EncoderOutput:
    hidden: Optional[Tensor]   # B·T x d per-token states, sequence-major;
                               # None after a pooled-only pass
    pooled: Tensor             # B x d, one [CLS] state per sequence


def embed(seq: Union[InjectedSequence, PaddedBatch],
          params: EncoderParams) -> Tensor:
    """Token embedding plus soft-position embedding, one row per position:
    (T, d) for one sequence, (B·T, d) for a padded batch."""
    tokens = np.asarray(seq.tokens, dtype=np.int64).ravel()
    soft = np.asarray(seq.soft_pos, dtype=np.int64).ravel()
    if tokens.size and tokens.max() >= params.vocab_size:
        raise ValueError("token id outside vocabulary")
    if soft.size and soft.max() >= params.max_positions:
        raise ValueError(
            f"soft position {soft.max()} exceeds table size {params.max_positions}")
    ids = {"tok_emb": tokens, "pos_emb": soft}

    def backward(g, wanted):
        grads = {}
        for name in wanted:   # scatter-add: a repeated id sums its rows
            grads[name] = np.zeros_like(getattr(params, name).data)
            np.add.at(grads[name], ids[name], g)
        return grads

    return ad.fused(params.tok_emb.data[tokens] + params.pos_emb.data[soft],
                    {"tok_emb": params.tok_emb, "pos_emb": params.pos_emb},
                    backward)


def _keep_mask(shape: tuple, rate: float,
               rng: Optional[np.random.Generator]) -> Optional[np.ndarray]:
    """An inverted-dropout multiplier, kept entries 1 / (1 - rate); None, for
    no dropout, when rate is 0 or rng is None (eval mode)."""
    if rate <= 0.0 or rng is None:
        return None
    return (rng.random(shape) >= rate).astype(np.float64) / (1.0 - rate)


def _layer_norm(s: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalise the last axis to zero mean and unit variance, then scale and
    shift (Ba et al., arXiv 1607.06450). Returns the output, xhat and
    r = 1/sqrt(var + eps); each mean is a sum times 1/n."""
    inv_n = 1.0 / s.shape[-1]
    c = s - s.sum(axis=-1, keepdims=True) * inv_n
    var = (c ** 2.0).sum(axis=-1, keepdims=True) * inv_n
    r = np.sqrt(var + LN_EPS) ** -1.0
    xhat = c * r
    return xhat * gain + bias, xhat, r


def _layer_norm_grads(g: np.ndarray, xhat: np.ndarray, r: np.ndarray,
                      gain: np.ndarray):
    """The input, gain and bias gradients of `_layer_norm`: for d = g * gain
    the input's is r * (d - mean(d) - xhat * mean(d * xhat))."""
    inv_n = 1.0 / g.shape[-1]
    d = g * gain
    mean_d = d.sum(axis=-1, keepdims=True) * inv_n
    mean_dx = (d * xhat).sum(axis=-1, keepdims=True) * inv_n
    return r * (d - mean_d - xhat * mean_dx), (g * xhat).sum(axis=0), g.sum(axis=0)


def _attention_sublayer(h: Tensor, visibility: np.ndarray, lp: LayerParams,
                        n_heads: int, rows: Optional[np.ndarray],
                        rate: float, rng: Optional[np.random.Generator]
                        ) -> Tensor:
    """LN1(x + dropout(attention(x, h) @ wo + bo)) as one autodiff node.

    The query rows x are `h`'s rows `rows`, or all of them when None; keys
    and values come from all of `h`. All sequences and heads run at once,
    under the (B, Tq, T) visibility of the query rows, on (B, H, Tq or T,
    d_h) stacks. The backward replays the composed ops' arithmetic on the
    same operands and layouts, and sums `h`'s gradients in the order the
    autodiff walk summed them: residual and query, then key, then value.
    """
    B, Tq, T = visibility.shape
    d = h.shape[1]
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    hd = h.data
    x = hd if rows is None else hd[rows]

    def heads(a: np.ndarray, n: int) -> np.ndarray:
        return a.reshape(B, n, n_heads, dh).transpose(0, 2, 1, 3)

    def rows_of(g: np.ndarray, n: int) -> np.ndarray:
        return g.transpose(0, 2, 1, 3).reshape(B * n, d)

    q = heads(x @ lp.wq.data + lp.bq.data, Tq)
    k = heads(hd @ lp.wk.data + lp.bk.data, T)
    v = heads(hd @ lp.wv.data + lp.bv.data, T)
    att = ad.masked_softmax_data(q @ k.transpose(0, 1, 3, 2) * scale,
                                 visibility[:, None], axis=-1)
    merged = (att @ v).transpose(0, 2, 1, 3).reshape(B * Tq, d)
    if not ad.recording():   # no backward will read them
        q = k = v = att = None
    a = merged @ lp.wo.data + lp.bo.data
    keep = _keep_mask(a.shape, rate, rng)
    if keep is not None:
        a = a * keep
    out, xhat, r = _layer_norm(x + a, lp.ln1_g.data, lp.ln1_b.data)

    def backward(g, wanted):
        grads = {}
        gs, grads["ln1_g"], grads["ln1_b"] = _layer_norm_grads(
            g, xhat, r, lp.ln1_g.data)
        ga = gs if keep is None else gs * keep
        grads["wo"], grads["bo"] = merged.T @ ga, ga.sum(axis=0)
        go = (ga @ lp.wo.data.T).reshape(B, Tq, n_heads, dh)
        go = go.transpose(0, 2, 1, 3).copy()
        gl = ad.softmax_grad(att, go @ v.swapaxes(-1, -2)) * scale
        gh = []   # h's gradients through q, k and v, in that order
        gk = (q.swapaxes(-1, -2) @ gl).swapaxes(-1, -2)
        for p, xin, gp in (("q", x, rows_of(gl @ k, Tq)),
                           ("k", hd, rows_of(gk, T)),
                           ("v", hd, rows_of(att.swapaxes(-1, -2) @ go, T))):
            grads["w" + p], grads["b" + p] = xin.T @ gp, gp.sum(axis=0)
            if "h" in wanted:
                gh.append(gp @ getattr(lp, "w" + p).data.T)
        if "h" in wanted:
            if rows is None:
                grads["h"] = gs + gh[0]
            else:
                grads["h"] = np.zeros_like(hd)
                np.add.at(grads["h"], rows, gs + gh[0])
            grads["h"] += gh[1]
            grads["h"] += gh[2]
        return grads

    return ad.fused(out, {"h": h, **{name: getattr(lp, name) for name in (
        "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "ln1_g", "ln1_b")}},
        backward)


def _ffn_sublayer(h: Tensor, lp: LayerParams, rate: float,
                  rng: Optional[np.random.Generator]) -> Tensor:
    """LN2(h + dropout(elu(h @ w1 + b1) @ w2 + b2)) as one autodiff node,
    whose backward replays the composed ops' arithmetic."""
    hd = h.data
    e = ad.elu_data(hd @ lp.ffn_w1.data + lp.ffn_b1.data)
    f = e @ lp.ffn_w2.data + lp.ffn_b2.data
    if not ad.recording():   # no backward will read it
        e = None
    keep = _keep_mask(f.shape, rate, rng)
    if keep is not None:
        f = f * keep
    out, xhat, r = _layer_norm(hd + f, lp.ln2_g.data, lp.ln2_b.data)

    def backward(g, wanted):
        grads = {}
        gs, grads["ln2_g"], grads["ln2_b"] = _layer_norm_grads(
            g, xhat, r, lp.ln2_g.data)
        gf = gs if keep is None else gs * keep
        grads["ffn_w2"], grads["ffn_b2"] = e.T @ gf, gf.sum(axis=0)
        gz = ad.elu_grad(e, gf @ lp.ffn_w2.data.T)
        grads["ffn_w1"], grads["ffn_b1"] = hd.T @ gz, gz.sum(axis=0)
        if "h" in wanted:
            grads["h"] = gs + gz @ lp.ffn_w1.data.T
        return grads

    return ad.fused(out, {"h": h, **{name: getattr(lp, name) for name in (
        "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2", "ln2_g", "ln2_b")}},
        backward)


def encode(E: Tensor, visibility: np.ndarray, params: EncoderParams,
           dropout_rate: float = 0.0,
           dropout_rng: Optional[np.random.Generator] = None,
           pooled_only: bool = False) -> EncoderOutput:
    """Run the N-layer masked encoder and pool each sequence's [CLS] state.

    `visibility` is (T, T) for one sequence or (B, T, T) for a padded batch;
    `E` holds its B·T position rows. Every op but attention runs on rows.

    With `pooled_only` and T > 2, each layer runs its queries, residuals,
    layer norms and FFN only on the rows the pooled state reaches (see
    `_read_rows`), and `hidden` is None. Keys and values still come from
    all T rows: a layer's output is scattered back into the (B·T, d) layout,
    zeros at the rows it skipped. No row a later layer reads sees those
    rows, so their keys get probability exactly 0 there, gemm adds 0·v
    exactly, and the pooled bytes equal a full pass's. The last layer keeps two rows, not
    one: numpy sends a one-row matmul to BLAS gemv, which sums in another
    order than gemm, whereas gemm's rows do not depend on how many rows it
    is given (OpenBLAS 0.3.31, Haswell kernel). Dropout draws depend on the
    layers' shapes, so a pass with dropout that must match a full pass's
    draws keeps `pooled_only` off.
    """
    vis = np.asarray(visibility, dtype=bool)
    T = vis.shape[-1]
    vis = vis.reshape(-1, T, T)
    assert E.shape[0] == vis.shape[0] * T
    assert vis.diagonal(axis1=1, axis2=2).all(), \
        "diagonal of the visibility matrix must be true"
    n_layers = len(params.layers)
    plan = (_read_rows(vis, n_layers) if pooled_only and T > 2
            else [None] * n_layers)
    seqs = np.arange(vis.shape[0])[:, None]
    h, stride = E, T   # stride: the rows of `h` per sequence
    for n, (lp, order) in enumerate(zip(params.layers, plan)):
        rows, x_vis, stride = None, vis, T
        if order is not None:
            rows = (seqs * T + order).ravel()
            x_vis, stride = vis[seqs, order], order.shape[1]
        h = _attention_sublayer(h, x_vis, lp, params.n_heads, rows,
                                dropout_rate, dropout_rng)
        h = _ffn_sublayer(h, lp, dropout_rate, dropout_rng)
        if rows is not None and n < n_layers - 1:
            h = _scatter_rows(h, rows, E.shape[0])
    return EncoderOutput(hidden=h if stride == T else None,
                         pooled=_pool(h, stride, params))


def _read_rows(vis: np.ndarray, n_layers: int) -> List[Optional[np.ndarray]]:
    """Per layer, the rows of each sequence that a pooled-only pass runs its
    queries on: a (B, Tq) array of row offsets, or None for all T rows.

    The last layer reads each sequence's first two rows, the [CLS] row and
    one more. An earlier layer reads the rows that the next layer's query
    rows see, `need_n = (need_{n+1}[:, :, None] & vis).any(axis=1)`; the
    diagonal puts the next layer's query rows among them. Each sequence's
    set, in row order, is padded to the batch's largest with rows that
    sequence does not read, also in row order.
    """
    B, T, _ = vis.shape
    need = np.zeros((B, T), dtype=bool)
    need[:, :2] = True
    plan = []
    for n in range(n_layers):
        if n:
            need = (need[:, :, None] & vis).any(axis=1)
        width = need.sum(axis=1).max()
        if width == T:   # so does every earlier layer
            return [None] * (n_layers - n) + plan[::-1]
        plan.append(np.argsort(~need, axis=1, kind="stable")[:, :width])
    return plan[::-1]


def _scatter_rows(h: Tensor, rows: np.ndarray, n_rows: int) -> Tensor:
    """`h`'s rows placed at rows `rows` of an (n_rows, d) array of zeros, as
    one autodiff node whose backward gathers them back."""
    out = np.zeros((n_rows, h.shape[1]))
    out[rows] = h.data
    return ad.fused(out, {"h": h}, lambda g, wanted: {"h": g[rows]})


def _pool(h: Tensor, stride: int, params: EncoderParams) -> Tensor:
    """tanh(x @ pooler_w + pooler_b) over x, every `stride`-th row of `h`
    (each sequence's [CLS] row), as one autodiff node."""
    x = h.data[::stride]
    out = np.tanh(x @ params.pooler_w.data + params.pooler_b.data)

    def backward(g, wanted):
        gz = g * (1.0 - out ** 2)
        grads = {"pooler_w": x.T @ gz, "pooler_b": gz.sum(axis=0)}
        if "h" in wanted:
            grads["h"] = np.zeros_like(h.data)
            grads["h"][::stride] += gz @ params.pooler_w.data.T
        return grads

    return ad.fused(out, {"h": h, "pooler_w": params.pooler_w,
                          "pooler_b": params.pooler_b}, backward)


def lm_logits(H: Tensor, rows: np.ndarray, params: EncoderParams) -> Tensor:
    """Vocabulary logits of `H`'s rows `rows`, one per row, for the
    reconstruction objective, as one autodiff node."""
    x = H.data[rows]

    def backward(g, wanted):
        grads = {"lm_w": x.T @ g, "lm_b": g.sum(axis=0)}
        if "H" in wanted:   # scatter-add: a repeated row sums its gradients
            grads["H"] = np.zeros_like(H.data)
            np.add.at(grads["H"], rows, g @ params.lm_w.data.T)
        return grads

    return ad.fused(x @ params.lm_w.data + params.lm_b.data,
                    {"H": H, "lm_w": params.lm_w, "lm_b": params.lm_b},
                    backward)
