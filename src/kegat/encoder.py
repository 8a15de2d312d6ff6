"""Visibility-masked transformer encoder.

Attention logits at invisible pairs are dropped before the row softmax, so a
position is influenced only by the rows its visibility mask admits. Soft
positions index a learned position table, which handles the repeated position
values produced by parallel injected branches. A padded batch of sequences
runs as one pass: position-wise ops on its (B·T, d) rows, attention on
(B, H, T, d_h) stacks. A pass that reads only the pooled [CLS] states runs
the last layer's queries, layer norms and FFN on two rows per sequence, with
keys and values from all T.
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
    def dim(self) -> int:
        return self.tok_emb.shape[1]

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
    return params.tok_emb[tokens] + params.pos_emb[soft]


def _attention(xq: Tensor, xkv: Tensor, visibility: np.ndarray,
               lp: LayerParams, n_heads: int) -> Tensor:
    """All sequences and heads at once, under the (B, Tq, T) visibility of
    the query rows: `xq` holds B·Tq query rows and `xkv` the B·T key and
    value rows, each viewed as (B, H, Tq or T, d_h) stacks. A full pass
    passes the same rows for both."""
    B, Tq, T = visibility.shape
    d = xkv.shape[1]
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    def heads(x: Tensor, w: Tensor, b: Tensor, rows: int) -> Tensor:
        return (x @ w + b).reshape(B, rows, n_heads, dh).transpose(0, 2, 1, 3)

    q = heads(xq, lp.wq, lp.bq, Tq)
    k, v = heads(xkv, lp.wk, lp.bk, T), heads(xkv, lp.wv, lp.bv, T)
    att = ad.masked_softmax(q @ k.transpose(0, 1, 3, 2) * scale,
                            visibility[:, None], axis=-1)
    merged = (att @ v).transpose(0, 2, 1, 3).reshape(B * Tq, d)
    return merged @ lp.wo + lp.bo


def encode(E: Tensor, visibility: np.ndarray, params: EncoderParams,
           dropout_rate: float = 0.0,
           dropout_rng: Optional[np.random.Generator] = None,
           pooled_only: bool = False) -> EncoderOutput:
    """Run the N-layer masked encoder and pool each sequence's [CLS] state.

    `visibility` is (T, T) for one sequence or (B, T, T) for a padded batch;
    `E` holds its B·T position rows. Every op but attention runs on rows.

    With `pooled_only` and T > 2, the last layer runs its queries, residuals,
    layer norms and FFN on each sequence's first two rows only, with keys and
    values from all T rows, and `hidden` is None. Earlier layers run in full,
    since every row feeds the next layer's keys and values. The pooled bytes
    equal a full pass's. Two rows, not one: numpy sends a one-row matmul to
    BLAS gemv, which sums in another order than gemm, whereas gemm's rows do
    not depend on how many rows it is given (OpenBLAS 0.3.31, Haswell
    kernel). Dropout draws depend on the layer's shapes, so a pass with
    dropout that must match a full pass's draws keeps `pooled_only` off.
    """
    vis = np.asarray(visibility, dtype=bool)
    T = vis.shape[-1]
    vis = vis.reshape(-1, T, T)
    assert E.shape[0] == vis.shape[0] * T
    assert vis.diagonal(axis1=1, axis2=2).all(), \
        "diagonal of the visibility matrix must be true"
    h, stride = E, T   # stride: the rows of `h` per sequence
    for n, lp in enumerate(params.layers):
        x, x_vis = h, vis
        if pooled_only and T > 2 and n == len(params.layers) - 1:
            starts = np.arange(0, h.shape[0], T)
            x = h[(starts[:, None] + np.arange(2)).ravel()]
            x_vis, stride = vis[:, :2], 2
        att = _attention(x, h, x_vis, lp, params.n_heads)
        att = ad.dropout(att, dropout_rate, dropout_rng)
        h = ad.layer_norm(x + att, lp.ln1_g, lp.ln1_b, LN_EPS)
        ffn = ((h @ lp.ffn_w1 + lp.ffn_b1).elu() @ lp.ffn_w2) + lp.ffn_b2
        ffn = ad.dropout(ffn, dropout_rate, dropout_rng)
        h = ad.layer_norm(h + ffn, lp.ln2_g, lp.ln2_b, LN_EPS)
    pooled = (h[::stride] @ params.pooler_w + params.pooler_b).tanh()
    return EncoderOutput(hidden=h if stride == T else None, pooled=pooled)


def lm_logits(H: Tensor, params: EncoderParams) -> Tensor:
    """Per-token vocabulary logits for the reconstruction objective."""
    return H @ params.lm_w + params.lm_b
