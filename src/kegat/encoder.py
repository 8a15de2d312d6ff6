"""Visibility-masked transformer encoder.

Attention logits at invisible pairs are dropped before the row softmax, so a
position is influenced only by the rows its visibility mask admits. Soft
positions index a learned position table, which handles the repeated position
values produced by parallel injected branches. A padded batch of sequences
runs as one pass: position-wise ops on its (B·T, d) rows, attention on
(B, H, T, d_h) stacks.
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
    lm_w: Tensor             # d x V
    lm_b: Tensor
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
    hidden: Tensor   # B·T x d per-token states, sequence-major
    pooled: Tensor   # B x d, one [CLS] state per sequence


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


def _attention(x: Tensor, visibility: np.ndarray, lp: LayerParams,
               n_heads: int) -> Tensor:
    """All sequences and heads at once: the (B·T, d) projections viewed as
    (B, H, T, d_h) stacks, under the (B, T, T) visibility."""
    B, T, _ = visibility.shape
    d = x.shape[1]
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    def heads(w: Tensor, b: Tensor) -> Tensor:
        return (x @ w + b).reshape(B, T, n_heads, dh).transpose(0, 2, 1, 3)

    q, k, v = heads(lp.wq, lp.bq), heads(lp.wk, lp.bk), heads(lp.wv, lp.bv)
    att = ad.masked_softmax(q @ k.transpose(0, 1, 3, 2) * scale,
                            visibility[:, None], axis=-1)
    merged = (att @ v).transpose(0, 2, 1, 3).reshape(B * T, d)
    return merged @ lp.wo + lp.bo


def encode(E: Tensor, visibility: np.ndarray, params: EncoderParams,
           dropout_rate: float = 0.0,
           dropout_rng: Optional[np.random.Generator] = None) -> EncoderOutput:
    """Run the N-layer masked encoder and pool each sequence's [CLS] state.

    `visibility` is (T, T) for one sequence or (B, T, T) for a padded batch;
    `E` holds its B·T position rows. Every op but attention runs on rows.
    """
    vis = np.asarray(visibility, dtype=bool)
    T = vis.shape[-1]
    vis = vis.reshape(-1, T, T)
    assert E.shape[0] == vis.shape[0] * T
    assert vis.diagonal(axis1=1, axis2=2).all(), \
        "diagonal of the visibility matrix must be true"
    h = E
    for lp in params.layers:
        att = _attention(h, vis, lp, params.n_heads)
        att = ad.dropout(att, dropout_rate, dropout_rng)
        h = ad.layer_norm(h + att, lp.ln1_g, lp.ln1_b, LN_EPS)
        ffn = ((h @ lp.ffn_w1 + lp.ffn_b1).elu() @ lp.ffn_w2) + lp.ffn_b2
        ffn = ad.dropout(ffn, dropout_rate, dropout_rng)
        h = ad.layer_norm(h + ffn, lp.ln2_g, lp.ln2_b, LN_EPS)
    pooled = (h[::T] @ params.pooler_w + params.pooler_b).tanh()
    return EncoderOutput(hidden=h, pooled=pooled)


def lm_logits(H: Tensor, params: EncoderParams) -> Tensor:
    """Per-token vocabulary logits for the reconstruction objective."""
    return H @ params.lm_w + params.lm_b
