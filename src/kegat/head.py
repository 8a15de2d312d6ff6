"""Option scoring, losses, uncertainty weighting, and ensemble averaging."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PROB_FLOOR = 1e-12


@dataclass
class HeadParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor   # hidden -> 1
    b2: Tensor


@dataclass
class LossParams:
    """Learnable log-variances s_i = log sigma_i^2 of the two objectives."""
    s1: Tensor
    s2: Tensor

    def sigma(self, i: int) -> float:
        s = self.s1 if i == 1 else self.s2
        return float(np.exp(0.5 * s.data))


def predict(reprs: Tensor, params: HeadParams, n_options: int) -> Tensor:
    """Score the (n_instances·A, repr_dim) option rows, instance-major, with
    one ELU MLP, and take a softmax over each instance's A = `n_options`:
    the (n_instances, A) option probabilities, as one autodiff node whose
    backward replays the composed ops' arithmetic."""
    if n_options < 2:
        raise ValueError("predict needs at least 2 options")
    x = reprs.data
    hidden = ad.elu_data(x @ params.w1.data + params.b1.data)
    raw = hidden @ params.w2.data + params.b2.data
    probs = ad.masked_softmax_data(raw.reshape(-1, n_options), None, axis=-1)

    def backward(g, wanted):
        graw = ad.softmax_grad(probs, g).reshape(raw.shape)
        gz = ad.elu_grad(hidden, graw @ params.w2.data.T)
        grads = {"w1": x.T @ gz, "b1": gz.sum(axis=0),
                 "w2": hidden.T @ graw, "b2": graw.sum(axis=0)}
        if "reprs" in wanted:
            grads["reprs"] = gz @ params.w1.data.T
        return grads

    return ad.fused(probs, {"reprs": reprs, **vars(params)}, backward)


def classification_loss(probs: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean over rows of the negative log-likelihood of each row's true
    option, as one autodiff node. A probability at or below PROB_FLOOR
    counts as PROB_FLOOR, with the gradient of p itself, so the loss stays
    finite."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != probs.shape[:1] or not (
            (0 <= labels) & (labels < probs.shape[1])).all():
        raise ValueError("true index out of range")
    idx = (np.arange(len(labels)), labels)
    p = probs.data[idx]
    low = p <= PROB_FLOOR
    kept = np.where(low, PROB_FLOOR, p)
    inv_n = 1.0 / len(labels)

    def backward(g, wanted):
        gn = g * inv_n
        grad = np.zeros_like(probs.data)
        np.add.at(grad, idx, np.where(low, gn, -gn / kept))
        return {"probs": grad}

    return ad.fused(-(np.log(kept).sum() * inv_n), {"probs": probs}, backward)


def lm_loss(logits: Tensor, token_ids: Sequence[int],
            n_instances: int) -> Tensor:
    """Reconstruction cross-entropy of `token_ids`, one per row, summed and
    times 1/`n_instances`, as one autodiff node over a log-softmax of the
    rows.

    The caller passes the original (trunk) tokens' rows only: the auxiliary
    objective reconstructs the input, not the injected text or padding.
    """
    tokens = np.asarray(token_ids, dtype=np.int64)
    x = logits.data
    shifted = x - x.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    idx = (np.arange(len(tokens)), tokens)
    inv_n = 1.0 / n_instances

    def backward(g, wanted):
        gl = np.zeros_like(logp)
        np.add.at(gl, idx, -(g * inv_n))
        return {"logits": gl - np.exp(logp) * gl.sum(axis=-1, keepdims=True)}

    return ad.fused(-logp[idx].sum() * inv_n, {"logits": logits}, backward)


def combined_loss(l1: Tensor, l2: Tensor, params: LossParams) -> Tensor:
    """Uncertainty-weighted sum: l1/(2*s1^2) + l2/(2*s2^2) + log(s1*s2).

    With s_i = log sigma_i^2 this is 0.5*exp(-s1)*l1 + 0.5*exp(-s2)*l2
    + (s1+s2)/2; learning s keeps the sigmas positive by construction. One
    autodiff node over the four scalars.
    """
    s1, s2 = params.s1.data, params.s2.data
    e1, e2 = np.exp(-s1), np.exp(-s2)

    def backward(g, wanted):
        h = g * 0.5
        return {"l1": h * e1, "l2": h * e2,
                "s1": h + -((h * l1.data) * e1),
                "s2": h + -((h * l2.data) * e2)}

    return ad.fused((e1 * l1.data + e2 * l2.data + s1 + s2) * 0.5,
                    {"l1": l1, "l2": l2, "s1": params.s1, "s2": params.s2},
                    backward)


def ensemble_average(prob_vectors: List[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of per-model probability vectors."""
    if not prob_vectors:
        raise ValueError("ensemble requires at least one probability vector")
    mat = np.stack([np.asarray(p, dtype=np.float64) for p in prob_vectors])
    if not np.allclose(mat.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("ensemble inputs must be probability distributions")
    return mat.mean(axis=0)
