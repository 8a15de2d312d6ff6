"""Option scoring, losses, uncertainty weighting, and ensemble averaging."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

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
class OptionScores:
    raw: Tensor          # n_instances x A raw scores
    probs: Tensor        # softmax probabilities over each row's options
    predicted: Tuple[int, ...]   # per row, argmax, lowest index on ties

    @property
    def prob_values(self) -> np.ndarray:
        return self.probs.data


@dataclass
class LossParams:
    """Learnable log-variances s_i = log sigma_i^2 of the two objectives."""
    s1: Tensor
    s2: Tensor

    def sigma(self, i: int) -> float:
        s = self.s1 if i == 1 else self.s2
        return float(np.exp(0.5 * s.data))


def option_score(reprs: Tensor, params: HeadParams) -> Tensor:
    """MLP score per option representation: (N, 1) for (N, repr_dim) rows."""
    hidden = (reprs @ params.w1 + params.b1).elu()
    return hidden @ params.w2 + params.b2


def predict(reprs: Tensor, params: HeadParams, n_options: int) -> OptionScores:
    """Score the (n_instances·A, repr_dim) option rows, instance-major, as
    one MLP, and take a softmax over each instance's A = `n_options`."""
    if n_options < 2:
        raise ValueError("predict needs at least 2 options")
    raw = option_score(reprs, params).reshape(-1, n_options)
    probs = ad.masked_softmax(raw, None, axis=-1)
    predicted = tuple(np.argmax(probs.data, axis=-1).tolist())
    return OptionScores(raw=raw, probs=probs, predicted=predicted)


def classification_loss(probs: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean over rows of the negative log-likelihood of each row's true
    option. A probability at or below PROB_FLOOR counts as PROB_FLOOR, with
    the gradient of p itself, so the loss stays finite."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != probs.shape[:1] or not (
            (0 <= labels) & (labels < probs.shape[1])).all():
        raise ValueError("true index out of range")
    p = probs[np.arange(len(labels)), labels]
    low = p.data <= PROB_FLOOR
    if not low.any():
        return -p.log().mean()
    # a floored row takes log 1 = 0 from the log and -log(floor) + (p - p)
    # beside it
    mask = Tensor(low.astype(np.float64))
    kept = p * Tensor(~low) + mask
    floored = Tensor(np.where(low, -np.log(PROB_FLOOR), 0.0))
    return (-kept.log() + (p - p.data) * mask + floored).mean()


def lm_loss(logits: Tensor, token_ids: Sequence[int]) -> Tensor:
    """Summed reconstruction cross-entropy of `token_ids`, one per row.

    The caller passes the original (trunk) tokens' rows only: the auxiliary
    objective reconstructs the input, not the injected text or padding.
    """
    tokens = np.asarray(token_ids, dtype=np.int64)
    return -ad.log_softmax(logits, axis=-1)[np.arange(len(tokens)),
                                            tokens].sum()


def combined_loss(l1: Tensor, l2: Tensor, params: LossParams) -> Tensor:
    """Uncertainty-weighted sum: l1/(2*s1^2) + l2/(2*s2^2) + log(s1*s2).

    With s_i = log sigma_i^2 this is 0.5*exp(-s1)*l1 + 0.5*exp(-s2)*l2
    + (s1+s2)/2; learning s keeps the sigmas positive by construction.
    """
    return ((-params.s1).exp() * l1 + (-params.s2).exp() * l2
            + params.s1 + params.s2) * 0.5


def ensemble_average(prob_vectors: List[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of per-model probability vectors."""
    if not prob_vectors:
        raise ValueError("ensemble requires at least one probability vector")
    mat = np.stack([np.asarray(p, dtype=np.float64) for p in prob_vectors])
    if not np.allclose(mat.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("ensemble inputs must be probability distributions")
    return mat.mean(axis=0)
