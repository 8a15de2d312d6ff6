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
class OptionScores:
    raw: Tensor          # A raw scores
    probs: Tensor        # softmax probabilities
    predicted: int       # argmax, lowest index on ties

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


def option_score(repr_vec: Tensor, params: HeadParams) -> Tensor:
    """MLP score for one option representation, as a 1-vector."""
    hidden = (repr_vec @ params.w1 + params.b1).elu()
    return hidden @ params.w2 + params.b2


def predict(reprs: Sequence[Tensor], params: HeadParams) -> OptionScores:
    if len(reprs) < 2:
        raise ValueError("predict needs at least 2 options")
    raw = ad.concat([option_score(r, params) for r in reprs])
    probs = ad.masked_softmax(raw, None, axis=-1)
    return OptionScores(raw=raw, probs=probs,
                        predicted=int(np.argmax(probs.data)))


def classification_loss(probs: Tensor, true_index: int) -> Tensor:
    """Negative log-likelihood of the true option, floored away from log 0."""
    if not (0 <= true_index < probs.shape[0]):
        raise ValueError("true index out of range")
    p = probs[true_index]
    if p.data <= PROB_FLOOR:
        return -Tensor(np.asarray(PROB_FLOOR)).log() + (p - p.data)
    return -p.log()


def lm_loss(logits: Tensor, token_ids: Sequence[int],
            trunk_mask: Sequence[bool]) -> Tensor:
    """Summed reconstruction cross-entropy over the original (trunk) tokens.

    Injected branch positions are excluded: the auxiliary objective
    reconstructs the input, not the injected text.
    """
    tokens = np.asarray(token_ids, dtype=np.int64)
    rows = np.nonzero(np.asarray(trunk_mask, dtype=bool))[0]
    return -ad.log_softmax(logits, axis=-1)[rows, tokens[rows]].sum()


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
