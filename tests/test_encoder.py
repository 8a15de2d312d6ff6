"""Visibility-masked transformer encoder tests."""

import numpy as np
import pytest

from kegat.autodiff import Tensor
from kegat.encoder import (EncoderOutput, EncoderParams, LayerParams, embed,
                           encode, lm_logits)
from kegat.kemb import InjectedSequence, pad_batch


def _seq(tokens, soft_pos=None, visibility=None):
    n = len(tokens)
    if soft_pos is None:
        soft_pos = list(range(n))
    if visibility is None:
        visibility = np.ones((n, n), dtype=bool)
    return InjectedSequence(tokens=tuple(tokens), soft_pos=tuple(soft_pos),
                            visibility=visibility,
                            trunk_mask=tuple([True] * n))


def _params(V=10, d=8, n_layers=1, n_heads=2, p_max=16, seed=0):
    rng = np.random.default_rng(seed)

    def mat(fi, fo):
        return Tensor(rng.normal(0, np.sqrt(2 / (fi + fo)), (fi, fo)),
                      requires_grad=True)

    def vec(n, v=0.0):
        return Tensor(np.full(n, v), requires_grad=True)

    layers = [LayerParams(
        wq=mat(d, d), bq=vec(d), wk=mat(d, d), bk=vec(d),
        wv=mat(d, d), bv=vec(d), wo=mat(d, d), bo=vec(d),
        ln1_g=vec(d, 1.0), ln1_b=vec(d),
        ffn_w1=mat(d, 4 * d), ffn_b1=vec(4 * d),
        ffn_w2=mat(4 * d, d), ffn_b2=vec(d),
        ln2_g=vec(d, 1.0), ln2_b=vec(d)) for _ in range(n_layers)]
    return EncoderParams(tok_emb=Tensor(rng.normal(0, 0.1, (V, d)),
                                        requires_grad=True),
                         pos_emb=Tensor(rng.normal(0, 0.1, (p_max, d)),
                                        requires_grad=True),
                         layers=layers, pooler_w=mat(d, d), pooler_b=vec(d),
                         lm_w=mat(d, V), lm_b=vec(V), n_heads=n_heads)


def test_embed_zero_tables_give_zero():
    p = _params()
    p.tok_emb.data[...] = 0.0
    p.pos_emb.data[...] = 0.0
    out = embed(_seq([1, 2, 3]), p)
    np.testing.assert_array_equal(out.data, np.zeros((3, 8)))


def test_embed_one_hot_selects_rows():
    p = _params(V=8, d=8)
    p.tok_emb.data[...] = np.eye(8)
    p.pos_emb.data[...] = 0.0
    out = embed(_seq([3, 0, 5]), p)
    np.testing.assert_array_equal(out.data, np.eye(8)[[3, 0, 5]])


def test_embed_trunk_only_matches_ordinary_positions():
    p = _params()
    tokens = [4, 2, 7, 1]
    out = embed(_seq(tokens), p)
    reference = p.tok_emb.data[tokens] + p.pos_emb.data[np.arange(4)]
    np.testing.assert_array_equal(out.data, reference)


def test_embed_soft_position_overflow_errors():
    p = _params(p_max=4)
    with pytest.raises(ValueError, match="soft position"):
        embed(_seq([1, 2], soft_pos=[0, 9]), p)
    with pytest.raises(ValueError, match="vocabulary"):
        embed(_seq([1, 99]), p)


def test_encode_all_true_mask_equals_unmasked():
    p = _params()
    E = embed(_seq([1, 2, 3, 4]), p)
    with_mask = encode(E, np.ones((4, 4), dtype=bool), p)
    no_mask = encode(E, np.ones((4, 4), dtype=bool), p)
    np.testing.assert_array_equal(with_mask.hidden.data, no_mask.hidden.data)


def test_encode_single_token():
    p = _params()
    out = encode(embed(_seq([5]), p), np.ones((1, 1), dtype=bool), p)
    assert out.hidden.shape == (1, 8)
    assert out.pooled.shape == (1, 8)   # one pooled row per sequence
    assert np.isfinite(out.hidden.data).all()


def test_encode_rejects_false_diagonal():
    p = _params()
    vis = np.ones((3, 3), dtype=bool)
    vis[1, 1] = False
    with pytest.raises(AssertionError):
        encode(embed(_seq([1, 2, 3]), p), vis, p)


def test_mask_locality_single_layer():
    """Perturbing a position invisible to i leaves layer output at i exact."""
    p = _params(n_layers=1)
    vis = np.ones((4, 4), dtype=bool)
    vis[0, 3] = vis[3, 0] = False     # 3 invisible to 0
    tokens = [1, 2, 3, 4]
    base = encode(embed(_seq(tokens), p), vis, p).hidden.data.copy()
    E2 = embed(_seq(tokens), p)
    E2.data[3] += 10.0                 # perturb the invisible position
    pert = encode(E2, vis, p).hidden.data
    np.testing.assert_array_equal(base[0], pert[0])
    assert not np.allclose(base[3], pert[3])


def test_encode_deterministic():
    p = _params()
    seq = _seq([1, 2, 3])
    a = encode(embed(seq, p), seq.visibility, p)
    b = encode(embed(seq, p), seq.visibility, p)
    np.testing.assert_array_equal(a.hidden.data, b.hidden.data)
    np.testing.assert_array_equal(a.pooled.data, b.pooled.data)


def test_pooled_is_tanh_bounded():
    p = _params()
    seq = _seq([1, 2, 3])
    out = encode(embed(seq, p), seq.visibility, p)
    assert (np.abs(out.pooled.data) <= 1.0).all()


def test_lm_logits_zero_projection():
    p = _params()
    p.lm_w.data[...] = 0.0
    p.lm_b.data[...] = 0.0
    H = Tensor(np.random.default_rng(0).normal(size=(5, 8)))
    np.testing.assert_array_equal(lm_logits(H, p).data, np.zeros((5, 10)))


def test_lm_logits_scores_own_token_highest():
    p = _params(V=8, d=8)
    p.lm_w.data[...] = np.eye(8)
    p.lm_b.data[...] = 0.0
    H = Tensor(np.eye(8)[[2, 5]])
    out = lm_logits(H, p).data
    assert out[0].argmax() == 2 and out[1].argmax() == 5
    assert out.shape == (2, 8)


def test_padded_batch_rows_match_each_sequence_alone():
    p = _params(n_layers=2)
    vis = np.ones((4, 4), dtype=bool)
    vis[0, 3] = vis[3, 0] = False
    seqs = [_seq([1, 2, 3, 4], soft_pos=[0, 1, 1, 2], visibility=vis),
            _seq([5, 6]), _seq([7, 8, 9])]
    batch = pad_batch(seqs, pad_id=0)
    out = encode(embed(batch, p), batch.visibility, p)
    assert out.hidden.shape == (12, 8) and out.pooled.shape == (3, 8)
    for b, seq in enumerate(seqs):
        alone = encode(embed(seq, p), seq.visibility, p)
        n = len(seq)
        np.testing.assert_allclose(out.hidden.data[4 * b:4 * b + n],
                                   alone.hidden.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.pooled.data[b], alone.pooled.data[0],
                                   rtol=0, atol=1e-12)
