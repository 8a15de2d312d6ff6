"""Visibility-masked transformer encoder tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kegat import autodiff as ad
from kegat import encoder as enc
from kegat import kemb
from kegat.autodiff import Tensor
from kegat.encoder import EncoderOutput, embed, encode, lm_logits
from kegat.kemb import Branch, InjectedSequence, InjectedTree, pad_batch
from kegat.vocab import PAD, Vocab

import composed as C
from conftest import check_operand_grads, numeric_grad


def _seq(tokens, soft_pos=None, visibility=None):
    n = len(tokens)
    if soft_pos is None:
        soft_pos = list(range(n))
    if visibility is None:
        visibility = np.ones((n, n), dtype=bool)
    return InjectedSequence(tokens=tuple(tokens), soft_pos=tuple(soft_pos),
                            visibility=visibility,
                            trunk_mask=tuple([True] * n))


def _params(V=10, d=8, n_layers=1, p_max=16, seed=0):
    """The embedding, pooler and LM parameters, and each layer's, keyed as
    the model's store keys them under "enc/" and "enc/l<n>/"."""
    rng = np.random.default_rng(seed)

    def mat(fi, fo):
        return Tensor(rng.normal(0, np.sqrt(2 / (fi + fo)), (fi, fo)),
                      requires_grad=True)

    def vec(n, v=0.0):
        return Tensor(np.full(n, v), requires_grad=True)

    layers = [{
        "wq": mat(d, d), "bq": vec(d), "wk": mat(d, d), "bk": vec(d),
        "wv": mat(d, d), "bv": vec(d), "wo": mat(d, d), "bo": vec(d),
        "ln1_g": vec(d, 1.0), "ln1_b": vec(d),
        "ffn_w1": mat(d, 4 * d), "ffn_b1": vec(4 * d),
        "ffn_w2": mat(4 * d, d), "ffn_b2": vec(d),
        "ln2_g": vec(d, 1.0), "ln2_b": vec(d)} for _ in range(n_layers)]
    return {"tok_emb": Tensor(rng.normal(0, 0.1, (V, d)), requires_grad=True),
            "pos_emb": Tensor(rng.normal(0, 0.1, (p_max, d)),
                              requires_grad=True),
            "pooler_w": mat(d, d), "pooler_b": vec(d),
            "lm_w": mat(d, V), "lm_b": vec(V)}, layers


def test_embed_zero_tables_give_zero():
    p, _ = _params()
    p["tok_emb"].data[...] = 0.0
    p["pos_emb"].data[...] = 0.0
    out = embed(_seq([1, 2, 3]), p)
    np.testing.assert_array_equal(out.data, np.zeros((3, 8)))


def test_embed_one_hot_selects_rows():
    p, _ = _params(V=8, d=8)
    p["tok_emb"].data[...] = np.eye(8)
    p["pos_emb"].data[...] = 0.0
    out = embed(_seq([3, 0, 5]), p)
    np.testing.assert_array_equal(out.data, np.eye(8)[[3, 0, 5]])


def test_embed_trunk_only_matches_ordinary_positions():
    p, _ = _params()
    tokens = [4, 2, 7, 1]
    out = embed(_seq(tokens), p)
    reference = p["tok_emb"].data[tokens] + p["pos_emb"].data[np.arange(4)]
    np.testing.assert_array_equal(out.data, reference)


def test_embed_soft_position_overflow_errors():
    p, _ = _params(p_max=4)
    with pytest.raises(ValueError, match="soft position"):
        embed(_seq([1, 2], soft_pos=[0, 9]), p)
    with pytest.raises(ValueError, match="vocabulary"):
        embed(_seq([1, 99]), p)


def test_encode_all_true_mask_equals_unmasked():
    p, layers = _params()
    E = embed(_seq([1, 2, 3, 4]), p)
    with_mask = encode(E, np.ones((4, 4), dtype=bool), p, layers, 2)
    no_mask = encode(E, np.ones((4, 4), dtype=bool), p, layers, 2)
    np.testing.assert_array_equal(with_mask.hidden.data, no_mask.hidden.data)


def test_encode_single_token():
    p, layers = _params()
    out = encode(embed(_seq([5]), p), np.ones((1, 1), dtype=bool), p,
                 layers, 2)
    assert out.hidden.shape == (1, 8)
    assert out.pooled.shape == (1, 8)   # one pooled row per sequence
    assert np.isfinite(out.hidden.data).all()


def test_encode_rejects_false_diagonal():
    p, layers = _params()
    vis = np.ones((3, 3), dtype=bool)
    vis[1, 1] = False
    with pytest.raises(AssertionError):
        encode(embed(_seq([1, 2, 3]), p), vis, p, layers, 2)


def test_mask_locality_single_layer():
    """Perturbing a position invisible to i leaves layer output at i exact."""
    p, layers = _params(n_layers=1)
    vis = np.ones((4, 4), dtype=bool)
    vis[0, 3] = vis[3, 0] = False     # 3 invisible to 0
    tokens = [1, 2, 3, 4]
    base = encode(embed(_seq(tokens), p), vis, p, layers, 2).hidden.data.copy()
    E2 = embed(_seq(tokens), p)
    E2.data[3] += 10.0                 # perturb the invisible position
    pert = encode(E2, vis, p, layers, 2).hidden.data
    np.testing.assert_array_equal(base[0], pert[0])
    assert not np.allclose(base[3], pert[3])


def test_encode_deterministic():
    p, layers = _params()
    seq = _seq([1, 2, 3])
    a = encode(embed(seq, p), seq.visibility, p, layers, 2)
    b = encode(embed(seq, p), seq.visibility, p, layers, 2)
    np.testing.assert_array_equal(a.hidden.data, b.hidden.data)
    np.testing.assert_array_equal(a.pooled.data, b.pooled.data)


def test_pooled_is_tanh_bounded():
    p, layers = _params()
    seq = _seq([1, 2, 3])
    out = encode(embed(seq, p), seq.visibility, p, layers, 2)
    assert (np.abs(out.pooled.data) <= 1.0).all()


def test_lm_logits_zero_projection():
    p, _ = _params()
    p["lm_w"].data[...] = 0.0
    p["lm_b"].data[...] = 0.0
    H = Tensor(np.random.default_rng(0).normal(size=(5, 8)))
    np.testing.assert_array_equal(lm_logits(H, np.arange(5), p).data,
                                  np.zeros((5, 10)))


def test_lm_logits_scores_own_token_highest():
    p, _ = _params(V=8, d=8)
    p["lm_w"].data[...] = np.eye(8)
    p["lm_b"].data[...] = 0.0
    H = Tensor(np.eye(8)[[7, 2, 0, 5]])
    out = lm_logits(H, np.array([1, 3]), p).data
    assert out[0].argmax() == 2 and out[1].argmax() == 5
    assert out.shape == (2, 8)


def test_padded_batch_rows_match_each_sequence_alone():
    p, layers = _params(n_layers=2)
    vis = np.ones((4, 4), dtype=bool)
    vis[0, 3] = vis[3, 0] = False
    seqs = [_seq([1, 2, 3, 4], soft_pos=[0, 1, 1, 2], visibility=vis),
            _seq([5, 6]), _seq([7, 8, 9])]
    batch = pad_batch(seqs, pad_id=0)
    out = encode(embed(batch, p), batch.visibility, p, layers, 2)
    assert out.hidden.shape == (12, 8) and out.pooled.shape == (3, 8)
    for b, seq in enumerate(seqs):
        alone = encode(embed(seq, p), seq.visibility, p, layers, 2)
        n = len(seq)
        np.testing.assert_allclose(out.hidden.data[4 * b:4 * b + n],
                                   alone.hidden.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.pooled.data[b], alone.pooled.data[0],
                                   rtol=0, atol=1e-12)


def _padded_batch(T, n_seqs, seed):
    rng = np.random.default_rng(seed)
    seqs = []
    for b in range(n_seqs):   # the first sequence sets the padded length
        n = T if b == 0 else int(rng.integers(1, T + 1))
        vis = rng.random((n, n)) < 0.4
        np.fill_diagonal(vis, True)
        seqs.append(_seq(rng.integers(1, 10, n).tolist(), visibility=vis))
    return pad_batch(seqs, pad_id=0)


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("T", [1, 2, 3, 9])
@pytest.mark.parametrize("n_seqs", [2, 3, 4, 5])
def test_pooled_only_pass_keeps_the_pooled_bytes(n_layers, T, n_seqs):
    """Running the last layer on two rows per sequence changes no byte of
    the pooled states; `hidden` is dropped only when rows were left out."""
    p, layers = _params(d=16, n_layers=n_layers, seed=T)
    batch = _padded_batch(T, n_seqs, seed=10 * T + n_seqs)
    E = embed(batch, p)
    full = encode(E, batch.visibility, p, layers, 4)
    pooled = encode(E, batch.visibility, p, layers, 4, pooled_only=True)
    assert pooled.pooled.data.tobytes() == full.pooled.data.tobytes()
    assert full.hidden is not None
    assert (pooled.hidden is None) == (T > 2)


_WORDS = [f"w{i}" for i in range(6)]
_VOCAB = Vocab.build(_WORDS)


def _kbert_batch(trees):
    """K-BERT-shaped sequences (`kemb.flatten`'s visibility) of `trees`,
    each a trunk and (anchor, tokens) branches, padded to one batch."""
    seqs = [kemb.flatten(InjectedTree(
        tuple(trunk), tuple(Branch(a, tuple(toks), 1.0) for a, toks in br)),
        _VOCAB, max_len=64) for trunk, br in trees]
    return pad_batch(seqs, _VOCAB.lookup(PAD))


@st.composite
def _kbert_trees(draw):
    """1-4 trees: a trunk of 1-8 words, and up to 4 branches of 1-3 words
    at random anchors, 0 and 1 weighted up as the rows the pooled state
    reads first."""
    trees = []
    for _ in range(draw(st.integers(1, 4))):
        trunk = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8))
        anchor = st.sampled_from([0, 1]) | st.integers(0, 7)
        branches = draw(st.lists(st.tuples(
            anchor.map(lambda a: min(a, len(trunk) - 1)),
            st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3)),
            max_size=4))
        trees.append((trunk, branches))
    return trees


@given(trees=_kbert_trees(), n_layers=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=80, deadline=None)
def test_pooled_only_pass_keeps_the_pooled_bytes_on_kbert_trees(
        trees, n_layers, seed):
    """On K-BERT-shaped batches of unequal lengths, running each layer on
    the rows the pooled state reaches changes no byte of the pooled
    states."""
    batch = _kbert_batch(trees)
    p, layers = _params(V=len(_VOCAB), d=16, n_layers=n_layers, seed=seed)
    with ad.no_grad():
        E = embed(batch, p)
        full = encode(E, batch.visibility, p, layers, 4)
        pooled = encode(E, batch.visibility, p, layers, 4, pooled_only=True)
    assert pooled.pooled.data.tobytes() == full.pooled.data.tobytes()


# rows 0-9: [CLS], its branch (2 rows), w0, w1, w1's branch, w2, w2's branch
# (3 rows); and a trunk of 3 rows without branches, padded to 10
_SPY_TREES = [(["[CLS]", "w0", "w1", "w2"],
               [(0, ["w3", "w4"]), (2, ["w5"]), (3, ["w0", "w1", "w2"])]),
              (["[CLS]", "w0", "w1"], [])]


@pytest.mark.parametrize("n_layers,rows", [
    (1, [2]),            # the last layer: rows 0 and 1 of each sequence
    (2, [6, 2]),         # rows 0 and 1 see the trunk and [CLS]'s branch
    (3, [10, 6, 2]),     # the trunk sees every branch
])
def test_pooled_only_layers_run_on_the_rows_the_pooled_state_reaches(
        monkeypatch, n_layers, rows):
    """Each layer's FFN receives, per sequence, the rows the next layer's
    query rows see, padded to the batch's largest set: the first sequence
    needs 6 of its 10 rows under the last layer, the second 3."""
    batch = _kbert_batch(_SPY_TREES)
    assert batch.visibility.shape == (2, 10, 10)
    p, layers = _params(V=len(_VOCAB), d=16, n_layers=n_layers)
    seen = []
    ffn = enc._ffn_sublayer

    def spy(h, *args):
        seen.append(h.shape[0])
        return ffn(h, *args)

    monkeypatch.setattr(enc, "_ffn_sublayer", spy)
    with ad.no_grad():
        E = embed(batch, p)
        full = encode(E, batch.visibility, p, layers, 4)
        assert seen == [20] * n_layers
        seen.clear()
        pooled = encode(E, batch.visibility, p, layers, 4, pooled_only=True)
    assert seen == [2 * r for r in rows]
    assert pooled.pooled.data.tobytes() == full.pooled.data.tobytes()


# -- the fused sublayer nodes against the composed-op layer they replace -----

def _reference_layer_norm(x, gain, bias):
    """The one-node layer norm the composed layer used: the composed ops'
    forward, and an analytic backward."""
    inv_n = 1.0 / x.shape[-1]
    c = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    var = (c ** 2.0).sum(axis=-1, keepdims=True) * inv_n
    r = np.sqrt(var + enc.LN_EPS) ** -1.0
    xhat = c * r

    def dx(g):
        d = g * gain.data
        mean_d = d.sum(axis=-1, keepdims=True) * inv_n
        mean_dx = (d * xhat).sum(axis=-1, keepdims=True) * inv_n
        return r * (d - mean_d - xhat * mean_dx)

    return ad.fused(xhat * gain.data + bias.data,
                    {"x": x, "gain": gain, "bias": bias},
                    lambda g, wanted: {
                        "x": dx(g),
                        "gain": C.unbroadcast(g * xhat, gain.shape),
                        "bias": C.unbroadcast(g, bias.shape)})


def _reference_dropout(t, rate, rng):
    """Inverted dropout as a product with a constant mask."""
    if rate <= 0.0 or rng is None:
        return t
    keep = (rng.random(t.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return C.mul(t, keep)


def _reference_attention(xq, xkv, visibility, lp, n_heads):
    B, Tq, T = visibility.shape
    d = xkv.shape[1]
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    def heads(x, w, b, rows):
        return C.transpose(C.reshape(C.add(C.matmul(x, w), b),
                                     B, rows, n_heads, dh), 0, 2, 1, 3)

    q = heads(xq, lp["wq"], lp["bq"], Tq)
    k = heads(xkv, lp["wk"], lp["bk"], T)
    v = heads(xkv, lp["wv"], lp["bv"], T)
    att = C.masked_softmax(
        C.mul(C.matmul(q, C.transpose(k, 0, 1, 3, 2)), scale),
        visibility[:, None], axis=-1)
    merged = C.reshape(C.transpose(C.matmul(att, v), 0, 2, 1, 3), B * Tq, d)
    return C.add(C.matmul(merged, lp["wo"]), lp["bo"])


def _reference_read_rows(vis, n_layers):
    """Per layer, each sequence's query rows in a pooled-only pass, written
    out per sequence: the last layer reads rows 0 and 1, an earlier layer
    every row that a row read by the next layer sees. Each sequence's set,
    in row order, is padded to the largest with its unread rows in order;
    None where every set holds all T rows."""
    B, T, _ = vis.shape
    reads = [{0, 1}] * B
    plan = []
    for _ in range(n_layers):
        width = max(len(r) for r in reads)
        plan.append(None if width == T else np.array(
            [sorted(r) + sorted(set(range(T)) - r)[:width - len(r)]
             for r in reads]))
        reads = [{int(j) for i in r for j in np.flatnonzero(vis[b, i])}
                 for b, r in enumerate(reads)]
    return plan[::-1]


def _reference_scatter(t, rows, n_rows):
    """`t`'s rows placed at rows `rows` of zeros; the backward gathers."""
    out = np.zeros((n_rows, t.shape[1]))
    out[rows] = t.data
    return C.unary(out, t, lambda g: g[rows])


def _reference_encode(E, vis, params, layers, n_heads, rate=0.0, rng=None,
                      pooled_only=False):
    """The encoder as composed autodiff ops, one graph node per op."""
    T = vis.shape[-1]
    vis = vis.reshape(-1, T, T)
    n_layers = len(layers)
    plan = (_reference_read_rows(vis, n_layers) if pooled_only and T > 2
            else [None] * n_layers)
    h, stride = E, T
    for n, (lp, order) in enumerate(zip(layers, plan)):
        x, x_vis, stride = h, vis, T
        if order is not None:
            rows = np.concatenate([b * T + o for b, o in enumerate(order)])
            x = C.getitem(h, rows)
            x_vis = np.stack([v[o] for v, o in zip(vis, order)])
            stride = order.shape[1]
        att = _reference_dropout(
            _reference_attention(x, h, x_vis, lp, n_heads), rate, rng)
        h = _reference_layer_norm(C.add(x, att), lp["ln1_g"], lp["ln1_b"])
        ffn = C.add(C.matmul(C.elu(C.add(C.matmul(h, lp["ffn_w1"]),
                                         lp["ffn_b1"])), lp["ffn_w2"]),
                    lp["ffn_b2"])
        h = _reference_layer_norm(C.add(h, _reference_dropout(ffn, rate, rng)),
                                  lp["ln2_g"], lp["ln2_b"])
        if order is not None and n < n_layers - 1:
            h = _reference_scatter(h, rows, E.shape[0])
    return EncoderOutput(hidden=h if stride == T else None,
                         pooled=_reference_pool(h, stride, params))


def _all_params(p, layers):
    named = {k: p[k] for k in ("tok_emb", "pos_emb", "pooler_w", "pooler_b")}
    for n, lp in enumerate(layers):
        named.update({f"l{n}/{k}": t for k, t in lp.items()})
    return named


# a frozen subset: the embeddings (so the first layer's input is a constant)
# and a scattering of each kind of layer parameter
_FROZEN = ("tok_emb", "pos_emb", "l0/wk", "l0/bq", "l0/ln1_g", "l0/ffn_b2",
           "l1/wv", "l1/ffn_w1", "l1/ln2_b", "l1/bo")


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("T", [1, 2, 3, 9])
@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("pooled_only", [False, True])
def test_fused_layers_match_composed_reference(n_layers, T, rate, frozen,
                                               pooled_only):
    """The two-node layer gives the composed ops' output bytes and, for the
    input and every parameter, their gradient bytes."""
    batch = _padded_batch(T, 3, seed=T)
    results = []
    for run in (_reference_encode, encode):
        p, layers = _params(d=16, n_layers=n_layers, seed=T)
        named = _all_params(p, layers)
        for name in _FROZEN if frozen else ():
            if name in named:
                named[name].requires_grad = False
        E = embed(batch, p)
        if not frozen:   # also the gradient reaching the encoder's input
            E = Tensor(E.data, requires_grad=True)
        out = run(E, batch.visibility, p, layers, 4, rate,
                  np.random.default_rng(7),
                  pooled_only=pooled_only)
        w_rng = np.random.default_rng(T + 100)
        loss = C.weighted_sum(out.pooled, w_rng.normal(size=out.pooled.shape))
        if out.hidden is not None:
            loss = C.add(loss, C.weighted_sum(
                out.hidden, w_rng.normal(size=out.hidden.shape)))
        loss.backward()
        results.append((out, named, E))
    (ref, ref_named, ref_E), (got, got_named, got_E) = results
    assert got.pooled.data.tobytes() == ref.pooled.data.tobytes()
    assert (got.hidden is None) == (ref.hidden is None)
    if got.hidden is not None:
        assert got.hidden.data.tobytes() == ref.hidden.data.tobytes()
    if not frozen:
        assert got_E.grad.tobytes() == ref_E.grad.tobytes()
    for name, t in got_named.items():
        if t.requires_grad:
            assert t.grad.tobytes() == ref_named[name].grad.tobytes(), name
            # a live layer parameter gets a gradient (with one row per
            # sequence, attention is constant, so q and k get none)
            assert np.any(t.grad != 0.0) or T == 1 or "/" not in name, name


def _node_inputs(seed, rows_total=6, d=8):
    rng = np.random.default_rng(seed)
    _, (lp,) = _params(d=d, n_layers=1, seed=seed)
    for t in lp.values():   # nonzero biases and off-unit gains
        t.data += rng.normal(0.0, 0.3, size=t.shape)
    return rng.normal(size=(rows_total, d)), lp


# each sublayer node's parameter operands
_NODE_PARAMS = {
    "attention": ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                  "ln1_g", "ln1_b"),
    "ffn": ("ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2", "ln2_g", "ln2_b"),
}


def _run_node(kind, h, lp, rows, rate):
    """One sublayer node over 2 sequences of 3 rows, its dropout redrawn
    from the same seed on every call."""
    rng = np.random.default_rng(5)
    if kind == "ffn":
        x = h if rows is None else C.getitem(h, rows)
        return enc._ffn_sublayer(x, lp, rate, rng)
    vis = np.ones((2, 3, 3), dtype=bool)
    vis[0, 0, 2] = vis[1, 2, 1] = False
    if rows is not None:
        vis = vis[:, :2]
    return enc._attention_sublayer(h, vis, lp, 2, rows, rate, rng)


@pytest.mark.parametrize("kind,rows", [("attention", None),
                                       ("attention", np.array([0, 1, 3, 4])),
                                       ("ffn", None)])
@pytest.mark.parametrize("rate", [0.0, 0.4])
def test_sublayer_node_gradients_match_differences(kind, rows, rate):
    h0, lp = _node_inputs(seed=3)
    n_out = 6 if rows is None else len(rows)
    w = np.random.default_rng(9).normal(size=(n_out, 8))

    def loss_of(h, lp_):
        return C.weighted_sum(_run_node(kind, h, lp_, rows, rate), w)

    h = Tensor(h0, requires_grad=True)
    loss_of(h, lp).backward()
    expected = numeric_grad(lambda x: float(loss_of(Tensor(x), lp).data), h0)
    np.testing.assert_allclose(h.grad, expected, rtol=1e-6, atol=1e-8)
    for name in _NODE_PARAMS[kind]:
        t = lp[name]
        base = t.data.copy()

        def at(values):
            t.data = values
            try:
                return float(loss_of(Tensor(h0), lp).data)
            finally:
                t.data = base

        np.testing.assert_allclose(t.grad, numeric_grad(at, base),
                                   rtol=1e-6, atol=1e-8, err_msg=name)


@pytest.mark.parametrize("kind", ["attention", "ffn"])
def test_sublayer_node_records_edges_only_when_tracking(kind):
    """A node records each tracked operand, none under no_grad(), and
    a frozen operand's absence changes no live gradient byte."""
    h0, lp = _node_inputs(seed=4)
    names = _NODE_PARAMS[kind]
    with ad.no_grad():
        out = _run_node(kind, Tensor(h0, requires_grad=True), lp, None, 0.4)
    assert not out._operands and not ad._tracked(out)
    frozen = names[1::2]
    for name in frozen:
        lp[name].requires_grad = False
    h = Tensor(h0)   # a constant input
    out = _run_node(kind, h, lp, None, 0.4)
    live = [lp[n] for n in names if n not in frozen]
    assert list(out._operands.values()) == live
    C.sum(out).backward()
    got = {n: lp[n].grad.copy() for n in names if n not in frozen}
    _, twin = _node_inputs(seed=4)
    C.sum(_run_node(kind, Tensor(h0, requires_grad=True), twin, None, 0.4)
          ).backward()
    for name, g in got.items():
        assert g.tobytes() == twin[name].grad.tobytes(), name


# -- the glue nodes against the composed ops they replace -------------------

def _reference_embed(seq, params):
    return C.add(C.getitem(params["tok_emb"], np.ravel(seq.tokens)),
                 C.getitem(params["pos_emb"], np.ravel(seq.soft_pos)))


def _reference_pool(h, stride, params):
    return C.tanh(C.add(C.matmul(C.getitem(h, np.s_[::stride]),
                                 params["pooler_w"]), params["pooler_b"]))


def _reference_lm_logits(H, rows, params):
    return C.add(C.matmul(C.getitem(H, rows), params["lm_w"]), params["lm_b"])


# repeated token ids and soft positions (parallel branches share them), and
# a padded second sequence
_GLUE_BATCH = pad_batch([_seq([3, 5, 5, 1, 3], soft_pos=[0, 1, 2, 2, 3]),
                         _seq([5, 2])], pad_id=0)
_LM_ROWS = np.array([0, 2, 3, 3, 6])   # a repeated row sums its gradients


def _glue_inputs(kind, seed):
    """Parameters with nonzero biases, and a glue node's input and operands:
    the embedding of `_GLUE_BATCH`, the pooler at stride 3 (every row of
    T = 3 sequences) or 2 (a pooled-only pass), and the LM projection of
    `_LM_ROWS`."""
    p, _ = _params(V=6, d=8, p_max=5, seed=seed)
    rng = np.random.default_rng(seed + 50)
    for t in (p["pooler_b"], p["lm_b"]):
        t.data += rng.normal(0.0, 0.3, size=t.shape)
    if kind == "embed":
        return p, (_GLUE_BATCH,), {"tok_emb": p["tok_emb"],
                                   "pos_emb": p["pos_emb"]}
    if kind == "lm_logits":
        H = Tensor(rng.normal(size=(7, 8)), requires_grad=True)
        return p, (H, _LM_ROWS), {"H": H, "lm_w": p["lm_w"],
                                  "lm_b": p["lm_b"]}
    stride = 2 if kind == "pool, stride 2" else 3
    h = Tensor(rng.normal(size=(3 * stride, 8)), requires_grad=True)
    return p, (h, stride), {"h": h, "pooler_w": p["pooler_w"],
                            "pooler_b": p["pooler_b"]}


_GLUE = {"embed": (embed, _reference_embed),
         "pool": (enc._pool, _reference_pool),
         "pool, stride 2": (enc._pool, _reference_pool),
         "lm_logits": (lm_logits, _reference_lm_logits)}
# frozen operands per node; a frozen input (h or H) is an untracked one
_GLUE_FROZEN = {"embed": [(), ("tok_emb",), ("pos_emb",),
                          ("tok_emb", "pos_emb")],
                "pool": [(), ("h",), ("pooler_w",), ("h", "pooler_b")],
                "lm_logits": [(), ("H",), ("lm_w",), ("H", "lm_b")]}
_GLUE_CASES = [(kind, frozen) for kind in _GLUE
               for frozen in _GLUE_FROZEN[kind.split(",")[0]]]


@pytest.mark.parametrize("kind,frozen", _GLUE_CASES)
def test_glue_nodes_match_composed_reference(kind, frozen):
    """The embedding, pooler and LM-projection nodes give the composed
    ops' output bytes and every tracked operand their gradient bytes, and
    record the tracked operands only."""
    results = []
    for run in _GLUE[kind]:
        p, args, operands = _glue_inputs(kind, seed=11)
        for name in frozen:
            operands[name].requires_grad = False
        out = run(*args, p)
        live = [t for t in operands.values() if t.requires_grad]
        if run is _GLUE[kind][0]:
            assert list(out._operands.values()) == live
        w = np.random.default_rng(12).normal(size=out.shape)
        C.mul(C.weighted_sum(out, w), 0.37).backward()
        results.append([out.data] + [t.grad for t in live])
    got, want = results
    assert len(got) == len(want) == 1 + len(operands) - len(frozen)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", sorted(_GLUE))
def test_glue_node_gradients_match_differences(kind):
    p, args, operands = _glue_inputs(kind, seed=13)
    run = _GLUE[kind][0]
    w = np.random.default_rng(14).normal(size=run(*args, p).shape)
    check_operand_grads(lambda: C.weighted_sum(run(*args, p), w), operands)
