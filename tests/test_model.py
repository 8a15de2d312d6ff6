"""Model-level caches: per-instance features while training, and the
frozen-trunk scope."""

import dataclasses
import json

import numpy as np
import pytest

from kegat import encoder as enc
from kegat import gat as gatmod
from kegat import head as headmod
from kegat import harness, kemb
from kegat.autodiff import no_grad
from kegat.harness import build_vocab, load_comve, synth_benchmark
from kegat.kemb import default_templates
from kegat.model import KegatModel, ModelConfig
from kegat.trainkit import Schedule, compute_gradients, two_phase_train

CONFIG = ModelConfig(dim=16, n_layers=1, n_heads=2, ffn_mult=2, max_len=48,
                     max_positions=64, gat_layers=1, gat_heads=1, sample_k=2,
                     node_dim=8, fuse_hidden=8, fuse_dim=8, gate_hidden=4,
                     head_hidden=4, per_entity_limit=1, dropout=0.1, seed=5)


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    return synth_benchmark(3, tmp_path_factory.mktemp("bench"),
                           sizes=(8, 6, 4), n_concepts=60, n_edges=120,
                           embed_dim=8)


def _model(bench, instances, config=CONFIG):
    templates = default_templates()
    vocab = build_vocab(bench.graph, templates, instances)
    table = gatmod.load_concept_table(bench.paths["vectors"], config.node_dim)
    return KegatModel(config, vocab, bench.graph, table, templates)


def _renumbered(instances):
    return [dataclasses.replace(inst, id=str(i))
            for i, inst in enumerate(instances)]


# -- the feature cache is keyed by content ------------------------------------

def test_duplicate_ids_in_one_file_get_their_own_features(bench, tmp_path):
    a, b = bench.train[:2]
    data = tmp_path / "dup.jsonl"
    data.write_text("".join(
        json.dumps({"id": "7", "sent0": inst.options[0],
                    "sent1": inst.options[1], "label": 0}) + "\n"
        for inst in (a, b)), encoding="utf-8")
    first, second = load_comve(data, "a")
    model = _model(bench, [first, second])
    with model.keeping_features():
        model.predict_probs(first)
        fresh = _model(bench, [first, second])
        np.testing.assert_array_equal(model.predict_probs(second),
                                      fresh.predict_probs(second))
        assert not np.array_equal(model.predict_probs(first),
                                  model.predict_probs(second))


def test_train_and_dev_numbered_alike(bench):
    train, dev = _renumbered(bench.train), _renumbered(bench.dev)
    assert any((t.id, t.label) == (d.id, d.label) and t != d
               for t, d in zip(train, dev))
    model = _model(bench, train + dev)
    with model.keeping_features():
        for inst in train:
            model.loss([inst])
        fresh = _model(bench, train + dev)
        for inst in dev:
            np.testing.assert_array_equal(model.predict_probs(inst),
                                          fresh.predict_probs(inst),
                                          err_msg=inst.id)


def test_training_prepares_each_instance_once_and_keeps_nothing(
        bench, monkeypatch):
    model = _model(bench, bench.train + bench.dev)
    flattened = []
    real = kemb.flatten
    monkeypatch.setattr(kemb, "flatten",
                        lambda *a, **kw: flattened.append(1) or real(*a, **kw))
    sched = Schedule(lr_phase1=1e-3, epochs_phase1=2,
                     lr_phase2=1e-5, epochs_phase2=1)
    two_phase_train(model, bench.train, bench.dev, sched, 0)
    assert len(flattened) == sum(inst.option_count
                                 for inst in bench.train + bench.dev)
    assert model._cache is None


def test_evaluation_keeps_no_features(bench):
    model = _model(bench, bench.test)
    first = harness.evaluate(model, bench.test)
    assert model._cache is None
    assert harness.evaluate(model, bench.test) == first


# -- the frozen-trunk scope ---------------------------------------------------

def _count_encodes(monkeypatch) -> list:
    """From now on, list each `encode` call's number of sequences."""
    calls = []
    real = enc.encode

    def counting(E, visibility, *args, **kwargs):
        calls.append(np.asarray(visibility).reshape(
            -1, *visibility.shape[-2:]).shape[0])
        return real(E, visibility, *args, **kwargs)

    monkeypatch.setattr(enc, "encode", counting)
    return calls


def test_trunk_runs_once_per_instance_in_phase1(bench, monkeypatch):
    model = _model(bench, bench.train + bench.dev)
    options = sum(inst.option_count for inst in bench.train + bench.dev)
    calls = _count_encodes(monkeypatch)
    sched = Schedule(lr_phase1=1e-3, epochs_phase1=3,
                     lr_phase2=1e-5, epochs_phase2=1)
    result = two_phase_train(model, bench.train, bench.dev, sched, 0)
    # phase 1: each instance once; phase 2: every loss and dev prediction
    assert sum(calls) == 2 * options
    # one pass per batch of 2 and per dev prediction, in each phase
    assert len(calls) == 2 * (len(bench.train) // 2 + len(bench.dev))
    assert [e["phase"] for e in result.log] == [1, 1, 1, 2]
    assert model._trunk_out is None
    assert not any(model.store.is_frozen(n) for n in model.store.names())


def test_scoped_predictions_equal_unscoped(bench):
    model = _model(bench, bench.train + bench.dev)
    head = model.head_param_names()
    rng = np.random.default_rng(0)
    with model.frozen_trunk():
        for inst in bench.dev:   # fill the cache
            model.predict_probs(inst)
        for name in head:        # a trained head
            model.store[name].data += rng.normal(0.0, 0.3, model.store[name].shape)
        scoped = [model.predict_probs(inst) for inst in bench.dev]
        picks = [model.predict_instance(inst) for inst in bench.dev]
    for inst, probs, pick in zip(bench.dev, scoped, picks):
        np.testing.assert_array_equal(probs, model.predict_probs(inst))
        assert pick == model.predict_instance(inst)


def test_scoped_loss_gradients_equal_unscoped_without_dropout(bench):
    model = _model(bench, bench.train)
    store, head = model.store, model.head_param_names()
    expected = []
    store.freeze_all_except(head)
    for inst in bench.train[:3]:
        loss = model.loss([inst])
        compute_gradients(loss, store)
        expected.append((loss.data.copy(),
                         {name: store[name].grad.copy() for name in head}))
    store.unfreeze_all()
    with model.frozen_trunk():
        for repeat in range(2):   # the call that fills the cache, then a hit
            for inst, (value, grads) in zip(bench.train[:3], expected):
                loss = model.loss([inst],
                                  dropout_rng=np.random.default_rng(repeat))
                compute_gradients(loss, store)
                np.testing.assert_array_equal(loss.data, value)
                for name, p in store.items():
                    want = grads[name] if name in head else 0.0
                    np.testing.assert_array_equal(p.grad, want, err_msg=name)


def test_scope_is_dropped_on_exit_and_sees_the_new_trunk(bench):
    model = _model(bench, bench.dev)
    inst = bench.dev[0]
    with model.frozen_trunk():
        before = model.predict_probs(inst)
    model.store["enc/pooler_b"].data += 1.0   # a phase-2 update to the trunk
    after = model.predict_probs(inst)
    assert not np.array_equal(before, after)
    np.testing.assert_array_equal(after,
                                  model.forward([inst]).probs.data[0])
    with pytest.raises(RuntimeError):
        with model.frozen_trunk():
            np.testing.assert_array_equal(model.predict_probs(inst), after)
            raise RuntimeError("abort")
    assert model._trunk_out is None
    assert not any(model.store.is_frozen(n) for n in model.store.names())


@pytest.mark.parametrize("field, value, error", [
    ("dim", "x", TypeError), ("dim", 8.0, TypeError), ("dim", 0, ValueError),
    ("use_kemb", 1, TypeError), ("n_layers", True, TypeError),
    ("dropout", 1.0, ValueError), ("dropout", -0.1, ValueError),
    ("fuse_skip_gain", float("nan"), ValueError), ("seed", -1, ValueError),
    ("n_heads", 3, ValueError),   # 64 is not a multiple of 3
    ("max_len", 300, ValueError),   # above max_positions 160
])
def test_model_config_rejects_bad_values(field, value, error):
    with pytest.raises(error, match=field):
        ModelConfig(**{field: value})


def test_model_config_accepts_zero_where_meaningful():
    cfg = ModelConfig(sample_k=0, per_entity_limit=0, seed=0, dropout=0,
                      fuse_skip_gain=1)
    assert cfg.as_dict()["dropout"] == 0


def test_model_without_lm_loss_has_no_lm_head(bench):
    """A no-LM model adds no `enc/lm_*` parameters, and every parameter it
    has starts at the full model's values for the same seed."""
    full = _model(bench, bench.train)
    no_lm = _model(bench, bench.train, dataclasses.replace(CONFIG, use_lm=False))
    names = [n for n in full.store.names() if not n.startswith("loss/")]
    assert no_lm.store.names() == [n for n in names if not n.startswith("enc/lm_")]
    assert len(names) - len(no_lm.store.names()) == 2
    assert no_lm.enc_params.lm_w is None and no_lm.enc_params.lm_b is None
    for name, p in no_lm.store.items():
        np.testing.assert_array_equal(p.data, full.store[name].data, err_msg=name)


# -- one padded pass per batch ------------------------------------------------

VARIANTS = {"full": {}, "no-kemb": {"use_kemb": False},
            "no-kegat": {"use_kegat": False}, "no-lm": {"use_lm": False}}


def _mixed_pair(bench):
    """Two instances whose options differ in length; one option of the
    second links no entity, so its subgraph is empty."""
    a = bench.train[0]
    b = dataclasses.replace(bench.train[1], options=(
        bench.train[1].options[0], "zzz qqq www"))
    return a, b


def _model_for(bench, variant, a, b):
    config = dataclasses.replace(CONFIG, dropout=0.0, **VARIANTS[variant])
    return _model(bench, bench.train + [b], config)


def test_mixed_pair_has_uneven_options_and_an_empty_subgraph(bench):
    a, b = _mixed_pair(bench)
    model = _model_for(bench, "full", a, b)
    feats = model._features(a) + model._features(b)
    assert len({len(f.seq) for f in feats}) == len(feats)
    assert [len(f.subgraph) == 0 for f in feats] == [False, False, False, True]


def _pad_more(real, extra):
    """`kemb.pad_batch`, padding every sequence `extra` positions longer."""
    def padded(seqs, pad_id):
        batch = real(seqs, pad_id)
        B, T = batch.tokens.shape
        tokens = np.full((B, T + extra), pad_id, dtype=np.int64)
        soft_pos = np.zeros((B, T + extra), dtype=np.int64)
        trunk = np.zeros((B, T + extra), dtype=bool)
        vis = np.broadcast_to(np.eye(T + extra, dtype=bool),
                              (B, T + extra, T + extra)).copy()
        tokens[:, :T], soft_pos[:, :T] = batch.tokens, batch.soft_pos
        trunk[:, :T], vis[:, :T, :T] = batch.trunk_mask, batch.visibility
        return kemb.PaddedBatch(tokens=tokens, soft_pos=soft_pos,
                                visibility=vis, trunk_mask=trunk)
    return padded


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_batch_probabilities_match_batches_of_one(bench, variant):
    a, b = _mixed_pair(bench)
    model = _model_for(bench, variant, a, b)
    with no_grad():
        probs = model.forward([a, b]).probs.data
    for row, inst in enumerate((a, b)):
        np.testing.assert_allclose(probs[row], model.predict_probs(inst),
                                   rtol=0, atol=1e-12, err_msg=inst.id)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_batch_loss_is_the_mean_of_single_losses(bench, variant):
    a, b = _mixed_pair(bench)
    model = _model_for(bench, variant, a, b)
    single = (float(model.loss([a]).data) + float(model.loss([b]).data)) / 2
    np.testing.assert_allclose(float(model.loss([a, b]).data), single,
                               rtol=0, atol=1e-12)
    with model.frozen_trunk():   # the head-only loss, filled in one pass
        np.testing.assert_allclose(float(model.loss([a, b]).data), single,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_extra_padding_leaves_real_rows(bench, variant, monkeypatch):
    a, b = _mixed_pair(bench)
    model = _model_for(bench, variant, a, b)
    with no_grad():
        fw = model.forward([a, b])
    loss = float(model.loss([a, b]).data)
    monkeypatch.setattr(kemb, "pad_batch", _pad_more(kemb.pad_batch, 7))
    with no_grad():
        padded = model.forward([a, b])
    T = fw.batch.tokens.shape[1]
    assert padded.batch.tokens.shape[1] == T + 7
    rows = np.arange(padded.batch.tokens.size).reshape(-1, T + 7)[:, :T]
    np.testing.assert_allclose(padded.hidden.data[rows.ravel()],
                               fw.hidden.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(padded.reprs.data, fw.reprs.data,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(padded.probs.data, fw.probs.data,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(float(model.loss([a, b]).data), loss,
                               rtol=0, atol=1e-12)


def test_batch_needs_one_option_count(bench, tmp_path):
    b_bench = synth_benchmark(3, tmp_path / "b", sizes=(2, 2, 2),
                              n_concepts=60, n_edges=120, embed_dim=8,
                              subtask="b")
    model = _model(bench, bench.train + b_bench.train)
    with pytest.raises(ValueError, match="one option count"):
        model.loss([bench.train[0], b_bench.train[0]])


def test_lm_term_sums_trunk_tokens_of_every_option(bench):
    """The batch's LM term reads each option's trunk rows and no branch or
    padding row: it equals a per-option sum computed in plain numpy."""
    a, b = _mixed_pair(bench)
    model = _model_for(bench, "full", a, b)
    feats = model._features(a) + model._features(b)
    assert not all(all(f.seq.trunk_mask) for f in feats)   # branches exist
    with no_grad():
        fw = model.forward([a, b])
        logits, tokens, _ = model._lm_inputs(fw)
        got = float(headmod.lm_loss(logits, tokens, 1).data)
    T = fw.batch.tokens.shape[1]
    p = model.enc_params
    want = 0.0
    for k, f in enumerate(feats):
        h = fw.hidden.data[k * T:k * T + len(f.seq)]
        z = h @ p.lm_w.data + p.lm_b.data
        logp = z - z.max(axis=1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
        want -= sum(logp[i, tok] for i, (tok, trunk) in
                    enumerate(zip(f.seq.tokens, f.seq.trunk_mask)) if trunk)
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_batch_without_graph_nodes_skips_the_gat(bench, monkeypatch):
    a = dataclasses.replace(bench.train[0], options=("zzz qqq", "www"))
    model = _model(bench, [a])
    calls = []
    real = gatmod.run_gat
    monkeypatch.setattr(gatmod, "run_gat",
                        lambda *args: calls.append(1) or real(*args))
    probs = model.predict_probs(a)
    loss = model.loss([a])
    assert calls == [] and np.isfinite(loss.data)
    np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)
    model.loss([a, bench.train[1]])   # one option with nodes runs the GAT
    assert calls == [1]


# -- prediction reads only the pooled states ----------------------------------

@pytest.mark.parametrize("use_lm", [True, False])
def test_predictions_run_pooled_only_and_keep_their_bytes(bench, use_lm,
                                                          monkeypatch):
    config = dataclasses.replace(CONFIG, use_lm=use_lm)
    model = _model(bench, bench.train + bench.dev, config)
    inst = bench.dev[0]
    with no_grad():
        full = model.forward([inst]).probs.data[0]
    calls = []
    real = enc.encode

    def recording(*args, pooled_only=False, **kwargs):
        calls.append(pooled_only)
        return real(*args, pooled_only=pooled_only, **kwargs)

    monkeypatch.setattr(enc, "encode", recording)
    assert model.predict_probs(inst).tobytes() == full.tobytes()
    with model.frozen_trunk():   # a trunk pass that keeps `hidden` for the LM
        assert model.predict_probs(inst).tobytes() == full.tobytes()
    model.loss([inst])
    assert calls == [True, not use_lm, False]


@pytest.mark.parametrize("use_lm", [True, False])
def test_loss_runs_the_full_pass_with_its_dropout_draws(bench, use_lm):
    config = dataclasses.replace(CONFIG, use_lm=use_lm)
    model = _model(bench, bench.train, config)
    inst = bench.train[0]

    def rng_state_after(fn):
        rng = np.random.default_rng(11)
        fn(rng)
        return rng.bit_generator.state

    after_loss = rng_state_after(lambda rng: model.loss([inst], rng))
    assert after_loss == rng_state_after(lambda rng: model.forward([inst], rng))
    assert after_loss != rng_state_after(
        lambda rng: model.forward([inst], rng, pooled_only=True))
    assert model.forward([inst]).hidden is not None
    assert model.forward([inst], pooled_only=True).hidden is None
