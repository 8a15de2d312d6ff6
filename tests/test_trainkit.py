"""Parameter store, Adam, checkpointing, and two-phase training tests."""

import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kegat import trainkit
from kegat.autodiff import Tensor
from kegat.errors import GradientError, NumericError
from kegat.harness import build_vocab, generate_augmented
from kegat.kemb import default_templates
from kegat.model import KegatModel, ModelConfig
from kegat.trainkit import (OptimizerState, ParamStore, Phase, Schedule,
                            adam_step, compute_gradients, load_checkpoint,
                            read_model_meta, save_checkpoint, two_phase_train)

TINY_CONFIG = ModelConfig(dim=16, n_layers=1, n_heads=2, ffn_mult=2,
                          max_len=48, max_positions=64, gat_layers=1,
                          gat_heads=1, sample_k=2, node_dim=8, fuse_hidden=8,
                          fuse_dim=8, gate_hidden=4, head_hidden=4,
                          per_entity_limit=1, dropout=0.0, seed=3)

MODEL_META = {"config": {"dim": 16}, "vocab": ["[CLS]", "sugar"],
              "kb": "/data/kb.tsv", "vectors": None}


def tiny_model(graph, n_instances=6, seed=11):
    templates = default_templates()
    instances = generate_augmented(graph, templates, n_instances,
                                   "uniform-nonneighbor", seed)
    vocab = build_vocab(graph, templates, instances)
    table = {c: np.random.default_rng(zlib.crc32(c.encode())).normal(size=8) * 0.3
             for c in graph.concepts}
    model = KegatModel(TINY_CONFIG, vocab, graph, table, templates)
    return model, instances


def test_param_store_rejects_duplicates():
    store = ParamStore()
    store.add("w", np.zeros(2))
    with pytest.raises(ValueError):
        store.add("w", np.zeros(2))


def test_snapshot_restore_round_trip():
    store = ParamStore()
    store.add("w", np.arange(3.0))
    snap = store.snapshot()
    store["w"].data[...] = 99.0
    store.restore(snap)
    np.testing.assert_array_equal(store["w"].data, np.arange(3.0))


def test_gradient_of_unused_parameter_is_zero():
    store = ParamStore()
    w = store.add("w", np.array(1.0))
    store.add("unused", np.array(5.0))
    compute_gradients((w - 3.0) ** 2.0 * 0.5, store)
    np.testing.assert_allclose(w.grad, -2.0)
    np.testing.assert_array_equal(store["unused"].grad, 0.0)


def test_frozen_gradients_zeroed():
    store = ParamStore()
    w = store.add("w", np.array(1.0))
    store.set_frozen("w", True)
    compute_gradients(w * 2.0, store)
    np.testing.assert_array_equal(w.grad, 0.0)


def test_freezing_zeroes_gradients_left_by_a_trainable_step(sugar_graph):
    """zero_grad skips frozen parameters, so freezing zeroes their
    gradients: after an all-trainable step, a phase-1 step (whose scope
    calls `freeze_all_except(head)`) leaves every frozen gradient exactly 0."""
    model, instances = tiny_model(sugar_graph)
    store, head = model.store, model.head_param_names()
    compute_gradients(model.loss([instances[0]]), store)
    assert all(store[n].grad.any() for n in ("enc/tok_emb", "gat/l0/w"))
    with model.frozen_trunk():
        compute_gradients(model.loss([instances[1]]), store)
    for name, p in store.items():
        if name not in head:
            np.testing.assert_array_equal(p.grad, 0.0, err_msg=name)
    assert all(store[n].grad.any() for n in head)


def test_nonfinite_loss_and_gradient_errors():
    store = ParamStore()
    w = store.add("w", np.array(0.0))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError):
            compute_gradients(Tensor(np.inf) * w, store)
        with pytest.raises(GradientError, match="'w'"):
            compute_gradients(w.sqrt(), store)   # d/dw sqrt at 0 is infinite


def test_adam_zero_gradient_keeps_parameters():
    store = ParamStore()
    w = store.add("w", np.array([1.0, 2.0]))
    compute_gradients((w * 0.0).sum(), store)
    adam_step(store, OptimizerState(lr=0.1))
    np.testing.assert_array_equal(w.data, [1.0, 2.0])


def test_adam_first_step_closed_form():
    store = ParamStore()
    w = store.add("w", np.array(0.0))
    compute_gradients(w * 1.0, store)   # gradient 1
    opt = OptimizerState(lr=0.001, eps=1e-6)
    adam_step(store, opt)
    # first step: m_hat = v_hat = g = 1 -> delta = -lr / (1 + eps)
    np.testing.assert_allclose(w.data, -0.001 / (1.0 + 1e-6), atol=1e-15)


def test_adam_skips_frozen():
    store = ParamStore()
    w = store.add("w", np.array(1.0))
    store.set_frozen("w", True)
    w.grad[...] = 5.0
    adam_step(store, OptimizerState(lr=0.1))
    np.testing.assert_array_equal(w.data, 1.0)


def test_checkpoint_round_trip_byte_identical(tmp_path):
    store = ParamStore()
    store.add("b/w", np.random.default_rng(0).normal(size=(3, 2)))
    store.add("a/s", np.array(1.5))
    opt = OptimizerState(lr=0.01)
    compute_gradients((store["b/w"].sum() + store["a/s"]) ** 2.0, store)
    adam_step(store, opt)
    p1, p2 = tmp_path / "c1.ckpt", tmp_path / "c2.ckpt"
    rng = np.random.default_rng(42)
    save_checkpoint(p1, store, rng=rng, best_metric=0.75, model_meta=MODEL_META)
    store2 = ParamStore()
    store2.add("b/w", np.zeros((3, 2)))
    store2.add("a/s", np.zeros(()))
    meta = load_checkpoint(p1, store2)
    np.testing.assert_array_equal(store2["b/w"].data, store["b/w"].data)
    assert meta["best_metric"] == 0.75
    assert meta["rng_state"] == np.random.default_rng(42).bit_generator.state
    assert read_model_meta(p1) == MODEL_META
    save_checkpoint(p2, store2, rng=np.random.default_rng(42),
                    best_metric=0.75, model_meta=MODEL_META)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_errors(tmp_path):
    store = ParamStore()
    store.add("w", np.zeros(2))
    p = tmp_path / "c.ckpt"
    save_checkpoint(p, store)
    other = ParamStore()
    other.add("missing", np.zeros(2))
    with pytest.raises(NumericError, match="missing"):
        load_checkpoint(p, other)
    with pytest.raises(NumericError, match="meta/model"):
        read_model_meta(p)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOPE")
    with pytest.raises(NumericError, match="magic"):
        load_checkpoint(bad, store)
    with open(bad, "wb") as fh:   # well-formed records, an empty best metric
        fh.write(trainkit.MAGIC + bytes([trainkit.FORMAT_VERSION]))
        trainkit._write_record(fh, "meta/best_metric", np.zeros(0))
    with pytest.raises(NumericError, match="best_metric"):
        load_checkpoint(bad, ParamStore())
    with open(bad, "wb") as fh:   # a model description nested too deeply
        fh.write(trainkit.MAGIC + bytes([trainkit.FORMAT_VERSION]))
        trainkit._write_record(fh, "meta/model",
                               np.frombuffer(b"[" * 100_000, dtype=np.uint8))
    with pytest.raises(NumericError, match="meta/model"):
        read_model_meta(bad)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    store = ParamStore()
    store.add("a", np.zeros(2))
    store.add("b", np.ones(2))
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, store)
    before = path.read_bytes()
    calls = []
    write_record = trainkit._write_record

    def fail_on_second(fh, name, arr):
        calls.append(name)
        if len(calls) == 2:
            raise OSError("disk full")
        write_record(fh, name, arr)

    monkeypatch.setattr(trainkit, "_write_record", fail_on_second)
    store["a"].data[...] = 5.0
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, store)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["c.ckpt"]


def _saved_checkpoint_bytes() -> bytes:
    store = ParamStore()
    store.add("enc/w", np.random.default_rng(1).normal(size=(2, 3)))
    store.add("head/b", np.array(0.5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ckpt"
        save_checkpoint(path, store, rng=np.random.default_rng(3),
                        best_metric=0.5, model_meta=MODEL_META)
        return path.read_bytes()


CHECKPOINT_BYTES = _saved_checkpoint_bytes()


@settings(max_examples=300, deadline=None)
@given(cut=st.integers(0, len(CHECKPOINT_BYTES)),
       flips=st.lists(st.tuples(st.integers(0, len(CHECKPOINT_BYTES) - 1),
                                st.integers(1, 255)), max_size=4))
def test_corrupted_checkpoint_raises_only_numeric_error(cut, flips):
    raw = bytearray(CHECKPOINT_BYTES)
    for pos, mask in flips:
        raw[pos] ^= mask
    store = ParamStore()
    store.add("enc/w", np.zeros((2, 3)))
    store.add("head/b", np.zeros(()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ckpt"
        path.write_bytes(bytes(raw[:cut]))
        for read in (lambda: load_checkpoint(path, store),
                     lambda: read_model_meta(path)):
            try:
                read()
            except NumericError:
                pass


def test_schedule_from_config():
    sched = Schedule.from_config({"lr_phase1": 0.01, "epochs_phase2": 2})
    assert sched.phase1 == Phase(lr=0.01, epochs=4)
    assert sched.phase2 == Phase(lr=5e-6, epochs=2)
    assert sched.batch_size == 2 and sched.adam_eps == 1e-6
    with pytest.raises(ValueError):
        Phase(lr=0.0, epochs=1)
    with pytest.raises(ValueError):
        Phase(lr=float("nan"), epochs=1)
    with pytest.raises(TypeError):
        Phase(lr=0.1, epochs=True)
    with pytest.raises(ValueError):
        Schedule(batch_size=0)
    with pytest.raises(ValueError):
        Schedule(adam_eps=0.0)
    with pytest.raises(TypeError):
        Schedule.from_config({"batch_size": 2.0})
    assert Schedule(adam_eps=1).adam_eps == 1   # an int is a valid float


def test_two_phase_requires_data(sugar_graph):
    model, instances = tiny_model(sugar_graph)
    with pytest.raises(ValueError):
        two_phase_train(model, [], instances, Schedule(), 0)


def test_phase1_touches_only_head(sugar_graph):
    model, instances = tiny_model(sugar_graph)
    init = model.store.snapshot()
    sched = Schedule(phase1=Phase(lr=0.001, epochs=1),
                     phase2=Phase(lr=1e-5, epochs=0))
    result = two_phase_train(model, instances[:4], instances[4:], sched, 0)
    head = model.head_param_names()
    for name, values in model.store.snapshot().items():
        if name not in head:
            np.testing.assert_array_equal(values, init[name], err_msg=name)
    assert 0.0 <= result.best_metric <= 1.0
    assert all(e["phase"] == 1 for e in result.log)


def test_abort_restores_best_snapshot_and_unfreezes(sugar_graph):
    model, instances = tiny_model(sugar_graph)
    sched = Schedule(phase1=Phase(lr=float("inf"), epochs=1),
                     phase2=Phase(lr=1e-5, epochs=1))
    with np.errstate(all="ignore"):
        result = two_phase_train(model, instances[:4], instances[4:], sched, 0)
    assert result.aborted
    for name, values in model.store.snapshot().items():
        np.testing.assert_array_equal(values, result.best_snapshot[name],
                                      err_msg=name)
    assert not any(model.store.is_frozen(n) for n in model.store.names())


def test_zero_epoch_phase2_equals_phase1_best(sugar_graph):
    model, instances = tiny_model(sugar_graph)
    sched = Schedule(phase1=Phase(lr=0.001, epochs=2),
                     phase2=Phase(lr=1e-5, epochs=0))
    result = two_phase_train(model, instances[:4], instances[4:], sched, 0)
    for name, values in model.store.snapshot().items():
        np.testing.assert_array_equal(values, result.best_snapshot[name])


def test_identical_seeds_identical_runs(sugar_graph, tmp_path):
    logs, files = [], []
    for run in range(2):
        model, instances = tiny_model(sugar_graph)
        sched = Schedule(phase1=Phase(lr=0.001, epochs=1),
                         phase2=Phase(lr=1e-5, epochs=1))
        result = two_phase_train(model, instances[:4], instances[4:], sched, 5)
        logs.append(result.log)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(path, model.store, best_metric=result.best_metric)
        files.append(path.read_bytes())
    assert logs[0] == logs[1]
    assert files[0] == files[1]
