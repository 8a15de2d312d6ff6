"""Parameter store, Adam, checkpointing, and two-phase training tests."""

import contextlib
import tempfile
import warnings
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kegat import trainkit
from kegat.errors import GradientError, NumericError
from kegat.harness import build_vocab, generate_augmented
from kegat.kemb import default_templates
from kegat.model import KegatModel, ModelConfig
from kegat.trainkit import (OptimizerState, ParamStore, Schedule,
                            adam_step, compute_gradients, load_checkpoint,
                            read_model_meta, save_checkpoint, two_phase_train)

import composed as C


TINY_CONFIG = ModelConfig(dim=16, n_layers=1, n_heads=2, ffn_mult=2,
                          max_len=48, max_positions=64, gat_layers=1,
                          gat_heads=1, sample_k=2, node_dim=8, fuse_hidden=8,
                          fuse_dim=8, gate_hidden=4, head_hidden=4,
                          per_entity_limit=1, dropout=0.0, seed=3)

MODEL_META = {"config": {"dim": 16}, "vocab": ["[CLS]", "sugar"],
              "kb": "/data/kb.tsv", "vectors": None}


def tiny_model(graph, n_instances=6, seed=11):
    templates = default_templates()
    instances = generate_augmented(graph, templates, n_instances, seed)
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
    d = C.add(w, -3.0)
    compute_gradients(C.mul(C.mul(d, d), 0.5), store)
    np.testing.assert_allclose(w.grad, -2.0)
    np.testing.assert_array_equal(store["unused"].grad, 0.0)


def test_frozen_gradients_zeroed():
    store = ParamStore()
    w = store.add("w", np.array(1.0))
    store.set_frozen("w", True)
    compute_gradients(C.mul(w, 2.0), store)
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
            compute_gradients(C.mul(np.inf, w), store)
        with pytest.raises(GradientError, match="'w'"):
            # the value is 0 at w = 0, the gradient 1e308 * 1e308 = inf
            compute_gradients(C.mul(C.mul(w, 1e308), 1e308), store)


def test_adam_zero_gradient_keeps_parameters():
    store = ParamStore()
    w = store.add("w", np.array([1.0, 2.0]))
    compute_gradients(C.sum(C.mul(w, 0.0)), store)
    adam_step(store, OptimizerState(lr=0.1))
    np.testing.assert_array_equal(w.data, [1.0, 2.0])


def test_adam_first_step_closed_form():
    store = ParamStore()
    w = store.add("w", np.array(0.0))
    compute_gradients(C.mul(w, 1.0), store)   # gradient 1
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


def _reference_adam(params, grads, m, v, step, lr, eps):
    """One Adam step as plain numpy expressions, each in its own order."""
    b1, b2 = 0.9, 0.999
    bc1, bc2 = 1.0 - b1 ** step, 1.0 - b2 ** step
    for name, g in grads.items():
        m[name] = m[name] * b1 + (1.0 - b1) * g
        v[name] = v[name] * b2 + (1.0 - b2) * g * g
        params[name] = params[name] - (lr * (m[name] / bc1)
                                       / (np.sqrt(v[name] / bc2) + eps))


def _spans(store):
    """Each parameter's slice of the flat vectors: name order, no gaps."""
    spans, start = {}, 0
    for name, p in store.items():
        spans[name] = slice(start, start + p.data.size)
        start += p.data.size
    return spans


def _adam_against_reference(shapes, frozen_name, steps=5):
    """`steps` Adam steps on a store with `shapes`, `frozen_name` frozen,
    each compared byte for byte with `_reference_adam`; returns the store and
    the optimizer state."""
    rng = np.random.default_rng(11)
    store = ParamStore()
    for name, shape in shapes.items():
        store.add(name, rng.normal(size=shape))
    store.set_frozen(frozen_name, True)
    frozen = store[frozen_name].data.copy()
    trained = [n for n in shapes if n != frozen_name]
    params = {n: store[n].data.copy() for n in trained}
    m = {n: np.zeros(shapes[n]) for n in trained}
    v = {n: np.zeros(shapes[n]) for n in trained}
    opt = OptimizerState(lr=0.003, eps=1e-6)
    spans = _spans(store)
    for step in range(1, steps + 1):
        grads = {n: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shapes[n])
                 for n in trained}
        for n, g in grads.items():
            store[n].grad[...] = g
        adam_step(store, opt)
        _reference_adam(params, grads, m, v, step, opt.lr, opt.eps)
        for n in trained:
            assert store[n].data.tobytes() == params[n].tobytes(), (step, n)
            assert opt.m[spans[n]].tobytes() == m[n].tobytes(), (step, n)
            assert opt.v[spans[n]].tobytes() == v[n].tobytes(), (step, n)
    np.testing.assert_array_equal(store[frozen_name].data, frozen)
    span = spans[frozen_name]
    assert not opt.m[span].any() and not opt.v[span].any()
    return store, opt


def test_adam_matches_plain_expressions_bit_for_bit():
    """Five steps over scalar, vector and matrix parameters, one frozen, so
    the trainable ones form two runs of the flat vectors."""
    shapes = {"a": (), "b": (3,), "c": (5, 4), "d": (5, 4), "e": (7, 6)}
    store, opt = _adam_against_reference(shapes, "c")
    assert store.runs() == [slice(0, 4), slice(24, 86)]
    assert opt.m.size == 86 and opt.scratch.size == 2 * trainkit.ADAM_BLOCK


def test_adam_blocks_straddle_parameters_bit_for_bit(monkeypatch):
    """With blocks of 8 floats, "b" (20 floats from offset 3) spans three
    blocks and "e" starts inside one; the frozen "c" splits the runs."""
    monkeypatch.setattr(trainkit, "ADAM_BLOCK", 8)
    shapes = {"a": (3,), "b": (5, 4), "c": (2, 3), "d": (), "e": (3, 5)}
    store, opt = _adam_against_reference(shapes, "c")
    assert store.runs() == [slice(0, 23), slice(29, 45)]
    assert opt.scratch.size == 16


def test_parameters_are_views_of_the_flat_vectors(tmp_path):
    """Once packed, every `data` and `grad` is a view of the flat vectors,
    and `load_checkpoint` writes through those views."""
    rng = np.random.default_rng(5)
    shapes = {"w": (2, 3), "b": (3,), "s": ()}
    saved, store = ParamStore(), ParamStore()
    for name, shape in shapes.items():
        saved.add(name, rng.normal(size=shape))
        store.add(name, np.zeros(shape))
    values, grads = store.flat()
    assert values.size == grads.size == 10
    spans = _spans(store)
    for name, p in store.items():
        assert np.shares_memory(p.data, values[spans[name]]), name
        assert np.shares_memory(p.grad, grads[spans[name]]), name
        assert p.data.shape == p.grad.shape == shapes[name]
    save_checkpoint(tmp_path / "m.ckpt", saved)
    load_checkpoint(tmp_path / "m.ckpt", store)
    np.testing.assert_array_equal(
        values, np.concatenate([p.data.ravel() for _, p in saved.items()]))


def test_add_after_packing_raises():
    store = ParamStore()
    w = store.add("w", np.arange(3.0))
    compute_gradients(C.sum(C.mul(w, w)), store)   # packs
    with pytest.raises(ValueError, match="packed"):
        store.add("a", np.array([7.0]))
    assert store.names() == ["w"]
    np.testing.assert_array_equal(store.flat()[0], [0.0, 1.0, 2.0])


def test_gradient_error_names_the_first_nonfinite_parameter():
    store = ParamStore()
    b = store.add("b", np.array(0.0))
    a = store.add("a", np.array(0.0))
    with np.errstate(all="ignore"):
        with pytest.raises(GradientError, match="'a'"):
            compute_gradients(C.add(C.mul(C.mul(b, 1e308), 1e308),
                                    C.mul(C.mul(a, 1e308), 1e308)), store)


def test_gradient_error_on_a_squared_norm_beyond_float64():
    """A finite gradient whose square overflows is an error too, named at
    the parameter where the squared norms, summed in name order, stop being
    finite; the check raises no floating-point warning."""
    store = ParamStore()
    a = store.add("a", np.array([0.0]))
    b = store.add("b", np.array([0.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        compute_gradients(C.add(C.mul(a, 1e154), C.sum(C.mul(b, 1e153))),
                          store)   # squared norms 1e308 and 2e306: finite
        # 'a' alone overflows; 'a' and 'b' overflow only together
        for grads, name in (((1e155, 0.0), "'a'"), ((1.2e154, 5e153), "'b'")):
            with pytest.raises(GradientError, match=name):
                compute_gradients(C.add(C.mul(a, grads[0]),
                                        C.sum(C.mul(b, grads[1]))), store)


def test_checkpoint_round_trip_byte_identical(tmp_path):
    store = ParamStore()
    store.add("b/w", np.random.default_rng(0).normal(size=(3, 2)))
    store.add("a/s", np.array(1.5))
    opt = OptimizerState(lr=0.01)
    x = C.add(C.sum(store["b/w"]), store["a/s"])
    compute_gradients(C.mul(x, x), store)
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


def _write_checkpoint(path, header: bytes, body: bytes = b"") -> None:
    """A checkpoint with the raw JSON `header` and `body` bytes."""
    path.write_bytes(trainkit.MAGIC + bytes([trainkit.FORMAT_VERSION])
                     + len(header).to_bytes(8, "little") + header + body)


def test_checkpoint_errors(tmp_path):
    store = ParamStore()
    store.add("w", np.zeros(2))
    p = tmp_path / "c.ckpt"
    save_checkpoint(p, store)
    other = ParamStore()
    other.add("missing", np.zeros(2))
    with pytest.raises(NumericError, match="missing parameter 'missing'"):
        load_checkpoint(p, other)
    other = ParamStore()
    other.add("w", np.zeros(3))
    with pytest.raises(NumericError, match="shape mismatch for 'w'"):
        load_checkpoint(p, other)
    with pytest.raises(NumericError, match="no model description"):
        read_model_meta(p)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOPE")
    with pytest.raises(NumericError, match="magic"):
        load_checkpoint(bad, store)
    # a well-formed header, each with one bad value
    for header, message in [
            (b'{"best_metric": [], "params": [["w", [2]]]}', "best metric"),
            (b'{"params": [["w", [-2]]]}', "parameter list"),
            (b'{"params": [["w", [2.0]]]}', "parameter list"),
            (b'{"params": {"w": [2]}}', "parameter list"),
            (b'{"best_metric": 0.5}', "parameter list"),
            (b'{"params": [["w", [3]]]}', "truncated: its body holds 16 bytes, its parameters need 24"),
            (b'{"params": [["w", [1]]]}', "too long: its body holds 16 bytes")]:
        _write_checkpoint(bad, header, np.zeros(2).tobytes())
        with pytest.raises(NumericError, match=message):
            load_checkpoint(bad, ParamStore())
    _write_checkpoint(bad, b'{"model": ' + b"[" * 100_000)   # nested too deeply
    with pytest.raises(NumericError, match="malformed checkpoint header"):
        read_model_meta(bad)


def test_checkpoint_skips_parameters_beyond_the_store(tmp_path):
    saved = ParamStore()
    saved.add("a", np.arange(3.0))
    saved.add("b", np.array(4.0))
    saved.add("c", np.arange(5.0, 7.0))
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, saved, best_metric=0.25)
    store = ParamStore()
    store.add("c", np.zeros(2))
    assert load_checkpoint(path, store) == {"best_metric": 0.25}
    np.testing.assert_array_equal(store["c"].data, [5.0, 6.0])


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    store = ParamStore()
    store.add("a", np.zeros(2))
    store.add("b", np.ones(2))
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, store)
    before = path.read_bytes()
    atomic_write = trainkit.atomic_write

    written = []

    @contextlib.contextmanager
    def fail_after_header(target):   # the prefix and header go out, the body fails
        with atomic_write(target) as fh:
            def write(data):
                if len(written) == 2:
                    raise OSError("disk full")
                written.append(data)
                return fh.write(data)
            yield SimpleNamespace(write=write)

    monkeypatch.setattr(trainkit, "atomic_write", fail_after_header)
    store["a"].data[...] = 5.0
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, store)
    assert written[1].startswith(b'{"params": ')
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
    assert (sched.lr_phase1, sched.epochs_phase1) == (0.01, 4)
    assert (sched.lr_phase2, sched.epochs_phase2) == (5e-6, 2)
    assert sched.batch_size == 2 and sched.adam_eps == 1e-6
    assert Schedule.from_config({}) == Schedule()
    assert Schedule(epochs_phase1=0, epochs_phase2=0).epochs_phase2 == 0
    for phase in (1, 2):
        lr, epochs = f"lr_phase{phase}", f"epochs_phase{phase}"
        with pytest.raises(ValueError, match=f"{lr} must be > 0, got 0.0"):
            Schedule(**{lr: 0.0, epochs: 1})
        with pytest.raises(ValueError, match=f"{lr} must be > 0, got -1"):
            Schedule(**{lr: -1})
        with pytest.raises(ValueError, match=f"{lr} must be finite, got nan"):
            Schedule(**{lr: float("nan"), epochs: 1})
        with pytest.raises(ValueError, match=f"{lr} must be finite, got inf"):
            Schedule(**{lr: float("inf"), epochs: 1})
        with pytest.raises(TypeError, match=f"{epochs} must be int, got True"):
            Schedule(**{lr: 0.1, epochs: True})
        with pytest.raises(ValueError, match=f"{epochs} must be >= 0, got -1"):
            Schedule(**{epochs: -1})
    with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
        Schedule(batch_size=0)
    with pytest.raises(ValueError, match="adam_eps must be > 0, got 0.0"):
        Schedule(adam_eps=0.0)
    with pytest.raises(ValueError, match="adam_eps must be finite"):
        Schedule(adam_eps=float("inf"))
    with pytest.raises(TypeError):
        Schedule.from_config({"batch_size": 2.0})
    assert Schedule(adam_eps=1).adam_eps == 1   # an int is a valid float


def _values(store):
    """A copy of each parameter's values, by name."""
    return {name: p.data.copy() for name, p in store.items()}


def test_two_phase_requires_data(sugar_graph):
    model, instances = tiny_model(sugar_graph)
    with pytest.raises(ValueError):
        two_phase_train(model, [], instances, Schedule(), 0)


def test_phase1_touches_only_head(sugar_graph):
    model, instances = tiny_model(sugar_graph)
    init = _values(model.store)
    sched = Schedule(lr_phase1=0.001, epochs_phase1=1,
                     lr_phase2=1e-5, epochs_phase2=0)
    result = two_phase_train(model, instances[:4], instances[4:], sched, 0)
    head = model.head_param_names()
    for name, values in _values(model.store).items():
        if name not in head:
            np.testing.assert_array_equal(values, init[name], err_msg=name)
    assert 0.0 <= result.best_metric <= 1.0
    assert all(e["phase"] == 1 for e in result.log)


def test_abort_restores_best_snapshot_and_unfreezes(sugar_graph):
    model, instances = tiny_model(sugar_graph)
    sched = Schedule(lr_phase1=1e308, epochs_phase1=1,
                     lr_phase2=1e-5, epochs_phase2=1)
    with np.errstate(all="ignore"):
        result = two_phase_train(model, instances[:4], instances[4:], sched, 0)
    assert result.aborted
    np.testing.assert_array_equal(model.store.flat()[0], result.best_snapshot)
    assert not any(model.store.is_frozen(n) for n in model.store.names())


def test_abort_before_any_dev_evaluation_reports_restored_accuracy(sugar_graph):
    model, instances = tiny_model(sugar_graph)
    init = _values(model.store)
    sched = Schedule(lr_phase1=1e308, epochs_phase1=1,
                     lr_phase2=1e-5, epochs_phase2=0)
    with np.errstate(all="ignore"):
        result = two_phase_train(model, instances[:4], instances[4:], sched, 0)
    assert result.aborted
    assert [e["phase"] for e in result.log] == [1]
    for name, values in _values(model.store).items():
        np.testing.assert_array_equal(values, init[name], err_msg=name)
    assert 0.0 <= result.best_metric <= 1.0
    assert result.best_metric == trainkit._accuracy(model, instances[4:])


def test_zero_epoch_phase2_equals_phase1_best(sugar_graph):
    model, instances = tiny_model(sugar_graph)
    sched = Schedule(lr_phase1=0.001, epochs_phase1=2,
                     lr_phase2=1e-5, epochs_phase2=0)
    result = two_phase_train(model, instances[:4], instances[4:], sched, 0)
    np.testing.assert_array_equal(model.store.flat()[0], result.best_snapshot)


def test_zero_epochs_report_initial_dev_accuracy(sugar_graph):
    model, instances = tiny_model(sugar_graph)
    init = _values(model.store)
    sched = Schedule(lr_phase1=0.001, epochs_phase1=0,
                     lr_phase2=1e-5, epochs_phase2=0)
    result = two_phase_train(model, instances[:4], instances[4:], sched, 0)
    assert result.log == []
    assert 0.0 <= result.best_metric <= 1.0
    assert result.best_metric == trainkit._accuracy(model, instances[4:])
    for name, values in _values(model.store).items():
        np.testing.assert_array_equal(values, init[name], err_msg=name)


def test_identical_seeds_identical_runs(sugar_graph, tmp_path):
    logs, files = [], []
    for run in range(2):
        model, instances = tiny_model(sugar_graph)
        sched = Schedule(lr_phase1=0.001, epochs_phase1=1,
                         lr_phase2=1e-5, epochs_phase2=1)
        result = two_phase_train(model, instances[:4], instances[4:], sched, 5)
        logs.append(result.log)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(path, model.store, best_metric=result.best_metric)
        files.append(path.read_bytes())
    assert logs[0] == logs[1]
    assert files[0] == files[1]
