"""Acceptance suite: one reported pass/fail line per criterion.

Each test exercises a stated guarantee end to end and appends a PASS/FAIL
line that the conftest terminal-summary hook prints after the run.
"""

import json
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import conftest
from kegat import autodiff as ad
from kegat import encoder as enc
from kegat import gat as gatmod
from kegat import head as headmod
from kegat.autodiff import Tensor
from kegat.cli import main as cli_main
from kegat.harness import build_vocab, generate_augmented, synth_benchmark
from kegat.kemb import build_tree, default_templates, flatten
from kegat.linker import extract_entities
from kegat.model import KegatModel, ModelConfig
from kegat.trainkit import Schedule, compute_gradients, two_phase_train
from kegat.vocab import Vocab

from test_encoder import _params as encoder_params, _seq
from test_gat import _gat_params, _subgraph, inclusion_probabilities

DESK_SCHEDULE = {"epochs_phase1": 24, "epochs_phase2": 8,
                 "lr_phase1": 0.001, "lr_phase2": 0.00002}

SMALL_CONFIG = ModelConfig(dim=8, n_layers=1, n_heads=2, ffn_mult=2,
                           max_len=32, max_positions=40, gat_layers=1,
                           gat_heads=1, sample_k=2, node_dim=4, fuse_hidden=4,
                           fuse_dim=4, gate_hidden=2, head_hidden=3,
                           per_entity_limit=1, dropout=0.0, seed=0)


def _criterion(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else "")
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _small_model(n_instances=2):
    graph = conftest.sugar_graph_cached()
    templates = default_templates()
    instances = generate_augmented(graph, templates, n_instances, 0)
    vocab = build_vocab(graph, templates, instances)
    table = {c: np.random.default_rng(zlib.crc32(c.encode())).normal(size=4) * 0.3
             for c in graph.concepts}
    return KegatModel(SMALL_CONFIG, vocab, graph, table, templates), instances


def test_headline_numbers_documented_as_not_reproducible():
    """The README states the published accuracies are out of reach here."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    ok = ("96.70" in text and "95.00" in text and "94.50" in text
          and "92.90" in text and "not reproducible" in text)
    _criterion("non-reproducibility of published headline numbers is "
               "documented in README", ok)


def test_knowledge_effect_on_synthetic_benchmark(tmp_path):
    """Full model beats the no-knowledge ablation by >=10 points, >=85% dev."""
    start = time.monotonic()
    bench = synth_benchmark(7, tmp_path / "bench")
    templates = default_templates()
    table = gatmod.load_concept_table(bench.paths["vectors"], 32, seed=0)
    vocab = build_vocab(bench.graph, templates, bench.train + bench.dev)
    schedule = Schedule.from_config(DESK_SCHEDULE)

    accs = {}
    for variant, kwargs in (("full", {}),
                            ("baseline", {"use_kemb": False, "use_kegat": False})):
        cfg = ModelConfig(seed=7, **kwargs)
        model = KegatModel(cfg, vocab, bench.graph,
                           table if cfg.use_kegat else {}, templates)
        result = two_phase_train(model, bench.train, bench.dev, schedule, 7)
        accs[variant] = result.best_metric
    elapsed = time.monotonic() - start
    gap = (accs["full"] - accs["baseline"]) * 100
    ok = accs["full"] >= 0.85 and gap >= 10.0 and elapsed < 600
    _criterion("synthetic-benchmark knowledge effect",
               ok, f"full={accs['full']:.4f} baseline={accs['baseline']:.4f} "
                   f"gap={gap:.1f}pts elapsed={elapsed:.0f}s")


def test_gradient_fidelity_every_parameter():
    """Analytic gradients match central differences for every element, on
    one padded batch of 2 instances whose 4 options differ in length."""
    start = time.monotonic()
    model, instances = _small_model(6)
    store = model.store
    batch = [instances[3], instances[5]]
    lengths = [len(f.seq) for inst in batch for f in model._features(inst)]
    assert len(set(lengths)) == len(lengths), lengths   # padding in every row

    def batch_loss():
        return model.loss(batch)

    compute_gradients(batch_loss(), store)
    analytic = {name: p.grad.copy() for name, p in store.items()}

    step = 1e-4
    worst = 0.0
    for name, p in store.items():
        num = np.zeros_like(p.data)
        it = np.nditer(p.data, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p.data[idx]
            p.data[idx] = orig + step
            up = float(batch_loss().data)
            p.data[idx] = orig - step
            down = float(batch_loss().data)
            p.data[idx] = orig
            num[idx] = (up - down) / (2 * step)
            it.iternext()
        np.testing.assert_allclose(analytic[name], num, rtol=1e-3, atol=1e-8,
                                   err_msg=name)
        denom = np.maximum(np.abs(num), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic[name] - num) / denom)))
    elapsed = time.monotonic() - start
    n_elems = sum(p.data.size for _, p in store.items())
    ok = elapsed < 120
    _criterion("gradient fidelity (analytic vs central differences, "
               "every parameter)", ok,
               f"{n_elems} elements, worst rel err {worst:.2e}, option "
               f"lengths {lengths}, {elapsed:.0f}s")


def _record_tensors(monkeypatch) -> list:
    """From now on, list every tensor built."""
    built = []
    real_init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    return built


def _tracked(tensors) -> list:
    return [t for t in tensors if ad._tracked(t)]


def test_loss_graph_node_count(monkeypatch, tmp_path):
    """One 2-instance batch's loss builds at most 15 tensors on the small
    model, and at most 18 on the default model over seed-7 synth instances.

    Guards the one padded pass per batch and the fused nodes: the
    embedding, two per encoder layer, the pooler, one per GAT layer, the
    pooling, fusion, gate, concat, head, LM projection and each loss. With
    the embedding, pooler, LM projection, LM scaling and pooling composed
    of small ops the loss built 25 and 28; with the GAT layers, fusion,
    gate and head composed too, 56 and 72; with the encoder sublayers and
    losses composed too, 103 and 148 at most. A pass per option built 181
    and 271 per instance, so 362 and 542 per batch; before that, the
    per-head encoder loop and per-token LM loss built 309 per instance on
    the small model, the per-head GAT loop 447 on the default model, and a
    layer norm composed of 12 ops 241 and 391.
    """
    model, instances = _small_model()
    built = _record_tensors(monkeypatch)
    model.loss(instances[:2])
    assert 0 < len(built) <= 15, len(built)

    bench = synth_benchmark(7, tmp_path / "bench")
    templates = default_templates()
    table = gatmod.load_concept_table(bench.paths["vectors"], 32, seed=0)
    vocab = build_vocab(bench.graph, templates, bench.train + bench.dev)
    model = KegatModel(ModelConfig(seed=7), vocab, bench.graph, table, templates)
    built.clear()
    model.loss(bench.train[:2])
    assert 0 < len(built) <= 18, len(built)


def test_phase1_loss_differentiates_only_the_head(monkeypatch):
    """With all but the head frozen, one loss records at most 3 tensors:
    the head, classification-loss and combined-loss nodes.

    Frozen parameters are constants, so only the head path is recorded (it
    was 220 of 243 tensors while frozen parameters stayed in the graph, and
    9 while the head was composed of small ops).
    Frozen gradients are exactly zero, and the head's gradients are
    bit-equal to those of the same loss with every parameter trainable.
    """
    model, instances = _small_model()
    store, head = model.store, model.head_param_names()
    compute_gradients(model.loss(instances[:1]), store)
    unfrozen = {name: store[name].grad.copy() for name in head}
    store.freeze_all_except(head)
    built = _record_tensors(monkeypatch)
    loss = model.loss(instances[:1])
    assert 0 < len(_tracked(built)) <= 3, len(_tracked(built))
    compute_gradients(loss, store)
    for name, p in store.items():
        if name in head:
            np.testing.assert_array_equal(p.grad, unfrozen[name], err_msg=name)
        else:
            np.testing.assert_array_equal(p.grad, 0.0, err_msg=name)


def test_prediction_records_no_graph_and_skips_lm(monkeypatch):
    """predict_probs builds no tracked tensor and no LM logits, same values."""
    model, instances = _small_model()
    fw_probs = model.forward([instances[0]]).probs
    assert ad._tracked(fw_probs)
    calls = 0
    real_lm_logits = enc.lm_logits

    def counting_lm_logits(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_lm_logits(*args, **kwargs)

    monkeypatch.setattr(enc, "lm_logits", counting_lm_logits)
    built = _record_tensors(monkeypatch)
    probs = model.predict_probs(instances[0])
    assert model.predict_instance(instances[0]) == np.argmax(fw_probs.data[0])
    assert built and _tracked(built) == [] and calls == 0
    np.testing.assert_array_equal(probs, fw_probs.data[0])
    model.loss(instances[:2])   # one LM logits call per loss, for the batch
    assert calls == 1


def test_mask_locality_is_exact():
    """An invisible position cannot change a layer's output, bit for bit."""
    rng = np.random.default_rng(0)
    ok = True
    for trial in range(20):
        T = int(rng.integers(3, 8))
        p, layers = encoder_params(V=12, d=8, n_layers=1, seed=trial)
        vis = np.ones((T, T), dtype=bool)
        i, j = rng.choice(T, size=2, replace=False)
        vis[i, j] = vis[j, i] = False
        tokens = list(rng.integers(0, 12, size=T))
        base = enc.encode(enc.embed(_seq(tokens), p), vis, p, layers,
                          2).hidden.data
        E2 = enc.embed(_seq(tokens), p)
        E2.data[j] += rng.normal(0, 5.0, size=8)
        pert = enc.encode(E2, vis, p, layers, 2).hidden.data
        if not (base[i] == pert[i]).all():
            ok = False
            break
    _criterion("mask locality: invisible perturbations change output by "
               "exactly zero", ok, "20 randomized single-layer cases")


def test_all_normalizations_sum_to_one(monkeypatch):
    """Attention rows (encoder + GAT) and option probabilities sum to 1."""
    recorded = []
    real = ad.masked_softmax_data

    def recording(x, mask=None, axis=-1):
        out = real(x, mask, axis)
        recorded.append(out.copy())
        return out

    monkeypatch.setattr(ad, "masked_softmax_data", recording)
    rng = np.random.default_rng(42)
    prob_rows = 0
    max_err = 0.0

    def check_rows(rows):
        nonlocal prob_rows, max_err
        for row in rows.reshape(-1, rows.shape[-1]):
            prob_rows += 1
            max_err = max(max_err, abs(float(row.sum()) - 1.0))

    for case in range(400):     # encoder attention rows
        T = int(rng.integers(2, 6))
        p, layers = encoder_params(V=10, d=8, n_layers=1, seed=case)
        vis = np.ones((T, T), dtype=bool)
        if T > 2:
            i, j = rng.choice(T, size=2, replace=False)
            vis[i, j] = vis[j, i] = False
        enc.encode(enc.embed(_seq(list(rng.integers(0, 10, size=T))), p), vis,
                   p, layers, 2)
    for case in range(300):     # GAT attention rows
        n = int(rng.integers(2, 6))
        adj = np.eye(n, dtype=bool)
        for _ in range(n):
            i, j = rng.integers(n, size=2)
            adj[i, j] = adj[j, i] = True
        sub = _subgraph(n, adjacency=adj)
        params = _gat_params(4, seed=1000 + case)
        gatmod.attention_coeffs(Tensor(rng.normal(size=(n, 4))), sub, 0, params)
    for rows in recorded:
        check_rows(rows)
    for case in range(300):     # option probability vectors
        n_opt = int(rng.integers(2, 4))
        d = 5
        hp = {"w1": Tensor(rng.normal(size=(d, 3))),
              "b1": Tensor(rng.normal(size=3)),
              "w2": Tensor(rng.normal(size=(3, 1))),
              "b2": Tensor(rng.normal(size=1))}
        probs = headmod.predict(
            Tensor(np.stack([rng.normal(size=d) * 3 for _ in range(n_opt)])),
            hp, n_opt)
        check_rows(probs.data)
    ok = max_err <= 1e-9 and prob_rows > 1000
    _criterion("attention rows and option probabilities sum to 1 within 1e-9",
               ok, f"{prob_rows} rows across 1000 randomized cases, "
                   f"max |sum-1| = {max_err:.1e}")


def test_uncertainty_weight_stationary_point():
    """Minimizing over sigma1 at fixed loss 0.49 lands at sigma1^2 = 0.49."""
    from scipy.optimize import minimize_scalar
    l1 = 0.49

    def f(sigma):
        lp = {"s1": Tensor(np.log(sigma ** 2)), "s2": Tensor(0.0)}
        return float(headmod.combined_loss(Tensor(l1), Tensor(1.0), lp).data)

    res = minimize_scalar(f, bounds=(0.05, 5.0), method="bounded",
                          options={"xatol": 1e-8})
    sigma_sq = res.x ** 2
    deriv_ok = True
    for sigma in (0.3, 0.7, 1.4):
        fd = (f(sigma + 1e-6) - f(sigma - 1e-6)) / 2e-6
        analytic = -l1 / sigma ** 3 + 1.0 / sigma
        if not np.isclose(fd, analytic, rtol=1e-4):
            deriv_ok = False
    ok = abs(sigma_sq - 0.49) <= 1e-3 and deriv_ok
    _criterion("uncertainty-weight stationarity: argmin sigma1^2 = loss value",
               ok, f"sigma1^2 = {sigma_sq:.6f}, derivative matches "
                   "-l/sigma^3 + 1/sigma")


def test_sampling_matches_enumeration_oracle():
    """Empirical inclusion of weighted draws matches exact enumeration."""
    from kegat.kgstore import Edge
    weights = (2.0, 1.0, 1.0)
    edges = [Edge("x", "/r/IsA", f"n{i}", w) for i, w in enumerate(weights)]
    exact = inclusion_probabilities(weights, 2)
    rng = np.random.default_rng(123)
    counts = np.zeros(3)
    n_samples = 100_000
    for _ in range(n_samples):
        for e in gatmod.weighted_sample(edges, 2, rng):
            counts[int(e.tail[1:])] += 1
    empirical = counts / n_samples
    err = np.abs(empirical - exact).max()
    ok = err <= 0.01
    _criterion("sampling correctness vs enumeration oracle",
               ok, f"max deviation {err:.4f} over {n_samples} samples")


def test_gat_permutation_equivariance():
    """Relabeling nodes permutes states exactly; the pooled vector is stable."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(3, 7))
        adj = np.eye(n, dtype=bool)
        for _ in range(2 * n):
            i, j = rng.integers(n, size=2)
            adj[i, j] = adj[j, i] = True
        sub = _subgraph(n, adjacency=adj)
        params = _gat_params(4, layers=2, heads=2, seed=trial)
        init = rng.normal(size=(n, 4))
        h = gatmod.run_gat(init, sub, params)
        perm = rng.permutation(n)
        sub_p = _subgraph(n, adjacency=adj[np.ix_(perm, perm)])
        h_p = gatmod.run_gat(init[perm], sub_p, params)
        worst = max(worst, float(np.abs(h_p.data - h.data[perm]).max()))
        pooled = gatmod.pool_subgraph(h, [n], 4).data
        pooled_p = gatmod.pool_subgraph(h_p, [n], 4).data
        worst = max(worst, float(np.abs(pooled - pooled_p).max()))
    ok = worst <= 1e-12
    _criterion("graph attention permutation equivariance",
               ok, f"max discrepancy {worst:.1e} over 10 relabelings")


def test_analytic_loss_values():
    """Uniform-probability losses and the unit-sigma combined loss."""
    two = headmod.classification_loss(Tensor(np.array([[0.5, 0.5]])), [0]).data
    three = headmod.classification_loss(Tensor(np.full((1, 3), 1 / 3)),
                                        [1]).data
    lp = {"s1": Tensor(0.0), "s2": Tensor(0.0)}
    combined = headmod.combined_loss(Tensor(1.0), Tensor(1.0), lp).data
    ok = (abs(two - np.log(2)) <= 1e-9 and abs(three - np.log(3)) <= 1e-9
          and abs(combined - 1.0) <= 1e-12)
    _criterion("analytic loss values (ln 2, ln 3, unit-sigma combined = 1)",
               ok, f"|combined-1| = {abs(combined - 1.0):.1e}")


def test_training_is_deterministic(tmp_path):
    """Same config and seed give identical logs and byte-identical weights."""
    runner = CliRunner()
    bench = tmp_path / "bench"
    runner.invoke(cli_main, ["synth", "--seed", "3", "--out-dir", str(bench),
                             "--sizes", "8,4,4", "--n-concepts", "60",
                             "--n-edges", "120"], catch_exceptions=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dim": 16, "n_layers": 1, "n_heads": 2, "ffn_mult": 2, "max_len": 48,
        "max_positions": 64, "gat_layers": 1, "gat_heads": 1, "sample_k": 2,
        "node_dim": 8, "fuse_hidden": 8, "fuse_dim": 8, "gate_hidden": 4,
        "head_hidden": 4, "per_entity_limit": 1, "dropout": 0.1, "seed": 5,
        "epochs_phase1": 2, "epochs_phase2": 1}), encoding="utf-8")
    outputs = []
    for run in range(2):
        ckpt = tmp_path / f"run{run}.ckpt"
        result = runner.invoke(cli_main, [
            "train", "--subtask", "a", "--config", str(cfg),
            "--kb", str(bench / "kb.tsv"),
            "--vectors", str(bench / "concepts.vec"),
            "--train-data", str(bench / "train.jsonl"),
            "--dev-data", str(bench / "dev.jsonl"),
            "--output", str(ckpt)], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        outputs.append((ckpt.read_bytes(),
                        ckpt.with_suffix(".log.jsonl").read_bytes()))
    ok = outputs[0] == outputs[1]
    _criterion("training determinism: identical logs and byte-identical "
               "checkpoints", ok)


def test_injection_golden_case():
    """The sugar/coffee injection reproduces the checked-in golden file."""
    golden = json.loads(
        (Path(__file__).parent / "data" / "kemb_golden.json").read_text())
    graph = conftest.sugar_graph_cached()
    tokens = golden["trunk"]
    spans = extract_entities(tokens, graph)
    tree = build_tree(tokens, spans, graph, 2, default_templates())
    vocab = Vocab.build(golden["tokens"])
    seq = flatten(tree, vocab, 128)
    ok = ([vocab.token(t) for t in seq.tokens] == golden["tokens"]
          and list(seq.soft_pos) == golden["soft_pos"]
          and [int(m) for m in seq.trunk_mask] == golden["trunk_mask"]
          and (seq.visibility.astype(int) == np.array(golden["visibility"])).all())
    _criterion("knowledge-injection golden case (sugar/coffee)",
               ok, "tokens, soft positions, trunk mask, visibility")
