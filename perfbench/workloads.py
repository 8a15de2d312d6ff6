"""The kegat benchmark's workloads, run in-process on the library's public calls.

Each workload is a closed loop with one caller: the next operation starts
only after the previous one returns. An operation is one train step (one
batch: forward, backward and Adam) or one evaluated instance. A run
repeats the workload's unit of work until its time budget is spent, each
repeat on a fresh set-up from the synth seed (synth, KB, vectors, vocab,
model init and, for inference, the checkpoint load):

- train-a-full: one shortened desk schedule per repeat
  (4 phase-1 epochs at the desk's 1e-3, 1 phase-2 epoch at 2e-5, batch 2),
  on a fresh model, through `trainkit.two_phase_train`, then
  `trainkit.save_checkpoint`. The same calls `kegat train` makes.
- infer-b-cold: one pass of `harness.evaluate` over the subtask-b test split
  per repeat, on a fresh model loaded from the seeded checkpoint, so every
  instance misses the feature cache. The same calls `kegat eval` makes.

Every repeat runs the same operations in the same order, so a run reports
latency percentiles over operations of each operation's median across
repeats: the median takes out most of the machine's noise, and what is left
is the spread over inputs. With tracing on, a run alternates untraced and
traced (see `spans.py`) repeats; the median difference in mean time per
operation between neighbouring repeats is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from kegat import (autodiff, encoder, gat, harness, head, kemb, kgstore, linker,
                   trainkit)
from kegat import model as modelmod
from kegat.model import KegatModel, ModelConfig

from spans import Tracer, perf

MODEL_SEED = 7   # model init and training order, as in the desk schedule
DESK_LR = (0.001, 0.00002)
BATCH = 2


@dataclass(frozen=True)
class Workload:
    subtask: str
    train: bool       # two-phase training; otherwise cold evaluation
    why: str


WORKLOADS = {
    "train-a-full": Workload(
        "a", True,
        "full model training, where phase-1 freezing and the autodiff op "
        "count dominate a step"),
    "infer-b-cold": Workload(
        "b", False,
        "forward only over longer sequences and bigger subgraphs, every "
        "instance a feature-cache miss, so feature prep shows"),
}


@dataclass(frozen=True)
class Scale:
    train_sizes: tuple   # synth (train, dev, test) sizes, subtask a
    infer_sizes: tuple   # synth sizes, subtask b; one pass covers test
    epochs: tuple        # (phase 1, phase 2)


SCALES = {
    "full": Scale(train_sizes=(80, 40, 4), infer_sizes=(80, 40, 400),
                  epochs=(4, 1)),
    "tiny": Scale(train_sizes=(4, 4, 4), infer_sizes=(4, 4, 6),
                  epochs=(1, 1)),
}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "ops_per_s": "1/s",
}

# per-layer self time in ms per operation: span names, and the training
# phase the operation must be in (None: every operation and the work
# between operations, such as dev evaluation)
LAYER_TIMES = {
    "trainkit.compute_gradients_ms.p1": (("trainkit.compute_gradients",), 1),
    "trainkit.compute_gradients_ms.p2": (("trainkit.compute_gradients",), 2),
    "autodiff.backward_ms.p1": (("autodiff.backward",), 1),
    "autodiff.backward_ms.p2": (("autodiff.backward",), 2),
    "trainkit.adam_step_ms.p1": (("trainkit.adam_step",), 1),
    "trainkit.adam_step_ms.p2": (("trainkit.adam_step",), 2),
    "head.lm_loss_ms": (("head.lm_loss",), None),
    "head.predict_ms": (("head.predict",), None),
    "encoder.lm_logits_ms": (("encoder.lm_logits",), None),
    "encoder.embed_ms": (("encoder.embed",), None),
    "encoder.encode_ms": (("encoder.encode",), None),
    "gat.run_gat_ms": (("gat.run_gat",), None),
    "gat.fuse_refine_ms": (("gat.fuse", "gat.self_refine"), None),
    "linker.extract_entities_ms": (("linker.extract_entities",), None),
    "kemb.build_tree_ms": (("kemb.build_tree",), None),
    "kemb.flatten_ms": (("kemb.flatten",), None),
    "gat.build_subgraph_ms": (("gat.build_subgraph",), None),
    "gat.init_node_embeddings_ms": (("gat.init_node_embeddings",), None),
}

# per-layer self time in ms per set-up
SETUP_TIMES = {
    "harness.synth_benchmark_ms": "harness.synth_benchmark",
    "kgstore.load_graph_ms": "kgstore.load_graph",
    "harness.build_vocab_ms": "harness.build_vocab",
    "trainkit.load_checkpoint_ms": "trainkit.load_checkpoint",
}

PER_LAYER = {
    **{name: "ms" for name in LAYER_TIMES},
    **{name: "ms" for name in SETUP_TIMES},
    "model.predict_instance_ms": "ms",
    "trainkit.step_ms_p50.p1": "ms",
    "trainkit.step_ms_p50.p2": "ms",
    "autodiff.nodes_per_instance": "count",
    "model.feature_cache_hit_ratio": "ratio",
    "kemb.branches_kept_ratio": "ratio",
    "kemb.seq_len_p50": "count",
    "gat.subgraph_nodes_p50": "count",
    "gat.zero_vector_node_ratio": "ratio",
    "linker.link_rate": "ratio",
    "trace.overhead_ms_per_op": "ms",
}


# -- set-up -----------------------------------------------------------------

@dataclass
class Setup:
    model: KegatModel
    train: list
    dev: list
    test: list


def set_up(wl: Workload, scale: Scale, seed: int, out: Path) -> Setup:
    """Synth the inputs, then build the model from the generated files only.

    For inference the model is seeded, saved, and loaded back into a fresh
    model, as `kegat eval` loads a trained one.
    """
    sizes = scale.train_sizes if wl.train else scale.infer_sizes
    paths = harness.synth_benchmark(seed, out, sizes=sizes,
                                    subtask=wl.subtask).paths
    config = ModelConfig(seed=MODEL_SEED)
    graph = kgstore.load_graph(paths["kb"])
    table = gat.load_concept_table(paths["vectors"], config.node_dim, seed=0)
    train = harness.load_comve(paths["train"], wl.subtask)
    dev = harness.load_comve(paths["dev"], wl.subtask)
    templates = kemb.default_templates()
    vocab = harness.build_vocab(graph, templates, train + dev)
    model = KegatModel(config, vocab, graph, table, templates)
    if wl.train:
        return Setup(model, train, dev, [])
    checkpoint = out / "seeded.ckpt"
    trainkit.save_checkpoint(checkpoint, model.store)
    model = KegatModel(config, vocab, graph, table, templates)
    trainkit.load_checkpoint(checkpoint, model.store)
    return Setup(model, train, dev,
                 harness.load_comve(paths["test"], wl.subtask))


# -- operations ---------------------------------------------------------------

class OpClock:
    """Times operations from outside the library calls that run them.

    A train step starts at its batch's first `model.loss` call and ends when
    `adam_step` returns, so dev evaluation between epochs is not part of a
    step. An eval instance is one `model.predict_probs` call.
    """

    def __init__(self):
        self.phases: List[int] = []       # per operation, 0 for eval
        self.durations: List[float] = []  # per operation, seconds
        self.probs: List[np.ndarray] = []
        self.tracer: Optional[Tracer] = None
        self._start: Optional[float] = None
        self._phase = 0
        self._span = -1

    def _open(self, phase: int) -> None:
        self._phase = phase
        if self.tracer is not None:
            self._span = self.tracer.begin_op(phase)
        self._start = perf()

    def _close(self) -> None:
        self.durations.append(perf() - self._start)
        self.phases.append(self._phase)
        self._start = None
        if self.tracer is not None:
            self.tracer.end_op(self._span)

    def _counting(self, fn):
        tracer = self.tracer
        if tracer is None:
            return fn

        def counted(*args, **kwargs):
            before = tracer.tensors
            out = fn(*args, **kwargs)
            tracer.sample("autodiff.nodes", tracer.tensors - before)
            return out
        return counted

    @contextlib.contextmanager
    def training(self, model: KegatModel):
        store = model.store
        loss = self._counting(model.loss)
        adam = trainkit.adam_step

        def timed_loss(*args, **kwargs):
            if self._start is None:
                frozen = any(store.is_frozen(n) for n in store.names())
                self._open(1 if frozen else 2)
            return loss(*args, **kwargs)

        def timed_adam(*args, **kwargs):
            adam(*args, **kwargs)
            self._close()

        model.loss = timed_loss
        trainkit.adam_step = timed_adam
        try:
            yield
        finally:
            trainkit.adam_step = adam
            del model.loss
            if self._start is not None:   # a numeric abort ended the step
                self._start = None
                if self.tracer is not None:
                    self.tracer.end_op(self._span)

    @contextlib.contextmanager
    def evaluating(self, model: KegatModel):
        predict = self._counting(model.predict_probs)

        def timed_predict(instance):
            self._open(0)
            probs = predict(instance)
            self._close()
            self.probs.append(probs)
            return probs

        model.predict_probs = timed_predict
        try:
            yield
        finally:
            del model.predict_probs


@dataclass
class Repeat:
    wall: float          # seconds inside the library's loop call
    durations: List[float]   # seconds per completed operation, in order
    attempted: int       # operations the repeat set out to run
    failed: int          # steps not run after an abort, bad predictions
    digest: str          # checkpoint or prediction sha256
    log: str = ""        # dev log, train workloads
    problems: List[str] = field(default_factory=list)
    best_dev_acc: float = 0.0


def train_repeat(st: Setup, scale: Scale, clock: OpClock, path: Path) -> Repeat:
    schedule = trainkit.Schedule.from_config({
        "epochs_phase1": scale.epochs[0], "epochs_phase2": scale.epochs[1],
        "lr_phase1": DESK_LR[0], "lr_phase2": DESK_LR[1], "batch_size": BATCH})
    model = st.model
    first = len(clock.durations)
    with clock.training(model):
        start = perf()
        result = trainkit.two_phase_train(model, st.train, st.dev, schedule,
                                          MODEL_SEED)
        wall = perf() - start
    trainkit.save_checkpoint(path, model.store,
                             rng=np.random.default_rng(MODEL_SEED),
                             best_metric=result.best_metric)
    durations = clock.durations[first:]
    planned = sum(scale.epochs) * math.ceil(len(st.train) / BATCH)
    problems = []
    if result.aborted:
        problems.append("training aborted on a numeric failure")
    losses = [e["train_loss"] for e in result.log if "train_loss" in e]
    if not all(math.isfinite(x) for x in losses):
        problems.append("non-finite train_loss in the dev log")
    return Repeat(wall=wall, durations=durations, attempted=planned,
                  failed=planned - len(durations),
                  digest=hashlib.sha256(path.read_bytes()).hexdigest(),
                  log=json.dumps(result.log, sort_keys=True),
                  problems=problems, best_dev_acc=result.best_metric)


def eval_repeat(st: Setup, scale: Scale, clock: OpClock, path: Path) -> Repeat:
    model = st.model
    first, first_op = len(clock.probs), len(clock.durations)
    with clock.evaluating(model):
        start = perf()
        metrics = harness.evaluate(model, st.test)
        wall = perf() - start
    probs = clock.probs[first:]
    problems = []
    if not len(metrics.predictions) == len(probs) == len(st.test):
        problems.append(f"{len(metrics.predictions)} predictions for "
                        f"{len(st.test)} instances")
    bad = sum(1 for p, inst in zip(probs, st.test)
              if not (p.shape == (inst.option_count,)
                      and np.isfinite(p).all()
                      and abs(float(p.sum()) - 1.0) <= 1e-9))
    if bad:
        problems.append(f"{bad} probability vectors not finite or not summing "
                        f"to 1 within 1e-9")
    digest = hashlib.sha256(b"".join(np.ascontiguousarray(p, dtype="<f8")
                                     .tobytes() for p in probs)).hexdigest()
    return Repeat(wall=wall, durations=clock.durations[first_op:],
                  attempted=len(probs), failed=bad,
                  digest=digest, problems=problems)


# -- tracing ------------------------------------------------------------------

def _observe_links(args, kwargs, spans, t: Tracer) -> None:
    t.add("linker.tokens", len(args[0]))
    t.add("linker.linked", sum(s.end - s.start for s in spans))


def kept_branches(seq) -> int:
    """Branches in a flattened sequence: each starts one past its anchor."""
    kept = 0
    anchor = None
    for pos, in_trunk in zip(seq.soft_pos, seq.trunk_mask):
        if in_trunk:
            anchor = pos
        elif pos == anchor + 1:
            kept += 1
    return kept


def _observe_flatten(args, kwargs, seq, t: Tracer) -> None:
    t.add("kemb.built", len(args[0].branches))
    t.add("kemb.kept", kept_branches(seq))
    t.sample("kemb.seq_len", len(seq))


def _observe_subgraph(args, kwargs, sub, t: Tracer) -> None:
    t.sample("gat.nodes", len(sub))


def _observe_node_init(args, kwargs, init, t: Tracer) -> None:
    t.add("gat.rows", init.shape[0])
    t.add("gat.zero_rows", int((~init.any(axis=1)).sum()))


def install_spans(t: Tracer) -> None:
    """Patch each traced function where its callers look it up."""
    t.count_constructions(autodiff.Tensor)
    for owner in (harness, kgstore):   # harness imports load_graph by name
        t.patch_span(owner, "load_graph", "kgstore.load_graph")
    for name in ("synth_benchmark", "build_vocab"):
        t.patch_span(harness, name, f"harness.{name}")
    for owner in (linker, modelmod, gat):   # imported by name in both
        t.patch_span(owner, "extract_entities", "linker.extract_entities",
                     _observe_links)
    t.patch_span(kemb, "build_tree", "kemb.build_tree")
    t.patch_span(kemb, "flatten", "kemb.flatten", _observe_flatten)
    t.patch_span(gat, "build_subgraph", "gat.build_subgraph", _observe_subgraph)
    t.patch_span(gat, "init_node_embeddings", "gat.init_node_embeddings",
                 _observe_node_init)
    for name in ("run_gat", "fuse", "self_refine"):
        t.patch_span(gat, name, f"gat.{name}")
    for name in ("embed", "encode", "lm_logits"):
        t.patch_span(encoder, name, f"encoder.{name}")
    for name in ("predict", "lm_loss"):
        t.patch_span(head, name, f"head.{name}")
    t.patch_span(autodiff.Tensor, "backward", "autodiff.backward")
    for name in ("compute_gradients", "adam_step", "load_checkpoint"):
        t.patch_span(trainkit, name, f"trainkit.{name}")
    for name in ("forward", "predict_instance"):
        t.patch_span(KegatModel, name, f"model.{name}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(ops: Tracer, setups: Tracer, n_setups: int,
                  untraced: OpClock, repeats: List[Repeat]) -> Dict[str, float]:
    selfs = ops.self_times()
    phases = ops.op_phases
    out: Dict[str, float] = {}
    for metric, (names, phase) in LAYER_TIMES.items():
        total = sum(selfs[i] for i, s in enumerate(ops.spans)
                    if s.name in names
                    and (phase is None or (s.op >= 0 and phases[s.op] == phase)))
        n = len(phases) if phase is None else phases.count(phase)
        out[metric] = 1000.0 * _ratio(total, n)
    setup_selfs = setups.self_times()
    for metric, name in SETUP_TIMES.items():
        total = sum(setup_selfs[i] for i, s in enumerate(setups.spans)
                    if s.name == name)
        out[metric] = 1000.0 * total / n_setups
    # inclusive, not self, time: dev evaluation cost per instance
    predicts = [s.end - s.start for s in ops.spans
                if s.name == "model.predict_instance"]
    out["model.predict_instance_ms"] = 1000.0 * _ratio(sum(predicts),
                                                        len(predicts))
    for phase in (1, 2):
        out[f"trainkit.step_ms_p50.p{phase}"] = 1000.0 * _median(
            [d for d, p in zip(untraced.durations, untraced.phases)
             if p == phase])
    out["autodiff.nodes_per_instance"] = _median(
        ops.samples.get("autodiff.nodes", []))
    forwards = {i for i, s in enumerate(ops.spans) if s.name == "model.forward"}
    misses = {s.parent for s in ops.spans
              if s.name == "kemb.flatten" and s.parent in forwards}
    out["model.feature_cache_hit_ratio"] = 1.0 - _ratio(len(misses),
                                                        len(forwards))
    c = ops.counts
    out["kemb.branches_kept_ratio"] = _ratio(c.get("kemb.kept", 0),
                                             c.get("kemb.built", 0))
    out["kemb.seq_len_p50"] = _median(ops.samples.get("kemb.seq_len", []))
    out["gat.subgraph_nodes_p50"] = _median(ops.samples.get("gat.nodes", []))
    out["gat.zero_vector_node_ratio"] = _ratio(c.get("gat.zero_rows", 0),
                                               c.get("gat.rows", 0))
    out["linker.link_rate"] = _ratio(c.get("linker.linked", 0),
                                     c.get("linker.tokens", 0))
    # repeats alternate untraced, traced: compare each traced repeat with
    # the untraced one just before it, so slow drift of the machine cancels
    out["trace.overhead_ms_per_op"] = 1000.0 * statistics.median(
        statistics.fmean(t.durations) - statistics.fmean(u.durations)
        for u, t in zip(repeats[0::2], repeats[1::2]))
    return out


def op_latencies_ms(repeats: List[Repeat]) -> np.ndarray:
    """Each operation's median over the repeats, in ms.

    Every repeat runs the same operations in the same order, so the median
    over repeats takes out most machine noise and leaves the spread over
    inputs. Repeats of unequal length (after an abort) are pooled instead.
    """
    if len({len(r.durations) for r in repeats}) == 1:
        return 1000.0 * np.median([r.durations for r in repeats], axis=0)
    return 1000.0 * np.concatenate([r.durations for r in repeats])


# -- a run --------------------------------------------------------------------

def _repeat_until(fn, start: float, budget: float, minimum: int) -> None:
    """Call fn until another call would likely end after `budget` seconds."""
    count = 0
    while True:
        t = perf()
        fn()
        count += 1
        last = perf() - t
        if count >= minimum and perf() - start + last > budget:
            return


def environment() -> dict:
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(), "cpu_model": cpu_model,
            "thread_env": {k: v for k, v in sorted(os.environ.items())
                           if k.endswith("_THREADS")},
            "platform": platform.platform()}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        scale: str = "full", spans_dir: Optional[Path] = None):
    """Run one workload; return (result, report).

    `result` holds exactly what the benchmark's last output line carries;
    `report` holds the environment, sample counts and output checks.
    """
    wl = WORKLOADS[workload]
    sc = SCALES[scale]
    repeat_fn = train_repeat if wl.train else eval_repeat
    setup_times: List[float] = []
    repeats: List[Repeat] = []
    setup_tracer, op_tracer = Tracer(), Tracer()
    untraced, traced = OpClock(), OpClock()
    traced.tracer = op_tracer

    def one(clock: OpClock):
        # a fresh set-up per repeat spreads the set-up samples over the run
        k = len(repeats)
        with (setup_tracer.patched(install_spans) if trace
              else contextlib.nullcontext()):
            t = perf()
            st = set_up(wl, sc, seed, workdir / f"setup{k}")
            setup_times.append(perf() - t)
        with (op_tracer.patched(install_spans) if clock is traced
              else contextlib.nullcontext()):
            repeats.append(repeat_fn(st, sc, clock, workdir / f"out{k}"))

    start = perf()
    if trace:   # alternate, so that machine drift hits both sides alike
        _repeat_until(lambda: one(traced if len(repeats) % 2 else untraced),
                      start, seconds, 2)
    else:
        _repeat_until(lambda: one(untraced), start, seconds, 3)
    measured = perf() - start

    problems = [p for r in repeats for p in r.problems]
    if len({r.digest for r in repeats}) != 1:
        problems.append("output digest differs between repeats")
    if len({r.log for r in repeats}) != 1:
        problems.append("dev log differs between repeats")
    attempted = sum(r.attempted for r in repeats)
    failed = sum(r.failed for r in repeats)

    if trace:
        metrics = layer_metrics(op_tracer, setup_tracer, len(setup_times),
                                untraced, repeats)
        units = PER_LAYER
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            stem = f"spans-{workload}-seed{seed}"
            setup_tracer.write(spans_dir / f"{stem}-setup.jsonl")
            op_tracer.write(spans_dir / f"{stem}-ops.jsonl")
    else:
        ops_ms = op_latencies_ms(repeats)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_ms_p50": float(np.percentile(ops_ms, 50)),
            "op_ms_p95": float(np.percentile(ops_ms, 95)),
            "ops_per_s": statistics.median(len(r.durations) / r.wall
                                           for r in repeats),
        }
        units = END_TO_END
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                          for k in units}}
    report = {
        "workload": workload, "why": wl.why, "scale": scale,
        "seeds": {"synth": seed, "model": MODEL_SEED, "train": MODEL_SEED},
        "seconds": seconds, "measured_s": measured, "trace": trace,
        "environment": environment(),
        "repeats": len(repeats),
        "samples": {"setup": len(setup_times),
                    "ops_per_repeat": len(repeats[0].durations),
                    "untraced_ops": {f"phase{p}" if p else "eval":
                                     untraced.phases.count(p) for p in (1, 2, 0)
                                     if p in untraced.phases},
                    "traced_ops": len(traced.durations)},
        "repeat_op_ms_p50": [1000.0 * statistics.median(r.durations)
                             for r in repeats if r.durations],
        "checks": {"problems": problems,
                   ("checkpoint_sha256" if wl.train else "predictions_sha256"):
                       repeats[0].digest},
    }
    if wl.train:
        report["dev_acc"] = repeats[0].best_dev_acc
        report["checks"]["dev_log_sha256"] = hashlib.sha256(
            repeats[0].log.encode()).hexdigest()
    return result, report
