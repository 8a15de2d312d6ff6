"""Parameter store, Adam, two-phase training, and binary checkpoints.

Everything is float64 and seeded, so a training run is bitwise reproducible
and checkpoint files round-trip byte-exactly. The store keeps all values in
one flat vector and all gradients in another; zeroing, the gradient
check and Adam run over contiguous runs of trainable parameters, and Adam
walks each run in cache-sized blocks.

A checkpoint is `MAGIC`, the version byte, a little-endian u64 header
length, a sorted-keys UTF-8 JSON header, and then the store's flat value
vector as little-endian float64. The header's "params" lists each
parameter's [name, shape] in the vector's order; "best_metric", "rng_state"
and "model" (the model description) are optional.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .autodiff import Params, Tensor
from .errors import NumericError
from .kgstore import atomic_write

MAGIC = b"KGCK"
FORMAT_VERSION = 3


class ParamStore:
    """Named float64 tensors with gradient buffers and freeze flags.

    A parameter is frozen exactly when its ``requires_grad`` is off, so the
    autodiff ops treat it as a constant and record no graph back to it.

    The first whole-store operation packs every value into one flat vector
    and every gradient into a second, in name order; each parameter's
    ``data`` and ``grad`` become reshaped views of them, and the layout is
    fixed from then on: an `add` raises ValueError. The whole-store
    operations run over `runs`, the maximal slices of trainable parameters.
    Sorted names keep ``head/*`` together, so phase 1 trains one run, and
    phase 2 trains one run over everything.
    """

    def __init__(self):
        self._params: Dict[str, Tensor] = {}
        self._values: Optional[np.ndarray] = None   # flat vectors, once packed
        self._grads: Optional[np.ndarray] = None
        self._spans: Dict[str, slice] = {}
        self._runs: Optional[List[slice]] = None    # cache of `runs()`

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if self._values is not None:
            raise ValueError(f"cannot add {name!r}: the store is packed")
        t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def under(self, prefix: str) -> Params:
        """The parameters named `prefix` plus a name without "/", keyed by
        that name, in the order they were added."""
        n = len(prefix)
        return {name[n:]: t for name, t in self._params.items()
                if name.startswith(prefix) and "/" not in name[n:]}

    def flat(self) -> Tuple[np.ndarray, np.ndarray]:
        """The flat value and gradient vectors; the first call packs them."""
        if self._values is None:
            total = sum(p.data.size for p in self._params.values())
            values, grads = np.empty(total), np.empty(total)
            start = 0
            for name, p in self.items():
                span = slice(start, start + p.data.size)
                values[span] = p.data.ravel()
                grads[span] = p.grad.ravel()
                p.data = values[span].reshape(p.data.shape)
                p.grad = grads[span].reshape(p.data.shape)
                self._spans[name] = span
                start = span.stop
            self._values, self._grads = values, grads
        return self._values, self._grads

    def runs(self) -> List[slice]:
        """The maximal slices of the flat vectors that hold only trainable
        parameters, in order."""
        if self._runs is None:
            self.flat()
            runs: List[slice] = []
            for name, p in self.items():
                span = self._spans[name]
                if not p.requires_grad:
                    continue
                if runs and runs[-1].stop == span.start:
                    runs[-1] = slice(runs[-1].start, span.stop)
                else:
                    runs.append(span)
            self._runs = runs
        return self._runs

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> List[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def zero_grad(self) -> None:
        """Zero the trainable parameters' gradients; a frozen parameter's
        gradient was zeroed when it was frozen and nothing writes it since."""
        grads = self.flat()[1]
        for run in self.runs():
            grads[run] = 0.0

    def set_frozen(self, name: str, frozen: bool) -> None:
        p = self._params[name]
        if frozen:
            p.zero_grad()
        p.requires_grad = not frozen
        self._runs = None

    def freeze_all_except(self, keep: Iterable[str]) -> None:
        keep = set(keep)
        for name in self._params:
            self.set_frozen(name, name not in keep)

    def unfreeze_all(self) -> None:
        for p in self._params.values():
            p.requires_grad = True
        self._runs = None

    def is_frozen(self, name: str) -> bool:
        return not self._params[name].requires_grad

    def snapshot(self) -> np.ndarray:
        """A copy of the flat value vector."""
        return self.flat()[0].copy()

    def restore(self, snap: np.ndarray) -> None:
        self.flat()[0][...] = snap


def compute_gradients(loss: Tensor, store: ParamStore) -> None:
    """Populate gradients for all unfrozen parameters; frozen ones stay zero.

    Frozen parameters are constants in the loss graph, so ``backward`` never
    reaches them, and their buffers, zeroed when they were frozen, stay zero.
    Each run's squared norm must be finite, the rule `load_concept_table`
    applies to vectors: that catches NaN and inf, and a gradient whose square
    would overflow Adam's second moment. Only when a run fails does the check
    add up the trainable parameters' squared norms in name order, to name
    the first parameter at which the sum stops being finite.
    """
    if not np.isfinite(loss.data):
        raise NumericError("non-finite loss")
    store.zero_grad()
    # a node's backward may overflow too: the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        loss.backward()
        grads = store.flat()[1]
        if all(np.isfinite(grads[run] @ grads[run]) for run in store.runs()):
            return
        total = 0.0
        for name, p in store.items():
            if p.requires_grad:
                total += p.grad.ravel() @ p.grad.ravel()
                if not np.isfinite(total):
                    break
    raise NumericError(f"non-finite gradient norm at parameter {name!r}")


# adam_step walks a run in blocks of this many floats: the block's values,
# gradient, two moments and two scratch arrays, about 1.5 MB together, stay in
# a 2 MB L2 cache across the step's 14 passes
ADAM_BLOCK = 32768


@dataclass
class OptimizerState:
    lr: float
    eps: float = 1e-6
    step: int = 0
    # flat moments laid out as the store's flat vectors, made on the first step
    m: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    v: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    # adam_step's work space, two blocks
    scratch: np.ndarray = field(default_factory=lambda: np.empty(0),
                                repr=False, compare=False)


def adam_step(store: ParamStore, opt: OptimizerState) -> None:
    """Standard Adam with bias correction; frozen parameters are untouched.

    Each parameter's update is ``lr * (m / bc1) / (sqrt(v / bc2) + eps)``
    with ``m += (1 - b1) * g`` and ``v += ((1 - b2) * g) * g`` after the
    decays. The step runs over the store's runs, `ADAM_BLOCK` floats at a
    time, with the intermediates in two block views of `opt.scratch`; each
    expression keeps its association, so the bytes are those of the plain
    expressions.
    """
    values, grads = store.flat()
    if opt.m is None:
        opt.m, opt.v = np.zeros_like(values), np.zeros_like(values)
    block = ADAM_BLOCK
    if opt.scratch.size != 2 * block:
        opt.scratch = np.empty(2 * block)
    opt.step += 1
    b1, b2 = 0.9, 0.999   # decay rates of the first and second moments
    bc1 = 1.0 - b1 ** opt.step
    bc2 = 1.0 - b2 ** opt.step
    for run in store.runs():
        for start in range(run.start, run.stop, block):
            span = slice(start, min(start + block, run.stop))
            g, m, v = grads[span], opt.m[span], opt.v[span]
            n = g.size
            t1, t2 = opt.scratch[:n], opt.scratch[block:block + n]
            m *= b1
            np.multiply(g, 1.0 - b1, out=t1)
            m += t1
            v *= b2
            np.multiply(g, 1.0 - b2, out=t1)
            t1 *= g
            v += t1
            np.divide(m, bc1, out=t1)
            t1 *= opt.lr
            np.divide(v, bc2, out=t2)
            np.sqrt(t2, out=t2)
            t2 += opt.eps
            t1 /= t2
            values[span] -= t1


# -- checkpoint serialization ------------------------------------------------

_PREFIX = len(MAGIC) + 1 + 8   # magic, version byte, header length


def save_checkpoint(path, store: ParamStore,
                    rng: Optional[np.random.Generator] = None,
                    best_metric: Optional[float] = None,
                    model_meta: Optional[dict] = None) -> None:
    """Write the parameters and any rng state, best metric and JSON model
    description; a failed write leaves the previous file at `path` intact."""
    header = {"params": [[name, list(p.data.shape)] for name, p in store.items()]}
    if rng is not None:
        header["rng_state"] = rng.bit_generator.state
    if best_metric is not None:
        header["best_metric"] = float(best_metric)
    if model_meta is not None:
        header["model"] = model_meta
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(MAGIC + bytes([FORMAT_VERSION]) + len(blob).to_bytes(8, "little"))
        fh.write(blob)
        # the vector's own buffer: a `tobytes` copy raised a later cold
        # evaluation's peak RSS by 1.5 MB, the size of the copy
        fh.write(store.flat()[0].astype("<f8", copy=False).data)


def _read_header(fh, path) -> Tuple[dict, int]:
    """The JSON header of the checkpoint open in `fh`, and the length of the
    body after it; a malformed header raises NumericError."""
    size = os.fstat(fh.fileno()).st_size
    prefix = fh.read(_PREFIX)
    if prefix[:len(MAGIC)] != MAGIC:
        raise NumericError(f"{path}: bad checkpoint magic")
    if prefix[len(MAGIC):len(MAGIC) + 1] != bytes([FORMAT_VERSION]):
        raise NumericError(f"{path}: unsupported checkpoint version")
    length = int.from_bytes(prefix[len(MAGIC) + 1:], "little")
    if len(prefix) < _PREFIX or length > size - _PREFIX:   # never read past the end
        raise NumericError(f"{path}: checkpoint truncated")
    try:
        header = json.loads(fh.read(length).decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # ValueError: JSON or UTF-8
        raise NumericError(f"{path}: malformed checkpoint header ({exc})") from None
    if not isinstance(header, dict):
        raise NumericError(f"{path}: checkpoint header is not a JSON object")
    return header, size - _PREFIX - length


def read_model_header(path) -> Tuple[object, object]:
    """The JSON model description `save_checkpoint` stored in `path`, and
    the header's parameter list as stored, unchecked."""
    with open(path, "rb") as fh:
        header, _ = _read_header(fh, path)
    if "model" not in header:
        raise NumericError(f"{path}: no model description")
    return header["model"], header.get("params")


def load_checkpoint(path, store: ParamStore) -> dict:
    """Restore parameters in place; return any stored rng state and best
    metric. The checkpoint must list the store's names and shapes in name
    order, equal as JSON text: a 2.0 or true dimension is not a 2 or a 1."""
    own = [json.dumps([name, list(p.data.shape)]) for name, p in store.items()]
    with open(path, "rb") as fh:
        header, body = _read_header(fh, path)
        params = header.get("params")
        listed = [json.dumps(entry) for entry in
                  (params if isinstance(params, list) else [params])]
        for got, want in zip(listed + ["nothing"], own + ["nothing"]):
            if got != want:   # an extra, missing or mis-shaped parameter
                raise NumericError(f"{path}: the checkpoint lists {got} where "
                                   f"the model has {want}")
        need = 8 * sum(p.data.size for _, p in store.items())
        if body != need:
            state = "truncated" if body < need else "too long"
            raise NumericError(f"{path}: checkpoint {state}: its body holds "
                               f"{body} bytes, its parameters need {need}")
        for _, p in store.items():
            p.data[...] = np.frombuffer(fh.read(8 * p.data.size),
                                        dtype="<f8").reshape(p.data.shape)
    meta = {}
    if "rng_state" in header:
        meta["rng_state"] = header["rng_state"]
    if "best_metric" in header:
        best = header["best_metric"]
        if type(best) not in (int, float):
            raise NumericError(f"{path}: malformed best metric {best!r}")
        meta["best_metric"] = float(best)
    return meta


# -- two-phase schedule ------------------------------------------------------

def check_fields(obj, may_be_zero: Iterable[str] = ()) -> None:
    """Check each field of dataclass `obj`: its value has its default's type
    (a bool is only a bool, an int is also a float), an int is >= 1 (>= 0 if
    named in `may_be_zero`) and a float is finite. Messages name the field."""
    for f in fields(obj):
        value, kind = getattr(obj, f.name), type(f.default)
        kinds = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kinds):
            raise TypeError(f"{f.name} must be {kind.__name__}, got {value!r}")
        low = 0 if f.name in may_be_zero else 1
        if kind is int and value < low:
            raise ValueError(f"{f.name} must be >= {low}, got {value!r}")
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Schedule:
    """The two-phase schedule; its field names are the training-config keys."""
    lr_phase1: float = 0.001
    epochs_phase1: int = 4
    lr_phase2: float = 0.000005
    epochs_phase2: int = 8
    batch_size: int = 2
    adam_eps: float = 1e-6

    def __post_init__(self):
        check_fields(self, ("epochs_phase1", "epochs_phase2"))
        for name in ("lr_phase1", "lr_phase2", "adam_eps"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")

    @classmethod
    def from_config(cls, cfg: dict) -> "Schedule":
        """The schedule `cfg` sets; a key it lacks keeps the default."""
        return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg})


@dataclass
class TrainResult:
    best_metric: float
    log: List[dict]
    aborted: bool = False


def _accuracy(model, instances) -> float:
    correct = sum(1 for inst in instances
                  if model.predict_instance(inst) == inst.label)
    return correct / len(instances)


def two_phase_train(model, train_data: Sequence, dev_data: Sequence,
                    schedule: Schedule, seed: int) -> TrainResult:
    """Head-only training at a high rate, then full fine-tuning at a low rate.

    The best dev-accuracy snapshot of phase 1 is restored before phase 2, and
    the best snapshot overall at the end. Each step is one `model.loss`
    call on the whole batch, which returns the batch-mean loss. Phase 1
    runs inside `model.frozen_trunk()`, which freezes all but the head and
    unfreezes every parameter on exit. The whole run keeps each instance's
    features (`model.keeping_features()`), so each train and dev instance is
    prepared once. Divergence aborts with the last good
    snapshot restored and every parameter unfrozen. When no dev evaluation
    ran, because neither phase has an epoch or an abort came first, the best
    metric is the restored model's dev accuracy. Deterministic given the
    seed.
    """
    if not train_data or not dev_data:
        raise ValueError("train and dev splits must be non-empty")
    store = model.store
    log: List[dict] = []
    best_metric = -1.0
    best_snapshot = store.snapshot()
    aborted = False

    phases = ((1, schedule.lr_phase1, schedule.epochs_phase1),
              (2, schedule.lr_phase2, schedule.epochs_phase2))
    with model.keeping_features():
        for phase_idx, lr, epochs in phases:
            if aborted:
                break
            if phase_idx == 2:
                store.restore(best_snapshot)
            with (model.frozen_trunk() if phase_idx == 1
                  else contextlib.nullcontext()):
                opt = OptimizerState(lr=lr, eps=schedule.adam_eps)
                for epoch in range(1, epochs + 1):
                    order_rng = np.random.default_rng(
                        (seed * 1_000_003 + phase_idx * 1009 + epoch) % (2 ** 63))
                    order = order_rng.permutation(len(train_data))
                    epoch_loss = 0.0
                    step = 0
                    # the finite-loss and gradient checks report an overflow
                    try:
                        with np.errstate(over="ignore", invalid="ignore"):
                            for start in range(0, len(order), schedule.batch_size):
                                stop = start + schedule.batch_size
                                batch = [train_data[i] for i in order[start:stop]]
                                drop_rng = np.random.default_rng(
                                    (seed * 7_368_787 + phase_idx * 65537
                                     + epoch * 8191 + step) % (2 ** 63))
                                total = model.loss(batch, dropout_rng=drop_rng)
                                compute_gradients(total, store)
                                adam_step(store, opt)
                                epoch_loss += float(total.data) * len(batch)
                                step += 1
                    except NumericError:
                        log.append({"phase": phase_idx, "epoch": epoch,
                                    "event": "aborted: numeric failure"})
                        aborted = True
                        break
                    dev_acc = _accuracy(model, dev_data)
                    log.append({"phase": phase_idx, "epoch": epoch,
                                "train_loss": round(epoch_loss / len(train_data),
                                                    12),
                                "dev_acc": round(dev_acc, 12)})
                    if dev_acc > best_metric:
                        best_metric = dev_acc
                        best_snapshot = store.snapshot()
        store.restore(best_snapshot)
        # no dev evaluation ran: the restored model is the best
        if best_metric < 0.0:
            best_metric = _accuracy(model, dev_data)
    return TrainResult(best_metric, log, aborted)
