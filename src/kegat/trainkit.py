"""Parameter store, Adam, two-phase training, and binary checkpoints.

Everything is float64 and seeded, so a training run is bitwise reproducible
and checkpoint files round-trip byte-exactly.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .autodiff import Tensor
from .errors import GradientError, NumericError

MAGIC = b"KGCK"   # distinct from the knowledge-graph binary's b"KGAT"
FORMAT_VERSION = 2

_DTYPES = {0: np.float64, 1: np.int64, 2: np.uint8}
_DTYPE_TAGS = {np.dtype(np.float64): 0, np.dtype(np.int64): 1,
               np.dtype(np.uint8): 2}


class ParamStore:
    """Named float64 tensors with gradient buffers and freeze flags.

    A parameter is frozen exactly when its ``requires_grad`` is off, so the
    autodiff ops treat it as a constant and record no graph back to it.
    """

    def __init__(self):
        self._params: Dict[str, Tensor] = {}

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True,
                   name=name)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> List[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def zero_grad(self) -> None:
        """Zero the trainable parameters' gradients; a frozen parameter's
        gradient was zeroed when it was frozen and nothing writes it since."""
        for p in self._params.values():
            if p.requires_grad:
                p.zero_grad()

    def set_frozen(self, name: str, frozen: bool) -> None:
        p = self._params[name]
        if frozen:
            p.zero_grad()
        p.requires_grad = not frozen

    def freeze_all_except(self, keep: Iterable[str]) -> None:
        keep = set(keep)
        for name in self._params:
            self.set_frozen(name, name not in keep)

    def unfreeze_all(self) -> None:
        for p in self._params.values():
            p.requires_grad = True

    def is_frozen(self, name: str) -> bool:
        return not self._params[name].requires_grad

    def snapshot(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.items()}

    def restore(self, snap: Dict[str, np.ndarray]) -> None:
        for name, values in snap.items():
            self._params[name].data[...] = values


def compute_gradients(loss: Tensor, store: ParamStore) -> None:
    """Populate gradients for all unfrozen parameters; frozen ones stay zero.

    Frozen parameters are constants in the loss graph, so ``backward`` never
    reaches them, and their buffers, zeroed when they were frozen, stay zero.
    """
    if not np.isfinite(loss.data):
        raise NumericError("non-finite loss")
    store.zero_grad()
    loss.backward()
    for name, p in store.items():
        if p.requires_grad and not np.isfinite(p.grad).all():
            raise GradientError(f"non-finite gradient in parameter {name!r}")


@dataclass
class OptimizerState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-6
    step: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(store: ParamStore, opt: OptimizerState) -> None:
    """Standard Adam with bias correction; frozen parameters are untouched."""
    opt.step += 1
    b1, b2 = opt.beta1, opt.beta2
    bc1 = 1.0 - b1 ** opt.step
    bc2 = 1.0 - b2 ** opt.step
    for name, p in store.items():
        if not p.requires_grad:
            continue
        g = p.grad
        m, v = opt.m.get(name), opt.v.get(name)
        if m is None:
            m = opt.m[name] = np.zeros_like(p.data)
        if v is None:
            v = opt.v[name] = np.zeros_like(p.data)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)


# -- checkpoint serialization ------------------------------------------------

def _write_record(fh, name: str, arr: np.ndarray) -> None:
    # note: ascontiguousarray promotes 0-d to 1-d, so restore the shape
    data = np.ascontiguousarray(arr).reshape(np.shape(arr))
    tag = _DTYPE_TAGS[data.dtype]
    nb = name.encode("utf-8")
    fh.write(struct.pack("<H", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<BB", tag, data.ndim))
    for dim in data.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(data.astype(data.dtype.newbyteorder("<")).tobytes())


def _read_records(path) -> Dict[str, np.ndarray]:
    """The records of checkpoint `path`; a malformed file raises NumericError."""
    out: Dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise NumericError(f"{path}: bad checkpoint magic")
        if fh.read(1) != bytes([FORMAT_VERSION]):
            raise NumericError(f"{path}: unsupported checkpoint version")
        left = os.fstat(fh.fileno()).st_size - 5

        def take(n: int) -> bytes:
            nonlocal left
            data = fh.read(n) if n <= left else b""   # never allocate past the end
            if len(data) != n:
                raise NumericError(f"{path}: checkpoint truncated")
            left -= n
            return data

        while left > 0:
            (nlen,) = struct.unpack("<H", take(2))
            try:
                name = take(nlen).decode("utf-8")
            except UnicodeDecodeError:
                raise NumericError(f"{path}: record name is not UTF-8") from None
            tag, rank = struct.unpack("<BB", take(2))
            if tag not in _DTYPES:
                raise NumericError(f"{path}: unknown dtype tag {tag} in {name!r}")
            dims = struct.unpack(f"<{rank}Q", take(8 * rank))
            dtype = np.dtype(_DTYPES[tag]).newbyteorder("<")
            arr = np.frombuffer(take(math.prod(dims) * dtype.itemsize), dtype=dtype)
            try:
                out[name] = arr.astype(_DTYPES[tag]).reshape(dims)
            except ValueError:   # more dimensions, or a larger one, than numpy allows
                raise NumericError(f"{path}: bad shape {dims} for {name!r}") from None
    return out


def _json_record(path, records: Dict[str, np.ndarray], name: str):
    if name not in records:
        raise NumericError(f"{path}: no {name!r} record")
    try:
        return json.loads(records[name].tobytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # ValueError: JSON or UTF-8
        raise NumericError(f"{path}: malformed {name!r} record ({exc})") from None


def save_checkpoint(path, store: ParamStore,
                    rng: Optional[np.random.Generator] = None,
                    best_metric: Optional[float] = None,
                    model_meta: Optional[dict] = None) -> None:
    """Write the parameters and any rng state, best metric and JSON model
    description; a failed write leaves the previous file at `path` intact."""
    records = {f"p/{name}": p.data for name, p in store.items()}
    if rng is not None:
        blob = json.dumps(rng.bit_generator.state, sort_keys=True).encode("utf-8")
        records["rng/state"] = np.frombuffer(blob, dtype=np.uint8)
    if best_metric is not None:
        records["meta/best_metric"] = np.array([best_metric])
    if model_meta is not None:
        blob = json.dumps(model_meta, sort_keys=True).encode("utf-8")
        records["meta/model"] = np.frombuffer(blob, dtype=np.uint8)
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + bytes([FORMAT_VERSION]))
            for name in sorted(records):
                _write_record(fh, name, records[name])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_model_meta(path) -> dict:
    """The JSON model description `save_checkpoint` stored in `path`."""
    return _json_record(path, _read_records(path), "meta/model")


def load_checkpoint(path, store: ParamStore) -> dict:
    """Restore parameters in place; return any stored rng state and best
    metric."""
    records = _read_records(path)
    for name, p in store.items():
        key = f"p/{name}"
        if key not in records:
            raise NumericError(f"{path}: missing parameter {name!r}")
        if records[key].shape != p.data.shape:
            raise NumericError(f"{path}: shape mismatch for {name!r}")
        p.data[...] = records[key]
    meta = {}
    if "rng/state" in records:
        meta["rng_state"] = _json_record(path, records, "rng/state")
    if "meta/best_metric" in records:
        if records["meta/best_metric"].shape != (1,):
            raise NumericError(f"{path}: malformed 'meta/best_metric' record")
        meta["best_metric"] = float(records["meta/best_metric"][0])
    return meta


# -- two-phase schedule ------------------------------------------------------

def check_type(name: str, value, kind: type) -> None:
    """Raise TypeError unless `value` is a `kind`. A bool counts only as a
    bool, and an int also counts as a float."""
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kinds):
        raise TypeError(f"{name} must be {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class Phase:
    lr: float
    epochs: int

    def __post_init__(self):
        check_type("lr", self.lr, float)
        check_type("epochs", self.epochs, int)
        if self.epochs < 0 or not self.lr > 0:
            raise ValueError(f"phase needs lr > 0 and epochs >= 0, got "
                             f"lr={self.lr!r}, epochs={self.epochs!r}")


@dataclass(frozen=True)
class Schedule:
    phase1: Phase = Phase(lr=0.001, epochs=4)
    phase2: Phase = Phase(lr=0.000005, epochs=8)
    batch_size: int = 2
    adam_eps: float = 1e-6

    def __post_init__(self):
        check_type("batch_size", self.batch_size, int)
        check_type("adam_eps", self.adam_eps, float)
        if self.batch_size < 1 or not self.adam_eps > 0:
            raise ValueError(f"schedule needs batch_size >= 1 and adam_eps > 0, "
                             f"got batch_size={self.batch_size!r}, "
                             f"adam_eps={self.adam_eps!r}")

    # the training-config keys `from_config` reads
    CONFIG_KEYS = frozenset({"lr_phase1", "epochs_phase1", "lr_phase2",
                             "epochs_phase2", "batch_size", "adam_eps"})

    @classmethod
    def from_config(cls, cfg: dict) -> "Schedule":
        return cls(
            phase1=Phase(lr=cfg.get("lr_phase1", 0.001),
                         epochs=cfg.get("epochs_phase1", 4)),
            phase2=Phase(lr=cfg.get("lr_phase2", 0.000005),
                         epochs=cfg.get("epochs_phase2", 8)),
            batch_size=cfg.get("batch_size", 2),
            adam_eps=cfg.get("adam_eps", 1e-6),
        )


@dataclass
class TrainResult:
    best_metric: float
    best_snapshot: Dict[str, np.ndarray]
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
    the best snapshot overall is returned. Each step is one `model.loss`
    call on the whole batch, which returns the batch-mean loss. Phase 1
    runs inside `model.frozen_trunk()`, which freezes all but the head and
    unfreezes every parameter on exit. Divergence aborts with the last good
    snapshot restored and every parameter unfrozen. Deterministic given the
    seed.
    """
    if not train_data or not dev_data:
        raise ValueError("train and dev splits must be non-empty")
    store = model.store
    log: List[dict] = []
    best_metric = -1.0
    best_snapshot = store.snapshot()

    for phase_idx, phase in ((1, schedule.phase1), (2, schedule.phase2)):
        if phase_idx == 2:
            store.restore(best_snapshot)
        with (model.frozen_trunk() if phase_idx == 1
              else contextlib.nullcontext()):
            opt = OptimizerState(lr=phase.lr, eps=schedule.adam_eps)
            for epoch in range(1, phase.epochs + 1):
                order_rng = np.random.default_rng(
                    (seed * 1_000_003 + phase_idx * 1009 + epoch) % (2 ** 63))
                order = order_rng.permutation(len(train_data))
                epoch_loss = 0.0
                step = 0
                try:
                    for start in range(0, len(order), schedule.batch_size):
                        batch = [train_data[i]
                                 for i in order[start:start + schedule.batch_size]]
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
                    store.restore(best_snapshot)
                    return TrainResult(best_metric, best_snapshot, log,
                                       aborted=True)
                dev_acc = _accuracy(model, dev_data)
                log.append({"phase": phase_idx, "epoch": epoch,
                            "train_loss": round(epoch_loss / len(train_data), 12),
                            "dev_acc": round(dev_acc, 12)})
                if dev_acc > best_metric:
                    best_metric = dev_acc
                    best_snapshot = store.snapshot()
    store.restore(best_snapshot)
    return TrainResult(best_metric, best_snapshot, log)
