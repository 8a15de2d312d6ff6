"""Parameter store, Adam, two-phase training, and binary checkpoints.

Everything is float64 and seeded, so a training run is bitwise reproducible
and checkpoint files round-trip byte-exactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .autodiff import Tensor
from .errors import GradientError, NumericError

MAGIC = b"KGAT"
FORMAT_VERSION = 1

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
        for p in self._params.values():
            p.zero_grad()

    def set_frozen(self, name: str, frozen: bool) -> None:
        self._params[name].requires_grad = not frozen

    def freeze_all_except(self, keep: Iterable[str]) -> None:
        keep = set(keep)
        for name, p in self._params.items():
            p.requires_grad = name in keep

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
    reaches them and their zeroed buffers stay zero.
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
        if store.is_frozen(name):
            continue
        g = p.grad
        m = opt.m.setdefault(name, np.zeros_like(p.data))
        v = opt.v.setdefault(name, np.zeros_like(p.data))
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


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise NumericError(f"{fh.name}: checkpoint truncated")
    return data


def _read_records(fh) -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {}
    while True:
        raw = fh.read(2)
        if not raw:
            return out
        if len(raw) != 2:
            raise NumericError(f"{fh.name}: checkpoint truncated")
        (nlen,) = struct.unpack("<H", raw)
        name = _read_exact(fh, nlen).decode("utf-8")
        tag, rank = struct.unpack("<BB", _read_exact(fh, 2))
        if tag not in _DTYPES:
            raise NumericError(f"{fh.name}: unknown dtype tag {tag} in {name!r}")
        dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank))
        dtype = np.dtype(_DTYPES[tag]).newbyteorder("<")
        count = int(np.prod(dims)) if dims else 1
        arr = np.frombuffer(_read_exact(fh, count * dtype.itemsize), dtype=dtype)
        out[name] = arr.astype(_DTYPES[tag]).reshape(dims)


def save_checkpoint(path, store: ParamStore, opt: Optional[OptimizerState] = None,
                    rng: Optional[np.random.Generator] = None,
                    best_metric: Optional[float] = None) -> None:
    records: Dict[str, np.ndarray] = {}
    for name, p in store.items():
        records[f"p/{name}"] = p.data
    if opt is not None:
        for name, m in opt.m.items():
            records[f"opt/m/{name}"] = m
        for name, v in opt.v.items():
            records[f"opt/v/{name}"] = v
        records["opt/meta"] = np.array(
            [opt.lr, opt.beta1, opt.beta2, opt.eps, float(opt.step)])
    if rng is not None:
        blob = json.dumps(rng.bit_generator.state, sort_keys=True).encode("utf-8")
        records["rng/state"] = np.frombuffer(blob, dtype=np.uint8)
    if best_metric is not None:
        records["meta/best_metric"] = np.array([best_metric])
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([FORMAT_VERSION]))
        for name in sorted(records):
            _write_record(fh, name, records[name])


def load_checkpoint(path, store: ParamStore,
                    opt: Optional[OptimizerState] = None) -> dict:
    """Restore parameters (and optionally optimizer) in place.

    Returns a dict with any stored rng state and best metric.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise NumericError(f"{path}: bad checkpoint magic")
        version = fh.read(1)
        if version != bytes([FORMAT_VERSION]):
            raise NumericError(f"{path}: unsupported checkpoint version")
        records = _read_records(fh)
    for name, p in store.items():
        key = f"p/{name}"
        if key not in records:
            raise NumericError(f"{path}: missing parameter {name!r}")
        if records[key].shape != p.data.shape:
            raise NumericError(f"{path}: shape mismatch for {name!r}")
        p.data[...] = records[key]
    if opt is not None and "opt/meta" in records:
        lr, b1, b2, eps, step = records["opt/meta"]
        opt.lr, opt.beta1, opt.beta2, opt.eps = lr, b1, b2, eps
        opt.step = int(step)
        opt.m = {k[len("opt/m/"):]: v.copy() for k, v in records.items()
                 if k.startswith("opt/m/")}
        opt.v = {k[len("opt/v/"):]: v.copy() for k, v in records.items()
                 if k.startswith("opt/v/")}
    meta = {}
    if "rng/state" in records:
        meta["rng_state"] = json.loads(records["rng/state"].tobytes().decode())
    if "meta/best_metric" in records:
        meta["best_metric"] = float(records["meta/best_metric"][0])
    return meta


# -- two-phase schedule ------------------------------------------------------

@dataclass(frozen=True)
class Phase:
    lr: float
    epochs: int

    def __post_init__(self):
        if self.epochs < 0 or self.lr <= 0:
            raise ValueError("phase needs lr > 0 and epochs >= 0")


@dataclass(frozen=True)
class Schedule:
    phase1: Phase = Phase(lr=0.001, epochs=4)
    phase2: Phase = Phase(lr=0.000005, epochs=8)
    batch_size: int = 2
    adam_eps: float = 1e-6

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
    the best snapshot overall is returned. Divergence aborts with the last
    good snapshot. Deterministic given the seed.
    """
    if not train_data or not dev_data:
        raise ValueError("train and dev splits must be non-empty")
    store = model.store
    log: List[dict] = []
    best_metric = -1.0
    best_snapshot = store.snapshot()

    for phase_idx, phase in ((1, schedule.phase1), (2, schedule.phase2)):
        if phase_idx == 1:
            store.freeze_all_except(model.head_param_names())
        else:
            store.restore(best_snapshot)
            store.unfreeze_all()
        opt = OptimizerState(lr=phase.lr, eps=schedule.adam_eps)
        for epoch in range(1, phase.epochs + 1):
            order_rng = np.random.default_rng(
                (seed * 1_000_003 + phase_idx * 1009 + epoch) % (2 ** 63))
            order = order_rng.permutation(len(train_data))
            epoch_loss = 0.0
            step = 0
            try:
                for start in range(0, len(order), schedule.batch_size):
                    batch = [train_data[i] for i in order[start:start + schedule.batch_size]]
                    drop_rng = np.random.default_rng(
                        (seed * 7_368_787 + phase_idx * 65537
                         + epoch * 8191 + step) % (2 ** 63))
                    losses = [model.loss(inst, dropout_rng=drop_rng)
                              for inst in batch]
                    total = losses[0]
                    for extra in losses[1:]:
                        total = total + extra
                    total = total * (1.0 / len(batch))
                    compute_gradients(total, store)
                    adam_step(store, opt)
                    epoch_loss += float(total.data) * len(batch)
                    step += 1
            except NumericError:
                log.append({"phase": phase_idx, "epoch": epoch,
                            "event": "aborted: numeric failure"})
                return TrainResult(best_metric, best_snapshot, log, aborted=True)
            dev_acc = _accuracy(model, dev_data)
            log.append({"phase": phase_idx, "epoch": epoch,
                        "train_loss": round(epoch_loss / len(train_data), 12),
                        "dev_acc": round(dev_acc, 12)})
            if dev_acc > best_metric:
                best_metric = dev_acc
                best_snapshot = store.snapshot()
    store.restore(best_snapshot)
    return TrainResult(best_metric, best_snapshot, log)
