"""Minimal reverse-mode autodiff over float64 numpy arrays.

Every tensor op used by the model records a backward closure; calling
``backward()`` on a scalar loss accumulates gradients into every reachable
tensor with ``requires_grad``. Double precision throughout so finite-difference
gradient checks stay tight.

An op records a graph edge only when one of its inputs is tracked: it has
``requires_grad`` or was itself recorded. A tensor with
``requires_grad=False`` is therefore a constant, and so is everything computed
from constants alone. This is how freezing works: a frozen parameter is one
whose ``requires_grad`` is off, so no op records a path back to it. Inside a
``with no_grad():`` block no op records anything; the forward values are the
same, only the graph is gone.

The op set:

- arithmetic with numpy broadcasting: ``+ - * / **`` and unary ``-``
- ``@`` for 1-D and 2-D operands, and for stacks of matrices whose batch
  dims broadcast, e.g. ``(n, d) @ (H, d, e)``
- elementwise ``exp log sqrt tanh elu leaky_relu``
- shape ops ``reshape``, ``transpose(*axes)`` (``.T`` reverses all axes),
  ``sum`` and ``mean``
- indexing ``t[idx]`` with any numpy index: an int, a slice, an int array
  (repeats allowed) or a tuple of them
- module-level ``concat``, ``masked_softmax``, ``log_softmax`` and
  ``dropout``

Broadcast operands get their gradient summed back to their own shape. The
backward of ``t[idx]`` scatter-adds into a zero array of ``t``'s shape with
``np.add.at``, so an element gathered k times receives the sum of its k
output gradients.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus gradient buffer and backward graph edge."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False,
                 parents: Sequence["Tensor"] = (),
                 backward: Optional[Callable[[np.ndarray], None]] = None,
                 name: Optional[str] = None):
        self.data = _as_array(data)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.requires_grad = requires_grad
        self._parents = tuple(parents)
        self._backward = backward
        self.name = name

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    # -- graph machinery -----------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self) -> None:
        """Reverse-accumulate gradients from this scalar tensor."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node._accumulate(g)
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    if parent.requires_grad or parent._backward is not None:
                        pg = np.asarray(pg, dtype=np.float64)
                        acc = grads.get(id(parent))
                        if acc is None:
                            grads[id(parent)] = pg.copy()
                        else:
                            # rebind: 0-d results may not support in-place +=
                            grads[id(parent)] = acc + pg

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other)
        out_data = self.data + other.data

        def bw(g):
            return ((self, _unbroadcast(g, self.shape)),
                    (other, _unbroadcast(g, other.shape)))

        return _node(out_data, (self, other), bw)

    __radd__ = __add__

    def __neg__(self):
        return _node(-self.data, (self,), lambda g: ((self, -g),))

    def __sub__(self, other):
        return self + (-_wrap(other))

    def __rsub__(self, other):
        return _wrap(other) + (-self)

    def __mul__(self, other):
        other = _wrap(other)
        out_data = self.data * other.data

        def bw(g):
            return ((self, _unbroadcast(g * other.data, self.shape)),
                    (other, _unbroadcast(g * self.data, other.shape)))

        return _node(out_data, (self, other), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _wrap(other) ** -1.0

    def __rtruediv__(self, other):
        return _wrap(other) * self ** -1.0

    def __pow__(self, exponent: float):
        n = float(exponent)
        out_data = self.data ** n

        def bw(g):
            return ((self, g * n * self.data ** (n - 1.0)),)

        return _node(out_data, (self,), bw)

    def __matmul__(self, other):
        other = _wrap(other)
        a, b = self.data, other.data
        out_data = a @ b

        def bw(g):
            if a.ndim == 1 and b.ndim == 2:
                ga, gb = g @ b.T, np.outer(a, g)
            elif a.ndim == 2 and b.ndim == 1:
                ga, gb = np.outer(g, b), a.T @ g
            elif a.ndim == 1 and b.ndim == 1:
                ga, gb = g * b, g * a
            else:
                ga = _unbroadcast(g @ b.swapaxes(-1, -2), a.shape)
                gb = _unbroadcast(a.swapaxes(-1, -2) @ g, b.shape)
            return ((self, ga), (other, gb))

        return _node(out_data, (self, other), bw)

    # -- elementwise nonlinearities ------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        return _node(out_data, (self,), lambda g: ((self, g * out_data),))

    def log(self):
        return _node(np.log(self.data), (self,),
                     lambda g: ((self, g / self.data),))

    def sqrt(self):
        out_data = np.sqrt(self.data)
        return _node(out_data, (self,),
                     lambda g: ((self, g * 0.5 / out_data),))

    def tanh(self):
        out_data = np.tanh(self.data)
        return _node(out_data, (self,),
                     lambda g: ((self, g * (1.0 - out_data ** 2)),))

    def elu(self, alpha: float = 1.0):
        pos = self.data > 0
        out_data = np.where(pos, self.data, alpha * np.expm1(self.data))

        def bw(g):
            return ((self, g * np.where(pos, 1.0, out_data + alpha)),)

        return _node(out_data, (self,), bw)

    def leaky_relu(self, slope: float = 0.2):
        pos = self.data > 0
        out_data = np.where(pos, self.data, slope * self.data)

        def bw(g):
            return ((self, g * np.where(pos, 1.0, slope)),)

        return _node(out_data, (self,), bw)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        old = self.shape
        out_data = self.data.reshape(*shape)
        return _node(out_data, (self,), lambda g: ((self, g.reshape(old)),))

    def transpose(self, *axes):
        """Permute axes like ``np.transpose``; no axes reverses them all."""
        out_data = self.data.transpose(*axes)
        inverse = tuple(np.argsort(axes)) if axes else ()
        return _node(out_data, (self,),
                     lambda g: ((self, g.transpose(*inverse)),))

    @property
    def T(self):
        return self.transpose()

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            if axis is None:
                return ((self, np.broadcast_to(g, self.shape).copy()),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return ((self, np.broadcast_to(gg, self.shape).copy()),)

        return _node(out_data, (self,), bw)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def __getitem__(self, idx):
        """Numpy indexing; the backward scatter-adds into a zero array."""
        out_data = self.data[idx]

        def bw(g):
            gg = np.zeros_like(self.data)
            np.add.at(gg, idx, g)
            return ((self, gg),)

        return _node(out_data, (self,), bw)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# a context variable, not a global: a no_grad() block in one thread or
# asyncio task leaves tracking on in the others
_tracking = contextvars.ContextVar("autodiff_tracking", default=True)


@contextlib.contextmanager
def no_grad():
    """Run ops without recording a graph; tracking resumes on exit."""
    token = _tracking.set(False)
    try:
        yield
    finally:
        _tracking.reset(token)


def _node(data, parents, backward) -> Tensor:
    track = _tracking.get() and any(
        p.requires_grad or p._backward is not None for p in parents)
    return Tensor(data, parents=parents if track else (),
                  backward=backward if track else None)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        outs = []
        for t, a, b in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(a, b)
            outs.append((t, g[tuple(sl)]))
        return tuple(outs)

    return _node(out_data, ts, bw)


def masked_softmax(logits: Tensor, mask: Optional[np.ndarray] = None,
                   axis: int = -1) -> Tensor:
    """Softmax along `axis`, restricted to positions where `mask` is True.

    Masked-out positions get probability exactly 0. Every slice must have at
    least one visible entry.
    """
    x = logits.data
    if mask is None:
        m = np.ones(x.shape, dtype=bool)
    else:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if not m.any(axis=axis).all():
            raise AssertionError("softmax slice with no visible entries")
    shifted = np.where(m, x, -np.inf)
    shifted = shifted - shifted.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return ((logits, out_data * (g - dot)),)

    return _node(out_data, (logits,), bw)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    x = logits.data
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def bw(g):
        return ((logits, g - soft * g.sum(axis=axis, keepdims=True)),)

    return _node(out_data, (logits,), bw)


def dropout(t: Tensor, rate: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout; identity when rate is 0 or rng is None (eval mode)."""
    if rate <= 0.0 or rng is None:
        return t
    keep = (rng.random(t.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return t * Tensor(keep)
