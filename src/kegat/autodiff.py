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
- module-level ``concat``, ``masked_softmax``, ``log_softmax``,
  ``layer_norm`` and ``dropout``

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
                    if _tracked(parent):
                        pg = np.asarray(pg, dtype=np.float64)
                        acc = grads.get(id(parent))
                        if acc is None:
                            # a strided view is copied: summing it later would
                            # run in another order and change the rounding
                            grads[id(parent)] = (pg if pg.flags.c_contiguous
                                                 else pg.copy())
                        else:
                            # rebind: 0-d results may not support in-place +=
                            grads[id(parent)] = acc + pg

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other)
        out_data = self.data + other.data

        def bw(g):
            return tuple((t, _unbroadcast(g, t.shape))
                         for t in (self, other) if _tracked(t))

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
            out = []
            if _tracked(self):
                out.append((self, _unbroadcast(g * other.data, self.shape)))
            if _tracked(other):
                out.append((other, _unbroadcast(g * self.data, other.shape)))
            return out

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
                return ((self, g @ b.T), (other, np.outer(a, g)))
            if a.ndim == 2 and b.ndim == 1:
                return ((self, np.outer(g, b)), (other, a.T @ g))
            if a.ndim == 1 and b.ndim == 1:
                return ((self, g * b), (other, g * a))
            out = []
            if _tracked(self):
                out.append((self, _unbroadcast(g @ b.swapaxes(-1, -2), a.shape)))
            if _tracked(other):
                out.append((other, _unbroadcast(a.swapaxes(-1, -2) @ g, b.shape)))
            return out

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
        inverse = sorted(range(len(axes)), key=axes.__getitem__)
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


def _tracked(t: Tensor) -> bool:
    """Whether a gradient for `t` is kept: a leaf to fill or a node to pass on."""
    return t.requires_grad or t._backward is not None


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
    track = _tracking.get() and any(_tracked(p) for p in parents)
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
        out_data = x - x.max(axis=axis, keepdims=True)
    else:
        mask = np.asarray(mask, dtype=bool)
        out_data = np.where(mask, x, -np.inf)
        if out_data.shape != x.shape:
            raise ValueError(f"mask {mask.shape} does not broadcast to {x.shape}")
        # broadcasting only repeats mask values along its missing or size-1
        # axes, so the un-broadcast mask answers the same question
        visible = mask.reshape((1,) * (x.ndim - mask.ndim) + mask.shape)
        if not visible.any(axis=axis).all():
            raise AssertionError("softmax slice with no visible entries")
        out_data -= out_data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Normalise the last axis to zero mean and unit variance, then scale by
    `gain` and shift by `bias` (Ba et al., arXiv 1607.06450), as one node.

    The forward is the arithmetic of the composed ops, in their order, so it
    is bit-equal to ``c = x - x.mean(-1)``, ``var = (c ** 2).mean(-1)``,
    ``c / (var + eps).sqrt() * gain + bias`` (each mean a sum times 1/n). The
    backward is analytic: for ``d = g * gain``, the input gradient is
    ``r * (d - mean(d) - xhat * mean(d * xhat))`` with ``r = 1/sqrt(var+eps)``.
    """
    inv_n = 1.0 / x.shape[-1]
    c = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    var = (c ** 2.0).sum(axis=-1, keepdims=True) * inv_n
    r = np.sqrt(var + eps) ** -1.0
    xhat = c * r
    out_data = xhat * gain.data + bias.data

    def bw(g):
        out = []
        if _tracked(x):
            d = g * gain.data
            mean_d = d.sum(axis=-1, keepdims=True) * inv_n
            mean_dx = (d * xhat).sum(axis=-1, keepdims=True) * inv_n
            out.append((x, r * (d - mean_d - xhat * mean_dx)))
        if _tracked(gain):
            out.append((gain, _unbroadcast(g * xhat, gain.shape)))
        if _tracked(bias):
            out.append((bias, _unbroadcast(g, bias.shape)))
        return out

    return _node(out_data, (x, gain, bias), bw)


def dropout(t: Tensor, rate: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout; identity when rate is 0 or rng is None (eval mode)."""
    if rate <= 0.0 or rng is None:
        return t
    keep = (rng.random(t.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return t * Tensor(keep)
