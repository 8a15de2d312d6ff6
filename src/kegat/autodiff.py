"""Minimal reverse-mode autodiff over float64 numpy arrays.

A ``Tensor`` is a value, a gradient buffer and the node that made it: its
tracked operands by name, in operand order, and one backward pass that
returns every operand's gradient at once. Calling ``backward()`` on a scalar
loss runs each node's backward once and passes the gradients down to its
operands. Double precision throughout so finite-difference gradient checks
stay tight.

``fused`` is the one node constructor. A node is a forward value computed in
numpy over named operand tensors, and a written-out backward pass: the token
and position embedding, an encoder sublayer, the [CLS] pooler, the LM
projection, a GAT layer, the subgraph pooling, the fusion MLP, the gate,
``concat``, the head and each loss. The array helpers
``masked_softmax_data``, ``softmax_grad``, ``elu_data`` and ``elu_grad`` hold
the softmax and ELU arithmetic these nodes share.

One rule, applied in ``fused`` and nowhere else, decides what is recorded: an
operand is tracked when it has ``requires_grad`` or has operands of its own,
and no node records an operand that is not. A tensor with
``requires_grad=False`` is therefore a constant, and so is everything computed
from constants alone; such a tensor holds no backward, so nothing keeps its
forward intermediates alive, and dropout masks and cached inputs never enter
the graph. This is how freezing works: a frozen parameter is one whose
``requires_grad`` is off, so no node records a path back to it. Inside a
``with no_grad():`` block no node records anything; the forward values are
the same, only the graph is gone.

A tensor with ``requires_grad`` is a leaf (a parameter): ``backward()`` adds
each gradient that reaches it into its ``.grad`` in place, in arrival order.
An interior tensor sums its arrivals into a fresh array and passes the total
on to its own operands.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Collection, Dict, Optional, Sequence

import numpy as np


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


# a node's backward: the output's gradient and the wanted operand names in,
# a gradient per operand name out
Backward = Callable[[np.ndarray, Collection[str]], Dict[str, np.ndarray]]
# a module's parameters by the names its nodes give their operands
Params = Dict[str, "Tensor"]


class Tensor:
    """A numpy array plus gradient buffer and the node that made it."""

    __slots__ = ("data", "grad", "requires_grad", "_operands", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.requires_grad = requires_grad
        self._operands: Dict[str, Tensor] = {}
        self._backward: Optional[Backward] = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    # -- graph machinery -----------------------------------------------------

    def backward(self) -> None:
        """Reverse-accumulate gradients from this scalar tensor."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)] if self._operands else []
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for operand in node._operands.values():
                if operand._operands and id(operand) not in seen:
                    stack.append((operand, False))
        # the walk holds only nodes with operands; a leaf's gradient goes
        # straight into its .grad
        if self.requires_grad:
            self.grad += 1.0
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            result = node._backward(grads.pop(id(node)), node._operands.keys())
            for name, operand in node._operands.items():
                pg = np.asarray(result.pop(name), dtype=np.float64)
                if operand.requires_grad:
                    # a parameter sums its arrivals in place, in arrival order
                    operand.grad += pg
                    continue
                acc = grads.get(id(operand))
                if acc is None:
                    # a strided view is copied: summing it later would run in
                    # another order and change the rounding
                    grads[id(operand)] = (pg if pg.flags.c_contiguous
                                          else pg.copy())
                else:
                    grads[id(operand)] = acc + pg


def _tracked(t: Tensor) -> bool:
    """Whether a gradient for `t` is kept: a leaf to fill or a node to pass on."""
    return t.requires_grad or bool(t._operands)


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


def recording() -> bool:
    """Whether ops record a graph here: False inside a ``no_grad()`` block."""
    return _tracking.get()


def fused(data, operands: Dict[str, Tensor], backward: Backward) -> Tensor:
    """A node over named operands whose gradients come from one shared pass.

    The node records its tracked operands, in the operands' order, and
    nothing under ``no_grad()``; with no tracked operand it holds no
    backward either. `backward(g, wanted)` gets the output gradient and the
    names of the tracked operands, and returns a dict of gradients by
    operand name that holds every wanted one; it may skip a costly gradient
    nobody wants and return the cheap ones regardless, which go unused.
    ``Tensor.backward`` runs it once per walk.
    """
    if not _tracking.get():
        return Tensor(data)
    out = Tensor(data)
    out._operands = {name: t for name, t in operands.items() if _tracked(t)}
    out._backward = backward if out._operands else None
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """The tensors joined along `axis`; each one's gradient is its slice of
    the output's."""
    names = [str(i) for i in range(len(tensors))]
    bounds = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return fused(np.concatenate([t.data for t in tensors], axis=axis),
                 dict(zip(names, tensors)),
                 lambda g, wanted: dict(zip(names, np.split(g, bounds, axis))))


# -- array helpers: the arithmetic of ops that fused nodes share --------------

def masked_softmax_data(x: np.ndarray, mask: Optional[np.ndarray] = None,
                        axis: int = -1) -> np.ndarray:
    """Softmax of `x` along `axis`, restricted to positions where `mask` is
    True; masked-out positions get probability exactly 0. Every slice must
    have at least one visible entry."""
    if mask is None:
        out = x - x.max(axis=axis, keepdims=True)
        np.exp(out, out=out)
    else:
        mask = np.asarray(mask, dtype=bool)
        top = np.where(mask, x, -np.inf)
        if top.shape != x.shape:
            raise ValueError(f"mask {mask.shape} does not broadcast to {x.shape}")
        # broadcasting only repeats mask values along its missing or size-1
        # axes, so the un-broadcast mask answers the same question
        visible = mask.reshape((1,) * (x.ndim - mask.ndim) + mask.shape)
        if not visible.any(axis=axis).all():
            raise AssertionError("softmax slice with no visible entries")
        top = top.max(axis=axis, keepdims=True)
        # a masked entry is shifted to exactly 0, not to -inf, on which
        # numpy's exp takes a slow path; the mask then zeroes its exp of 1
        out = np.where(mask, x, top)
        out -= top
        np.exp(out, out=out)
        out *= mask
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax_grad(out: np.ndarray, g: np.ndarray, axis: int = -1) -> np.ndarray:
    """The input gradient of a softmax with output `out`, given the output's
    gradient `g`."""
    return out * (g - (g * out).sum(axis=axis, keepdims=True))


def elu_data(x: np.ndarray) -> np.ndarray:
    """ELU with alpha 1: x where x > 0, else expm1(x).

    Without a branch: expm1 runs on min(x, 0), so a large input cannot
    overflow, and max(expm1(min(x, 0)), x) is x exactly where x > 0. On a
    tie numpy's max returns its second operand, so -0.0 stays -0.0; NaN
    propagates. expm1 and max write into min's result, never into `x`.
    """
    out = np.minimum(x, 0.0)
    return np.maximum(np.expm1(out, out=out), x, out=out)


def elu_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The input gradient of an ELU with output `out`: `g` times the
    derivative min(out, 0) + 1, which is 1 where x > 0 and out + 1
    elsewhere."""
    d = np.minimum(out, 0.0)
    d += 1.0
    d *= g
    return d
