"""Composed autodiff ops that fused nodes replaced, each rebuilt as a
one-op `ad.fused` node with its forward and backward arithmetic, so a test
can build a node's reference graph one op at a time. A binary op takes a
plain number or array as a constant operand."""

import numpy as np

from kegat import autodiff as ad
from kegat.autodiff import Tensor


def _tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def unary(data, t, grad_fn):
    """A node with output `data` over the one operand `t`, whose gradient
    is `grad_fn(g)`."""
    return ad.fused(data, {"t": t}, lambda g, wanted: {"t": grad_fn(g)})


def add(a, b):
    a, b = _tensor(a), _tensor(b)
    return ad.fused(a.data + b.data, {"a": a, "b": b},
                    lambda g, wanted: {"a": unbroadcast(g, a.shape),
                                       "b": unbroadcast(g, b.shape)})


def mul(a, b):
    a, b = _tensor(a), _tensor(b)
    x, y = a.data, b.data
    return ad.fused(x * y, {"a": a, "b": b},
                    lambda g, wanted: {"a": unbroadcast(g * y, x.shape),
                                       "b": unbroadcast(g * x, y.shape)})


def matmul(a, b):
    """`@` on 2-D operands, and on stacks of matrices whose batch dims
    broadcast."""
    a, b = _tensor(a), _tensor(b)
    x, y = a.data, b.data
    if x.ndim < 2 or y.ndim < 2:
        raise ValueError("@ needs operands of at least 2 dims")
    return ad.fused(
        x @ y, {"a": a, "b": b},
        lambda g, wanted: {"a": unbroadcast(g @ y.swapaxes(-1, -2), x.shape),
                           "b": unbroadcast(x.swapaxes(-1, -2) @ g, y.shape)})


def tanh(t):
    out = np.tanh(t.data)
    return unary(out, t, lambda g: g * (1.0 - out ** 2))


def sum(t, axis=None, keepdims=False):
    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, t.shape).copy()

    return unary(t.data.sum(axis=axis, keepdims=keepdims), t, bw)


def getitem(t, idx):
    """`t[idx]` with any numpy index; the backward scatter-adds into a zero
    array, so an element gathered k times sums its k gradients."""
    def bw(g):
        gg = np.zeros_like(t.data)
        np.add.at(gg, idx, g)
        return gg

    return unary(t.data[idx], t, bw)


def elu(t):
    out = ad.elu_data(t.data)
    return unary(out, t, lambda g: ad.elu_grad(out, g))


def leaky_relu(t, slope):
    pos = t.data > 0
    return unary(np.where(pos, t.data, slope * t.data), t,
                 lambda g: g * np.where(pos, 1.0, slope))


def reshape(t, *shape):
    return unary(t.data.reshape(*shape), t, lambda g: g.reshape(t.shape))


def transpose(t, *axes):
    inverse = sorted(range(len(axes)), key=axes.__getitem__)
    return unary(t.data.transpose(*axes), t, lambda g: g.transpose(*inverse))


def mean(t, axis=None):
    """A sum times 1/n."""
    n = t.data.size if axis is None else t.shape[axis]
    return mul(sum(t, axis=axis), 1.0 / n)


def masked_softmax(t, mask=None, axis=-1):
    out = ad.masked_softmax_data(t.data, mask, axis)
    return unary(out, t, lambda g: ad.softmax_grad(out, g, axis))


def weighted_sum(t, w):
    """The scalar sum(t * w), a readout that sends gradient `w` to `t`."""
    return sum(mul(t, w))
