"""Composed autodiff ops that fused nodes replaced, rebuilt from `ad._node`
edges with their forward and backward arithmetic, so a test can build a
node's reference graph one op at a time."""

import numpy as np

from kegat import autodiff as ad


def elu(t):
    out = ad.elu_data(t.data)
    return ad._node(out, (t, lambda g: ad.elu_grad(out, g)))


def leaky_relu(t, slope):
    pos = t.data > 0
    return ad._node(np.where(pos, t.data, slope * t.data),
                    (t, lambda g: g * np.where(pos, 1.0, slope)))


def reshape(t, *shape):
    return ad._node(t.data.reshape(*shape), (t, lambda g: g.reshape(t.shape)))


def transpose(t, *axes):
    inverse = sorted(range(len(axes)), key=axes.__getitem__)
    return ad._node(t.data.transpose(*axes),
                    (t, lambda g: g.transpose(*inverse)))


def mean(t, axis=None):
    """A sum times 1/n."""
    n = t.data.size if axis is None else t.shape[axis]
    return t.sum(axis=axis) * (1.0 / n)


def masked_softmax(t, mask=None, axis=-1):
    out = ad.masked_softmax_data(t.data, mask, axis)
    return ad._node(out, (t, lambda g: ad.softmax_grad(out, g, axis)))
