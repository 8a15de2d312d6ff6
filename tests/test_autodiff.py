"""Gradient and op-semantics tests for the autodiff engine, its fused-node
constructor, `concat`, and the composed reference ops the node tests build
on."""

import numpy as np
import pytest

from kegat import autodiff as ad
from kegat import encoder
from kegat.autodiff import Tensor

import composed as C
from conftest import numeric_grad


def _check_grad(build, x0, rtol=1e-6, atol=1e-9):
    """Compare backward() gradient against central differences at x0."""
    t = Tensor(x0, requires_grad=True)
    build(t).backward()
    expected = numeric_grad(lambda x: float(build(Tensor(x)).data), x0)
    np.testing.assert_allclose(t.grad, expected, rtol=rtol, atol=atol)


# -- the composed reference ops, which the node tests' reference graphs use --

def test_arithmetic_grads():
    x0 = np.array([0.3, -1.2, 2.0])
    _check_grad(lambda t: C.sum(C.add(C.mul(C.add(C.mul(t, 2.0), 1.0), t),
                                      C.mul(t, -3.0))), x0)


def test_matmul_grads_all_shapes():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 4))
    _check_grad(lambda t: C.sum(C.matmul(t, A.T)), A)           # 2D @ 2D
    B = rng.normal(size=(2, 4, 5))
    W = rng.normal(size=(2, 3, 5))
    S = rng.normal(size=(2, 3, 4))
    _check_grad(lambda t: C.weighted_sum(C.matmul(t, B), W), S)  # 3D @ 3D
    _check_grad(lambda t: C.weighted_sum(C.matmul(S, t), W), B)  # (rhs)
    X = rng.normal(size=(3, 4))
    _check_grad(lambda t: C.weighted_sum(C.matmul(t, B), W), X)  # 2D @ 3D
    _check_grad(lambda t: C.weighted_sum(C.matmul(X, t), W), B)  # (rhs)
    v = rng.normal(size=4)
    for a, b in ((A, v), (v, A.T), (v, v)):   # a 1-D operand is refused
        with pytest.raises(ValueError):
            C.matmul(Tensor(a, requires_grad=True), b)


def test_nonlinearity_grads():
    x0 = np.array([-2.0, -0.5, 0.3, 1.7])
    _check_grad(lambda t: C.sum(C.tanh(t)), x0)


# signed zeros and denormals, infinities, NaN, and inputs whose exp overflows
_ELU_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, np.inf,
              -np.inf, np.nan, 800.0, -800.0]


@pytest.mark.parametrize("size", [1, 1000])
def test_elu_matches_where_reference_bit_for_bit(size):
    """`elu_data` and `elu_grad` have the bytes of the ``np.where`` formulas,
    ``where(x > 0, x, expm1(x))`` and ``g * where(x > 0, 1, out + 1)``, and
    raise no floating-point error. Length 1000 runs numpy's SIMD loops."""
    rng = np.random.default_rng(size)
    if size == 1:
        inputs = [np.array([x]) for x in _ELU_EDGES + [-0.7, 1.3]]
    else:
        pool = np.concatenate([_ELU_EDGES, rng.normal(scale=3.0, size=64)])
        inputs = [rng.choice(pool, size)]
    for x in inputs:
        g = rng.normal(size=x.shape)
        with np.errstate(all="raise"):
            out = ad.elu_data(x)
            grad = ad.elu_grad(out, g)
        with np.errstate(all="ignore"):
            ref = np.where(x > 0, x, np.expm1(x))
            ref_grad = g * np.where(x > 0, 1.0, ref + 1.0)
        assert out.tobytes() == ref.tobytes(), x
        assert grad.tobytes() == ref_grad.tobytes(), x


def test_gather_grads():
    x0 = np.arange(12.0).reshape(4, 3) / 7.0
    w = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
    G, W = C.getitem, C.weighted_sum
    _check_grad(lambda t: W(G(t, 2), w[0]), x0)                     # int
    _check_grad(lambda t: G(G(t, 0), 1), x0)                        # int, int
    _check_grad(lambda t: W(G(t, np.s_[1:3]), w[:2]), x0)           # slice
    _check_grad(lambda t: W(G(t, np.s_[:, 1:3]), w[:, :2]), x0)     # columns
    _check_grad(lambda t: W(G(t, [1, 1, 3]), w[:3]), x0)            # repeats
    rows, cols = np.array([0, 2, 2, 3]), np.array([1, 0, 0, 2])
    u = np.array([0.5, -1.0, 2.0, 1.5])
    _check_grad(lambda t: W(G(t, (rows, cols)), u), x0)             # pairs


def test_gather_repeats_scatter_add():
    t = Tensor(np.zeros((3, 2)), requires_grad=True)
    C.sum(C.getitem(t, np.array([2, 0, 2, 2]))).backward()
    np.testing.assert_array_equal(t.grad, [[1.0, 1.0], [0.0, 0.0], [3.0, 3.0]])


def test_broadcasting_unbroadcast():
    a0 = np.ones((1, 3))
    b0 = np.ones((4, 1))
    a = Tensor(a0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    C.sum(C.add(a, b)).backward()
    np.testing.assert_array_equal(a.grad, np.full((1, 3), 4.0))
    np.testing.assert_array_equal(b.grad, np.full((4, 1), 3.0))


# -- concat ----------------------------------------------------------------

def test_concat_and_softmax_grads():
    x0 = np.array([0.1, 0.9, -0.4])
    _check_grad(lambda t: C.sum(ad.concat([t, C.mul(t, 2.0)])), x0)
    # `softmax_grad` is the input gradient of `masked_softmax_data`
    x1, g = np.array([[0.1, 0.9, -0.4], [2.0, -1.0, 0.5]]), np.eye(2, 3)
    np.testing.assert_allclose(
        ad.softmax_grad(ad.masked_softmax_data(x1), g),
        numeric_grad(lambda x: float((ad.masked_softmax_data(x) * g).sum()),
                     x1), rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_concat_gradients_are_slices_of_the_output_gradient(axis):
    """Each tracked operand gets the bytes of its slice of the output's
    gradient, a constant one is not recorded, and a tensor given twice sums
    both of its slices."""
    rng = np.random.default_rng(6)
    sizes = (2, 1, 4)
    a, b, c = (Tensor(rng.normal(size=(n, 3) if axis == 0 else (3, n)),
                      requires_grad=True) for n in sizes)
    b.requires_grad = False
    out = ad.concat([a, b, c], axis=axis)
    np.testing.assert_array_equal(
        out.data, np.concatenate([a.data, b.data, c.data], axis=axis))
    assert list(out._operands.values()) == [a, c]
    w = rng.normal(size=out.shape)
    C.weighted_sum(out, w).backward()
    ends = np.cumsum(sizes)
    assert a.grad.tobytes() == np.take(w, range(0, ends[0]), axis).tobytes()
    assert c.grad.tobytes() == np.take(w, range(ends[1], ends[2]), axis
                                       ).tobytes()
    a.zero_grad()
    w2 = rng.normal(size=(4, 3) if axis == 0 else (3, 4))
    C.weighted_sum(ad.concat([a, a], axis=axis), w2).backward()
    first, second = np.split(w2, 2, axis)
    assert a.grad.tobytes() == (first + second).tobytes()


def _layer_norm_chain(x, gain, bias, eps):
    """The composed-op layer norm that the encoder's must equal bit for bit,
    replayed in numpy: each mean a sum times 1/n, x - m as x + (-m), and a
    / b as a * b ** -1."""
    inv_n = 1.0 / x.shape[-1]
    c = x + -(x.sum(axis=-1, keepdims=True) * inv_n)
    var = (c ** 2.0).sum(axis=-1, keepdims=True) * inv_n
    return c * np.sqrt(var + eps) ** -1.0 * gain + bias


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
def test_layer_norm_matches_chain_and_differences(shape):
    """The encoder's layer-norm arithmetic, which both sublayer nodes run:
    the forward equals the composed ops' bytes, and the analytic input,
    gain and bias gradients match central differences."""
    rng = np.random.default_rng(4)
    x0, w = rng.normal(size=shape), rng.normal(size=shape)
    gain0, bias0 = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    np.testing.assert_array_equal(
        encoder._layer_norm(x0, gain0, bias0)[0],
        _layer_norm_chain(x0, gain0, bias0, encoder.LN_EPS))
    x2, w2 = x0.reshape(-1, shape[-1]), w.reshape(-1, shape[-1])

    def loss(x, gain, bias):
        return float((encoder._layer_norm(x, gain, bias)[0] * w2).sum())

    _, xhat, r = encoder._layer_norm(x2, gain0, bias0)
    grads = encoder._layer_norm_grads(w2, xhat, r, gain0)
    expected = (numeric_grad(lambda x: loss(x, gain0, bias0), x2),
                numeric_grad(lambda g: loss(x2, g, bias0), gain0),
                numeric_grad(lambda b: loss(x2, gain0, b), bias0))
    for got, want in zip(grads, expected):
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


# -- the engine, over fused nodes ------------------------------------------

def test_scalar_fanout_accumulation():
    # A 0-d parameter consumed by several downstream products must accumulate
    # every contribution (numpy 0-d products are immutable scalars, which once
    # broke in-place accumulation).
    s = Tensor(np.zeros(()), requires_grad=True)
    a, b = Tensor(3.0), Tensor(4.0)
    loss = C.add(C.add(C.mul(s, a), C.mul(s, b)), s)
    loss.backward()
    # d/ds [s(a+b) + s] = a + b + 1 = 8
    assert np.allclose(s.grad, 8.0)


def test_shared_subexpression_accumulation():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = C.mul(x, 2.0)
    loss = C.add(C.sum(C.mul(y, y)), C.sum(y))
    loss.backward()
    expected = numeric_grad(
        lambda v: float(((v * 2) ** 2).sum() + (v * 2).sum()), x.data)
    np.testing.assert_allclose(x.grad, expected, rtol=1e-6)


def test_fused_node_runs_its_backward_once_per_walk():
    """A node records its tracked operands by name, in operand order, and its
    backward runs once per walk, with `wanted` their names, however many
    consumers the node has; a gradient for a constant goes unused, and a
    node over constants alone holds no backward."""
    rng = np.random.default_rng(8)
    a, b, c = (Tensor(rng.normal(size=3), requires_grad=True) for _ in "abc")
    const = Tensor(rng.normal(size=3))
    calls = []

    def backward(g, wanted):
        calls.append(frozenset(wanted))
        return {name: g * scale for name, scale in
                (("a", 1.0), ("k", 9.0), ("b", 2.0), ("c", 4.0))}

    out = ad.fused(a.data + const.data + b.data + c.data,
                   {"a": a, "k": const, "b": b, "c": c}, backward)
    assert list(out._operands.items()) == [("a", a), ("b", b), ("c", c)]
    for walk in (1, 2):
        C.add(C.sum(out), C.sum(C.mul(out, 2.0))).backward()   # two consumers
        assert calls == [frozenset("abc")] * walk
        for t, scale in ((a, 1.0), (b, 2.0), (c, 4.0)):
            np.testing.assert_array_equal(t.grad, np.full(3, 3.0 * scale * walk))
    constant = ad.fused(const.data * 2.0, {"k": const}, backward)
    assert constant._backward is None and not constant._operands
    with ad.no_grad():
        untracked = ad.fused(a.data * 2.0, {"a": a}, backward)
    assert untracked._backward is None and not untracked._operands


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor(np.zeros(3), requires_grad=True).backward()
    leaf = Tensor(2.0, requires_grad=True)   # a scalar leaf is its own root
    leaf.backward()
    assert leaf.grad.shape == () and leaf.grad == 1.0


def test_masked_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(6, 6))
    mask = rng.random((6, 6)) < 0.5
    np.fill_diagonal(mask, True)
    out = ad.masked_softmax_data(logits, mask)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
    assert (out[~mask] == 0.0).all()


def test_masked_softmax_empty_slice_asserts():
    with pytest.raises(AssertionError):
        ad.masked_softmax_data(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
    # a (T, T) mask broadcast over heads, with one row all invisible
    mask = np.ones((3, 3), dtype=bool)
    mask[1] = False
    with pytest.raises(AssertionError):
        ad.masked_softmax_data(np.zeros((2, 3, 3)), mask, axis=-1)
    # along a non-last axis: column 2 is all invisible
    mask = np.ones((3, 3), dtype=bool)
    mask[:, 2] = False
    with pytest.raises(AssertionError):
        ad.masked_softmax_data(np.zeros((2, 3, 3)), mask, axis=1)
    ad.masked_softmax_data(np.zeros((2, 3, 3)), mask, axis=-1)
    with pytest.raises(ValueError):
        ad.masked_softmax_data(np.zeros((3, 3)), np.ones((2, 3, 3), bool))


def test_masked_softmax_broadcast_mask_matches_full_mask():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 4, 4))
    mask = rng.random((4, 4)) < 0.5
    np.fill_diagonal(mask, True)
    full = np.broadcast_to(mask, x.shape).copy()
    for axis in (-1, 1):
        np.testing.assert_array_equal(
            ad.masked_softmax_data(x, mask, axis=axis),
            ad.masked_softmax_data(x, full, axis=axis))


_R = np.random.default_rng(3)
_M, _N = _R.normal(size=(3, 4)), _R.normal(size=(4, 2))
_S = _R.normal(size=(2, 3, 4))
# (live operand, constant operand, node): fused nodes with a second input
_CONSTANT_OPERAND_CASES = {
    "x*c": (_M, _M + 1.0, lambda t, c: C.mul(t, c)),
    "c*x": (_M, _M + 1.0, lambda t, c: C.mul(c, t)),
    "x+c": (_M, _M + 1.0, lambda t, c: C.add(t, c)),
    "c+x": (_M, _M + 1.0, lambda t, c: C.add(c, t)),
    "x@c 2-D": (_M, _N, lambda t, c: C.matmul(t, c)),
    "c@x 2-D": (_N, _M, lambda t, c: C.matmul(c, t)),
    "c@x stack": (_N, _S, lambda t, c: C.matmul(c, t)),
    "x@c stack": (_S, _N, lambda t, c: C.matmul(t, c)),
    "concat [x, c]": (_M, _M + 1.0, lambda t, c: ad.concat([t, c], axis=1)),
    "concat [c, x]": (_M, _M + 1.0, lambda t, c: ad.concat([c, t])),
    "x*scalar": (_M, _M, lambda t, c: C.mul(C.sum(t, axis=0), 1.0 / 3)),
}


def test_backward_skips_constant_operands():
    """Each node records one operand, its tracked input, and not the
    constant; the live gradient is bit-equal to that of the same expression
    with the constant tracked."""
    for case, (live0, const0, op) in _CONSTANT_OPERAND_CASES.items():
        live, const = Tensor(live0, requires_grad=True), Tensor(const0)
        out = op(live, const)
        recorded = list(out._operands.values())
        assert len(recorded) == 1 and recorded[0] is not const, case
        assert ad._tracked(recorded[0]) and not ad._tracked(const), case
        C.sum(out).backward()
        twin = Tensor(live0, requires_grad=True)
        C.sum(op(twin, Tensor(const0, requires_grad=True))).backward()
        np.testing.assert_array_equal(live.grad, twin.grad, err_msg=case)


def test_dropout_eval_mode_is_identity():
    """The encoder's dropout draws no mask when rate is 0 or rng is None."""
    rng = np.random.default_rng(0)
    assert encoder._keep_mask((5,), 0.0, rng) is None
    assert encoder._keep_mask((5,), 0.5, None) is None
    assert rng.random() == np.random.default_rng(0).random()   # nothing drawn


def test_dropout_scales_kept_entries():
    keep = encoder._keep_mask((10000,), 0.25, np.random.default_rng(0))
    np.testing.assert_allclose(keep[keep > 0], 1.0 / 0.75)
    assert abs(keep.mean() - 1.0) < 0.05


def test_no_grad_records_nothing_and_restores_tracking():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    def build():
        return C.sum(C.add(C.mul(C.tanh(C.mul(x, 2.0)), x), C.getitem(x, 0)))

    with ad.no_grad():
        y = build()
    assert not ad._tracked(y)
    np.testing.assert_array_equal(y.data, (np.tanh(x.data * 2.0) * x.data
                                           + x.data[0]).sum())
    assert ad._tracked(C.mul(x, 2.0))
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside the block")
    z = C.sum(C.mul(x, x))
    assert ad._tracked(z)
    z.backward()
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)


def test_constant_inputs_record_nothing():
    """A tensor without requires_grad is a constant: nodes over it are
    untracked."""
    frozen = Tensor(np.array([1.0, 2.0]))
    live = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    assert not ad._tracked(C.sum(C.tanh(C.mul(frozen, 2.0))))
    mixed = C.mul(frozen, live)
    assert list(mixed._operands.values()) == [live]
    C.sum(mixed).backward()
    np.testing.assert_array_equal(live.grad, frozen.data)
