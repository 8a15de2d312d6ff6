"""Option scoring, losses, uncertainty weighting, and ensemble tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kegat.autodiff import Tensor
from kegat.head import (PROB_FLOOR, HeadParams, LossParams,
                        classification_loss, combined_loss, ensemble_average,
                        lm_loss, predict)

import composed as C
from conftest import check_operand_grads, numeric_grad


def _head_params(d, hidden=3, seed=0):
    rng = np.random.default_rng(seed)
    return HeadParams(w1=Tensor(rng.normal(0, 0.4, (d, hidden))),
                      b1=Tensor(np.zeros(hidden)),
                      w2=Tensor(rng.normal(0, 0.4, (hidden, 1))),
                      b2=Tensor(np.zeros(1)))


def _loss_params(s1=0.0, s2=0.0):
    return LossParams(s1=Tensor(np.asarray(float(s1)), requires_grad=True),
                      s2=Tensor(np.asarray(float(s2)), requires_grad=True))


def test_predict_tie_breaks_to_lowest_index():
    p = _head_params(2)
    p.w1.data[...] = 0.0    # all options score b2 = 0 -> exact tie
    p.w2.data[...] = 0.0
    probs = predict(Tensor(np.array([np.ones(2), np.zeros(2)])), p, 2).data
    np.testing.assert_allclose(probs, [[0.5, 0.5]])
    assert np.argmax(probs, axis=-1).tolist() == [0]


def test_predict_dominant_option():
    p = _head_params(1, hidden=1)
    p.w1.data[...] = 1.0
    p.b1.data[...] = 0.0
    p.w2.data[...] = 1.0
    probs = predict(Tensor(np.array([[0.0], [10.0], [0.0]])), p, 3).data
    assert np.argmax(probs, axis=-1).tolist() == [1]
    assert probs[0, 1] > 0.9999
    np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)


def test_predict_scores_each_row_of_options():
    p = _head_params(1, hidden=1)
    p.w1.data[...] = 1.0
    p.b1.data[...] = 0.0
    p.w2.data[...] = 1.0
    reprs = Tensor(np.array([[0.0], [10.0], [3.0], [0.0]]))
    probs = predict(reprs, p, 2).data
    assert np.argmax(probs, axis=-1).tolist() == [1, 0]
    for row in range(2):
        one = predict(Tensor(reprs.data[2 * row:2 * row + 2]), p, 2)
        np.testing.assert_array_equal(probs[row], one.data[0])


def test_predict_needs_two_options():
    with pytest.raises(ValueError):
        predict(Tensor(np.ones((1, 2))), _head_params(2), 1)


def test_predict_shift_invariance():
    p = _head_params(3, seed=2)
    reprs = Tensor(np.array([np.random.default_rng(i).normal(size=3)
                             for i in range(3)]))
    base = predict(reprs, p, 3).data
    p.b2.data[...] += 17.0   # constant added to every option's score
    shifted = predict(reprs, p, 3).data
    np.testing.assert_allclose(base, shifted, atol=1e-12)


def test_classification_loss_values():
    assert classification_loss(Tensor(np.array([[1.0, 0.0]])), [0]).data == 0.0
    np.testing.assert_allclose(
        classification_loss(Tensor(np.array([[0.5, 0.5]])), [1]).data,
        np.log(2.0), atol=1e-9)
    np.testing.assert_allclose(
        classification_loss(Tensor(np.array([[1 / 3] * 3])), [2]).data,
        np.log(3.0), atol=1e-9)
    # a batch: the mean of its rows' losses
    np.testing.assert_allclose(
        classification_loss(Tensor(np.array([[0.5, 0.5], [0.2, 0.8]])),
                            [0, 1]).data,
        (np.log(2.0) - np.log(0.8)) / 2, atol=1e-12)


def test_classification_loss_floors_zero_probability():
    loss = classification_loss(Tensor(np.array([[1.0, 0.0]])), [1])
    np.testing.assert_allclose(loss.data, -np.log(1e-12))
    with pytest.raises(ValueError):
        classification_loss(Tensor(np.array([[1.0, 0.0]])), [2])
    # a floored row beside an ordinary one: each keeps its own value and
    # gradient (+1 through the floor, -1/p through the log)
    probs = Tensor(np.array([[1.0, 0.0], [0.25, 0.75]]), requires_grad=True)
    loss = classification_loss(probs, [1, 0])
    np.testing.assert_allclose(loss.data, (-np.log(1e-12) - np.log(0.25)) / 2)
    loss.backward()
    np.testing.assert_allclose(probs.grad, [[0.0, 0.5], [-2.0, 0.0]])


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 3))
@settings(max_examples=30, deadline=None)
def test_classification_loss_nonnegative(seed, n):
    x = np.random.default_rng(seed).normal(size=n)
    probs = np.exp(x) / np.exp(x).sum()
    assert classification_loss(Tensor(probs[None]), [0]).data >= 0.0


def test_lm_loss_perfect_logits_near_zero():
    tokens = [2, 0, 1]
    logits = Tensor(np.eye(3)[tokens] * 1000.0)
    loss = lm_loss(logits, tokens, 1)
    assert loss.data < 1e-9


def test_lm_loss_uniform_analytic():
    loss = lm_loss(Tensor(np.zeros((5, 4))), [0, 1, 2, 3, 0], 1)
    np.testing.assert_allclose(loss.data, 5 * np.log(4.0), atol=1e-9)
    halved = lm_loss(Tensor(np.zeros((5, 4))), [0, 1, 2, 3, 0], 2)
    np.testing.assert_allclose(halved.data, 2.5 * np.log(4.0), atol=1e-9)


def test_lm_loss_mask_additivity():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(4, 6)))
    tokens = [1, 2, 3, 4]
    full = lm_loss(logits, tokens, 1).data
    keep = [0, 1, 3]   # the rows a caller passes when row 2 is not trunk
    partial = lm_loss(Tensor(logits.data[keep]),
                      [tokens[i] for i in keep], 1).data
    row = logits.data[2] - logits.data[2].max()
    term = -(row - np.log(np.exp(row).sum()))[tokens[2]]
    np.testing.assert_allclose(full - partial, term, atol=1e-12)


def test_combined_loss_unit_sigmas():
    lp = _loss_params(0.0, 0.0)    # sigma1 = sigma2 = 1
    out = combined_loss(Tensor(1.0), Tensor(1.0), lp)
    np.testing.assert_allclose(out.data, 1.0, atol=1e-12)
    out = combined_loss(Tensor(2.0), Tensor(4.0), lp)
    np.testing.assert_allclose(out.data, 3.0, atol=1e-12)


def test_combined_loss_gradient_matches_finite_differences():
    l1v, l2v = 0.7, 1.3
    s0 = np.array([0.3, -0.2])
    lp = _loss_params(*s0)
    loss = combined_loss(Tensor(l1v), Tensor(l2v), lp)
    loss.backward()

    def f(s):
        return float(combined_loss(Tensor(l1v), Tensor(l2v),
                                   _loss_params(*s)).data)

    g = numeric_grad(f, s0)
    np.testing.assert_allclose([float(lp.s1.grad), float(lp.s2.grad)], g,
                               rtol=1e-6)


def test_combined_loss_sigma_derivative_formula():
    # dL/dsigma1 = -l1/sigma1^3 + 1/sigma1
    l1v, sigma = 0.49, 0.8

    def f(sig):
        return l1v / (2 * sig ** 2) + np.log(sig)

    fd = (f(sigma + 1e-6) - f(sigma - 1e-6)) / 2e-6
    np.testing.assert_allclose(fd, -l1v / sigma ** 3 + 1 / sigma, rtol=1e-6)


def test_sigma_accessor():
    lp = _loss_params(np.log(0.49), 0.0)
    np.testing.assert_allclose(lp.sigma(1), 0.7, atol=1e-12)
    np.testing.assert_allclose(lp.sigma(2), 1.0, atol=1e-12)


def test_ensemble_average():
    v = np.array([0.2, 0.8])
    np.testing.assert_array_equal(ensemble_average([v]), v)
    out = ensemble_average([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    np.testing.assert_allclose(out, [0.5, 0.5])
    with pytest.raises(ValueError):
        ensemble_average([])
    with pytest.raises(ValueError):
        ensemble_average([np.array([0.9, 0.3])])


@given(st.lists(st.integers(0, 2 ** 31 - 1), min_size=1, max_size=5),
       st.integers(2, 3))
@settings(max_examples=30, deadline=None)
def test_ensemble_of_distributions_is_distribution(seeds, n):
    vecs = []
    for s in seeds:
        x = np.random.default_rng(s).normal(size=n)
        vecs.append(np.exp(x) / np.exp(x).sum())
    out = ensemble_average(vecs)
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-9)


# -- the fused loss nodes against the composed ops they replace --------------

def _neg(t):
    return C.unary(-t.data, t, np.negative)


def _exp(t):
    out = np.exp(t.data)
    return C.unary(out, t, lambda g: g * out)


def _log(t):
    return C.unary(np.log(t.data), t, lambda g: g / t.data)


def _log_softmax(t):
    shifted = t.data - t.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    soft = np.exp(out)
    return C.unary(out, t,
                   lambda g: g - soft * g.sum(axis=-1, keepdims=True))


def _reference_classification(probs, labels):
    """The composed-op loss, with its separate path for floored rows."""
    p = C.getitem(probs, (np.arange(len(labels)), np.asarray(labels)))
    low = p.data <= PROB_FLOOR
    if not low.any():
        return C.mean(_neg(_log(p)))
    mask = low.astype(np.float64)
    kept = C.add(C.mul(p, ~low), mask)
    floored = np.where(low, -np.log(PROB_FLOOR), 0.0)
    return C.mean(C.add(C.add(_neg(_log(kept)),
                              C.mul(C.add(p, -p.data), mask)), floored))


def _reference_lm(logits, tokens, n_instances):
    """The summed cross-entropy, times 1/n_instances."""
    rows = (np.arange(len(tokens)), np.asarray(tokens))
    return C.mul(_neg(C.sum(C.getitem(_log_softmax(logits), rows))),
                 1.0 / n_instances)


def _reference_combined(l1, l2, params):
    return C.mul(C.add(C.add(C.add(C.mul(_exp(_neg(params.s1)), l1),
                                   C.mul(_exp(_neg(params.s2)), l2)),
                             params.s1), params.s2), 0.5)


# the probability at each row's label: none floored, some floored (0, below
# the floor, exactly at it), all floored
_LABEL_PROBS = {
    "ordinary": [0.4, 0.9, 0.25, 1.0, 0.3],
    "floored": [0.4, 0.0, 1e-13, 1e-12, 0.7],
    "all floored": [0.0, 1e-12, 5e-324, 1e-13, 0.0],
}


def _loss_inputs(kind, seed):
    """Probabilities with the kind's value at each label, LM logits and
    tokens, and the labels."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=5)
    probs = rng.dirichlet(np.ones(3), size=5)
    probs[np.arange(5), labels] = _LABEL_PROBS[kind]
    logits = rng.normal(scale=2.0, size=(5, 7))
    return probs, labels, logits, rng.integers(0, 7, size=5)


def _run_losses(loss_fns, kind, root, g, seed, n_instances):
    """Build one root the way `KegatModel.loss` does, the LM term over
    `n_instances`, scale it by g, run backward, and return every value and
    gradient the losses produced."""
    classify, lm, combine = loss_fns
    probs0, labels, logits0, tokens = _loss_inputs(kind, seed)
    probs = Tensor(probs0, requires_grad=True)
    logits = Tensor(logits0, requires_grad=True)
    s = np.random.default_rng(seed + 1).normal(size=2)
    params = LossParams(
        s1=Tensor(s[0], requires_grad=root == "combined"),
        s2=Tensor(s[1], requires_grad=root == "combined"))
    l2 = classify(probs, labels)
    l1 = None
    if root == "combined":
        l1 = lm(logits, tokens, n_instances)
    elif root == "frozen s":   # phase 1: the LM term a constant
        l1 = Tensor(lm(Tensor(logits0), tokens, n_instances).data)
    out = l2 if l1 is None else combine(l1, l2, params)
    C.mul(out, g).backward()
    values = [t.data for t in (l1, l2, out) if t is not None]
    grads = [t.grad for t in (probs, logits, params.s1, params.s2)
             if t.requires_grad]
    return values + grads


@pytest.mark.parametrize("kind", sorted(_LABEL_PROBS))
@pytest.mark.parametrize("root", ["combined", "frozen s", "no LM"])
@pytest.mark.parametrize("g", [1.0, 0.37, 3.5])
@pytest.mark.parametrize("seed", [0, 1])
def test_loss_nodes_match_composed_reference(kind, root, g, seed):
    """Each fused loss gives the composed ops' value bytes, and every
    operand its gradient bytes, on floored rows, with s1 and s2 frozen, with
    no LM term, under an upstream gradient g != 1, and with the LM term
    over 1, 3 and 7 instances."""
    for n in (1, 3, 7):
        got = _run_losses((classification_loss, lm_loss, combined_loss),
                          kind, root, g, seed, n)
        want = _run_losses((_reference_classification, _reference_lm,
                            _reference_combined), kind, root, g, seed, n)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), n


@pytest.mark.parametrize("kind", sorted(_LABEL_PROBS))
def test_floored_rows_raise_no_floating_point_error(kind):
    probs0, labels, _, _ = _loss_inputs(kind, seed=3)
    probs = Tensor(probs0, requires_grad=True)
    with np.errstate(all="raise"):
        loss = classification_loss(probs, labels)
        C.mul(loss, 0.37).backward()
    assert np.isfinite(loss.data) and np.isfinite(probs.grad).all()


def test_classification_node_gradient_matches_differences():
    probs0, labels, _, _ = _loss_inputs("ordinary", seed=4)
    probs0[probs0 == 1.0] = 0.95   # keep p + step a probability
    probs = Tensor(probs0, requires_grad=True)
    classification_loss(probs, labels).backward()
    np.testing.assert_allclose(
        probs.grad,
        numeric_grad(lambda x: float(classification_loss(
            Tensor(x), labels).data), probs0), rtol=1e-6, atol=1e-9)


def test_lm_node_gradient_matches_differences():
    _, _, logits0, tokens = _loss_inputs("ordinary", seed=5)
    for n_instances in (1, 3):
        logits = Tensor(logits0, requires_grad=True)
        check_operand_grads(lambda: lm_loss(logits, tokens, n_instances),
                            {"logits": logits})


def test_combined_node_gradient_matches_differences():
    """Each of the four operands: both terms and both log-variances."""
    x0 = np.array([0.7, 1.3, 0.3, -0.2])   # l1, l2, s1, s2

    def f(x):
        return float(combined_loss(Tensor(x[0]), Tensor(x[1]),
                                   LossParams(Tensor(x[2]), Tensor(x[3]))).data)

    ts = [Tensor(v, requires_grad=True) for v in x0]
    combined_loss(ts[0], ts[1], LossParams(ts[2], ts[3])).backward()
    np.testing.assert_allclose([float(t.grad) for t in ts],
                               numeric_grad(f, x0), rtol=1e-6)


# -- the fused head node against the composed ops it replaces ----------------

def _reference_predict(reprs, params, n_options):
    hidden = C.elu(C.add(C.matmul(reprs, params.w1), params.b1))
    raw = C.reshape(C.add(C.matmul(hidden, params.w2), params.b2), -1,
                    n_options)
    return C.masked_softmax(raw)


def _head_inputs(rng, n_rows, d, hidden=3):
    """Tracked option rows and head weights."""
    reprs = Tensor(rng.normal(size=(n_rows, d)), requires_grad=True)
    return reprs, HeadParams(*(
        Tensor(rng.normal(0.0, 0.5, s), requires_grad=True)
        for s in ((d, hidden), (hidden,), (hidden, 1), (1,))))


@pytest.mark.parametrize("n_options", [2, 3])
@pytest.mark.parametrize("frozen", [(), ("reprs",), ("w1", "b2"),
                                    ("reprs", "w1", "w2", "b2")])
def test_predict_node_matches_composed_reference(n_options, frozen):
    """The head node gives the composed ops' probability bytes, and every
    operand its gradient bytes: with the option rows a constant, as inside
    the frozen trunk, and with head weights frozen."""
    results = []
    for fn in (predict, _reference_predict):
        rng = np.random.default_rng(n_options)
        reprs, params = _head_inputs(rng, 4 * n_options, 5)
        operands = {"reprs": reprs, **vars(params)}
        for name in frozen:
            operands[name].requires_grad = False
        probs = fn(reprs, params, n_options)
        C.mul(C.weighted_sum(probs, rng.normal(size=probs.shape)),
              0.37).backward()
        results.append([probs.data] + [t.grad for t in operands.values()
                                       if t.requires_grad])
    got, want = results
    assert len(got) == len(want) == 6 - len(frozen)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_predict_node_gradient_matches_differences():
    rng = np.random.default_rng(5)
    reprs, params = _head_inputs(rng, 6, 4)
    readout = Tensor(rng.normal(size=(2, 3)))
    check_operand_grads(
        lambda: C.weighted_sum(predict(reprs, params, 3), readout),
        {"reprs": reprs, **vars(params)})
