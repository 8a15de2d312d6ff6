"""Option scoring, losses, uncertainty weighting, and ensemble tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kegat.autodiff import Tensor, log_softmax
from kegat.head import (HeadParams, LossParams, classification_loss,
                        combined_loss, ensemble_average, lm_loss, predict)

from conftest import numeric_grad


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
    loss = lm_loss(logits, tokens)
    assert loss.data < 1e-9


def test_lm_loss_uniform_analytic():
    loss = lm_loss(Tensor(np.zeros((5, 4))), [0, 1, 2, 3, 0])
    np.testing.assert_allclose(loss.data, 5 * np.log(4.0), atol=1e-9)


def test_lm_loss_mask_additivity():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(4, 6)))
    tokens = [1, 2, 3, 4]
    full = lm_loss(logits, tokens).data
    keep = [0, 1, 3]   # the rows a caller passes when row 2 is not trunk
    partial = lm_loss(Tensor(logits.data[keep]),
                      [tokens[i] for i in keep]).data
    term = -log_softmax(logits).data[2, tokens[2]]
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
