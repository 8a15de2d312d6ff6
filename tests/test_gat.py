"""Graph-attention reasoning tests: sampling, layers, pooling, fusion, gate."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from kegat import autodiff as ad
from kegat.autodiff import Tensor
from kegat.errors import DataFormatError
from kegat.kgstore import Edge, load_graph
from kegat.gat import (LEAKY_SLOPE, Subgraph, attention_coeffs,
                       block_diagonal, build_subgraph, fuse, gat_layer,
                       init_node_embeddings, load_concept_table, pool_subgraph,
                       run_gat, self_refine, weighted_sample)

import composed as C
from conftest import check_operand_grads, numeric_grad, write_kb


def _subgraph(n, adjacency=None):
    if adjacency is None:
        adjacency = np.ones((n, n), dtype=bool)
    return Subgraph(nodes=tuple(f"c{i}" for i in range(n)),
                    adjacency=adjacency)


def _gat_params(dg, layers=1, heads=1, seed=0):
    """Each layer's node transforms "w" and attention vectors "a"."""
    rng = np.random.default_rng(seed)
    w = [Tensor(rng.normal(0, 0.4, (heads, dg, dg)), requires_grad=True)
         for _ in range(layers)]
    a = [Tensor(rng.normal(0, 0.4, (heads, 2 * dg)), requires_grad=True)
         for _ in range(layers)]
    return _layers(w, a)


def _layers(w, a):
    return [{"w": wl, "a": al} for wl, al in zip(w, a)]


# -- sampling -----------------------------------------------------------------

def _edges(weights):
    return [Edge("x", "/r/IsA", f"n{i}", w) for i, w in enumerate(weights)]


def inclusion_probabilities(weights, k):
    """Exact per-neighbor inclusion probability of sequential weighted draws."""
    n = len(weights)
    probs = np.zeros(n)
    for perm in itertools.permutations(range(n), min(k, n)):
        p = 1.0
        remaining = list(range(n))
        total = float(sum(weights))
        for idx in perm:
            p *= weights[idx] / total
            remaining.remove(idx)
            total -= weights[idx]
        for idx in perm:
            probs[idx] += p
    return probs


def test_sampling_saturates_when_degree_below_k():
    edges = _edges([1.0, 2.0])
    picked = weighted_sample(edges, 5, np.random.default_rng(0))
    assert sorted(e.tail for e in picked) == ["n0", "n1"]


def test_sampling_k_zero():
    assert weighted_sample(_edges([1.0]), 0, np.random.default_rng(0)) == []


def test_enumeration_oracle_sanity():
    # k >= n includes everything with probability 1
    np.testing.assert_allclose(inclusion_probabilities([2, 1, 1], 3), 1.0)
    # symmetric weights share inclusion probability
    p = inclusion_probabilities([1, 1, 1], 2)
    np.testing.assert_allclose(p, 2 / 3)


def test_sampling_matches_enumeration_quick():
    weights = [2.0, 1.0, 1.0]
    exact = inclusion_probabilities(weights, 2)
    rng = np.random.default_rng(123)
    counts = np.zeros(3)
    trials = 20000
    for _ in range(trials):
        for e in weighted_sample(_edges(weights), 2, rng):
            counts[int(e.tail[1])] += 1
    np.testing.assert_allclose(counts / trials, exact, atol=0.02)


def _reference_sample(edges, k, rng):
    """Weighted draws over a fresh ``np.cumsum`` per draw."""
    remaining, picked = list(edges), []
    while remaining and len(picked) < k:
        cum = np.cumsum([e.weight for e in remaining])
        idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        picked.append(remaining.pop(min(idx, len(remaining) - 1)))
    return picked


def test_sampling_matches_cumsum_reference_draw_for_draw():
    """The same edges, in the same order, and the same draws taken from the
    generator, with repeated weights and weights too small to move a sum."""
    weights = [1.0, 1.0, 1e-17, 3.0, 1e-17, 5e-324, 2.5, 1.0, 1e-300, 0.5]
    for seed in range(200):
        edges = _edges(weights[:2 + seed % 9])
        k = seed % 7
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (weighted_sample(edges, k, rng)
                == _reference_sample(edges, k, ref_rng)), seed
        assert rng.random() == ref_rng.random(), seed
    # draws that land exactly on a running sum pick the edge after it
    edges = _edges([1.0, 1.0, 2.0, 1e-17, 4.0])
    for draws in ([0.25, 0.5, 0.0], [0.5, 0.25, 0.75], [0.125, 0.0, 0.5]):
        picked = weighted_sample(edges, 3, SimpleNamespace(
            random=iter(draws).__next__))
        assert picked == _reference_sample(edges, 3, SimpleNamespace(
            random=iter(draws).__next__)), draws


# -- subgraph construction ----------------------------------------------------

def test_build_subgraph_empty_without_entities(sugar_graph):
    sub = build_subgraph(["nothing", "matches"], sugar_graph, 4, 0)
    assert len(sub) == 0
    pooled = pool_subgraph(None, [0], 5)
    np.testing.assert_array_equal(pooled.data, np.zeros((1, 5)))


def test_build_subgraph_structure(sugar_graph):
    sub = build_subgraph(["sugar", "and", "coffee"], sugar_graph, 4, 7)
    assert sub.nodes[:2] == ("sugar", "coffee")
    assert set(sub.nodes) == {"sugar", "coffee", "sweetening_coffee",
                              "sweet_food", "carbohydrate", "drink", "cup"}
    np.testing.assert_array_equal(sub.adjacency, sub.adjacency.T)
    assert sub.adjacency.diagonal().all()
    idx = {c: i for i, c in enumerate(sub.nodes)}
    assert sub.adjacency[idx["sugar"], idx["sweet_food"]]
    assert not sub.adjacency[idx["sugar"], idx["drink"]]


def test_build_subgraph_deterministic_per_seed(sugar_graph):
    a = build_subgraph(["sugar"], sugar_graph, 2, 99)
    b = build_subgraph(["sugar"], sugar_graph, 2, 99)
    assert a.nodes == b.nodes
    np.testing.assert_array_equal(a.adjacency, b.adjacency)


def test_init_node_embeddings(sugar_graph):
    sub = build_subgraph(["sugar"], sugar_graph, 4, 0)
    table = {c: np.full(3, i + 1.0) for i, c in enumerate(sub.nodes[:-1])}
    out = init_node_embeddings(sub, table, 3)
    np.testing.assert_array_equal(out[0], table[sub.nodes[0]])
    np.testing.assert_array_equal(out[-1], np.zeros(3))   # unknown concept
    with pytest.raises(DataFormatError):
        init_node_embeddings(sub, {sub.nodes[0]: np.zeros(7)}, 3)
    assert init_node_embeddings(_subgraph(0, np.eye(0, dtype=bool)), {}, 3).shape == (0, 3)


# -- attention ----------------------------------------------------------------

def test_alpha_self_loop_only_is_one():
    params = _gat_params(2)
    h = Tensor(np.random.default_rng(0).normal(size=(1, 2)))
    alpha = attention_coeffs(h, _subgraph(1), 0, params).data[0]
    np.testing.assert_allclose(alpha, [[1.0]])


def test_alpha_identical_states_split_evenly():
    params = _gat_params(2)
    h = Tensor(np.tile(np.array([0.3, -0.7]), (2, 1)))
    alpha = attention_coeffs(h, _subgraph(2), 0, params).data[0]
    np.testing.assert_allclose(alpha, 0.5, atol=1e-12)


def test_alpha_scalar_hand_computation():
    # d_g = 1, W = [[1]], a = (1, 1): score_ij = LeakyReLU(h_i + h_j)
    params = [{"w": Tensor(np.array([[[1.0]]])),
               "a": Tensor(np.array([[1.0, 1.0]]))}]
    h = Tensor(np.array([[1.0], [2.0]]))
    alpha = attention_coeffs(h, _subgraph(2), 0, params).data[0]
    scores = np.array([[2.0, 3.0], [3.0, 4.0]])
    expected = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(alpha, expected, atol=1e-12)


def test_alpha_rows_sum_to_one_under_sparsity():
    params = _gat_params(3, seed=4)
    rng = np.random.default_rng(5)
    adj = rng.random((6, 6)) < 0.4
    adj = adj | adj.T
    np.fill_diagonal(adj, True)
    h = Tensor(rng.normal(size=(6, 3)))
    alpha = attention_coeffs(h, _subgraph(6, adj), 0, params).data[0]
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-9)
    assert (alpha[~adj] == 0).all()


# -- layers, pooling ----------------------------------------------------------

def test_isolated_node_layer_is_elu_of_transform():
    params = _gat_params(3)
    h = Tensor(np.array([[0.5, -1.0, 2.0]]))
    out = gat_layer(h, _subgraph(1), params, 0)
    z = h.data @ params[0]["w"].data[0]
    np.testing.assert_allclose(out.data,
                               np.where(z > 0, z, np.expm1(z)), atol=1e-12)


def test_two_node_line_graph_closed_form():
    # d_g = 1, W = [[1]], a = (0, 0): uniform attention over both nodes.
    params = [{"w": Tensor(np.array([[[1.0]]])),
               "a": Tensor(np.array([[0.0, 0.0]]))}]
    h = Tensor(np.array([[1.0], [3.0]]))
    out = gat_layer(h, _subgraph(2), params, 0)
    np.testing.assert_allclose(out.data, [[2.0], [2.0]], atol=1e-12)


def test_layer_permutation_equivariance():
    params = _gat_params(3, seed=1)
    rng = np.random.default_rng(2)
    adj = rng.random((5, 5)) < 0.5
    adj = adj | adj.T
    np.fill_diagonal(adj, True)
    h0 = rng.normal(size=(5, 3))
    perm = rng.permutation(5)
    out = gat_layer(Tensor(h0), _subgraph(5, adj), params, 0).data
    out_p = gat_layer(Tensor(h0[perm]),
                      _subgraph(5, adj[np.ix_(perm, perm)]), params, 0).data
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


def _random_adjacency(rng, n):
    adj = rng.random((n, n)) < 0.5
    adj = adj | adj.T
    np.fill_diagonal(adj, True)
    return adj


def test_two_head_layer_is_elu_of_head_mean():
    params = _gat_params(3, heads=2, seed=6)
    rng = np.random.default_rng(8)
    adj = _random_adjacency(rng, 5)
    h = rng.normal(size=(5, 3))
    heads = []
    for w, a in zip(params[0]["w"].data, params[0]["a"].data):
        wh = h @ w
        s = (wh @ a[:3])[:, None] + (wh @ a[3:])[None, :]
        s = np.where(s > 0, s, 0.2 * s)
        e = np.where(adj, np.exp(s - s.max(axis=1, keepdims=True)), 0.0)
        heads.append(e / e.sum(axis=1, keepdims=True) @ wh)
    z = (heads[0] + heads[1]) / 2
    out = gat_layer(Tensor(h), _subgraph(5, adj), params, 0)
    np.testing.assert_allclose(out.data, np.where(z > 0, z, np.expm1(z)),
                               atol=1e-12)


def test_run_gat_gradients_two_layers_two_heads():
    params = _gat_params(3, layers=2, heads=2, seed=9)
    rng = np.random.default_rng(10)
    sub = _subgraph(4, _random_adjacency(rng, 4))
    init = rng.normal(size=(4, 3))
    readout = Tensor(rng.normal(size=(4, 3)))

    def loss(node_init):
        return float(C.weighted_sum(run_gat(node_init, sub, params),
                                    readout).data)

    C.weighted_sum(run_gat(init, sub, params), readout).backward()
    for t in (t for lp in params for t in lp.values()):
        x0 = t.data.copy()

        def f(x):
            t.data[...] = x
            try:
                return loss(init)
            finally:
                t.data[...] = x0

        np.testing.assert_allclose(t.grad, numeric_grad(f, x0),
                                   rtol=1e-6, atol=1e-9)
    # run_gat holds its input constant; the same layers over a tracked input
    h0 = Tensor(init, requires_grad=True)
    h = gat_layer(gat_layer(h0, sub, params, 0), sub, params, 1)
    np.testing.assert_array_equal(h.data, run_gat(init, sub, params).data)
    C.weighted_sum(h, readout).backward()
    np.testing.assert_allclose(h0.grad, numeric_grad(loss, init),
                               rtol=1e-6, atol=1e-9)


def test_pool_identical_rows_and_permutation_invariance():
    v = np.array([0.2, -0.4])
    h = Tensor(np.tile(v, (4, 1)))
    np.testing.assert_allclose(pool_subgraph(h, [4], 2).data[0], v, atol=1e-15)
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 2))
    a = pool_subgraph(Tensor(m), [6], 2).data
    b = pool_subgraph(Tensor(m[rng.permutation(6)]), [6], 2).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_pool_segments_are_means_of_their_own_rows():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(7, 3))
    pooled = pool_subgraph(Tensor(m), [2, 0, 5], 3).data
    np.testing.assert_allclose(pooled[0], m[:2].mean(axis=0), atol=1e-15)
    np.testing.assert_array_equal(pooled[1], np.zeros(3))
    np.testing.assert_allclose(pooled[2], m[2:].mean(axis=0), atol=1e-15)
    np.testing.assert_array_equal(pool_subgraph(None, [0, 0], 3).data,
                                  np.zeros((2, 3)))


def test_block_diagonal_union_runs_each_subgraph_alone():
    """No attention crosses blocks: each block's states, and its pooled
    vector, match the subgraph run alone; an empty block pools to zeros."""
    rng = np.random.default_rng(11)
    subs = []
    for n in (3, 0, 5, 1):
        adj = np.eye(n, dtype=bool)
        for _ in range(n):
            i, j = rng.integers(n, size=2) if n else (0, 0)
            if n:
                adj[i, j] = adj[j, i] = True
        subs.append(_subgraph(n, adjacency=adj))
    union = block_diagonal(subs)
    assert len(union) == 9
    assert union.nodes == tuple(c for s in subs for c in s.nodes)
    params = _gat_params(4, layers=2, heads=2, seed=3)
    inits = [rng.normal(size=(len(s), 4)) for s in subs]
    h = run_gat(np.concatenate(inits), union, params)
    pooled = pool_subgraph(h, [len(s) for s in subs], 4).data
    start = 0
    for k, (sub, init) in enumerate(zip(subs, inits)):
        end = start + len(sub)
        if len(sub):
            alone = run_gat(init, sub, params).data
            np.testing.assert_allclose(h.data[start:end], alone, atol=1e-12)
            np.testing.assert_allclose(pooled[k], alone.mean(axis=0),
                                       atol=1e-12)
        else:
            np.testing.assert_array_equal(pooled[k], np.zeros(4))
        start = end


def test_fuse_gate_and_concat_on_rows_match_each_row_alone():
    rng = np.random.default_rng(12)
    fuse_p = _fuse_params(3, 2, 4, 4, seed=13)
    gate_p = {"w1": Tensor(rng.normal(size=(4, 2))),
              "w2": Tensor(rng.normal(size=(2, 4)))}
    base, gnn = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
    rows = ad.concat([self_refine(fuse(Tensor(base), Tensor(gnn), fuse_p),
                                  gate_p), Tensor(base)], axis=-1).data
    assert rows.shape == (5, 7)
    for i in range(5):
        one = slice(i, i + 1)
        alone = ad.concat(
            [self_refine(fuse(Tensor(base[one]), Tensor(gnn[one]), fuse_p),
                         gate_p), Tensor(base[one])], axis=-1).data
        np.testing.assert_allclose(rows[one], alone, atol=1e-12)


def test_zero_layer_gat_pool_is_mean_of_init():
    init = np.random.default_rng(0).normal(size=(4, 3))
    h = run_gat(init, _subgraph(4), [])
    np.testing.assert_allclose(pool_subgraph(h, [4], 3).data[0],
                               init.mean(axis=0))


# -- fusion, gate, concat -----------------------------------------------------

def _fuse_params(db, dg, hidden, out, seed=0):
    rng = np.random.default_rng(seed)
    return {"w1": Tensor(rng.normal(0, 0.3, (db + dg, hidden))),
            "b1": Tensor(np.zeros(hidden)),
            "w2": Tensor(rng.normal(0, 0.3, (hidden, out))),
            "b2": Tensor(np.zeros(out))}


def test_fuse_zero_weights_gives_bias():
    p = _fuse_params(3, 2, 4, 3)
    p["w1"].data[...] = 0.0
    p["w2"].data[...] = 0.0
    p["b2"].data[...] = np.array([1.0, 2.0, 3.0])
    out = fuse(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 2))), p)
    np.testing.assert_allclose(out.data, [[1.0, 2.0, 3.0]])


def test_fuse_gradient_wrt_e_gnn():
    p = _fuse_params(3, 2, 4, 3, seed=5)
    e_base = np.random.default_rng(6).normal(size=(1, 3))

    def f(x):
        return float(C.sum(fuse(Tensor(e_base), Tensor(x), p)).data)

    x0 = np.array([[0.4, -0.9]])
    t = Tensor(x0, requires_grad=True)
    C.sum(fuse(Tensor(e_base), t, p)).backward()
    np.testing.assert_allclose(t.grad, numeric_grad(f, x0), rtol=1e-6)


def test_self_refine_uniform_scores_is_elu_identity():
    p = {"w1": Tensor(np.zeros((4, 2))), "w2": Tensor(np.zeros((2, 4)))}
    x = np.array([[0.5, -0.5, 2.0, -2.0]])
    out = self_refine(Tensor(x), p)
    np.testing.assert_allclose(out.data, np.where(x > 0, x, np.expm1(x)),
                               atol=1e-12)


def test_self_refine_gate_weights_sum_to_dim():
    rng = np.random.default_rng(7)
    for _ in range(25):
        dim = int(rng.integers(2, 9))
        p = {"w1": Tensor(rng.normal(size=(dim, 3))),
             "w2": Tensor(rng.normal(size=(3, dim)))}
        e = Tensor(rng.normal(size=(1, dim)))
        scores = np.tanh(e.data @ p["w1"].data) @ p["w2"].data
        gate = np.exp(scores - scores.max())
        gate = gate / gate.sum() * dim
        assert abs(gate.sum() - dim) < 1e-9
        np.testing.assert_allclose(
            self_refine(e, p).data,
            np.where(gate * e.data > 0, gate * e.data,
                     np.expm1(gate * e.data)), atol=1e-12)


def test_concat_final_order_and_dims():
    g = Tensor(np.arange(3.0))
    e = Tensor(np.arange(5.0) + 10)
    out = ad.concat([g, e], axis=-1)
    assert out.shape == (8,)
    np.testing.assert_array_equal(out.data[:3], g.data)
    np.testing.assert_array_equal(out.data[3:], e.data)
    zero = ad.concat([Tensor(np.zeros(3)), e], axis=-1)
    np.testing.assert_array_equal(zero.data[3:], e.data)


def test_empty_subgraph_chain_is_finite():
    fuse_p = _fuse_params(3, 2, 4, 4, seed=8)
    gate_p = {"w1": Tensor(np.random.default_rng(9).normal(size=(4, 2))),
              "w2": Tensor(np.random.default_rng(10).normal(size=(2, 4)))}
    e_gnn = pool_subgraph(None, [0], 2)
    e_all = fuse(Tensor(np.ones((1, 3))), e_gnn, fuse_p)
    final = ad.concat([self_refine(e_all, gate_p), Tensor(np.ones((1, 3)))],
                      axis=-1)
    assert np.isfinite(final.data).all()


# -- the fused nodes against the composed ops they replace --------------------

def _reference_gat_layer(h, sub, params, layer):
    """The composed-op layer: stacked head transforms, leaky-ReLU scores, a
    masked softmax over the adjacency, aggregation, head mean and ELU."""
    a = params[layer]["a"]
    dg = a.shape[1] // 2
    wh = C.matmul(h, params[layer]["w"])
    scores = C.add(C.matmul(wh, C.getitem(a, np.s_[:, :dg, None])),
                   C.transpose(C.matmul(wh, C.getitem(a, np.s_[:, dg:, None])),
                               0, 2, 1))
    alpha = C.masked_softmax(C.leaky_relu(scores, LEAKY_SLOPE),
                             sub.adjacency, axis=-1)
    return C.elu(C.mean(C.matmul(alpha, wh), axis=0))


def _reference_pool(h, sizes, node_dim):
    """Segment means as a constant weight matrix times `h`."""
    weights = np.zeros((len(sizes), h.shape[0]))
    start = 0
    for i, n in enumerate(sizes):
        if n:
            weights[i, start:start + n] = 1.0 / n
        start += n
    return C.matmul(weights, h)


def _reference_fuse(e_base, e_gnn, params):
    x = ad.concat([e_base, e_gnn], axis=-1)
    hidden = C.elu(C.add(C.matmul(x, params["w1"]), params["b1"]))
    return C.add(C.matmul(hidden, params["w2"]), params["b2"])


def _reference_self_refine(e_all, params):
    scores = C.matmul(C.tanh(C.matmul(e_all, params["w1"])), params["w2"])
    gate = C.mul(C.masked_softmax(scores), float(e_all.shape[-1]))
    return C.elu(C.mul(gate, e_all))


# the fusion MLP's and the gate's parameter names, in the model's add order
_FUSE, _GATE = ("w1", "b1", "w2", "b2"), ("w1", "w2")


def _leaves(rng, *shapes):
    return [Tensor(rng.normal(0.0, 0.5, s), requires_grad=True)
            for s in shapes]


def _graph_side(nodes, kind, heads, frozen, h_tracked):
    """Two GAT layers, pooling into two option rows (one of them empty on a
    one-node graph), fusion, the gate and the final concat, as the model
    runs them, under a random readout scaled by 0.37; every value the nodes
    produced and every leaf's gradient."""
    layer, pool, fuse_fn, refine = nodes
    rng = np.random.default_rng(heads)
    n = 1 if kind == "one node" else 5
    adj = (np.eye(n, dtype=bool) if kind == "isolated"
           else _random_adjacency(rng, n))
    w = _leaves(rng, (heads, 3, 3), (heads, 3, 3))
    a = _leaves(rng, (heads, 6), (heads, 6))
    params = _layers(w, a)
    if kind == "zero scores":   # every leaky-ReLU input exactly 0
        for t in a:
            t.data[...] = 0.0
    fuse_p = dict(zip(_FUSE, _leaves(rng, (7, 5), (5,), (5, 4), (4,))))
    gate_p = dict(zip(_GATE, _leaves(rng, (4, 2), (2, 4))))
    h0 = Tensor(rng.normal(size=(n, 3)), requires_grad=h_tracked)
    e_base = _leaves(rng, (2, 4))[0]
    leaves = [h0, e_base, *w, *a, *fuse_p.values(), *gate_p.values()]
    mlp = [fuse_p["w1"], fuse_p["b2"], gate_p["w2"]]
    for t in {"w": w, "a": a, "mlp": mlp}.get(frozen, []):
        t.requires_grad = False
    sub = _subgraph(n, adj)
    h1 = layer(h0, sub, params, 0)
    h2 = layer(h1, sub, params, 1)
    e_gnn = pool(h2, [n // 2 + 1, n - n // 2 - 1], 3)
    e_all = fuse_fn(e_base, e_gnn, fuse_p)
    g = refine(e_all, gate_p)
    reprs = ad.concat([g, e_base], axis=-1)
    C.mul(C.weighted_sum(reprs, rng.normal(size=reprs.shape)), 0.37).backward()
    return ([t.data for t in (h1, h2, e_gnn, e_all, g)]
            + [t.grad for t in leaves if t.requires_grad])


@pytest.mark.parametrize("kind", ["random", "one node", "isolated",
                                  "zero scores"])
@pytest.mark.parametrize("heads", [1, 3])
@pytest.mark.parametrize("frozen", ["none", "w", "a", "mlp"])
def test_graph_nodes_match_composed_reference(kind, heads, frozen):
    """The GAT layer, pooling, fusion and gate nodes give the composed ops'
    value bytes, and every operand its gradient bytes: with one head or
    several, on a one-node graph (with an empty pooling segment), isolated
    nodes and scores on the leaky-ReLU tie, from an untracked first-layer
    input, and with weights frozen."""
    for h_tracked in (True, False):
        got = _graph_side((gat_layer, pool_subgraph, fuse, self_refine),
                          kind, heads, frozen, h_tracked)
        want = _graph_side((_reference_gat_layer, _reference_pool,
                            _reference_fuse, _reference_self_refine), kind,
                           heads, frozen, h_tracked)
        assert len(got) == len(want)
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.tobytes() == b.tobytes(), (h_tracked, i)


def test_fuse_and_gate_gradients_match_differences():
    """Every operand of the fusion and gate nodes gets the gradient central
    differences give; test_run_gat_gradients_two_layers_two_heads checks
    the layer's."""
    rng = np.random.default_rng(23)
    e_base, e_gnn, *weights = _leaves(rng, (2, 3), (2, 2), (5, 4), (4,),
                                      (4, 3), (3,))
    fuse_p = dict(zip(_FUSE, weights))
    e_all, *weights = _leaves(rng, (2, 3), (3, 2), (2, 3))
    gate_p = dict(zip(_GATE, weights))
    readout = Tensor(rng.normal(size=(2, 3)))
    check_operand_grads(
        lambda: C.weighted_sum(fuse(e_base, e_gnn, fuse_p), readout),
        {"e_base": e_base, "e_gnn": e_gnn, **fuse_p})
    check_operand_grads(
        lambda: C.weighted_sum(self_refine(e_all, gate_p), readout),
        {"e_all": e_all, **gate_p})


@pytest.mark.parametrize("sizes", [[3, 2], [2, 0, 3], [0, 5], [5]])
@pytest.mark.parametrize("tracked", [True, False])
def test_pool_node_matches_composed_reference(sizes, tracked):
    """The pooling node gives the composed ops' value bytes and its input
    the same gradient bytes, with empty segments, and records no operand for
    an untracked input."""
    results = []
    for pool in (pool_subgraph, _reference_pool):
        rng = np.random.default_rng(len(sizes))
        h = Tensor(rng.normal(size=(5, 3)), requires_grad=tracked)
        out = pool(h, sizes, 3)
        assert len(out._operands) == tracked
        C.mul(C.weighted_sum(out, rng.normal(size=out.shape)), 0.37).backward()
        results.append([out.data, h.grad])
    (got, got_grad), (want, want_grad) = results
    assert got.tobytes() == want.tobytes()
    if tracked:
        assert got_grad.tobytes() == want_grad.tobytes()


def test_pool_node_gradient_matches_differences():
    rng = np.random.default_rng(24)
    h = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    readout = rng.normal(size=(3, 3))
    check_operand_grads(
        lambda: C.weighted_sum(pool_subgraph(h, [2, 0, 4], 3), readout),
        {"h": h})


# -- concept table ------------------------------------------------------------

def test_load_concept_table(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("2 3\nfoo 1 2 3\nbar 4 5 6\n", encoding="utf-8")
    table = load_concept_table(p, 3)
    np.testing.assert_array_equal(table["foo"], [1, 2, 3])
    # projection to a different dimension is deterministic
    t1 = load_concept_table(p, 2, seed=1)
    t2 = load_concept_table(p, 2, seed=1)
    assert t1["bar"].shape == (2,)
    np.testing.assert_array_equal(t1["bar"], t2["bar"])


def test_load_concept_table_no_header(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("foo 1 2\nbar 3 4\n", encoding="utf-8")
    assert set(load_concept_table(p, 2)) == {"foo", "bar"}


def test_load_concept_table_errors(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("foo 1 x\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="non-numeric"):
        load_concept_table(p, 2)
    p.write_text("foo 1 2\nbar 3\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="dim"):
        load_concept_table(p, 2)
    p.write_text("foo 1 2\nbar\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":2: no vector components"):
        load_concept_table(p, 2)
