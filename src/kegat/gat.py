"""Graph-attention reasoning over sampled knowledge subgraphs.

For each linked entity, up to k neighbors are drawn without replacement with
probability proportional to edge weight. The union of entities and sampled
neighbors forms one subgraph (all KB edges among included nodes are kept,
plus self-loops), refined by multi-head attention layers and mean-pooled into
a single vector that is fused with the sequence encoder's pooled state. A
batch's subgraphs run as one block-diagonal graph. A layer, with its heads
stacked, is one autodiff node, and so are the fusion MLP and the gate; their
written-out backward passes replay the composed ops' arithmetic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataFormatError
from .kgstore import KnowledgeGraph, neighbors, text_lines
from .linker import TokenSpan, extract_entities

LEAKY_SLOPE = 0.2   # of the LeakyReLU on attention scores, as in GAT


@dataclass(frozen=True)
class Subgraph:
    nodes: tuple            # concept ids, entities first, unique per sample
    adjacency: np.ndarray   # n x n bool, self-loops included

    def __len__(self) -> int:
        return len(self.nodes)


def weighted_sample(edges: Sequence, k: int, rng: np.random.Generator) -> List:
    """Sequential weighted draws without replacement: k edges, p ∝ weight.

    Each draw takes one ``rng.random()`` and picks the first edge whose
    running weight sum exceeds it times the total; the sums add left to
    right, as ``np.cumsum`` does.
    """
    remaining = list(edges)
    weights = [e.weight for e in remaining]
    picked = []
    while remaining and len(picked) < k:
        cum = list(accumulate(weights))
        r = rng.random() * cum[-1]
        idx = min(bisect_right(cum, r), len(remaining) - 1)
        del weights[idx]
        picked.append(remaining.pop(idx))
    return picked


def build_subgraph(tokens: Sequence[str], graph: KnowledgeGraph, k: int,
                   rng_seed: int, max_ngram: int = 4,
                   spans: Optional[Sequence[TokenSpan]] = None) -> Subgraph:
    """Sample the neighborhood union of all entities linked in `tokens`.

    `spans` are the entity spans of `tokens` when the caller has linked them
    already; without them the tokens are linked here.
    """
    if k < 0:
        raise ValueError("sample cap k must be >= 0")
    rng = np.random.default_rng(rng_seed)
    if spans is None:
        spans = extract_entities(tokens, graph, max_ngram)
    index: Dict[str, int] = {}   # node -> its row, in order of first arrival
    for s in spans:
        index.setdefault(s.concept, len(index))
    for entity in list(index):   # the entities; sampled nodes join after
        for edge in weighted_sample(neighbors(graph, entity), k, rng):
            index.setdefault(edge.other(entity), len(index))
    rows: List[int] = []
    cols: List[int] = []
    for c, i in index.items():
        for edge in neighbors(graph, c):
            j = index.get(edge.other(c))
            if j is not None:
                rows.append(i)
                cols.append(j)
    adjacency = np.eye(len(index), dtype=bool)
    adjacency[rows, cols] = True
    adjacency[cols, rows] = True
    return Subgraph(nodes=tuple(index), adjacency=adjacency)


def init_node_embeddings(sub: Subgraph, table: Dict[str, np.ndarray],
                         dim: int) -> np.ndarray:
    """Initial node states from the concept table; unknown concepts get zeros."""
    out = np.zeros((len(sub.nodes), dim), dtype=np.float64)
    for i, concept in enumerate(sub.nodes):
        vec = table.get(concept)
        if vec is not None:
            if vec.shape != (dim,):
                raise DataFormatError(
                    f"concept vector for {concept!r} has dim {vec.shape}, "
                    f"expected ({dim},)")
            out[i] = vec
    return out


@dataclass
class GatParams:
    w: List[Tensor]   # per layer: H x d_g x d_g, one node transform per head
    a: List[Tensor]   # per layer: H x 2*d_g, one attention vector per head


@dataclass
class FuseParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class GateParams:
    w1: Tensor   # d_all x hidden
    w2: Tensor   # hidden x d_all


def _attention(hd: np.ndarray, adjacency: np.ndarray, w: np.ndarray,
               a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every head's transformed states wh = hd @ w (H, n, d_g), the mask of
    its positive attention scores e_ij = a_src·wh_i + a_dst·wh_j (H, n, n),
    and its attention rows: the softmax of LeakyReLU(e_ij) over each node's
    neighbors (H, n, n)."""
    dg = a.shape[1] // 2
    wh = hd @ w
    scores = wh @ a[:, :dg, None] + (wh @ a[:, dg:, None]).transpose(0, 2, 1)
    pos = scores > 0
    alpha = ad.masked_softmax_data(np.where(pos, scores, LEAKY_SLOPE * scores),
                                   adjacency, axis=-1)
    return wh, pos, alpha


def attention_coeffs(h: Tensor, sub: Subgraph, layer: int,
                     params: GatParams) -> Tensor:
    """Each head's attention rows alpha_ij over each node's neighbors
    (self-loop included), stacked to (H, n, n), as a constant."""
    return Tensor(_attention(h.data, sub.adjacency, params.w[layer].data,
                             params.a[layer].data)[2])


def gat_layer(h: Tensor, sub: Subgraph, params: GatParams, layer: int) -> Tensor:
    """One refinement step, mean over heads of attention-weighted sums and
    ELU, as one autodiff node. The backward replays the composed ops'
    arithmetic and sums wh's gradients in the order the autodiff walk summed
    them: aggregation plus source score, then destination score."""
    w, a = params.w[layer], params.a[layer]
    H, dg = a.shape[0], a.shape[1] // 2
    wh, pos, alpha = _attention(h.data, sub.adjacency, w.data, a.data)
    out = ad.elu_data((alpha @ wh).sum(axis=0) * (1.0 / H))

    def backward(g, wanted):
        whT = wh.swapaxes(-1, -2)
        gm = np.broadcast_to(ad.elu_grad(out, g) * (1.0 / H), wh.shape).copy()
        gs = ad.softmax_grad(alpha, gm @ whT) * np.where(pos, 1.0, LEAKY_SLOPE)
        gsrc = gs.sum(axis=2, keepdims=True)
        gdst = gs.sum(axis=1, keepdims=True).transpose(0, 2, 1)
        grads = {"a": np.concatenate([(whT @ gsrc)[..., 0],
                                      (whT @ gdst)[..., 0]], axis=1)}
        gwh = (alpha.swapaxes(-1, -2) @ gm
               + gsrc @ a.data[:, :dg, None].swapaxes(-1, -2))
        gwh += gdst @ a.data[:, dg:, None].swapaxes(-1, -2)
        grads["w"] = h.data.swapaxes(-1, -2) @ gwh
        if "h" in wanted:
            grads["h"] = (gwh @ w.data.swapaxes(-1, -2)).sum(axis=0)
        return grads

    return ad.fused(out, {"h": h, "w": w, "a": a}, backward)


def run_gat(node_init: np.ndarray, sub: Subgraph, params: GatParams) -> Tensor:
    h = Tensor(node_init)
    for layer in range(len(params.w)):
        h = gat_layer(h, sub, params, layer)
    return h


def block_diagonal(subs: Sequence[Subgraph]) -> Subgraph:
    """The disjoint union of `subs` as one subgraph: their nodes in order and
    a block-diagonal adjacency, so no attention crosses between them."""
    n = sum(len(s) for s in subs)
    adjacency = np.zeros((n, n), dtype=bool)
    start = 0
    for s in subs:
        end = start + len(s)
        adjacency[start:end, start:end] = s.adjacency
        start = end
    return Subgraph(nodes=tuple(c for s in subs for c in s.nodes),
                    adjacency=adjacency)


def pool_subgraph(h: Optional[Tensor], sizes: Sequence[int],
                  node_dim: int) -> Tensor:
    """Segment means: row i is the arithmetic mean of the `sizes[i]` node
    states after the first sum(sizes[:i]) rows of `h`, as one autodiff node.
    An empty segment, or every segment when `h` is None, pools to a zero
    vector."""
    if h is None:
        return Tensor(np.zeros((len(sizes), node_dim)))
    weights = np.zeros((len(sizes), h.shape[0]))
    start = 0
    for i, n in enumerate(sizes):
        if n:
            weights[i, start:start + n] = 1.0 / n
        start += n
    return ad.fused(weights @ h.data, {"h": h},
                    lambda g, wanted: {"h": weights.T @ g})


def fuse(e_base: Tensor, e_gnn: Tensor, params: FuseParams) -> Tensor:
    """One-hidden-layer ELU MLP over the concatenated representations, one
    row per option, as one autodiff node."""
    x = np.concatenate([e_base.data, e_gnn.data], axis=-1)
    e = ad.elu_data(x @ params.w1.data + params.b1.data)

    def backward(g, wanted):
        gz = ad.elu_grad(e, g @ params.w2.data.T)
        gx = np.split(gz @ params.w1.data.T, [e_base.shape[1]], axis=1)
        return {"e_base": gx[0], "e_gnn": gx[1],
                "w1": x.T @ gz, "b1": gz.sum(axis=0),
                "w2": e.T @ g, "b2": g.sum(axis=0)}

    return ad.fused(e @ params.w2.data + params.b2.data,
                    {"e_base": e_base, "e_gnn": e_gnn, **vars(params)},
                    backward)


def self_refine(e_all: Tensor, params: GateParams) -> Tensor:
    """Dimension-wise attention gate over the last axis, as one autodiff node.

    Scores pass through a tanh bottleneck; softmax weights are rescaled by the
    dimension count so uniform scores leave the vector unchanged (up to ELU).
    """
    dim = float(e_all.shape[-1])
    x = e_all.data
    t = np.tanh(x @ params.w1.data)
    soft = ad.masked_softmax_data(t @ params.w2.data, None, axis=-1)
    gate = soft * dim
    out = ad.elu_data(gate * x)

    def backward(g, wanted):
        gp = ad.elu_grad(out, g)
        gs = ad.softmax_grad(soft, gp * x * dim)
        gu = (gs @ params.w2.data.T) * (1.0 - t ** 2)
        return {"e_all": gp * gate + gu @ params.w1.data.T,
                "w1": x.T @ gu, "w2": t.T @ gs}

    return ad.fused(out, {"e_all": e_all, **vars(params)}, backward)


def load_concept_table(path, dim: int, seed: int = 0) -> Dict[str, np.ndarray]:
    """Load a word2vec-style text table (optional header line).

    Vectors whose dimension differs from `dim` are mapped through a fixed
    seeded Gaussian random projection. A final vector, projected or not,
    whose squared norm overflows float64 is a data error: the model's
    products over it would overflow.
    """
    raw: Dict[str, np.ndarray] = {}
    src_dim = None
    for lineno, line in enumerate(text_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2:
            try:
                int(parts[0]), int(parts[1])
                continue   # header
            except ValueError:
                pass
        concept, values = parts[0], parts[1:]
        if not values:
            raise DataFormatError(f"{path}:{lineno}: no vector components")
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise DataFormatError(
                f"{path}:{lineno}: non-numeric vector component") from None
        if not np.isfinite(vec).all():
            raise DataFormatError(f"{path}:{lineno}: non-finite vector component")
        if src_dim is None:
            src_dim = vec.size
        elif vec.size != src_dim:
            raise DataFormatError(
                f"{path}:{lineno}: vector dim {vec.size} != {src_dim}")
        raw[concept] = vec
    table = raw
    with np.errstate(over="ignore", invalid="ignore"):
        if src_dim is not None and src_dim != dim:
            proj = (np.random.default_rng(seed).normal(size=(src_dim, dim))
                    / np.sqrt(src_dim))
            table = {c: v @ proj for c, v in raw.items()}
        for c, v in table.items():
            if not np.isfinite(v @ v):
                raise DataFormatError(
                    f"{path}: the vector of {c!r} overflows at dim {dim}: "
                    f"its squared norm exceeds the float64 range")
    return table
