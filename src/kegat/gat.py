"""Graph-attention reasoning over sampled knowledge subgraphs.

For each linked entity, up to k neighbors are drawn without replacement with
probability proportional to edge weight. The union of entities and sampled
neighbors forms one subgraph (all KB edges among included nodes are kept,
plus self-loops), refined by multi-head attention layers and mean-pooled into
a single vector that is fused with the sequence encoder's pooled state. The
heads of a layer run as one op over stacked weights, and a batch's subgraphs
run as one block-diagonal graph.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    entity_count: int

    def __len__(self) -> int:
        return len(self.nodes)


def weighted_sample(edges: Sequence, k: int, rng: np.random.Generator) -> List:
    """Sequential weighted draws without replacement: k edges, p ∝ weight."""
    remaining = list(edges)
    picked = []
    while remaining and len(picked) < k:
        weights = np.array([e.weight for e in remaining], dtype=np.float64)
        cum = np.cumsum(weights)
        r = rng.random() * cum[-1]
        idx = int(np.searchsorted(cum, r, side="right"))
        idx = min(idx, len(remaining) - 1)
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
    entities = []
    for s in spans:
        if s.concept not in entities:
            entities.append(s.concept)
    nodes: List[str] = list(entities)
    for entity in entities:
        for edge in weighted_sample(neighbors(graph, entity), k, rng):
            other = edge.other(entity)
            if other not in nodes:
                nodes.append(other)
    n = len(nodes)
    index = {c: i for i, c in enumerate(nodes)}
    adjacency = np.eye(n, dtype=bool)
    for c in nodes:
        for edge in neighbors(graph, c):
            j = index.get(edge.other(c))
            if j is not None:
                adjacency[index[c], j] = True
                adjacency[j, index[c]] = True
    return Subgraph(nodes=tuple(nodes), adjacency=adjacency,
                    entity_count=len(entities))


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


def _attend(h: Tensor, sub: Subgraph, layer: int,
            params: GatParams) -> Tuple[Tensor, Tensor]:
    """Every head's transformed states (H, n, d_g) and attention (H, n, n)."""
    a = params.a[layer]
    dg = a.shape[1] // 2
    wh = h @ params.w[layer]
    src = wh @ a[:, :dg, None]
    dst = wh @ a[:, dg:, None]
    scores = (src + dst.transpose(0, 2, 1)).leaky_relu(LEAKY_SLOPE)
    return wh, ad.masked_softmax(scores, sub.adjacency, axis=-1)


def attention_coeffs(h: Tensor, sub: Subgraph, layer: int,
                     params: GatParams) -> Tensor:
    """Each head's attention rows alpha_ij over each node's neighbors
    (self-loop included), stacked to (H, n, n)."""
    return _attend(h, sub, layer, params)[1]


def gat_layer(h: Tensor, sub: Subgraph, params: GatParams, layer: int) -> Tensor:
    """One refinement step: mean over heads of attention-weighted sums, ELU."""
    wh, alpha = _attend(h, sub, layer, params)
    return (alpha @ wh).mean(axis=0).elu()


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
                    adjacency=adjacency,
                    entity_count=sum(s.entity_count for s in subs))


def pool_subgraph(h: Optional[Tensor], sizes: Sequence[int],
                  node_dim: int) -> Tensor:
    """Segment means: row i is the arithmetic mean of the `sizes[i]` node
    states after the first sum(sizes[:i]) rows of `h`, as one op. An empty
    segment, or every segment when `h` is None, pools to a zero vector."""
    if h is None:
        return Tensor(np.zeros((len(sizes), node_dim)))
    weights = np.zeros((len(sizes), h.shape[0]))
    start = 0
    for i, n in enumerate(sizes):
        if n:
            weights[i, start:start + n] = 1.0 / n
        start += n
    return Tensor(weights) @ h


def fuse(e_base: Tensor, e_gnn: Tensor, params: FuseParams) -> Tensor:
    """One-hidden-layer ELU MLP over the concatenated representations, one
    row (or vector) per option."""
    x = ad.concat([e_base, e_gnn], axis=-1)
    return (x @ params.w1 + params.b1).elu() @ params.w2 + params.b2


def self_refine(e_all: Tensor, params: GateParams) -> Tensor:
    """Dimension-wise attention gate over the last axis.

    Scores pass through a tanh bottleneck; softmax weights are rescaled by the
    dimension count so uniform scores leave the vector unchanged (up to ELU).
    """
    dim = e_all.shape[-1]
    scores = (e_all @ params.w1).tanh() @ params.w2
    gate = ad.masked_softmax(scores, None, axis=-1) * float(dim)
    return (gate * e_all).elu()


def concat_final(g: Tensor, e_base: Tensor) -> Tensor:
    return ad.concat([g, e_base], axis=-1)


def load_concept_table(path, dim: int, seed: int = 0) -> Dict[str, np.ndarray]:
    """Load a word2vec-style text table (optional header line).

    Vectors whose dimension differs from `dim` are mapped through a fixed
    seeded Gaussian random projection.
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
    if src_dim is None or src_dim == dim:
        return raw
    proj = np.random.default_rng(seed).normal(size=(src_dim, dim)) / np.sqrt(src_dim)
    return {c: v @ proj for c, v in raw.items()}
