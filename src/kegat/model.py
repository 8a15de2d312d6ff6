"""Full pipeline model: injected encoding, graph reasoning, option scoring.

Per option: the converted token sequence is knowledge-injected (unless
disabled), encoded by the masked transformer, and fused with the pooled GAT
state of a sampled concept subgraph. A shared scalar MLP scores every option;
softmax over options gives the prediction. A batch of instances runs as one
pass: its B·A option sequences padded to one length, its subgraphs as one
block-diagonal graph, and fusion, gate and head on B·A rows. The training
loss is the batch mean and optionally adds the token-reconstruction
objective under learnable uncertainty weights; only the loss computes it, so
prediction runs the encoder, graph and head alone, without recording a
graph, and reads only the pooled [CLS] states, which lets each encoder layer
run only on the rows those states reach: two per sequence in the last layer.
While only the head trains
(`frozen_trunk`), the trunk runs once per instance and the loss and
predictions reuse its output. A training run keeps each instance's
prepared features (`keeping_features`); outside one, nothing is kept.
"""

from __future__ import annotations

import contextlib
import zlib
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import encoder as enc
from . import gat as gatmod
from . import harness
from . import head as headmod
from . import kemb
from .autodiff import Tensor, concat, no_grad
from .kgstore import KnowledgeGraph
from .linker import extract_entities
from .trainkit import ParamStore, check_fields
from .vocab import PAD, Vocab


# the integer config fields that may be 0; every other one must be >= 1
_MAY_BE_ZERO = ("sample_k", "per_entity_limit", "seed")


@dataclass(frozen=True)
class ModelConfig:
    dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ffn_mult: int = 4
    max_len: int = 128
    max_positions: int = 160
    gat_layers: int = 2
    gat_heads: int = 2
    sample_k: int = 4
    node_dim: int = 32
    fuse_hidden: int = 64
    fuse_dim: int = 64
    gate_hidden: int = 16
    head_hidden: int = 32
    per_entity_limit: int = 2
    max_ngram: int = 4
    dropout: float = 0.1
    fuse_skip_gain: float = 16.0
    use_kemb: bool = True
    use_kegat: bool = True
    use_lm: bool = True
    seed: int = 0

    def __post_init__(self):
        check_fields(self, _MAY_BE_ZERO)
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if self.dim % self.n_heads:
            raise ValueError(f"dim {self.dim} is not a multiple of n_heads "
                             f"{self.n_heads}")
        if self.max_len > self.max_positions:   # a soft position needs a row
            raise ValueError(f"max_len {self.max_len} exceeds max_positions "
                             f"{self.max_positions}")
        if self.max_len < kemb.MIN_TRUNK_LEN:   # kemb.flatten's own floor
            raise ValueError(f"max_len {self.max_len} below minimum trunk "
                             f"length {kemb.MIN_TRUNK_LEN}")

    @property
    def repr_dim(self) -> int:
        return self.fuse_dim + self.dim if self.use_kegat else self.dim

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _option_count(instances: Sequence[harness.ComveInstance]) -> int:
    """The options per instance of a batch, which must all have as many."""
    counts = {inst.option_count for inst in instances}
    if len(counts) != 1:
        raise ValueError(
            f"a batch needs one option count, got {sorted(counts)}")
    return counts.pop()


class BatchOutput(NamedTuple):
    """One padded pass over a batch: B instances of A options each."""
    probs: Tensor            # B x A option probabilities
    reprs: Tensor            # B·A x repr_dim final option representations
    hidden: Optional[Tensor]   # B·A·T x dim per-token encoder states;
                               # None after a pooled-only pass
    batch: kemb.PaddedBatch  # the B·A padded input sequences


@dataclass
class _OptionFeatures:
    seq: kemb.InjectedSequence
    subgraph: Optional[gatmod.Subgraph]
    node_init: Optional[np.ndarray]


class KegatModel:
    """Holds the parameter store and runs batched forward passes."""

    def __init__(self, config: ModelConfig, vocab: Vocab,
                 graph: KnowledgeGraph,
                 concept_table: Optional[Dict[str, np.ndarray]] = None,
                 templates: Optional[Dict[str, kemb.Template]] = None):
        self.config = config
        self.vocab = vocab
        self.graph = graph
        self.concept_table = concept_table or {}
        self.templates = templates if templates is not None else kemb.default_templates()
        self.store = ParamStore()
        # open only inside `keeping_features`: per instance, its options'
        # features
        self._cache: Optional[Dict[harness.ComveInstance,
                                   List[_OptionFeatures]]] = None
        # open only inside `frozen_trunk`: per instance, its options' final
        # representations (A, repr_dim) and its LM term (None without use_lm)
        self._trunk_out: Optional[Dict[harness.ComveInstance,
                                       Tuple[np.ndarray, Optional[float]]]] = None
        self._init_params(np.random.default_rng(config.seed))

    # -- parameter construction ----------------------------------------------

    def _mat(self, rng, name: str, fan_in: int, fan_out: int,
             *stack: int) -> Tensor:
        """Glorot-normal matrix, or a stack of them with leading dims `stack`."""
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        return self.store.add(
            name, rng.normal(0.0, scale, size=(*stack, fan_in, fan_out)))

    def _vec(self, name: str, size: int, value: float = 0.0) -> Tensor:
        return self.store.add(name, np.full(size, value))

    def _init_params(self, rng: np.random.Generator) -> None:
        """Add every parameter to the store, then read each module's back
        from it by name."""
        c = self.config
        d, V = c.dim, len(self.vocab)
        self.store.add("enc/tok_emb", rng.normal(0.0, 0.1, size=(V, d)))
        self.store.add("enc/pos_emb",
                       rng.normal(0.0, 0.1, size=(c.max_positions, d)))
        for n in range(c.n_layers):
            p = f"enc/l{n}/"
            for x in "qkvo":
                self._mat(rng, p + "w" + x, d, d)
                self._vec(p + "b" + x, d)
            self._vec(p + "ln1_g", d, 1.0)
            self._vec(p + "ln1_b", d)
            self._mat(rng, p + "ffn_w1", d, c.ffn_mult * d)
            self._vec(p + "ffn_b1", c.ffn_mult * d)
            self._mat(rng, p + "ffn_w2", c.ffn_mult * d, d)
            self._vec(p + "ffn_b2", d)
            self._vec(p + "ln2_g", d, 1.0)
            self._vec(p + "ln2_b", d)
        self._mat(rng, "enc/pooler_w", d, d)
        self._vec("enc/pooler_b", d)
        if c.use_lm:
            self._mat(rng, "enc/lm_w", d, V)
            self._vec("enc/lm_b", V)
        else:   # an unused draw, so every later parameter gets the full model's values
            rng.standard_normal((d, V))
        gat_layers = c.gat_layers if c.use_kegat else 0
        if c.use_kegat:
            dg, H = c.node_dim, c.gat_heads
            for l in range(gat_layers):
                self._mat(rng, f"gat/l{l}/w", dg, dg, H)
            for l in range(gat_layers):
                self.store.add(f"gat/l{l}/a",
                               rng.normal(0.0, 0.3, size=(H, 2 * dg)))
            w1 = self._mat(rng, "fuse/w1", c.dim + dg, c.fuse_hidden)
            self._vec("fuse/b1", c.fuse_hidden)
            w2 = self._mat(rng, "fuse/w2", c.fuse_hidden, c.fuse_dim)
            self._vec("fuse/b2", c.fuse_dim)
            # Variance-matched skip: seed the fuse MLP with an identity block
            # that carries the pooled graph summary through to the head at a
            # scale comparable to the text pooler output. Without it the graph
            # signal enters the head an order of magnitude smaller than the
            # text features and the head never picks it up.
            k = min(dg, c.fuse_hidden, c.fuse_dim)
            w1.data *= 0.1
            w1.data[c.dim:c.dim + k, :k] = np.eye(k)
            w2.data *= 0.1
            w2.data[:k, :k] = c.fuse_skip_gain * np.eye(k)
            self._mat(rng, "gate/w1", c.fuse_dim, c.gate_hidden)
            self._mat(rng, "gate/w2", c.gate_hidden, c.fuse_dim)
        self._mat(rng, "head/w1", c.repr_dim, c.head_hidden)
        self._vec("head/b1", c.head_hidden)
        self._mat(rng, "head/w2", c.head_hidden, 1)
        self._vec("head/b2", 1)
        if c.use_lm:
            self.store.add("loss/s1", np.zeros(()))
            self.store.add("loss/s2", np.zeros(()))
        under = self.store.under
        self.enc_params = under("enc/")
        self.layer_params = [under(f"enc/l{n}/") for n in range(c.n_layers)]
        self.gat_params = [under(f"gat/l{l}/") for l in range(gat_layers)]
        self.fuse_params, self.gate_params = under("fuse/"), under("gate/")
        self.head_params, self.loss_params = under("head/"), under("loss/")

    def head_param_names(self) -> set:
        return {n for n in self.store.names() if n.startswith("head/")}

    # -- feature preparation (deterministic, kept while training) ------------

    @contextlib.contextmanager
    def keeping_features(self):
        """Keep each instance's features while the scope is open, so that a
        training run, which revisits its instances every epoch, prepares
        each of them once. Outside it nothing is kept: an evaluation pass
        sees each instance once. The kept features are dropped on exit,
        however the scope ends."""
        self._cache = {}
        try:
            yield
        finally:
            self._cache = None

    def _option_seed(self, instance_id: str, option_idx: int) -> int:
        return self.config.seed ^ zlib.crc32(
            f"{instance_id}:{option_idx}".encode("utf-8"))

    def _features(self, instance: harness.ComveInstance) -> List[_OptionFeatures]:
        if self._cache is not None and instance in self._cache:
            return self._cache[instance]
        c = self.config
        feats: List[_OptionFeatures] = []
        for idx, tokens in enumerate(harness.convert(instance)):
            if c.use_kemb or c.use_kegat:
                spans = extract_entities(tokens, self.graph, c.max_ngram)
            if c.use_kemb:
                tree = kemb.build_tree(tokens, spans, self.graph,
                                       c.per_entity_limit, self.templates)
            else:
                tree = kemb.InjectedTree(trunk=tuple(tokens), branches=())
            seq = kemb.flatten(tree, self.vocab, c.max_len)
            subgraph = None
            node_init = None
            if c.use_kegat:
                subgraph = gatmod.build_subgraph(
                    tokens, self.graph, c.sample_k,
                    self._option_seed(instance.id, idx), c.max_ngram, spans)
                node_init = gatmod.init_node_embeddings(
                    subgraph, self.concept_table, c.node_dim)
            feats.append(_OptionFeatures(seq=seq, subgraph=subgraph,
                                         node_init=node_init))
        if self._cache is not None:
            self._cache[instance] = feats
        return feats

    # -- forward passes ------------------------------------------------------

    def forward(self, instances: Sequence[harness.ComveInstance],
                dropout_rng: Optional[np.random.Generator] = None,
                pooled_only: bool = False) -> BatchOutput:
        """One padded pass over every option of `instances`: the encoder over
        their (B·A, T) sequences, the GAT over one block-diagonal graph of
        their subgraphs, and fusion, gate and head on the B·A option rows.
        With `pooled_only`, each encoder layer runs only on the rows the
        pooled states reach and `hidden` may be None (see `encoder.encode`);
        the probabilities and representations keep their bytes."""
        c = self.config
        n_options = _option_count(instances)
        feats = [f for inst in instances for f in self._features(inst)]
        batch = kemb.pad_batch([f.seq for f in feats], self.vocab.lookup(PAD))
        out = enc.encode(enc.embed(batch, self.enc_params), batch.visibility,
                         self.enc_params, self.layer_params, c.n_heads,
                         dropout_rate=c.dropout if dropout_rng is not None else 0.0,
                         dropout_rng=dropout_rng, pooled_only=pooled_only)
        reprs = out.pooled
        if c.use_kegat:
            sub = gatmod.block_diagonal([f.subgraph for f in feats])
            h = None
            if len(sub):
                node_init = np.concatenate([f.node_init for f in feats])
                h = gatmod.run_gat(node_init, sub, self.gat_params)
            e_gnn = gatmod.pool_subgraph(h, [len(f.subgraph) for f in feats],
                                         c.node_dim)
            e_all = gatmod.fuse(out.pooled, e_gnn, self.fuse_params)
            g = gatmod.self_refine(e_all, self.gate_params)
            reprs = concat([g, out.pooled], axis=-1)
        return BatchOutput(
            probs=headmod.predict(reprs, self.head_params, n_options),
            reprs=reprs, hidden=out.hidden, batch=batch)

    def _lm_inputs(self, fw: BatchOutput
                   ) -> Tuple[Tensor, np.ndarray, np.ndarray]:
        """Reconstruction logits of a pass's trunk rows, computed on those
        rows only, with their token ids and their row indices."""
        rows = np.flatnonzero(fw.batch.trunk_mask)
        logits = enc.lm_logits(fw.hidden, rows, self.enc_params)
        return logits, fw.batch.tokens.ravel()[rows], rows

    # -- the frozen-trunk scope ----------------------------------------------

    @contextlib.contextmanager
    def frozen_trunk(self):
        """Freeze every parameter but the head's, and run the trunk once per
        instance while the scope is open.

        Inside, `loss` and the predictions run only the head, as one
        (B·A, repr_dim) MLP, on option representations kept per instance:
        a call's instances not kept yet run the trunk in one pass under
        `no_grad()` and without dropout. Each instance's LM term is kept
        beside them as a constant, so the loss keeps its formula. Every
        parameter is trainable again on exit, and the cached outputs are
        dropped, however the scope ends.
        """
        self.store.freeze_all_except(self.head_param_names())
        self._trunk_out = {}
        try:
            yield
        finally:
            self._trunk_out = None
            self.store.unfreeze_all()

    def _trunk_output(self, instances: Sequence[harness.ComveInstance]
                      ) -> Tuple[Tensor, Optional[Tensor]]:
        """The batch's option representations (B·A, repr_dim) and mean LM
        term, as constants; uncached instances run the trunk in one pass."""
        missing = [inst for inst in dict.fromkeys(instances)
                   if inst not in self._trunk_out]
        if missing:
            n = len(missing)
            with no_grad():
                fw = self.forward(missing, pooled_only=not self.config.use_lm)
                lms = [None] * n
                if self.config.use_lm:
                    logits, tokens, rows = self._lm_inputs(fw)
                    # the rows are instance-major, so each instance's trunk
                    # rows are one run of them
                    owner = rows // (fw.batch.tokens.size // n)
                    ends = np.searchsorted(owner, np.arange(n + 1))
                    lms = [float(headmod.lm_loss(Tensor(logits.data[a:b]),
                                                 tokens[a:b], 1).data)
                           for a, b in zip(ends[:-1], ends[1:])]
            A = _option_count(missing)
            for i, inst in enumerate(missing):
                self._trunk_out[inst] = (fw.reprs.data[i * A:(i + 1) * A],
                                         lms[i])
        outs = [self._trunk_out[inst] for inst in instances]
        reprs = Tensor(np.concatenate([r for r, _ in outs]))
        if not self.config.use_lm:
            return reprs, None
        return reprs, Tensor(sum(lm for _, lm in outs) * (1.0 / len(outs)))

    # -- public entry points -------------------------------------------------

    def loss(self, instances: Sequence[harness.ComveInstance],
             dropout_rng: Optional[np.random.Generator] = None) -> Tensor:
        """The mean training loss over a batch of instances; inside
        `frozen_trunk` the head's alone, with no dropout and the LM term a
        constant. The uncertainty-weighted sum is linear in both terms, so
        it applies to their batch means."""
        if self._trunk_out is None:
            fw = self.forward(instances, dropout_rng)
            probs, lm = fw.probs, None
            if self.config.use_lm:
                logits, tokens, _ = self._lm_inputs(fw)
                lm = headmod.lm_loss(logits, tokens, len(instances))
        else:
            reprs, lm = self._trunk_output(instances)
            probs = headmod.predict(reprs, self.head_params,
                                    _option_count(instances))
        l2 = headmod.classification_loss(probs,
                                         [inst.label for inst in instances])
        if lm is None:
            return l2
        return headmod.combined_loss(lm, l2, self.loss_params)

    def predict_probs(self, instance: harness.ComveInstance) -> np.ndarray:
        """One instance's option probabilities, recording no graph."""
        with no_grad():
            if self._trunk_out is None:
                probs = self.forward([instance], pooled_only=True).probs
            else:
                probs = headmod.predict(self._trunk_output([instance])[0],
                                        self.head_params, instance.option_count)
        return probs.data[0].copy()

    def predict_instance(self, instance: harness.ComveInstance) -> int:
        """The most probable option, the lowest index on ties."""
        return int(np.argmax(self.predict_probs(instance)))
