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
graph. While only the head trains (`frozen_trunk`), the trunk runs once per
instance and the loss and predictions reuse its output.
"""

from __future__ import annotations

import contextlib
import math
import zlib
from dataclasses import dataclass, fields
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import encoder as enc
from . import gat as gatmod
from . import harness
from . import head as headmod
from . import kemb
from .autodiff import Tensor, no_grad
from .kgstore import KnowledgeGraph
from .linker import extract_entities
from .trainkit import ParamStore, check_type
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
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            check_type(f.name, value, kind)
            low = 0 if f.name in _MAY_BE_ZERO else 1
            if kind is int and value < low:
                raise ValueError(f"{f.name} must be >= {low}, got {value!r}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if not math.isfinite(self.fuse_skip_gain):
            raise ValueError(f"fuse_skip_gain must be finite, got "
                             f"{self.fuse_skip_gain!r}")
        if self.dim % self.n_heads:
            raise ValueError(f"dim {self.dim} is not a multiple of n_heads "
                             f"{self.n_heads}")

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
    scores: headmod.OptionScores
    reprs: Tensor            # B·A x repr_dim final option representations
    hidden: Tensor           # B·A·T x dim per-token encoder states
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
        self._cache: Dict[harness.ComveInstance, List[_OptionFeatures]] = {}
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
        c = self.config
        d, V = c.dim, len(self.vocab)
        layers = []
        tok = self.store.add("enc/tok_emb", rng.normal(0.0, 0.1, size=(V, d)))
        pos = self.store.add("enc/pos_emb",
                             rng.normal(0.0, 0.1, size=(c.max_positions, d)))
        for n in range(c.n_layers):
            p = f"enc/l{n}/"
            layers.append(enc.LayerParams(
                wq=self._mat(rng, p + "wq", d, d), bq=self._vec(p + "bq", d),
                wk=self._mat(rng, p + "wk", d, d), bk=self._vec(p + "bk", d),
                wv=self._mat(rng, p + "wv", d, d), bv=self._vec(p + "bv", d),
                wo=self._mat(rng, p + "wo", d, d), bo=self._vec(p + "bo", d),
                ln1_g=self._vec(p + "ln1_g", d, 1.0),
                ln1_b=self._vec(p + "ln1_b", d),
                ffn_w1=self._mat(rng, p + "ffn_w1", d, c.ffn_mult * d),
                ffn_b1=self._vec(p + "ffn_b1", c.ffn_mult * d),
                ffn_w2=self._mat(rng, p + "ffn_w2", c.ffn_mult * d, d),
                ffn_b2=self._vec(p + "ffn_b2", d),
                ln2_g=self._vec(p + "ln2_g", d, 1.0),
                ln2_b=self._vec(p + "ln2_b", d),
            ))
        self.enc_params = enc.EncoderParams(
            tok_emb=tok, pos_emb=pos, layers=layers,
            pooler_w=self._mat(rng, "enc/pooler_w", d, d),
            pooler_b=self._vec("enc/pooler_b", d),
            lm_w=self._mat(rng, "enc/lm_w", d, V),
            lm_b=self._vec("enc/lm_b", V),
            n_heads=c.n_heads)
        if c.use_kegat:
            dg = c.node_dim
            H, L = c.gat_heads, c.gat_layers
            w = [self._mat(rng, f"gat/l{l}/w", dg, dg, H) for l in range(L)]
            a = [self.store.add(f"gat/l{l}/a",
                                rng.normal(0.0, 0.3, size=(H, 2 * dg)))
                 for l in range(L)]
            self.gat_params = gatmod.GatParams(w=w, a=a)
            self.fuse_params = gatmod.FuseParams(
                w1=self._mat(rng, "fuse/w1", c.dim + dg, c.fuse_hidden),
                b1=self._vec("fuse/b1", c.fuse_hidden),
                w2=self._mat(rng, "fuse/w2", c.fuse_hidden, c.fuse_dim),
                b2=self._vec("fuse/b2", c.fuse_dim))
            # Variance-matched skip: seed the fuse MLP with an identity block
            # that carries the pooled graph summary through to the head at a
            # scale comparable to the text pooler output. Without it the graph
            # signal enters the head an order of magnitude smaller than the
            # text features and the head never picks it up.
            k = min(dg, c.fuse_hidden, c.fuse_dim)
            self.fuse_params.w1.data *= 0.1
            self.fuse_params.w1.data[c.dim:c.dim + k, :k] = np.eye(k)
            self.fuse_params.w2.data *= 0.1
            self.fuse_params.w2.data[:k, :k] = c.fuse_skip_gain * np.eye(k)
            self.gate_params = gatmod.GateParams(
                w1=self._mat(rng, "gate/w1", c.fuse_dim, c.gate_hidden),
                w2=self._mat(rng, "gate/w2", c.gate_hidden, c.fuse_dim))
        else:
            self.gat_params = None
            self.fuse_params = None
            self.gate_params = None
        self.head_params = headmod.HeadParams(
            w1=self._mat(rng, "head/w1", c.repr_dim, c.head_hidden),
            b1=self._vec("head/b1", c.head_hidden),
            w2=self._mat(rng, "head/w2", c.head_hidden, 1),
            b2=self._vec("head/b2", 1))
        if c.use_lm:
            self.loss_params = headmod.LossParams(
                s1=self.store.add("loss/s1", np.zeros(())),
                s2=self.store.add("loss/s2", np.zeros(())))
        else:
            self.loss_params = None

    def head_param_names(self) -> set:
        return {n for n in self.store.names() if n.startswith("head/")}

    # -- feature preparation (cached, deterministic) -------------------------

    def _option_seed(self, instance_id: str, option_idx: int) -> int:
        return self.config.seed ^ zlib.crc32(
            f"{instance_id}:{option_idx}".encode("utf-8"))

    def _features(self, instance: harness.ComveInstance) -> List[_OptionFeatures]:
        cached = self._cache.get(instance)
        if cached is not None:
            return cached
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
        self._cache[instance] = feats
        return feats

    # -- forward passes ------------------------------------------------------

    def forward(self, instances: Sequence[harness.ComveInstance],
                dropout_rng: Optional[np.random.Generator] = None
                ) -> BatchOutput:
        """One padded pass over every option of `instances`: the encoder over
        their (B·A, T) sequences, the GAT over one block-diagonal graph of
        their subgraphs, and fusion, gate and head on the B·A option rows.
        Always runs the whole trunk."""
        c = self.config
        n_options = _option_count(instances)
        feats = [f for inst in instances for f in self._features(inst)]
        batch = kemb.pad_batch([f.seq for f in feats], self.vocab.lookup(PAD))
        out = enc.encode(enc.embed(batch, self.enc_params), batch.visibility,
                         self.enc_params,
                         dropout_rate=c.dropout if dropout_rng is not None else 0.0,
                         dropout_rng=dropout_rng)
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
            reprs = gatmod.concat_final(g, out.pooled)
        return BatchOutput(
            scores=headmod.predict(reprs, self.head_params, n_options),
            reprs=reprs, hidden=out.hidden, batch=batch)

    def _lm_inputs(self, fw: BatchOutput
                   ) -> Tuple[Tensor, np.ndarray, np.ndarray]:
        """Reconstruction logits of a pass's trunk rows, computed on those
        rows only, with their token ids and their row indices."""
        rows = np.flatnonzero(fw.batch.trunk_mask)
        logits = enc.lm_logits(fw.hidden[rows], self.enc_params)
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
                fw = self.forward(missing)
                lms = [None] * n
                if self.config.use_lm:
                    logits, tokens, rows = self._lm_inputs(fw)
                    # the rows are instance-major, so each instance's trunk
                    # rows are one run of them
                    owner = rows // (fw.batch.tokens.size // n)
                    ends = np.searchsorted(owner, np.arange(n + 1))
                    lms = [float(headmod.lm_loss(logits[a:b], tokens[a:b]).data)
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
        n = len(instances)
        if self._trunk_out is None:
            fw = self.forward(instances, dropout_rng)
            scores, lm = fw.scores, None
            if self.config.use_lm:
                logits, tokens, _ = self._lm_inputs(fw)
                lm = headmod.lm_loss(logits, tokens) * (1.0 / n)
        else:
            reprs, lm = self._trunk_output(instances)
            scores = headmod.predict(reprs, self.head_params,
                                     _option_count(instances))
        l2 = headmod.classification_loss(scores.probs,
                                         [inst.label for inst in instances])
        if lm is None:
            return l2
        return headmod.combined_loss(lm, l2, self.loss_params)

    def _scores(self, instance: harness.ComveInstance) -> headmod.OptionScores:
        with no_grad():
            if self._trunk_out is None:
                return self.forward([instance]).scores
            return headmod.predict(self._trunk_output([instance])[0],
                                   self.head_params, instance.option_count)

    def predict_instance(self, instance: harness.ComveInstance) -> int:
        return self._scores(instance).predicted[0]

    def predict_probs(self, instance: harness.ComveInstance) -> np.ndarray:
        return self._scores(instance).prob_values[0].copy()
