"""Dataset I/O, input conversion, augmentation, and the synthetic benchmark.

The synthetic benchmark builds a toy weighted concept graph, realizes true
edges as sensible statements and corrupted edges as nonsense ones, and splits
instances so test heads never occur as training heads: a model can only
resolve held-out instances by consulting the graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DataFormatError
from .kgstore import Edge, KnowledgeGraph, jsonl_records, load_graph, neighbors
from .kemb import Template, default_templates, realize_triple
from .linker import STOPWORDS, tokenize
from .vocab import CLS, SEP, Vocab

SUBTASKS = ("a", "b")
# per subtask, the JSONL keys of the stem (None: no stem) and of the options
_RECORD_KEYS = {"a": (None, ("sent0", "sent1")),
                "b": ("false_sent", ("optionA", "optionB", "optionC"))}


@dataclass(frozen=True)
class ComveInstance:
    """One instance, one text per option. Subtask a: two statements and no
    stem; `label` indexes the one against commonsense. Subtask b: the false
    statement as stem and three reasons; `label` indexes the one that
    explains why the statement is false."""
    id: str
    subtask: str
    label: int
    options: Tuple[str, ...]
    stem: str = ""

    def __post_init__(self):
        if self.subtask not in SUBTASKS:
            raise DataFormatError(f"unknown subtask {self.subtask!r}")
        stem_key, option_keys = _RECORD_KEYS[self.subtask]
        if (bool(self.stem) != bool(stem_key)
                or len(self.options) != len(option_keys) or not all(self.options)):
            raise DataFormatError(f"{self.id}: " + (
                "subtask a needs 2 non-empty statements" if self.subtask == "a"
                else "subtask b needs a statement and 3 non-empty options"))
        if self.label not in range(len(option_keys)):
            raise DataFormatError(f"{self.id}: label out of range")

    @property
    def option_count(self) -> int:
        return len(self.options)


def convert(instance: ComveInstance) -> Tuple[Tuple[str, ...], ...]:
    """Marker-delimited token sequences, one per option, each after the stem."""
    stem = tokenize(instance.stem) + [SEP] if instance.stem else []
    return tuple(tuple([CLS] + stem + tokenize(opt) + [SEP])
                 for opt in instance.options)


def _instance_from_record(rec, subtask: str, where: str) -> ComveInstance:
    if not isinstance(rec, dict):
        raise DataFormatError(f"{where}: expected an object")
    stem_key, option_keys = _RECORD_KEYS[subtask]
    text_keys = (stem_key, *option_keys) if stem_key else option_keys
    for key in ("id", *text_keys, "label"):
        if key not in rec:
            raise DataFormatError(f"{where}: missing field {key!r}")
    for key in text_keys:
        if not isinstance(rec[key], str):
            raise DataFormatError(f"{where}: field {key!r} is not a string")
    label = rec["label"]
    try:
        if isinstance(label, float) and not label.is_integer():
            raise ValueError
        label = int(label)
    except (TypeError, ValueError):
        raise DataFormatError(
            f"{where}: label {rec['label']!r} is not an integer") from None
    try:
        return ComveInstance(id=str(rec["id"]), subtask=subtask, label=label,
                             options=tuple(rec[k] for k in option_keys),
                             stem=rec[stem_key] if stem_key else "")
    except DataFormatError as exc:
        raise DataFormatError(f"{where}: {exc}") from None


def load_comve(path, subtask: str) -> List[ComveInstance]:
    """Load instances from canonical JSONL; malformed rows name their line."""
    if subtask not in SUBTASKS:
        raise DataFormatError(f"unknown subtask {subtask!r}")
    return [_instance_from_record(rec, subtask, f"{path}:{lineno}")
            for lineno, rec in jsonl_records(path)]


def comve_jsonl(instances: Sequence[ComveInstance]) -> str:
    """Instances as canonical JSONL, one sorted-keys record per line."""
    lines = []
    for inst in instances:
        stem_key, option_keys = _RECORD_KEYS[inst.subtask]
        rec = dict(zip(option_keys, inst.options), id=inst.id, label=inst.label)
        if stem_key:
            rec[stem_key] = inst.stem
        lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return "".join(lines)


def save_comve(instances: Sequence[ComveInstance], path) -> None:
    """Write `instances` as canonical JSONL in place, without an fsync: every
    benchmark set-up writes the synthetic splits through here."""
    Path(path).write_text(comve_jsonl(instances), encoding="utf-8")


# -- augmentation ------------------------------------------------------------

def _non_neighbor(graph: KnowledgeGraph, head: str,
                  concepts: Sequence[str], rng: np.random.Generator) -> str:
    excluded = {e.other(head) for e in neighbors(graph, head)}
    excluded.add(head)
    candidates = [c for c in concepts if c not in excluded]
    if not candidates:
        raise DataFormatError(
            f"graph too small: no non-neighbor tail available for {head!r}")
    return candidates[int(rng.integers(len(candidates)))]


def generate_augmented(graph: KnowledgeGraph, templates: Dict[str, Template],
                       count: int, seed: int,
                       subtask: str = "a",
                       head_pool: Optional[Sequence[str]] = None,
                       id_prefix: str = "aug") -> List[ComveInstance]:
    """Template-realized instances: a true edge vs a corrupted-tail edge.

    The corrupted tail is uniformly drawn from concepts that are not KB
    neighbors of the head, so nonsense statements never correspond to an
    edge. Option order is shuffled by seed with exact label balance.
    """
    if count == 0:
        return []
    edges_by_head: Dict[str, List[Edge]] = {}
    for e in graph.edges:
        edges_by_head.setdefault(e.head, []).append(e)
    if head_pool is None:
        heads = sorted(edges_by_head)
    else:
        heads = [h for h in head_pool if h in edges_by_head]
        if not heads:
            raise DataFormatError("no head in pool has outgoing edges")
    concepts = sorted(graph.concepts)
    slot_rng = np.random.default_rng([seed, 0])
    slots = slot_rng.permutation(count)
    instances: List[ComveInstance] = []
    for i in range(count):
        rng = np.random.default_rng([seed, 1, i])
        head = heads[int(rng.integers(len(heads)))]
        out_edges = edges_by_head[head]
        edge = out_edges[int(rng.integers(len(out_edges)))]
        sensible = " ".join(realize_triple(edge, templates))
        bad_tail = _non_neighbor(graph, head, concepts, rng)
        corrupted = Edge(edge.head, edge.relation, bad_tail, edge.weight)
        nonsense = " ".join(realize_triple(corrupted, templates))
        # the answer: a, the nonsense statement; b, why the nonsense is false
        if subtask == "a":
            stem, answer, options = "", nonsense, [sensible]
        else:
            stem, answer = nonsense, sensible
            options = _distractor_reasons(graph, edge, templates, rng)
        label = int(slots[i]) % (len(options) + 1)
        options.insert(label, answer)
        instances.append(ComveInstance(
            id=f"{id_prefix}-{subtask}-{i:05d}", subtask=subtask, label=label,
            options=tuple(options), stem=stem))
    return instances


def _distractor_reasons(graph: KnowledgeGraph, edge: Edge,
                        templates: Dict[str, Template],
                        rng: np.random.Generator) -> List[str]:
    """Two realizations of edges sharing neither endpoint with `edge`."""
    forbidden = {edge.head, edge.tail}
    out: List[str] = []
    tries = 0
    while len(out) < 2:
        tries += 1
        if tries > 10000:
            raise DataFormatError("graph too small to draw distractor edges")
        cand = graph.edges[int(rng.integers(len(graph.edges)))]
        if cand.head in forbidden or cand.tail in forbidden:
            continue
        text = " ".join(realize_triple(cand, templates))
        if text not in out:
            out.append(text)
            forbidden.update({cand.head, cand.tail})
    return out


# -- synthetic benchmark -----------------------------------------------------

COMMUNITY_SIZE = 12   # mean concepts per latent topical community
P_WITHIN = 0.93       # share of edges drawn inside one community
VECTOR_NOISE = 0.45   # per-concept spread around its community centroid

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


def _word_pool(rng: np.random.Generator, size: int,
               forbidden: set) -> List[str]:
    pool: List[str] = []
    seen = set(forbidden)
    while len(pool) < size:
        n_syll = 1 + int(rng.integers(2))
        word = ""
        for _ in range(n_syll + 1):
            word += _CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
            word += _VOWELS[int(rng.integers(len(_VOWELS)))]
        word += _CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
        if word not in seen:
            seen.add(word)
            pool.append(word)
    return pool


@dataclass
class SynthBenchmark:
    graph: KnowledgeGraph
    concept_table: Dict[str, np.ndarray]
    train: List[ComveInstance]
    dev: List[ComveInstance]
    test: List[ComveInstance]
    paths: Dict[str, Path] = field(default_factory=dict)


def synth_benchmark(seed: int, out_dir,
                    sizes: Tuple[int, int, int] = (400, 120, 120),
                    n_concepts: int = 500, n_edges: int = 1000,
                    embed_dim: int = 64,
                    subtask: str = "a") -> SynthBenchmark:
    """Generate a toy KB, concept vectors, and head-disjoint instance splits.

    Concepts are grouped into latent topical communities; most edges stay
    within a community and concept vectors cluster around their community
    centroid, mirroring how a pretrained concept-embedding table reflects
    graph neighborhoods. Byte-identical output for a fixed seed.
    """
    if len(sizes) != 3 or any(s <= 0 for s in sizes):
        raise ValueError(f"sizes must be three positive integers, got {sizes}")
    pairs = n_concepts * (n_concepts - 1) // 2   # the most edges the draw finds
    if n_concepts < 2 or not 0 <= n_edges <= pairs:
        raise ValueError(f"need n_concepts >= 2 and n_edges in [0, {pairs}], "
                         f"got n_concepts={n_concepts}, n_edges={n_edges}")
    out_dir = Path(out_dir)
    made_dir = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    templates = default_templates()
    template_words = {tok for t in templates.values() for tok in t.pattern
                      if not tok.startswith("{")}
    rng = np.random.default_rng([seed, 100])

    words = _word_pool(rng, max(360, n_concepts), template_words | set(STOPWORDS))
    concepts: List[str] = []
    seen = set()
    while len(concepts) < n_concepts:
        if rng.random() < 0.3:
            c = "_".join(sorted({words[int(rng.integers(len(words)))],
                                 words[int(rng.integers(len(words)))]}))
        else:
            c = words[int(rng.integers(len(words)))]
        if c and c not in seen:
            seen.add(c)
            concepts.append(c)

    n_comm = max(2, n_concepts // COMMUNITY_SIZE)
    community = {c: int(rng.integers(n_comm)) for c in concepts}
    by_community: Dict[int, List[str]] = {}
    for c in concepts:
        by_community.setdefault(community[c], []).append(c)

    relations = sorted(templates)
    edge_keys = set()
    lines = []
    while len(lines) < n_edges:
        if rng.random() < P_WITHIN:
            pool = by_community.get(int(rng.integers(n_comm)), [])
            if len(pool) < 2:
                continue
            h = pool[int(rng.integers(len(pool)))]
            t = pool[int(rng.integers(len(pool)))]
        else:
            h = concepts[int(rng.integers(n_concepts))]
            t = concepts[int(rng.integers(n_concepts))]
        if h == t:
            continue
        r = relations[int(rng.integers(len(relations)))]
        if (h, t) in edge_keys or (t, h) in edge_keys:
            continue
        edge_keys.add((h, t))
        w = 0.5 + 3.5 * rng.random()
        lines.append(f"{h}\t{r}\t{t}\t{w:.3f}")
    kb_path = out_dir / "kb.tsv"
    kb_path.write_text("# synthetic toy knowledge graph\n" + "\n".join(lines) + "\n",
                       encoding="utf-8")
    graph = load_graph(kb_path)

    # concept vectors: community centroid plus per-concept noise
    index = {c: i for i, c in enumerate(concepts)}
    centroids = rng.normal(size=(n_comm, embed_dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    vecs = np.empty((n_concepts, embed_dim))
    for c in concepts:
        v = (centroids[community[c]]
             + VECTOR_NOISE * rng.normal(size=embed_dim) / np.sqrt(embed_dim))
        vecs[index[c]] = v / np.linalg.norm(v)

    heads = sorted(c for c in concepts
                   if any(e.head == c for e in neighbors(graph, c)))
    perm = rng.permutation(len(heads))
    n_train = int(0.6 * len(heads))
    n_dev = int(0.2 * len(heads))
    pools = {
        "train": [heads[i] for i in perm[:n_train]],
        "dev": [heads[i] for i in perm[n_train:n_train + n_dev]],
        "test": [heads[i] for i in perm[n_train + n_dev:]],
    }
    splits = {}
    try:
        for (name, pool), size, sub_seed in zip(pools.items(), sizes, (1, 2, 3)):
            splits[name] = generate_augmented(
                graph, templates, size, seed * 10 + sub_seed, subtask=subtask,
                head_pool=pool, id_prefix=f"synth-{name}")
    except DataFormatError:   # a graph the draw cannot use: leave no file behind
        kb_path.unlink()
        if made_dir:
            out_dir.rmdir()
        raise
    vec_path = out_dir / "concepts.vec"
    with open(vec_path, "w", encoding="utf-8") as fh:
        fh.write(f"{n_concepts} {embed_dim}\n")
        for c in concepts:
            fh.write(c + " " + " ".join(f"{v:.6f}" for v in vecs[index[c]]) + "\n")
    concept_table = {c: vecs[index[c]].copy() for c in concepts}
    for name, split in splits.items():
        save_comve(split, out_dir / f"{name}.jsonl")
    paths = {"kb": kb_path, "vectors": vec_path,
             **{name: out_dir / f"{name}.jsonl" for name in splits}}
    return SynthBenchmark(graph=graph, concept_table=concept_table,
                          train=splits["train"], dev=splits["dev"],
                          test=splits["test"], paths=paths)


def build_vocab(graph: KnowledgeGraph, templates: Dict[str, Template],
                instances: Sequence[ComveInstance]) -> Vocab:
    """Vocabulary over concept surfaces, template words, and instance text."""
    tokens = set()
    for c in graph.concepts:
        tokens.update(c.split("_"))
    for t in templates.values():
        tokens.update(tok for tok in t.pattern if not tok.startswith("{"))
    for inst in instances:
        for opt in convert(inst):
            tokens.update(opt)
    return Vocab.build(tokens)


# -- evaluation --------------------------------------------------------------

@dataclass
class Metrics:
    accuracy: float
    predictions: List[dict]


def evaluate(model, instances: Sequence[ComveInstance]) -> Metrics:
    """Accuracy plus a per-instance prediction dump."""
    predictions = []
    correct = 0
    for inst in instances:
        probs = model.predict_probs(inst)
        pred = int(np.argmax(probs))
        ok = pred == inst.label
        correct += ok
        predictions.append({"id": inst.id, "predicted": pred,
                            "label": inst.label, "correct": bool(ok),
                            "probs": [round(float(p), 6) for p in probs]})
    accuracy = correct / len(instances) if instances else 0.0
    return Metrics(accuracy=accuracy, predictions=predictions)
