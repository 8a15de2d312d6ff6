"""Knowledge-injected tree inputs.

Linked entities pull their strongest KB edges in as natural-language branches
attached to the entity token. A template is a relation's token tuple, parsed
by `parse_templates`; a relation without one uses `FALLBACK_TEMPLATE`, whose
words `template_words` lists too, so no template word maps to `[UNK]`.
`flatten` lays a tree out in one walk: each trunk token is followed by its
branches, strongest first. Trunk token p keeps soft position p, and a branch
anchored at p numbers its tokens p+1, p+2, ..., so parallel branches repeat
positions. The visibility matrix keeps injected text local: trunk tokens see
each other, a branch token sees its own branch, and a trunk token and the
branches anchored at it see each other. Nothing else is visible. `pad_batch`
stacks sequences for one encoder pass, padding with positions that see only
themselves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .errors import DataFormatError
from .kgstore import Edge, KnowledgeGraph, json_object, top_neighbors
from .linker import TokenSpan
from .vocab import Vocab

logger = logging.getLogger(__name__)

HEAD_SLOT = "{head}"
TAIL_SLOT = "{tail}"

Template = Tuple[str, ...]
FALLBACK_TEMPLATE: Template = (HEAD_SLOT, "is", "related", "to", TAIL_SLOT)

DEFAULT_TEMPLATE_PATTERNS: Dict[str, str] = {
    "/r/UsedFor": "{head} is used to {tail}",
    "/r/IsA": "{head} is a {tail}",
    "/r/AtLocation": "{head} is at {tail}",
    "/r/CapableOf": "{head} can {tail}",
    "/r/HasProperty": "{head} is {tail}",
    "/r/PartOf": "{head} is part of {tail}",
    "/r/Causes": "{head} causes {tail}",
    "/r/Desires": "{head} wants {tail}",
    "/r/HasA": "{head} has {tail}",
    "/r/MadeOf": "{head} is made of {tail}",
    "/r/HasSubevent": "{head} involves {tail}",
    "/r/HasPrerequisite": "{head} requires {tail}",
    "/r/MotivatedByGoal": "{head} is motivated by {tail}",
    "/r/CausesDesire": "{head} makes you want {tail}",
    "/r/ReceivesAction": "{head} can be {tail}",
    "/r/CreatedBy": "{head} is created by {tail}",
    "/r/DefinedAs": "{head} is defined as {tail}",
    "/r/SymbolOf": "{head} symbolizes {tail}",
    "/r/LocatedNear": "{head} is near {tail}",
    "/r/RelatedTo": "{head} is related to {tail}",
    "/r/Synonym": "{head} means {tail}",
}

MIN_TRUNK_LEN = 8


def parse_templates(patterns: Dict[str, str], where: str) -> Dict[str, Template]:
    """The templates of a map relation -> pattern string. A pattern must be a
    string holding {head} and {tail} once each, else a DataFormatError names
    `where`, the map's source, and the relation."""
    templates = {}
    for rel, pat in patterns.items():
        if not isinstance(pat, str):
            raise DataFormatError(f"{where}: template for {rel!r} must be a "
                                  f"string, got {type(pat).__name__}")
        tokens = tuple(pat.split())
        if tokens.count(HEAD_SLOT) != 1 or tokens.count(TAIL_SLOT) != 1:
            raise DataFormatError(
                f"{where}: template for {rel!r} must contain each of "
                f"{HEAD_SLOT} and {TAIL_SLOT} exactly once")
        templates[rel] = tokens
    return templates


def default_templates() -> Dict[str, Template]:
    return parse_templates(DEFAULT_TEMPLATE_PATTERNS, "default templates")


def load_templates(path=None) -> Dict[str, Template]:
    """Load a JSON map relation -> pattern string with {head}/{tail} slots;
    without a path, the default templates."""
    if path is None:
        return default_templates()
    return parse_templates(json_object(path, "template file"), str(path))


def template_words(templates: Dict[str, Template]) -> Set[str]:
    """Every word `realize_triple` can emit besides concept surfaces: the
    templates' words and the fallback's."""
    return set().union(FALLBACK_TEMPLATE, *templates.values()) - {HEAD_SLOT, TAIL_SLOT}


def realize_triple(edge: Edge, templates: Dict[str, Template]) -> List[str]:
    """Render an edge as natural-language tokens via its relation template."""
    template = templates.get(edge.relation)
    if template is None:
        logger.info("no template for relation %s; using fallback", edge.relation)
        template = FALLBACK_TEMPLATE
    out: List[str] = []
    for tok in template:
        if tok == HEAD_SLOT:
            out.extend(edge.head.split("_"))
        elif tok == TAIL_SLOT:
            out.extend(edge.tail.split("_"))
        else:
            out.append(tok)
    return out


@dataclass(frozen=True)
class Branch:
    anchor: int
    tokens: Tuple[str, ...]
    weight: float

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("branch token list must be non-empty")


@dataclass(frozen=True)
class InjectedTree:
    trunk: Tuple[str, ...]
    branches: Tuple[Branch, ...]

    def __post_init__(self):
        for b in self.branches:
            if not (0 <= b.anchor < len(self.trunk)):
                raise ValueError(f"branch anchor {b.anchor} outside trunk")


def build_tree(tokens: Sequence[str], spans: Sequence[TokenSpan],
               graph: KnowledgeGraph, per_entity_limit: int,
               templates: Dict[str, Template]) -> InjectedTree:
    """Attach each entity's strongest edges as branches at its last token."""
    branches: List[Branch] = []
    for span in spans:
        for edge in top_neighbors(graph, span.concept, per_entity_limit):
            branches.append(Branch(anchor=span.end - 1,
                                   tokens=tuple(realize_triple(edge, templates)),
                                   weight=edge.weight))
    return InjectedTree(trunk=tuple(tokens), branches=tuple(branches))


@dataclass(frozen=True)
class InjectedSequence:
    tokens: Tuple[int, ...]
    soft_pos: Tuple[int, ...]
    visibility: np.ndarray
    trunk_mask: Tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.tokens)


def flatten(tree: InjectedTree, vocab: Vocab, max_len: int) -> InjectedSequence:
    """Lay a tree out as model input in one walk, truncating to `max_len`.

    Over-long inputs first drop whole branches lowest-weight-first (ties drop
    the later branch), then truncate the trunk tail. A `max_len` below the
    trunk floor is an error.
    """
    if max_len < MIN_TRUNK_LEN:
        raise DataFormatError(
            f"max_len {max_len} below minimum trunk length {MIN_TRUNK_LEN}")
    branches = list(tree.branches)
    total = len(tree.trunk) + sum(len(b.tokens) for b in branches)
    while branches and total > max_len:
        drop = min(range(len(branches)),
                   key=lambda i: (branches[i].weight, -i))
        total -= len(branches[drop].tokens)
        del branches[drop]
    trunk = tree.trunk if total <= max_len else tree.trunk[:max_len]
    branches.sort(key=lambda b: (b.anchor, -b.weight))   # stable
    tokens: List[str] = []
    soft_pos: List[int] = []
    branch_id: List[int] = []   # -1 on the trunk
    anchor: List[int] = []
    k = 0
    for p, tok in enumerate(trunk):
        tokens.append(tok)
        soft_pos.append(p)
        branch_id.append(-1)
        anchor.append(p)
        while k < len(branches) and branches[k].anchor == p:
            n = len(branches[k].tokens)
            tokens.extend(branches[k].tokens)
            soft_pos.extend(range(p + 1, p + 1 + n))
            branch_id.extend([k] * n)
            anchor.extend([p] * n)
            k += 1
    bid = np.array(branch_id)
    at = np.array(anchor)
    in_trunk = bid < 0
    # trunk x trunk and same-branch pairs share a branch id (-1 on the trunk)
    vis = bid[:, None] == bid[None, :]
    own = in_trunk[:, None] & (at[:, None] == at[None, :])
    vis |= own | own.T
    return InjectedSequence(tokens=tuple(vocab.encode(tokens)),
                            soft_pos=tuple(soft_pos), visibility=vis,
                            trunk_mask=tuple(in_trunk.tolist()))


@dataclass(frozen=True)
class PaddedBatch:
    """B sequences padded to the longest one's length T.

    `tokens`, `soft_pos` and `trunk_mask` are (B, T) arrays and `visibility`
    is (B, T, T). A padding position holds the pad token at soft position 0,
    is off the trunk, and sees only itself; no real position sees it.
    """
    tokens: np.ndarray
    soft_pos: np.ndarray
    visibility: np.ndarray
    trunk_mask: np.ndarray


def pad_batch(seqs: Sequence[InjectedSequence], pad_id: int) -> PaddedBatch:
    """Stack `seqs` into one padded batch, in order."""
    B, T = len(seqs), max(len(s) for s in seqs)
    tokens = np.full((B, T), pad_id, dtype=np.int64)
    soft_pos = np.zeros((B, T), dtype=np.int64)
    trunk_mask = np.zeros((B, T), dtype=bool)
    visibility = np.zeros((B, T, T), dtype=bool)
    visibility[:, np.arange(T), np.arange(T)] = True
    for b, s in enumerate(seqs):
        n = len(s)
        tokens[b, :n] = s.tokens
        soft_pos[b, :n] = s.soft_pos
        trunk_mask[b, :n] = s.trunk_mask
        visibility[b, :n, :n] = s.visibility
    return PaddedBatch(tokens=tokens, soft_pos=soft_pos,
                       visibility=visibility, trunk_mask=trunk_mask)
