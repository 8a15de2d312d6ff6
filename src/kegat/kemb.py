"""Knowledge-injected tree inputs.

Linked entities pull their strongest KB edges in as natural-language branches
attached to the entity token. Branches keep the trunk's position numbering
(soft positions measured from the anchor) and are isolated from each other by
a visibility matrix, so injected text cannot cross-talk.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DataFormatError
from .kgstore import Edge, KnowledgeGraph, top_neighbors
from .linker import TokenSpan
from .vocab import Vocab

logger = logging.getLogger(__name__)

HEAD_SLOT = "{head}"
TAIL_SLOT = "{tail}"

FALLBACK_PATTERN = "{head} is related to {tail}"

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


@dataclass(frozen=True)
class Template:
    relation: str
    pattern: Tuple[str, ...]

    def __post_init__(self):
        if self.pattern.count(HEAD_SLOT) != 1 or self.pattern.count(TAIL_SLOT) != 1:
            raise DataFormatError(
                f"template for {self.relation!r} must contain each of "
                f"{HEAD_SLOT} and {TAIL_SLOT} exactly once")


def _parse_pattern(relation: str, pattern: str) -> Template:
    return Template(relation, tuple(pattern.split()))


def default_templates() -> Dict[str, Template]:
    return {rel: _parse_pattern(rel, pat)
            for rel, pat in DEFAULT_TEMPLATE_PATTERNS.items()}


def load_templates(path) -> Dict[str, Template]:
    """Load a JSON map relation -> pattern string with {head}/{tail} slots."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError
        raise DataFormatError(f"{path}: not a JSON file ({exc})") from None
    if not isinstance(raw, dict):
        raise DataFormatError(f"{path}: template file must be a JSON object")
    for rel, pat in raw.items():
        if not isinstance(pat, str):
            raise DataFormatError(
                f"{path}: template for {rel!r} must be a string, "
                f"got {type(pat).__name__}")
    return {rel: _parse_pattern(rel, pat) for rel, pat in raw.items()}


def realize_triple(edge: Edge, templates: Dict[str, Template]) -> List[str]:
    """Render an edge as natural-language tokens via its relation template."""
    template = templates.get(edge.relation)
    if template is None:
        logger.info("no template for relation %s; using fallback", edge.relation)
        template = _parse_pattern(edge.relation, FALLBACK_PATTERN)
    out: List[str] = []
    for tok in template.pattern:
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


def _flatten_order(tree: InjectedTree) -> List[Tuple[str, int, int]]:
    """Positions in flatten order: ('trunk', idx, -1) or ('branch', bi, ti).

    Branch tokens sit immediately after their anchor; branches sharing an
    anchor are ordered by descending weight (stable).
    """
    by_anchor: Dict[int, List[int]] = {}
    for bi, b in enumerate(tree.branches):
        by_anchor.setdefault(b.anchor, []).append(bi)
    for lst in by_anchor.values():
        lst.sort(key=lambda bi: -tree.branches[bi].weight)
    order: List[Tuple[str, int, int]] = []
    for p in range(len(tree.trunk)):
        order.append(("trunk", p, -1))
        for bi in by_anchor.get(p, ()):
            for ti in range(len(tree.branches[bi].tokens)):
                order.append(("branch", bi, ti))
    return order


def assign_soft_positions(tree: InjectedTree) -> List[int]:
    """Soft positions in flatten order.

    Trunk token p keeps position p; a branch anchored at p numbers its tokens
    p+1, p+2, ... — the distance from the root token along that branch.
    Parallel branches may repeat positions; visibility disambiguates.
    """
    out = []
    for kind, a, ti in _flatten_order(tree):
        out.append(a if kind == "trunk" else tree.branches[a].anchor + 1 + ti)
    return out


def build_visibility(tree: InjectedTree) -> np.ndarray:
    """Boolean visibility matrix in flatten order.

    Trunk tokens all see each other; a branch token sees its own branch and
    its anchor trunk token, nothing else. Symmetric with a true diagonal.
    """
    order = _flatten_order(tree)
    n = len(order)
    vis = np.zeros((n, n), dtype=bool)
    for i, (ki, ai, _) in enumerate(order):
        for j, (kj, aj, _) in enumerate(order):
            if ki == "trunk" and kj == "trunk":
                vis[i, j] = True
            elif ki == "branch" and kj == "branch":
                vis[i, j] = ai == aj
            else:
                bi, ti = (ai, aj) if ki == "branch" else (aj, ai)
                vis[i, j] = tree.branches[bi].anchor == ti
    return vis


@dataclass(frozen=True)
class InjectedSequence:
    tokens: Tuple[int, ...]
    soft_pos: Tuple[int, ...]
    visibility: np.ndarray
    trunk_mask: Tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.tokens)


def flatten(tree: InjectedTree, vocab: Vocab, max_len: int) -> InjectedSequence:
    """Flatten a tree into model input, truncating to `max_len`.

    Over-long inputs first drop whole branches lowest-weight-first, then
    truncate the trunk tail. A `max_len` below the trunk floor is an error.
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
    trunk = tree.trunk
    if total > max_len:
        trunk = trunk[:max_len]
    pruned = InjectedTree(trunk=trunk, branches=tuple(branches))
    order = _flatten_order(pruned)
    tokens = []
    trunk_mask = []
    for kind, a, ti in order:
        if kind == "trunk":
            tokens.append(pruned.trunk[a])
            trunk_mask.append(True)
        else:
            tokens.append(pruned.branches[a].tokens[ti])
            trunk_mask.append(False)
    return InjectedSequence(tokens=tuple(vocab.encode(tokens)),
                            soft_pos=tuple(assign_soft_positions(pruned)),
                            visibility=build_visibility(pruned),
                            trunk_mask=tuple(trunk_mask))
