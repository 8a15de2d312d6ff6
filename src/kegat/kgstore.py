"""Weighted multi-relational concept graph with a relation blocklist.

A knowledge base has one on-disk form, a TSV edge list (head, relation,
tail, weight per line); `save_graph` writes one that `load_graph` reads back
edge for edge. The graph is immutable once loaded; queries are read-only and
safe to run concurrently.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Tuple

from .errors import DataFormatError

DEFAULT_BLOCKLIST = frozenset({
    "/r/ExternalURL",
    "/r/DistinctFrom",
    "/r/Antonym",
    "/r/NotCapableOf",
    "/r/NotDesires",
    "/r/NotHasProperty",
})


def normalize_concept(raw: str) -> str:
    """Normalize a concept id: lowercase, strip /c/en/ namespace, underscores."""
    s = raw.strip().lower()
    if s.startswith("/c/en/"):
        s = s[len("/c/en/"):]
    s = "_".join(part for part in s.replace(" ", "_").split("_") if part)
    return s


@dataclass(frozen=True)
class Edge:
    head: str
    relation: str
    tail: str
    weight: float

    def other(self, concept_id: str) -> str:
        """Opposite endpoint in the undirected view."""
        return self.tail if concept_id == self.head else self.head


@dataclass(frozen=True)
class GraphStats:
    loaded: int
    skipped_blocklist: int
    skipped_comments: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class KnowledgeGraph:
    concepts: FrozenSet[str]
    edges: Tuple[Edge, ...]
    stats: GraphStats
    _adjacency: Dict[str, Tuple[Edge, ...]] = field(repr=False, default_factory=dict)

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self.concepts


def _sort_key(concept_id: str):
    def key(edge: Edge):
        return (-edge.weight, edge.relation, edge.other(concept_id))
    return key


def _build_graph(edges: List[Edge], stats: GraphStats) -> KnowledgeGraph:
    adjacency: Dict[str, List[Edge]] = {}
    concepts: set[str] = set()
    for e in edges:
        concepts.add(e.head)
        concepts.add(e.tail)
        adjacency.setdefault(e.head, []).append(e)
        if e.tail != e.head:
            adjacency.setdefault(e.tail, []).append(e)
    frozen_adj = {c: tuple(sorted(lst, key=_sort_key(c)))
                  for c, lst in adjacency.items()}
    return KnowledgeGraph(concepts=frozenset(concepts),
                          edges=tuple(edges),
                          stats=stats,
                          _adjacency=frozen_adj)


def text_lines(path):
    """The lines of a UTF-8 text file; undecodable bytes are a data error."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise DataFormatError(f"{path}: not a UTF-8 text file") from None


def jsonl_records(path):
    """(line number, record) for each non-blank line of JSONL file `path`;
    a line that is not JSON is a data error naming it."""
    for lineno, line in enumerate(text_lines(path), start=1):
        if not line.strip():
            continue
        try:
            yield lineno, json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataFormatError(
                f"{path}:{lineno}: invalid JSON: {exc}") from None


def json_object(path, noun: str) -> dict:
    """The JSON object in UTF-8 file `path`; a file that is not JSON, or
    holds another value, is a data error that calls the file `noun`."""
    try:
        with open(path, encoding="utf-8") as fh:
            value = json.load(fh)
    except (ValueError, RecursionError) as exc:   # ValueError: JSON or UTF-8
        raise DataFormatError(f"{path}: not a JSON file ({exc})") from None
    if not isinstance(value, dict):
        raise DataFormatError(f"{path}: {noun} must be a JSON object")
    return value


def make_parent(path) -> None:
    """Create output file `path`'s parent directory if it is missing; one
    that cannot be created is a data error."""
    parent = Path(path).parent
    try:
        parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataFormatError(f"{parent}: cannot create the output "
                              f"directory ({exc.strerror})") from None


@contextlib.contextmanager
def atomic_write(path):
    """A binary file handle whose bytes replace `path` only once the block
    ends, so a failed write leaves the previous file at `path` intact. A
    missing parent directory is created first (`make_parent`)."""
    path = Path(path)
    make_parent(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_graph(path, blocklist=DEFAULT_BLOCKLIST) -> KnowledgeGraph:
    """Load a TSV edge list (head\\trelation\\ttail\\tweight per line).

    '#'-prefixed lines are comments. Rows carrying a blocklisted relation are
    skipped and counted; malformed rows and non-finite or nonpositive weights
    are hard errors with the offending line number, and so is a file that is
    not UTF-8 text.
    """
    blockset = frozenset(blocklist)
    edges: List[Edge] = []
    skipped_block = 0
    skipped_comment = 0
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.lstrip().startswith("#"):
            skipped_comment += 1
            continue
        cols = line.split("\t")
        if len(cols) != 4:
            raise DataFormatError(
                f"{path}:{lineno}: expected 4 tab-separated columns, "
                f"got {len(cols)}")
        head, relation, tail, weight_s = cols
        try:
            weight = float(weight_s)
        except ValueError:
            raise DataFormatError(
                f"{path}:{lineno}: non-numeric weight {weight_s!r}") from None
        if not math.isfinite(weight):
            raise DataFormatError(f"{path}:{lineno}: non-finite weight {weight}")
        if weight <= 0:
            raise DataFormatError(f"{path}:{lineno}: nonpositive weight {weight}")
        if relation in blockset:
            skipped_block += 1
            continue
        edges.append(Edge(normalize_concept(head), relation,
                          normalize_concept(tail), weight))
    stats = GraphStats(loaded=len(edges), skipped_blocklist=skipped_block,
                       skipped_comments=skipped_comment)
    return _build_graph(edges, stats)


def neighbors(graph: KnowledgeGraph, concept_id: str) -> List[Edge]:
    """Edges at `concept_id`, weight-descending; ties by (relation, other id).

    Unknown concepts yield an empty list.
    """
    return list(graph._adjacency.get(concept_id, ()))


def top_neighbors(graph: KnowledgeGraph, concept_id: str, limit: int) -> List[Edge]:
    if limit < 0:
        raise ValueError("limit must be >= 0")
    return neighbors(graph, concept_id)[:limit]


def fingerprint(graph: KnowledgeGraph) -> str:
    """sha256 of the canonical edge list, so a graph and the file
    `save_graph` writes of it load to the same fingerprint."""
    rows = [[e.head, e.relation, e.tail, e.weight] for e in graph.edges]
    blob = json.dumps(rows, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def save_graph(graph: KnowledgeGraph, path) -> None:
    """Write the graph's edges as a TSV edge list, weights by `repr`, that
    `load_graph` reads back to the same edges. An edge it would not read back
    is a data error, and nothing is written."""
    lines = []
    for e in graph.edges:
        for concept in (e.head, e.tail):
            if normalize_concept(concept) != concept:
                raise DataFormatError(f"concept {concept!r} would load back "
                                      f"as {normalize_concept(concept)!r}")
        line = f"{e.head}\t{e.relation}\t{e.tail}\t{e.weight!r}\n"
        if line.lstrip().startswith("#"):
            raise DataFormatError(
                f"edge {line.rstrip()!r} would load back as a comment")
        lines.append(line)
    with atomic_write(path) as fh:
        fh.write("".join(lines).encode("utf-8"))
