"""Knowledge-graph loading, querying, and serialization tests."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from kegat.errors import DataFormatError
from kegat.kgstore import (DEFAULT_BLOCKLIST, fingerprint, load_graph,
                           neighbors, normalize_concept, save_graph,
                           top_neighbors)

from conftest import SUGAR_KB_ROWS, write_kb


def test_edge_retrievable_from_both_endpoints(sugar_graph):
    for concept in ("sugar", "sweetening_coffee"):
        edges = neighbors(sugar_graph, concept)
        assert any(e.relation == "/r/UsedFor" and
                   {e.head, e.tail} == {"sugar", "sweetening_coffee"}
                   for e in edges)


def test_zero_weight_is_hard_error(tmp_path):
    path = write_kb(tmp_path / "kb.tsv", [("a", "/r/IsA", "b", 0)])
    with pytest.raises(DataFormatError, match="nonpositive weight"):
        load_graph(path)


def test_malformed_rows_name_their_line(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("a\t/r/IsA\tb\t1.0\na\t/r/IsA\tb\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":2"):
        load_graph(path)
    path.write_text("a\t/r/IsA\tb\theavy\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="non-numeric weight"):
        load_graph(path)


def test_blocklisted_relation_skipped_and_counted(tmp_path):
    rows = SUGAR_KB_ROWS + [("sugar", "/r/ExternalURL", "http_thing", 1.0)]
    graph = load_graph(write_kb(tmp_path / "kb.tsv", rows))
    assert graph.stats.skipped_blocklist == 1
    assert graph.stats.loaded == len(SUGAR_KB_ROWS)
    assert all(e.relation != "/r/ExternalURL" for c in graph.concepts
               for e in neighbors(graph, c))


def test_comment_lines_skipped(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("# a comment\na\t/r/IsA\tb\t1.0\n", encoding="utf-8")
    graph = load_graph(path)
    assert graph.stats.skipped_comments == 1
    assert graph.stats.loaded == 1


def test_unknown_concept_has_no_neighbors(sugar_graph):
    assert neighbors(sugar_graph, "notaconcept") == []


def test_neighbors_sorted_by_weight_descending(sugar_graph):
    edges = neighbors(sugar_graph, "sugar")
    assert [e.other("sugar") for e in edges] == [
        "sweetening_coffee", "sweet_food", "carbohydrate"]
    weights = [e.weight for e in edges]
    assert weights == sorted(weights, reverse=True)


def test_equal_weight_ties_break_lexicographically(tmp_path):
    rows = [("x", "/r/IsA", "zeta", 1.0), ("x", "/r/IsA", "alpha", 1.0),
            ("x", "/r/Causes", "mid", 1.0)]
    path = write_kb(tmp_path / "kb.tsv", rows)
    order = [(e.relation, e.other("x")) for e in neighbors(load_graph(path), "x")]
    assert order == [("/r/Causes", "mid"), ("/r/IsA", "alpha"), ("/r/IsA", "zeta")]
    assert order == [(e.relation, e.other("x"))
                     for e in neighbors(load_graph(path), "x")]


def test_top_neighbors_prefix_and_limits(sugar_graph):
    top2 = top_neighbors(sugar_graph, "sugar", 2)
    assert [e.other("sugar") for e in top2] == ["sweetening_coffee", "sweet_food"]
    assert top_neighbors(sugar_graph, "sugar", 0) == []
    assert top_neighbors(sugar_graph, "sugar", 99) == neighbors(sugar_graph, "sugar")
    for k in range(5):
        assert top_neighbors(sugar_graph, "sugar", k) == \
            neighbors(sugar_graph, "sugar")[:k]
    with pytest.raises(ValueError):
        top_neighbors(sugar_graph, "sugar", -1)


def test_load_is_idempotent(sugar_kb_path):
    g1, g2 = load_graph(sugar_kb_path), load_graph(sugar_kb_path)
    assert g1.edges == g2.edges
    assert g1.stats == g2.stats


def test_normalize_concept():
    assert normalize_concept("/c/en/ice_cream") == "ice_cream"
    assert normalize_concept("Ice Cream ") == "ice_cream"
    assert normalize_concept("a__b") == "a_b"


def test_binary_round_trip(sugar_graph, tmp_path):
    p1, p2 = tmp_path / "kb1.tsv", tmp_path / "kb2.tsv"
    save_graph(sugar_graph, p1)
    reloaded = load_graph(p1)
    assert reloaded.edges == sugar_graph.edges
    assert reloaded.stats == sugar_graph.stats
    assert fingerprint(reloaded) == fingerprint(sugar_graph)
    save_graph(reloaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_binary_write_keeps_previous_file(sugar_graph, tmp_path,
                                                 monkeypatch):
    path = tmp_path / "out" / "kb.tsv"
    path.parent.mkdir()
    path.write_bytes(b"previous")

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk full"):
        save_graph(sugar_graph, path)
    assert path.read_bytes() == b"previous"
    assert [f.name for f in path.parent.iterdir()] == ["kb.tsv"]


_relations = st.sampled_from(["/r/IsA", "/r/UsedFor", "/r/ExternalURL"])
_concepts = st.sampled_from(["a", "b", "c", "d", "e"])
_edges = st.lists(st.tuples(_concepts, _relations, _concepts,
                            st.floats(0.1, 9.9)), min_size=1, max_size=20)


@given(_edges)
@settings(max_examples=50, deadline=None)
def test_random_graph_invariants(tmp_path_factory, rows):
    path = write_kb(tmp_path_factory.mktemp("kb") / "kb.tsv",
                    [(h, r, t, round(w, 3)) for h, r, t, w in rows])
    graph = load_graph(path)
    for c in graph.concepts:
        for e in neighbors(graph, c):
            assert e.relation not in DEFAULT_BLOCKLIST
            assert e in neighbors(graph, e.other(c)) or e.other(c) == c
        for k in range(len(neighbors(graph, c)) + 1):
            assert top_neighbors(graph, c, k) == neighbors(graph, c)[:k]
