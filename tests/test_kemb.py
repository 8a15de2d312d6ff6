"""Knowledge-injection tests: templates, trees, positions, visibility, flatten."""

import importlib.util
import json
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kegat.errors import DataFormatError
from kegat.harness import ComveInstance, build_vocab
from kegat.kgstore import Edge, load_graph
from kegat.kemb import (HEAD_SLOT, TAIL_SLOT, Branch, InjectedTree, build_tree,
                        default_templates, flatten, load_templates, pad_batch,
                        parse_templates, realize_triple, template_words)
from kegat.linker import extract_entities
from kegat.vocab import UNK, Vocab

from conftest import write_kb

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "kemb_golden.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "make_kemb_golden", DATA / "make_kemb_golden.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def _vocab_for(*token_lists):
    tokens = set()
    for lst in token_lists:
        tokens.update(lst)
    return Vocab.build(tokens)


def _flat(tree):
    """Flatten a tree without truncation."""
    vocab = _vocab_for(tree.trunk, *(b.tokens for b in tree.branches))
    return flatten(tree, vocab, 128)


def test_realize_used_for():
    edge = Edge("sugar", "/r/UsedFor", "sweetening_coffee", 3.5)
    assert realize_triple(edge, default_templates()) == \
        ["sugar", "is", "used", "to", "sweetening", "coffee"]


def test_realize_is_a():
    edge = Edge("elephant", "/r/IsA", "animal", 1.0)
    assert realize_triple(edge, default_templates()) == \
        ["elephant", "is", "a", "animal"]


def test_realize_unknown_relation_uses_fallback(caplog):
    edge = Edge("red_panda", "/r/Foo", "cute_thing", 1.0)
    with caplog.at_level(logging.INFO, logger="kegat.kemb"):
        out = realize_triple(edge, default_templates())
    assert out == ["red", "panda", "is", "related", "to", "cute", "thing"]
    assert any("fallback" in rec.message for rec in caplog.records)


def test_realization_never_emits_slot_markers():
    for rel in default_templates():
        out = realize_triple(Edge("a_b", rel, "c_d", 1.0), default_templates())
        assert HEAD_SLOT not in out and TAIL_SLOT not in out


def test_parse_templates_requires_a_string_with_each_slot_once():
    assert parse_templates({"/r/X": " {tail}  of {head} "}, "src") == \
        {"/r/X": ("{tail}", "of", "{head}")}
    slots = "must contain each of {head} and {tail} exactly once"
    for pattern, fault in (("{head} is", slots),
                           ("{head} {tail} {tail}", slots),
                           (5, "must be a string, got int")):
        with pytest.raises(DataFormatError) as exc:
            parse_templates({"/r/X": pattern}, "src")
        assert str(exc.value) == f"src: template for '/r/X' {fault}"


def test_template_words_hold_the_fallback_words():
    assert template_words({}) == {"is", "related", "to"}
    assert template_words({"/r/IsA": ("{head}", "is", "a", "{tail}")}) == \
        {"is", "a", "related", "to"}
    assert template_words(default_templates()) == {
        tok for pat in default_templates().values() for tok in pat
        if tok not in (HEAD_SLOT, TAIL_SLOT)}


def test_custom_templates_vocab_covers_fallback_branches(tmp_path, sugar_graph):
    """With a templates file that lacks /r/UsedFor, the sugar edge is
    realized with the fallback template, and the vocabulary `build_vocab`
    makes from the file holds its words: the flattened tree has no [UNK]."""
    p = tmp_path / "one.json"
    p.write_text(json.dumps({"/r/IsA": "{head} is a {tail}"}), encoding="utf-8")
    templates = load_templates(p)
    inst = ComveInstance("x", "a", 1, ("he put sugar in his coffee",
                                       "he put coffee in his sugar"))
    vocab = build_vocab(sugar_graph, templates, [inst])
    assert vocab.lookup("related") != vocab.lookup(UNK)
    assert vocab.lookup("to") != vocab.lookup(UNK)
    tokens = GOLDEN["trunk"]
    tree = build_tree(tokens, extract_entities(tokens, sugar_graph),
                      sugar_graph, 2, templates)
    assert "sugar is related to sweetening coffee" in \
        [" ".join(b.tokens) for b in tree.branches]
    assert vocab.lookup(UNK) not in flatten(tree, vocab, 128).tokens


def test_load_templates(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"/r/IsA": "{head} is a {tail}"}), encoding="utf-8")
    templates = load_templates(p)
    assert realize_triple(Edge("cat", "/r/IsA", "pet", 1.0), templates) == \
        ["cat", "is", "a", "pet"]
    p.write_text("[1]", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_templates(p)


def test_build_tree_keeps_top_edges_discards_weakest(sugar_graph):
    tokens = GOLDEN["trunk"]
    spans = extract_entities(tokens, sugar_graph)
    tree = build_tree(tokens, spans, sugar_graph, 2, default_templates())
    texts = [" ".join(b.tokens) for b in tree.branches]
    assert "sugar is used to sweetening coffee" in texts
    assert "sugar is a sweet food" in texts
    assert not any("carbohydrate" in t for t in texts)
    assert len(tree.branches) == 4   # two per entity


def test_build_tree_no_spans_and_limit_zero(sugar_graph):
    tokens = ["nothing", "here"]
    assert build_tree(tokens, [], sugar_graph, 2, default_templates()).branches == ()
    spans = extract_entities(GOLDEN["trunk"], sugar_graph)
    tree = build_tree(GOLDEN["trunk"], spans, sugar_graph, 0, default_templates())
    assert tree.branches == ()


def test_branch_anchor_is_last_span_token(tmp_path):
    rows = [("ice_cream", "/r/IsA", "food", 1.0)]
    graph = load_graph(write_kb(tmp_path / "kb.tsv", rows))
    tokens = ["he", "ate", "ice", "cream"]
    tree = build_tree(tokens, extract_entities(tokens, graph), graph, 1,
                      default_templates())
    assert [b.anchor for b in tree.branches] == [3]


def test_soft_positions_manual_trace():
    trunk = ("he", "put", "sugar", "in", "coffee")
    tree = InjectedTree(trunk, (Branch(2, ("w", "x", "y", "z"), 1.0),))
    # flatten order: he put sugar [w x y z] in coffee
    assert list(_flat(tree).soft_pos) == [0, 1, 2, 3, 4, 5, 6, 3, 4]


def test_soft_positions_no_branches():
    tree = InjectedTree(("a", "b", "c"), ())
    assert list(_flat(tree).soft_pos) == [0, 1, 2]


def test_parallel_branches_share_positions():
    tree = InjectedTree(("a", "b"), (Branch(0, ("x", "y"), 2.0),
                                     Branch(0, ("p", "q"), 1.0)))
    # order: a x y p q b; both branches restart at anchor+1
    assert list(_flat(tree).soft_pos) == [0, 1, 2, 1, 2, 1]


def test_visibility_no_branches_all_true():
    vis = _flat(InjectedTree(("a", "b", "c"), ())).visibility
    assert vis.all() and vis.shape == (3, 3)


def test_visibility_isolates_branches():
    tree = InjectedTree(("a", "b", "c"),
                        (Branch(0, ("x", "y"), 1.0), Branch(2, ("z",), 1.0)))
    vis = _flat(tree).visibility
    order = ["a", "x", "y", "b", "c", "z"]
    ix = {t: i for i, t in enumerate(order)}
    assert vis[ix["x"], ix["y"]] and vis[ix["x"], ix["a"]]
    assert not vis[ix["x"], ix["z"]]          # different branches
    assert not vis[ix["x"], ix["b"]]          # non-anchor trunk token
    assert not vis[ix["z"], ix["a"]]
    assert vis[ix["z"], ix["c"]]              # its own anchor
    np.testing.assert_array_equal(vis, vis.T)
    assert vis.diagonal().all()


def test_flatten_within_budget(sugar_graph):
    tokens = GOLDEN["trunk"]
    tree = build_tree(tokens, extract_entities(tokens, sugar_graph),
                      sugar_graph, 2, default_templates())
    vocab = _vocab_for(GOLDEN["tokens"])
    seq = flatten(tree, vocab, 128)
    assert len(seq) == len(tokens) + sum(len(b.tokens) for b in tree.branches)
    assert [vocab.token(t) for t, m in zip(seq.tokens, seq.trunk_mask) if m] == \
        list(tokens)


def test_flatten_empty_branches(sugar_graph):
    tree = InjectedTree(("x", "y"), ())
    vocab = _vocab_for(["x", "y"])
    seq = flatten(tree, vocab, 128)
    assert [vocab.token(t) for t in seq.tokens] == ["x", "y"]
    assert seq.visibility.all()


def test_flatten_drops_lowest_weight_branch_first():
    tree = InjectedTree(tuple("abcdefgh"),
                        (Branch(1, ("hi", "lo"), 2.0), Branch(3, ("xx",), 1.0)))
    vocab = _vocab_for("abcdefgh", ["hi", "lo", "xx"])
    seq = flatten(tree, vocab, 10)
    kept = [vocab.token(t) for t in seq.tokens]
    assert "xx" not in kept and "hi" in kept and "lo" in kept


def test_flatten_truncates_trunk_only_after_branches_gone():
    tree = InjectedTree(tuple(f"t{i}" for i in range(12)),
                        (Branch(0, ("bb",), 1.0),))
    vocab = _vocab_for([f"t{i}" for i in range(12)], ["bb"])
    seq = flatten(tree, vocab, 10)
    assert [vocab.token(t) for t in seq.tokens] == [f"t{i}" for i in range(10)]


def test_flatten_max_len_floor_is_error():
    tree = InjectedTree(tuple("abcdefghij"), ())
    with pytest.raises(DataFormatError):
        flatten(tree, _vocab_for("abcdefghij"), 7)


def test_golden_case(sugar_graph):
    """Reproduce the checked-in sugar/coffee golden injection."""
    tokens = GOLDEN["trunk"]
    spans = extract_entities(tokens, sugar_graph)
    tree = build_tree(tokens, spans, sugar_graph, 2, default_templates())
    vocab = _vocab_for(GOLDEN["tokens"])
    seq = flatten(tree, vocab, 128)
    assert [vocab.token(t) for t in seq.tokens] == GOLDEN["tokens"]
    assert list(seq.soft_pos) == GOLDEN["soft_pos"]
    assert [int(m) for m in seq.trunk_mask] == GOLDEN["trunk_mask"]
    np.testing.assert_array_equal(seq.visibility.astype(int),
                                  np.array(GOLDEN["visibility"]))


def test_golden_file_is_the_oracles_output():
    assert (DATA / "kemb_golden.json").read_text(encoding="utf-8") == \
        oracle.golden_text()


_trees = st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 4),
                       st.sampled_from([0.5, 1.0, 2.0, 3.5])), max_size=6)))


@given(_trees)
@settings(max_examples=150, deadline=None)
def test_flatten_matches_oracle(spec):
    """Untruncated layouts equal the oracle's pairwise rules, ties included."""
    n, branch_specs = spec
    trunk = [f"t{i}" for i in range(n)]
    branches = [(a, [f"b{bi}x{j}" for j in range(ln)], w)
                for bi, (a, ln, w) in enumerate(branch_specs)]
    tree = InjectedTree(tuple(trunk), tuple(Branch(a, tuple(toks), w)
                                            for a, toks, w in branches))
    vocab = _vocab_for(trunk, *(toks for _, toks, _ in branches))
    seq = flatten(tree, vocab, max(8, n + sum(len(t) for _, t, _ in branches)))
    want = oracle.layout(trunk, branches)
    assert [vocab.token(t) for t in seq.tokens] == want["tokens"]
    assert list(seq.soft_pos) == want["soft_pos"]
    assert [int(m) for m in seq.trunk_mask] == want["trunk_mask"]
    assert seq.visibility.dtype == bool
    np.testing.assert_array_equal(seq.visibility.astype(int),
                                  np.array(want["visibility"]))


_branches = st.lists(
    st.tuples(st.integers(0, 4), st.integers(1, 3), st.floats(0.1, 5.0)),
    max_size=4)


@given(_branches, st.integers(8, 40))
@settings(max_examples=60, deadline=None)
def test_flatten_invariants(branch_specs, max_len):
    trunk = tuple(f"t{i}" for i in range(5))
    branches = tuple(Branch(a, tuple(f"b{bi}x{j}" for j in range(ln)),
                            round(w, 3))
                     for bi, (a, ln, w) in enumerate(branch_specs))
    tree = InjectedTree(trunk, branches)
    all_tokens = list(trunk) + [t for b in branches for t in b.tokens]
    vocab = _vocab_for(all_tokens)
    seq = flatten(tree, vocab, max_len)
    vis = seq.visibility
    assert len(seq) <= max_len
    np.testing.assert_array_equal(vis, vis.T)
    assert vis.diagonal().all()
    trunk_idx = [i for i, m in enumerate(seq.trunk_mask) if m]
    assert vis[np.ix_(trunk_idx, trunk_idx)].all()
    assert [seq.soft_pos[i] for i in trunk_idx] == list(range(len(trunk_idx)))
    # round trip: removing branch rows/cols recovers the trunk-only flatten
    bare = flatten(InjectedTree(trunk[:len(trunk_idx)], ()), vocab, max_len)
    assert tuple(seq.tokens[i] for i in trunk_idx) == bare.tokens
    np.testing.assert_array_equal(vis[np.ix_(trunk_idx, trunk_idx)],
                                  bare.visibility)


def test_pad_batch_keeps_each_sequence_and_isolates_padding():
    vocab = Vocab.build(["sugar", "is", "sweet", "coffee"])
    tree = InjectedTree(trunk=("[CLS]", "sugar", "[SEP]"),
                        branches=(Branch(1, ("sugar", "is", "sweet"), 1.0),))
    long_seq = flatten(tree, vocab, 64)
    short_seq = flatten(InjectedTree(trunk=("[CLS]", "coffee", "[SEP]"),
                                     branches=()), vocab, 64)
    batch = pad_batch([short_seq, long_seq], pad_id=2)
    assert batch.tokens.shape == (2, 6)
    assert batch.visibility.shape == (2, 6, 6)
    assert list(batch.tokens[1]) == list(long_seq.tokens)
    assert list(batch.tokens[0]) == list(short_seq.tokens) + [2, 2, 2]
    assert list(batch.soft_pos[0]) == list(short_seq.soft_pos) + [0, 0, 0]
    assert list(batch.trunk_mask[0]) == (list(short_seq.trunk_mask)
                                         + [False] * 3)
    np.testing.assert_array_equal(batch.visibility[1], long_seq.visibility)
    np.testing.assert_array_equal(batch.visibility[0, :3, :3],
                                  short_seq.visibility)
    # a padding position sees itself only, and no real position sees it
    np.testing.assert_array_equal(batch.visibility[0, 3:],
                                  np.eye(6, dtype=bool)[3:])
    assert not batch.visibility[0, :3, 3:].any()
