"""Dataset I/O, conversion, augmentation, synthetic benchmark, evaluation."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kegat.errors import DataFormatError
from kegat.harness import (ComveInstance, Metrics, build_vocab, comve_jsonl,
                           convert, evaluate, generate_augmented, load_comve,
                           save_comve, synth_benchmark)
from kegat.kemb import default_templates
from kegat.kgstore import load_graph, neighbors
from kegat.vocab import UNK

ELEPHANT = ComveInstance(
    id="1", subtask="a", label=0,
    options=("He put an elephant into the fridge",
             "He put a turkey into the fridge"))


def test_instance_validation():
    with pytest.raises(DataFormatError):
        ComveInstance(id="x", subtask="c", label=0, options=("p", "q"))
    with pytest.raises(DataFormatError):
        ComveInstance(id="x", subtask="a", label=0, options=("only one",))
    with pytest.raises(DataFormatError):
        ComveInstance(id="x", subtask="a", label=2,
                      options=("first", "second"))
    with pytest.raises(DataFormatError):
        ComveInstance(id="x", subtask="b", label=0, stem="s",
                      options=("a", "b"))
    with pytest.raises(DataFormatError):
        ComveInstance(id="x", subtask="b", label=3, stem="s",
                      options=("a", "b", "c"))
    assert ELEPHANT.option_count == 2


def test_convert_subtask_a_exact_tokens():
    assert convert(ELEPHANT) == (
        ("[CLS]", "he", "put", "an", "elephant", "into", "the", "fridge", "[SEP]"),
        ("[CLS]", "he", "put", "a", "turkey", "into", "the", "fridge", "[SEP]"),
    )


def test_convert_subtask_b_stem_plus_reason():
    inst = ComveInstance(id="2", subtask="b", label=1,
                         stem="He drinks apple",
                         options=("Apple juice are very tasty",
                                  "Apple can not be drunk",
                                  "Apple cannot eat a human"))
    options = convert(inst)
    assert len(options) == 3
    stem = ("[CLS]", "he", "drinks", "apple", "[SEP]")
    for opt in options:
        assert opt[:5] == stem
    assert options[1][5:] == ("apple", "can", "not", "be", "drunk", "[SEP]")


def test_load_comve_round_trip(tmp_path):
    path = tmp_path / "a.jsonl"
    save_comve([ELEPHANT], path)
    loaded = load_comve(path, "a")
    assert loaded == [ELEPHANT]


@st.composite
def _instances(draw):
    subtask = draw(st.sampled_from(["a", "b"]))
    n = 2 if subtask == "a" else 3
    text = st.text(min_size=1)
    return subtask, draw(st.lists(st.builds(
        ComveInstance, id=st.text(), subtask=st.just(subtask),
        label=st.integers(0, n - 1),
        options=st.tuples(*[text] * n),
        stem=st.just("") if subtask == "a" else text), max_size=4))


@given(_instances())
@settings(max_examples=60, deadline=None)
def test_comve_jsonl_round_trips_both_subtasks(tmp_path_factory, drawn):
    """Every key in the record table is written and read back: loading a
    saved file gives the instances, and writing them gives the file."""
    subtask, instances = drawn
    path = tmp_path_factory.mktemp("rt") / "split.jsonl"
    save_comve(instances, path)
    loaded = load_comve(path, subtask)
    assert loaded == instances
    assert comve_jsonl(loaded).encode("utf-8") == path.read_bytes()


def test_load_comve_empty_file_loads_nothing_silently(tmp_path, caplog):
    """The caller reports an empty split (the CLI exits 2), so the loader
    logs nothing of its own."""
    path = tmp_path / "empty.jsonl"
    path.write_text("\n", encoding="utf-8")
    with caplog.at_level("DEBUG"):
        assert load_comve(path, "a") == []
    assert caplog.records == []


def test_load_comve_missing_field_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {"id": "1", "false_sent": "x", "optionA": "a", "optionB": "b",
           "label": 0}   # optionC absent
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="optionC"):
        load_comve(path, "b")


@pytest.mark.parametrize("change, message", [
    ({"label": 1.5}, ":1: label 1.5 is not an integer"),
    ({"label": [0]}, ":1: label [0] is not an integer"),
    ({"sent1": ""}, ":1: 1: subtask a needs 2 non-empty statements"),
])
def test_load_comve_bad_record_names_line(tmp_path, change, message):
    path = tmp_path / "bad.jsonl"
    rec = {"id": "1", "sent0": "a b", "sent1": "c d", "label": 0, **change}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(message)):
        load_comve(path, "a")


def test_load_comve_bad_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"id": "1", "sent0": "a b", "sent1": "c d", "label": 0})
    path.write_text(good + "\n{not json\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":2"):
        load_comve(path, "a")
    with pytest.raises(DataFormatError):
        load_comve(path, "z")


def test_generate_augmented_zero_count(sugar_graph):
    assert generate_augmented(sugar_graph, default_templates(), 0, 0) == []


def test_generate_augmented_balance_and_determinism(sugar_graph):
    templates = default_templates()
    a = generate_augmented(sugar_graph, templates, 40, 3)
    b = generate_augmented(sugar_graph, templates, 40, 3)
    assert a == b
    labels = [inst.label for inst in a]
    assert labels.count(0) == labels.count(1) == 20


def _realized_edges(graph, templates):
    from kegat.kemb import realize_triple
    return {" ".join(realize_triple(e, templates)) for e in graph.edges}


def test_generate_augmented_sensible_vs_nonsense(sugar_graph):
    templates = default_templates()
    realized = _realized_edges(sugar_graph, templates)
    for inst in generate_augmented(sugar_graph, templates, 30, 5):
        sensible = inst.options[1 - inst.label]
        nonsense = inst.options[inst.label]
        assert sensible in realized
        assert nonsense not in realized


def test_generate_augmented_corrupted_tail_never_neighbor(tmp_path):
    # single-word concepts so statements map back to graph nodes directly
    from conftest import write_kb
    rows = [(f"h{i}", "/r/IsA", f"t{i}", 1.0 + i * 0.1) for i in range(8)]
    graph = load_graph(write_kb(tmp_path / "kb.tsv", rows))
    templates = default_templates()
    for inst in generate_augmented(graph, templates, 30, 9):
        nonsense = inst.options[inst.label]
        head, tail = nonsense.split()[0], nonsense.split()[-1]
        linked = {e.other(head) for e in neighbors(graph, head)}
        assert tail != head and tail not in linked


def test_generate_augmented_head_pool(sugar_graph):
    templates = default_templates()
    out = generate_augmented(sugar_graph, templates, 10, 1,
                             head_pool=["coffee"])
    for inst in out:
        assert inst.options[1 - inst.label].startswith("coffee")
    with pytest.raises(DataFormatError):
        generate_augmented(sugar_graph, templates, 2, 1,
                           head_pool=["drink"])   # no outgoing edges


def test_generate_augmented_subtask_b_distractors(tmp_path):
    from conftest import write_kb
    rows = [(f"h{i}", "/r/IsA", f"t{i}", 1.0 + i * 0.1) for i in range(12)]
    graph = load_graph(write_kb(tmp_path / "kb.tsv", rows))
    templates = default_templates()
    out = generate_augmented(graph, templates, 12, 2, subtask="b")
    labels = [inst.label for inst in out]
    assert sorted(labels.count(v) for v in (0, 1, 2)) == [4, 4, 4]
    realized = _realized_edges(graph, templates)
    for inst in out:
        correct = inst.options[inst.label]
        assert correct in realized
        head, tail = correct.split()[0], correct.split()[-1]
        for i, reason in enumerate(inst.options):
            if i != inst.label:
                words = set(reason.split())
                assert head not in words and tail not in words


def test_synth_benchmark_deterministic(tmp_path):
    b1 = synth_benchmark(3, tmp_path / "r1", sizes=(20, 8, 8),
                         n_concepts=60, n_edges=120)
    b2 = synth_benchmark(3, tmp_path / "r2", sizes=(20, 8, 8),
                         n_concepts=60, n_edges=120)
    for name in ("kb", "vectors", "train", "dev", "test"):
        assert b1.paths[name].read_bytes() == b2.paths[name].read_bytes()
    assert b1.train == b2.train


def test_synth_benchmark_structure(tmp_path):
    b = synth_benchmark(5, tmp_path, sizes=(20, 8, 8),
                        n_concepts=60, n_edges=120)
    assert len(b.train) == 20 and len(b.dev) == 8 and len(b.test) == 8
    assert len(b.graph.edges) == 120
    for e in b.graph.edges:
        assert 0.5 <= e.weight <= 4.0
    for c, v in b.concept_table.items():
        assert v.shape == (64,)
        np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-6)
    # head pools are disjoint across splits
    heads = {split: {inst.options[1 - inst.label].split()[0]
                     for inst in getattr(b, split)}
             for split in ("train", "dev", "test")}
    assert not heads["train"] & heads["test"]
    assert not heads["train"] & heads["dev"]
    with pytest.raises(ValueError):
        synth_benchmark(5, tmp_path, sizes=(0, 1, 1))


@pytest.mark.parametrize("n_concepts, n_edges", [
    (3, 4), (3, 100), (12, 67), (2, 2), (1, 5), (0, 5), (60, -1)])
def test_synth_benchmark_rejects_more_edges_than_concept_pairs(
        tmp_path, n_concepts, n_edges):
    """n concepts hold at most n·(n−1)/2 undirected edges; asking for more
    raises before any draw, where the edge loop would never end."""
    with pytest.raises(ValueError, match="n_concepts >= 2 and n_edges in"):
        synth_benchmark(5, tmp_path / "b", sizes=(4, 4, 4),
                        n_concepts=n_concepts, n_edges=n_edges)
    assert not (tmp_path / "b").exists()


def test_build_vocab_covers_everything(sugar_graph):
    templates = default_templates()
    instances = generate_augmented(sugar_graph, templates, 6, 0)
    vocab = build_vocab(sugar_graph, templates, instances)
    unk = vocab.lookup(UNK)
    assert vocab.lookup("sugar") != unk
    assert vocab.lookup("sweetening") != unk
    for inst in instances:
        for opt in convert(inst):
            for tok in opt:
                assert vocab.lookup(tok) != unk


class _StubModel:
    def __init__(self, answers):
        self.answers = answers

    def predict_probs(self, inst):
        probs = np.full(inst.option_count, 0.1)
        probs[self.answers[inst.id]] = 1.0
        return probs / probs.sum()


def _toy_instances(labels):
    return [ComveInstance(id=f"i{k}", subtask="a", label=lab,
                          options=("first thing", "second thing"))
            for k, lab in enumerate(labels)]


def test_evaluate_accuracy_and_dump():
    insts = _toy_instances([0, 1, 0, 1])
    perfect = _StubModel({f"i{k}": inst.label
                          for k, inst in enumerate(insts)})
    m = evaluate(perfect, insts)
    assert m.accuracy == 1.0
    assert all(p["correct"] for p in m.predictions)
    wrong = _StubModel({f"i{k}": 1 - inst.label
                        for k, inst in enumerate(insts)})
    assert evaluate(wrong, insts).accuracy == 0.0
    three = _StubModel({"i0": 0, "i1": 1, "i2": 0, "i3": 0})
    m = evaluate(three, insts)
    assert m.accuracy == 0.75
    assert [p["predicted"] for p in m.predictions] == [0, 1, 0, 0]
    assert evaluate(perfect, []) == Metrics(accuracy=0.0, predictions=[])


@given(st.integers(0, 1000), st.integers(1, 25))
@settings(max_examples=25, deadline=None)
def test_generate_augmented_invariants(seed, count):
    from conftest import sugar_graph_cached
    graph = sugar_graph_cached()
    out = generate_augmented(graph, default_templates(), count, seed)
    assert len(out) == count
    labels = [inst.label for inst in out]
    assert abs(labels.count(0) - labels.count(1)) <= 1
    for inst in out:
        assert inst.options[0] != inst.options[1]
