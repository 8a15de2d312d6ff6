"""End-to-end command-line tests with the click runner."""

import dataclasses
import json
import os
import tempfile
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from kegat import cli, harness, kgstore, trainkit
from kegat.cli import main
from kegat.errors import DataFormatError, NumericError
from kegat.kgstore import fingerprint, load_graph, save_graph
from kegat.model import KegatModel, ModelConfig
from kegat.trainkit import (ParamStore, Schedule, load_checkpoint,
                            read_model_header, save_checkpoint)
from kegat.vocab import Vocab

from conftest import SUGAR_KB_ROWS, write_kb


@pytest.fixture
def runner():
    return CliRunner()


def _lines(result):
    return [json.loads(line) for line in result.output.strip().splitlines()]


def test_kb_ingest_writes_binary_and_stats(runner, tmp_path):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    out = tmp_path / "ingested.tsv"
    result = runner.invoke(main, ["kb", "ingest", "--input", str(kb),
                                  "--output", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["stats"]["loaded"] == 5
    assert "/r/ExternalURL" in payload["blocklist"]
    assert load_graph(out).edges == load_graph(kb).edges


def test_kb_ingest_custom_blocklist(runner, tmp_path):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    block = tmp_path / "block.txt"
    block.write_text("/r/AtLocation\n", encoding="utf-8")
    out = tmp_path / "ingested.tsv"
    result = runner.invoke(main, ["kb", "ingest", "--input", str(kb),
                                  "--blocklist", str(block),
                                  "--output", str(out)])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["stats"]["loaded"] == 4
    assert payload["stats"]["skipped_blocklist"] == 1


def test_kb_ingest_malformed_exits_2(runner, tmp_path):
    kb = tmp_path / "kb.tsv"
    kb.write_text("only\ttwo\n", encoding="utf-8")
    out = tmp_path / "ingested.tsv"
    result = runner.invoke(main, ["kb", "ingest", "--input", str(kb),
                                  "--output", str(out)])
    assert result.exit_code == 2
    assert "data error" in result.output


_SURFACES = st.sampled_from(["sugar", "Sugar", "/c/en/sugar", "Ice Cream",
                             "ice_cream", "/c/en/Hot Drink", " cup ", "a__b"])
_KB_LINES = st.lists(st.one_of(
    st.builds(lambda h, r, t, w: f"{h}\t{r}\t{t}\t{w!r}", _SURFACES,
              st.sampled_from(["/r/IsA", "/r/UsedFor", "/r/ExternalURL",
                               "/r/Antonym"]),
              _SURFACES, st.floats(1e-6, 1e6)),
    st.sampled_from(["# a comment", "  # an indented comment", ""])),
    max_size=20)
# heads `load_graph` would read back as another concept or as a comment
_REFUSED_HEADS = st.sampled_from(["/c/en//c/en/x", "/c/en/#x"])


@given(lines=_KB_LINES,
       refused=st.none() | st.tuples(st.integers(0, 20), _REFUSED_HEADS))
@example(lines=[], refused=(0, "/c/en//c/en/x"))
@example(lines=[], refused=(0, "/c/en/#x"))
@settings(max_examples=50, deadline=None)
def test_kb_ingest_output_loads_back_and_reingests_byte_identical(lines,
                                                                  refused):
    if refused is not None:
        at, head = refused
        lines = lines[:at] + [f"{head}\t/r/IsA\tsugar\t1.0"] + lines[at:]
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        src, out, again = (Path(tmp) / name
                           for name in ("kb.tsv", "out.tsv", "again.tsv"))
        src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        result = runner.invoke(main, ["kb", "ingest", "--input", str(src),
                                      "--output", str(out)])
        if refused is not None:
            assert result.exit_code == 2, result.output
            assert result.output.startswith("data error: ")
            assert os.listdir(tmp) == ["kb.tsv"]
            return
        assert result.exit_code == 0, result.output
        graph = load_graph(src)
        assert json.loads(result.output)["stats"] == graph.stats.as_dict()
        reloaded = load_graph(out)
        assert reloaded.edges == graph.edges
        assert fingerprint(reloaded) == fingerprint(graph)
        runner.invoke(main, ["kb", "ingest", "--input", str(out),
                             "--output", str(again)], catch_exceptions=False)
        assert again.read_bytes() == out.read_bytes()


def test_usage_error_exits_1(runner):
    result = runner.invoke(main, ["kb", "ingest"])   # missing required options
    assert result.exit_code == 1


@pytest.mark.parametrize("group, prefix", [(main, []), (cli.kb, ["kb"])],
                         ids=["main", "kb"])
def test_group_maps_errors_to_exit_codes(runner, monkeypatch, group, prefix):
    """A command registered on `main`, or on a group under it, exits 2 on a
    DataFormatError and 3 on a NumericError with one stderr line, though it
    handles neither itself."""
    @click.command()
    @click.argument("kind")
    def fail(kind):
        raise {"data": DataFormatError, "numeric": NumericError}[kind]("bad")
    monkeypatch.setitem(group.commands, "fail", fail)
    for kind, code, line in [("data", 2, "data error: bad"),
                             ("numeric", 3, "numeric failure: bad")]:
        result = runner.invoke(main, [*prefix, "fail", kind])
        assert isinstance(result.exception, SystemExit), result.exception
        assert (result.exit_code, result.stderr) == (code, line + "\n")


def test_link_emits_spans(runner, tmp_path):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    inp = tmp_path / "in.jsonl"
    inp.write_text(json.dumps({"id": "x", "text": "He put sugar in coffee"})
                   + "\n", encoding="utf-8")
    result = runner.invoke(main, ["link", "--kb", str(kb),
                                  "--input", str(inp)])
    assert result.exit_code == 0, result.output
    (rec,) = _lines(result)
    assert rec["tokens"] == ["he", "put", "sugar", "in", "coffee"]
    assert [s["concept"] for s in rec["spans"]] == ["sugar", "coffee"]


def test_link_accepts_binary_kb(runner, tmp_path):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    out = tmp_path / "ingested.tsv"
    runner.invoke(main, ["kb", "ingest", "--input", str(kb),
                         "--output", str(out)], catch_exceptions=False)
    inp = tmp_path / "in.jsonl"
    inp.write_text(json.dumps({"id": 1, "text": "sugar"}) + "\n",
                   encoding="utf-8")
    result = runner.invoke(main, ["link", "--kb", str(out),
                                  "--input", str(inp)])
    assert result.exit_code == 0
    assert _lines(result)[0]["spans"][0]["concept"] == "sugar"


def test_preprocess_inject(runner, tmp_path):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    data = tmp_path / "a.jsonl"
    data.write_text(json.dumps({"id": "1", "sent0": "he put sugar in coffee",
                                "sent1": "he put coffee in sugar",
                                "label": 1}) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["preprocess", "inject", "--kb", str(kb),
                                  "--input", str(data)])
    assert result.exit_code == 0, result.output
    recs = _lines(result)
    assert len(recs) == 2   # one per option
    assert all(r["branches"] > 0 for r in recs)
    first = recs[0]
    trunk = [t for t, m in zip(first["tokens"], first["trunk_mask"]) if m]
    assert trunk == ["[CLS]", "he", "put", "sugar", "in", "coffee", "[SEP]"]


def test_augment_writes_instances(runner, tmp_path):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    out = tmp_path / "aug.jsonl"
    result = runner.invoke(main, ["augment", "--kb", str(kb), "--count", "6",
                                  "--seed", "1", "--output", str(out)])
    assert result.exit_code == 0, result.output
    assert "wrote 6 instances" in result.output
    assert len(out.read_text().strip().splitlines()) == 6
    result = runner.invoke(main, ["augment", "--kb", str(kb), "--output",
                                  str(out), "--corrupt-policy", "x"])
    assert result.exit_code == 1   # no such option


def test_synth_generates_files(runner, tmp_path):
    result = runner.invoke(main, ["synth", "--seed", "3", "--out-dir",
                                  str(tmp_path / "bench"), "--sizes", "10,4,4",
                                  "--n-concepts", "60", "--n-edges", "120"])
    assert result.exit_code == 0, result.output
    paths = json.loads(result.output)
    for key in ("kb", "vectors", "train", "dev", "test"):
        assert (tmp_path / "bench").joinpath(paths[key].split("/")[-1]).exists()
    result = runner.invoke(main, ["synth", "--out-dir", str(tmp_path / "x"),
                                  "--sizes", "1,2"])
    assert result.exit_code == 1


@pytest.mark.parametrize("args, message", [
    (["--sizes", "4,4,4", "--n-concepts", "3", "--n-edges", "100"],
     "n_edges in [0, 3]"),
    (["--sizes", "4,4,4", "--n-concepts", "1", "--n-edges", "5"],
     "n_concepts >= 2"),
    (["--sizes", "4,4,4", "--n-concepts", "0", "--n-edges", "5"],
     "n_concepts >= 2"),
    (["--sizes", "0,1,1"], "sizes must be three positive integers"),
    (["--sizes", "4,x,4"], "invalid literal for int()"),
])
def test_synth_bad_option_is_usage_error(runner, tmp_path, args, message):
    result = runner.invoke(main, ["synth", "--out-dir", str(tmp_path / "b")]
                           + args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert message in result.output and "Traceback" not in result.output
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("args, message", [
    (["--sizes", "4,4,4", "--n-concepts", "3", "--n-edges", "3"],
     "graph too small: no non-neighbor tail"),   # a complete graph
    (["--n-concepts", "2", "--n-edges", "1"], "no head in pool has outgoing edges"),
])
def test_synth_graph_it_cannot_draw_from_is_usage_error(runner, tmp_path, args,
                                                        message):
    result = runner.invoke(main, ["synth", "--out-dir", str(tmp_path / "b")]
                           + args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert message in result.output and "Traceback" not in result.output
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("option", ["--count", "--seed"])
def test_augment_negative_option_is_usage_error(runner, tmp_path, option):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    out = tmp_path / "aug.jsonl"
    result = runner.invoke(main, ["augment", "--kb", str(kb), option, "-1",
                                  "--output", str(out)])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert "-1 is not in the range x>=0" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command, args, message", [
    ("link", ["--max-ngram", "0"], "max_ngram must be >= 1, got 0"),
    ("inject", ["--max-ngram", "0"], "max_ngram must be >= 1, got 0"),
    ("inject", ["--per-entity-limit", "-1"],
     "per_entity_limit must be >= 0, got -1"),
    ("inject", ["--max-len", "4"], "max_len 4 below minimum trunk length 8"),
    ("inject", ["--max-len", "200"], "max_len 200 exceeds max_positions 160"),
])
def test_link_and_inject_bad_option_is_usage_error(runner, tmp_path, command,
                                                   args, message):
    args = _link_line(tmp_path, json.dumps({
        "id": "x", "text": "sugar", "sent0": "sugar is sweet",
        "sent1": "sugar is sour", "label": 1}))[0] + args
    if command == "inject":
        args = ["preprocess", "inject"] + args[1:]
    result = runner.invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert message in result.output


TINY_TRAIN_CFG = {"dim": 16, "n_layers": 1, "n_heads": 2, "ffn_mult": 2,
                  "max_len": 48, "max_positions": 64, "gat_layers": 1,
                  "gat_heads": 1, "sample_k": 2, "node_dim": 8,
                  "fuse_hidden": 8, "fuse_dim": 8, "gate_hidden": 4,
                  "head_hidden": 4, "per_entity_limit": 1, "dropout": 0.0,
                  "seed": 1, "epochs_phase1": 1, "epochs_phase2": 1,
                  "lr_phase1": 0.001, "lr_phase2": 0.00001}


def _tiny_train_args(root):
    """The `train` arguments of `_train_tiny`'s run under `root`."""
    bench = root / "bench"
    return ["train", "--subtask", "a", "--config", str(root / "cfg.json"),
            "--kb", str(bench / "kb.tsv"),
            "--vectors", str(bench / "concepts.vec"),
            "--train-data", str(bench / "train.jsonl"),
            "--dev-data", str(bench / "dev.jsonl"),
            "--output", str(root / "run" / "model.ckpt")]   # train creates run/


def _train_tiny(root):
    """A tiny benchmark under `root` plus one checkpoint trained on it."""
    runner = CliRunner()
    bench = root / "bench"
    runner.invoke(main, ["synth", "--seed", "3", "--out-dir", str(bench),
                         "--sizes", "8,4,4", "--n-concepts", "60",
                         "--n-edges", "120"], catch_exceptions=False)
    (root / "cfg.json").write_text(json.dumps(TINY_TRAIN_CFG), encoding="utf-8")
    result = runner.invoke(main, _tiny_train_args(root),
                           catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return bench, root / "run" / "model.ckpt", result


@pytest.fixture
def trained(tmp_path):
    return _train_tiny(tmp_path)


def test_train_with_one_template_writes_a_model_eval_loads(runner, tmp_path):
    """`train --templates` with a file holding only /r/IsA stores that one
    template and a vocabulary with the fallback template's words; `eval`
    and `predict` load the model."""
    bench = tmp_path / "bench"
    runner.invoke(main, ["synth", "--seed", "3", "--out-dir", str(bench),
                         "--sizes", "8,4,4", "--n-concepts", "60",
                         "--n-edges", "120"], catch_exceptions=False)
    (tmp_path / "cfg.json").write_text(json.dumps(TINY_TRAIN_CFG),
                                       encoding="utf-8")
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"/r/IsA": "{head} is a {tail}"}),
                   encoding="utf-8")
    result = runner.invoke(main, _tiny_train_args(tmp_path)
                           + ["--templates", str(one)])
    assert result.exit_code == 0, result.output
    ckpt = tmp_path / "run" / "model.ckpt"
    meta = read_model_header(ckpt)[0]
    assert meta["templates"] == {"/r/IsA": "{head} is a {tail}"}
    assert {"related", "to"} <= set(meta["vocab"])
    for command in ("eval", "predict"):
        result = runner.invoke(main, [command, "--checkpoint", str(ckpt),
                                      "--data", str(bench / "dev.jsonl"),
                                      "--subtask", "a"])
        assert result.exit_code == 0, result.output


def test_train_writes_only_checkpoint_and_log(trained, tmp_path):
    bench, ckpt, result = trained
    payload = json.loads(result.output)
    assert 0.0 <= payload["best_dev_accuracy"] <= 1.0
    assert not payload["aborted"]
    assert sorted(f.name for f in ckpt.parent.iterdir()) == [
        "model.ckpt", "model.log.jsonl"]
    log = [json.loads(line) for line in
           ckpt.with_suffix(".log.jsonl").read_text().splitlines()]
    assert [e["phase"] for e in log] == [1, 2]


def _fail_replace_onto(monkeypatch, name):
    """Make `os.replace` fail when it would move a file onto `name`."""
    replace = os.replace

    def fail(src, dst):
        if Path(dst).name == name:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail)


def test_failed_log_write_keeps_previous_log(runner, trained, tmp_path,
                                             monkeypatch):
    _, ckpt, _ = trained
    log = ckpt.with_suffix(".log.jsonl")
    log.write_text("previous\n", encoding="utf-8")
    _fail_replace_onto(monkeypatch, log.name)
    result = runner.invoke(main, _tiny_train_args(tmp_path))
    assert isinstance(result.exception, OSError), result.output
    assert log.read_text(encoding="utf-8") == "previous\n"
    assert sorted(f.name for f in ckpt.parent.iterdir()) == [
        "model.ckpt", "model.log.jsonl"]


def test_failed_predict_write_keeps_previous_output(runner, trained, tmp_path,
                                                    monkeypatch):
    bench, ckpt, _ = trained
    out = tmp_path / "preds" / "preds.jsonl"
    out.parent.mkdir()
    out.write_text("previous\n", encoding="utf-8")
    _fail_replace_onto(monkeypatch, out.name)
    result = runner.invoke(main, ["predict", "--checkpoint", str(ckpt),
                                  "--data", str(bench / "dev.jsonl"),
                                  "--subtask", "a", "--output", str(out)])
    assert isinstance(result.exception, OSError), result.output
    assert out.read_text(encoding="utf-8") == "previous\n"
    assert [f.name for f in out.parent.iterdir()] == ["preds.jsonl"]


def test_failed_augment_write_keeps_previous_file(runner, tmp_path,
                                                 monkeypatch):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    out = tmp_path / "aug" / "aug.jsonl"
    out.parent.mkdir()
    out.write_text("previous\n", encoding="utf-8")
    _fail_replace_onto(monkeypatch, out.name)
    result = runner.invoke(main, ["augment", "--kb", str(kb), "--count", "6",
                                  "--output", str(out)])
    assert isinstance(result.exception, OSError), result.output
    assert out.read_text(encoding="utf-8") == "previous\n"
    assert [f.name for f in out.parent.iterdir()] == ["aug.jsonl"]


def _writing_args(command, root, trained_once):
    """`command`'s arguments, less `--output`, for a run that writes a file."""
    kb = write_kb(root / "kb.tsv", SUGAR_KB_ROWS)
    if command == "kb ingest":
        return ["kb", "ingest", "--input", str(kb)]
    if command == "augment":
        return ["augment", "--kb", str(kb), "--count", "2"]
    bench, ckpt, _ = trained_once
    if command == "train":
        return _tiny_train_args(bench.parent)[:-2]
    return ["predict", "--checkpoint", str(ckpt),
            "--data", str(bench / "dev.jsonl"), "--subtask", "a"]


# each writing command's own work, which must not start when its output
# directory cannot be made
_WORK = {"kb ingest": (kgstore, "save_graph"),
         "augment": (harness, "generate_augmented"),
         "train": (trainkit, "two_phase_train"),
         "predict": (harness, "evaluate")}


@pytest.mark.parametrize("command", sorted(_WORK))
def test_output_directory_is_created_or_exits_2(runner, tmp_path, command,
                                                trained_once, monkeypatch):
    """A missing output directory is created. One that cannot be, because a
    file stands in its path, exits 2 with one line before any input is
    read, so neither a reader nor the command's work runs."""
    args = _writing_args(command, tmp_path, trained_once)
    out = tmp_path / "new" / "deeper" / "out.txt"
    result = runner.invoke(main, args + ["--output", str(out)])
    assert result.exit_code == 0, result.output
    assert out.is_file() and out.read_bytes()
    calls = []
    for owner, name in [_WORK[command], (kgstore, "load_graph"),
                        (kgstore, "json_object"), (harness, "load_comve")]:
        monkeypatch.setattr(owner, name,
                            lambda *a, name=name, **k: calls.append(name))
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "sub" / "out.txt"
    result = runner.invoke(main, args + ["--output", str(out)])
    _assert_one_line_exit_2(result)
    assert result.stderr.startswith(
        f"data error: {blocker / 'sub'}: cannot create the output directory")
    assert calls == []
    assert not out.with_suffix(".log.jsonl").exists()
    assert blocker.read_text(encoding="utf-8") == ""


def test_vectors_overflowing_their_projection_exit_2(runner, tmp_path,
                                                     monkeypatch):
    """A vectors file whose projection to the model's node dim overflows is
    a data error found before training: one line, no warning, no log."""
    args, vectors = _train_vectors(
        tmp_path, b"".join(c.encode() + b" 1e308" * 16 + b"\n"
                           for c in ("sugar", "coffee")))
    calls = []
    monkeypatch.setattr(trainkit, "two_phase_train",
                        lambda *a, **k: calls.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(main, args)
    _assert_one_line_exit_2(result)
    assert result.stderr.startswith(f"data error: {vectors}: ")
    assert "overflows at dim 32" in result.stderr
    assert calls == []
    assert not (tmp_path / "m.log.jsonl").exists()


def test_vectors_at_node_dim_with_overflowing_norms_exit_2(runner, tmp_path,
                                                          monkeypatch):
    """A vectors file already of the model's node dim, every component
    1e308, is a data error found before training, as a projected one is:
    one line naming the file and a concept, no warning, no log."""
    args = _train_args(tmp_path)
    lines = (tmp_path / "bench" / "concepts.vec").read_text().splitlines()
    concepts = [line.split()[0] for line in lines[1:]]
    vectors = tmp_path / "huge.vec"
    vectors.write_text("".join(f"{c}{' 1e308' * 32}\n" for c in concepts),
                       encoding="utf-8")
    calls = []
    monkeypatch.setattr(trainkit, "two_phase_train",
                        lambda *a, **k: calls.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(main, args + ["--vectors", str(vectors)])
    _assert_one_line_exit_2(result)
    assert result.stderr == (
        f"data error: {vectors}: the vector of {concepts[0]!r} overflows at "
        f"dim 32: its squared norm exceeds the float64 range\n")
    assert calls == []
    assert not (tmp_path / "m.log.jsonl").exists()


def _train_on_1e150_vectors(runner, tmp_path, synth_args):
    """`train` with default settings and one epoch per phase on a synth
    benchmark, with every concept vector 32 components of 1e150 (squared
    norms 3.2e301, which load), run with RuntimeWarnings as errors."""
    bench = tmp_path / "bench"
    runner.invoke(main, ["synth", "--out-dir", str(bench), *synth_args],
                  catch_exceptions=False)
    lines = (bench / "concepts.vec").read_text().splitlines()
    vectors = tmp_path / "large.vec"
    vectors.write_text("".join(f"{line.split()[0]}{' 1e150' * 32}\n"
                               for line in lines[1:]), encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_text('{"epochs_phase1": 1, "epochs_phase2": 1}',
                      encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(main, [
            "train", "--subtask", "a", "--config", str(config),
            "--kb", str(bench / "kb.tsv"), "--vectors", str(vectors),
            "--train-data", str(bench / "train.jsonl"),
            "--dev-data", str(bench / "dev.jsonl"),
            "--output", str(tmp_path / "m.ckpt")])
    assert result.exit_code == 3, result.output
    assert json.loads(result.stdout)["aborted"]
    log = (tmp_path / "m.log.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(log[-1])["event"] == "aborted: numeric failure"


def test_train_on_gradients_whose_squares_overflow_aborts_with_exit_3(
        runner, tmp_path):
    """On this benchmark the gradients that 1e150 vectors drive stay finite
    but square past the float64 range: training aborts with exit 3 and no
    warning, not on through Adam."""
    _train_on_1e150_vectors(runner, tmp_path, [
        "--seed", "7", "--sizes", "8,8,8", "--n-concepts", "80",
        "--n-edges", "160"])


def test_train_whose_node_backward_overflows_aborts_with_exit_3(
        runner, tmp_path):
    """On this benchmark a node's backward (the GAT layer's) overflows on
    1e150 vectors: the gradient check reports it, so training aborts with
    exit 3 and no warning."""
    _train_on_1e150_vectors(runner, tmp_path, [
        "--seed", "3", "--sizes", "8,4,4", "--n-concepts", "60",
        "--n-edges", "120"])


def test_train_without_epochs_reports_initial_dev_accuracy(runner, tmp_path):
    args, _ = _train_config(tmp_path, json.dumps(
        {**TINY_TRAIN_CFG, "epochs_phase1": 0, "epochs_phase2": 0}))
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    reported = json.loads(result.output)["best_dev_accuracy"]
    assert 0.0 <= reported <= 1.0
    ckpt = args[args.index("--output") + 1]
    assert (load_checkpoint(ckpt, cli._load_model(ckpt, "a").store)
            ["best_metric"] == reported)


def test_train_ablation_flags_reach_the_checkpoint(runner, tmp_path):
    args, _ = _train_config(tmp_path, json.dumps(
        {**TINY_TRAIN_CFG, "epochs_phase1": 0, "epochs_phase2": 0}))
    result = runner.invoke(main, args + ["--no-kemb", "--no-lm-loss"])
    assert result.exit_code == 0, result.output
    config = read_model_header(args[args.index("--output") + 1])[0]["config"]
    assert (config["use_kemb"], config["use_kegat"], config["use_lm"]) == (
        False, True, False)


def test_train_abort_before_dev_evaluation_reports_restored_accuracy(
        runner, tmp_path):
    args, _ = _train_config(tmp_path, json.dumps(
        {**TINY_TRAIN_CFG, "lr_phase1": 1e300, "epochs_phase1": 1,
         "epochs_phase2": 0}))
    # the finite-loss check reports the overflow, with no RuntimeWarning first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    (line,) = result.stderr.splitlines()
    assert line.startswith("numeric failure: ") and "diverged" in line
    payload = json.loads(result.stdout)
    assert payload["aborted"]
    assert 0.0 <= payload["best_dev_accuracy"] <= 1.0
    ckpt = args[args.index("--output") + 1]
    assert (load_checkpoint(ckpt, cli._load_model(ckpt, "a").store)
            ["best_metric"] == payload["best_dev_accuracy"])


def test_eval_on_words_outside_training_vocabulary(runner, trained, tmp_path):
    bench, ckpt, _ = trained
    data = tmp_path / "unseen.jsonl"
    data.write_text(json.dumps({"id": "z", "sent0": "a zebra sleeps quietly",
                                "sent1": "a zebra eats mountains",
                                "label": 1}) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["eval", "--checkpoint", str(ckpt),
                                  "--data", str(data), "--subtask", "a"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["count"] == 1


def test_eval_from_another_directory(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner.invoke(main, ["synth", "--seed", "3", "--out-dir", "bench",
                         "--sizes", "8,4,4", "--n-concepts", "60",
                         "--n-edges", "120"], catch_exceptions=False)
    Path("cfg.json").write_text(json.dumps(TINY_TRAIN_CFG), encoding="utf-8")
    result = runner.invoke(main, [
        "train", "--subtask", "a", "--config", "cfg.json",
        "--kb", "bench/kb.tsv", "--vectors", "bench/concepts.vec",
        "--train-data", "bench/train.jsonl", "--dev-data", "bench/dev.jsonl",
        "--output", "run/model.ckpt"], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    result = runner.invoke(main, ["eval", "--checkpoint", "../run/model.ckpt",
                                  "--data", "../bench/dev.jsonl",
                                  "--subtask", "a"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["count"] == 4


def test_eval_and_predict(runner, trained, tmp_path):
    bench, ckpt, _ = trained
    result = runner.invoke(main, ["eval", "--checkpoint", str(ckpt),
                                  "--data", str(bench / "dev.jsonl"),
                                  "--subtask", "a"], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["count"] == 4
    out = tmp_path / "preds.jsonl"
    result = runner.invoke(main, ["predict", "--checkpoint", str(ckpt),
                                  "--data", str(bench / "dev.jsonl"),
                                  "--subtask", "a", "--output", str(out)],
                           catch_exceptions=False)
    assert result.exit_code == 0
    preds = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(preds) == 4
    for p in preds:
        assert abs(sum(p["probs"]) - 1.0) < 1e-4
        assert p["correct"] == (p["predicted"] == p["label"])
    acc = sum(p["correct"] for p in preds) / len(preds)
    assert abs(acc - payload["accuracy"]) < 1e-12


def test_ensemble_single_model_matches_eval(runner, trained):
    bench, ckpt, _ = trained
    ev = json.loads(runner.invoke(
        main, ["eval", "--checkpoint", str(ckpt), "--data",
               str(bench / "dev.jsonl"), "--subtask", "a"],
        catch_exceptions=False).output)
    result = runner.invoke(main, ["ensemble", "--checkpoints", str(ckpt),
                                  "--data", str(bench / "dev.jsonl"),
                                  "--subtask", "a"], catch_exceptions=False)
    payload = json.loads(result.output)
    assert payload["models"] == 1
    assert abs(payload["accuracy"] - ev["accuracy"]) < 1e-12
    result = runner.invoke(main, ["ensemble", "--checkpoints", " ",
                                  "--data", str(bench / "dev.jsonl"),
                                  "--subtask", "a"])
    assert result.exit_code == 1


def test_ensemble_naming_no_checkpoint_exits_1_before_reading_data(
        runner, tmp_path, monkeypatch):
    """`--checkpoints` with no path in it is a usage error raised before
    any file is read, so malformed data cannot make it a data error."""
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n", encoding="utf-8")
    calls = []
    real_load = harness.load_comve

    def spy(*args, **kwargs):
        calls.append(args)
        return real_load(*args, **kwargs)

    monkeypatch.setattr(harness, "load_comve", spy)
    for value in (",", " , ", " "):
        result = runner.invoke(main, ["ensemble", "--checkpoints", value,
                                      "--data", str(bad), "--subtask", "a"])
        assert result.exit_code == 1, result.output
        assert ("'--checkpoints': must name at least one checkpoint"
                in result.stderr)
    assert calls == []


def test_ensemble_on_empty_file_matches_eval(runner, trained, tmp_path):
    _, ckpt, _ = trained
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    data = ["--data", str(empty), "--subtask", "a"]
    ev = runner.invoke(main, ["eval", "--checkpoint", str(ckpt)] + data)
    assert ev.exit_code == 2
    assert ev.output == f"data error: {empty}: no instances\n"
    result = runner.invoke(main, ["ensemble", "--checkpoints",
                                  f"{ckpt},{ckpt}"] + data)
    assert (result.exit_code, result.output) == (ev.exit_code, ev.output)


def test_corrupted_checkpoint_exits_3(runner, trained):
    bench, ckpt, _ = trained
    raw = bytearray(ckpt.read_bytes())
    raw[:4] = b"XXXX"
    ckpt.write_bytes(bytes(raw))
    result = runner.invoke(main, ["eval", "--checkpoint", str(ckpt),
                                  "--data", str(bench / "dev.jsonl"),
                                  "--subtask", "a"])
    assert result.exit_code == 3
    assert "numeric failure" in result.output


def test_train_bad_data_exits_2(runner, tmp_path):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n", encoding="utf-8")
    result = runner.invoke(main, ["train", "--subtask", "a", "--kb", str(kb),
                                  "--train-data", str(bad),
                                  "--dev-data", str(bad),
                                  "--output", str(tmp_path / "m.ckpt")])
    assert result.exit_code == 2
    assert "data error" in result.output


def _link_line(tmp_path, line):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    inp = tmp_path / "in.jsonl"
    inp.write_text(line + "\n", encoding="utf-8")
    return ["link", "--kb", str(kb), "--input", str(inp)], f"{inp}:1"


def _link_no_text(tmp_path, request):
    return _link_line(tmp_path, json.dumps({"id": "x"}))


def _link_not_json(tmp_path, request):
    return _link_line(tmp_path, "{not json")


def _checkpoint_as_kb(tmp_path, request):
    store = ParamStore()
    store.add("w", np.ones(3))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, store)
    args, _ = _link_line(tmp_path, json.dumps({"text": "sugar"}))
    args[args.index("--kb") + 1] = str(ckpt)
    return args, str(ckpt)


def _eval_corrupted(request, corrupt):
    bench, ckpt, _ = request.getfixturevalue("trained")
    ckpt.write_bytes(bytes(corrupt(bytearray(ckpt.read_bytes()))))
    return ["eval", "--checkpoint", str(ckpt), "--data",
            str(bench / "dev.jsonl"), "--subtask", "a"]


def _truncated_checkpoint(tmp_path, request):
    return _eval_corrupted(request, lambda raw: raw[:len(raw) // 2]), "truncated"


def _header_length_past_eof(tmp_path, request):
    def corrupt(raw):
        raw[5:13] = b"\xff" * 8   # the u64 header length
        return raw
    return _eval_corrupted(request, corrupt), "checkpoint truncated"


def _v2_checkpoint(tmp_path, request):
    def corrupt(raw):
        raw[4] = 2   # the version byte
        return raw
    return _eval_corrupted(request, corrupt), "unsupported checkpoint version"


def _kb_as_checkpoint(tmp_path, request):
    bench, ckpt, _ = request.getfixturevalue("trained")
    save_graph(load_graph(bench / "kb.tsv"), ckpt)
    return (["eval", "--checkpoint", str(ckpt), "--data",
             str(bench / "dev.jsonl"), "--subtask", "a"],
            "bad checkpoint magic")


def _header_not_utf8(tmp_path, request):
    def corrupt(raw):
        raw[13] = 0xFF   # the header's first byte
        return raw
    return (_eval_corrupted(request, corrupt),
            "malformed checkpoint header ('utf-8' codec can't decode byte 0xff")


def _header_not_object(tmp_path, request):
    def corrupt(raw):   # the same length, holding an empty JSON list
        length = int.from_bytes(raw[5:13], "little")
        raw[13:13 + length] = b"[" + b" " * (length - 2) + b"]"
        return raw
    return _eval_corrupted(request, corrupt), "header is not a JSON object"


def _shape_disagrees_with_body(tmp_path, request):
    def corrupt(raw):
        at = raw.index(b'["head/b2", [1]]')
        raw[at:at + 16] = b'["head/b2", [2]]'
        return raw
    return (_eval_corrupted(request, corrupt),
            'lists ["head/b2", [2]] where the model has ["head/b2", [1]]')


def _kb_edited(tmp_path, request):
    bench, ckpt, _ = request.getfixturevalue("trained")
    kb = bench / "kb.tsv"
    kb.write_text(kb.read_text() + "zebra\t/r/IsA\tanimal\t1.0\n",
                  encoding="utf-8")
    return (["eval", "--checkpoint", str(ckpt), "--data",
             str(bench / "dev.jsonl"), "--subtask", "a"], str(kb))


def _kb_deleted(tmp_path, request):
    bench, ckpt, _ = request.getfixturevalue("trained")
    (bench / "kb.tsv").unlink()
    return (["predict", "--checkpoint", str(ckpt), "--data",
             str(bench / "dev.jsonl"), "--subtask", "a"],
            str(bench / "kb.tsv"))


def _ingest_weight(tmp_path, weight):
    kb = write_kb(tmp_path / "kb.tsv",
                  SUGAR_KB_ROWS + [("sugar", "/r/IsA", "food", weight)])
    return (["kb", "ingest", "--input", str(kb),
             "--output", str(tmp_path / "ingested.tsv")],
            f"{kb}:{len(SUGAR_KB_ROWS) + 1}")


def _nan_weight(tmp_path, request):
    return _ingest_weight(tmp_path, float("nan"))


def _inf_weight(tmp_path, request):
    return _ingest_weight(tmp_path, float("inf"))


def _binary_kb(tmp_path, request):
    args, _ = _link_line(tmp_path, json.dumps({"text": "sugar"}))
    kb = tmp_path / "kb.dat"
    kb.write_bytes(b"\xff\xfe\x00\x81" * 3)
    args[args.index("--kb") + 1] = str(kb)
    return args, str(kb)


def _inject_templates(tmp_path, text):
    args, _ = _link_line(tmp_path, json.dumps({
        "id": "x", "sent0": "sugar is sweet", "sent1": "sugar is sour",
        "label": 1}))
    templates = tmp_path / "templates.json"
    templates.write_text(text, encoding="utf-8")
    return ["preprocess", "inject", "--templates", str(templates)] + args[1:]


def _template_not_string(tmp_path, request):
    return (_inject_templates(tmp_path, json.dumps({"/r/IsA": 5})),
            "'/r/IsA' must be a string")


def _template_missing_slot(tmp_path, request):
    return (_inject_templates(tmp_path, json.dumps({"/r/IsA": "{head} is"})),
            f"{tmp_path / 'templates.json'}: template for '/r/IsA' must "
            f"contain each of {{head}} and {{tail}} exactly once")


def _template_repeated_slot(tmp_path, request):
    return (_inject_templates(tmp_path, json.dumps(
        {"/r/IsA": "{head} is {head} {tail}"})),
            f"{tmp_path / 'templates.json'}: template for '/r/IsA' must "
            f"contain each of {{head}} and {{tail}} exactly once")


def _templates_not_json(tmp_path, request):
    return _inject_templates(tmp_path, "{not json"), "templates.json"


NOT_UTF8 = b"\xff\xfe\x00\x81" * 3


def _inject_input(tmp_path, line):
    args, _ = _link_line(tmp_path, json.dumps({"text": "sugar"}))
    data = tmp_path / "a.jsonl"
    data.write_text(line + "\n", encoding="utf-8")
    args[args.index("--input") + 1] = str(data)
    return ["preprocess", "inject"] + args[1:], f"{data}:1"


def _comve_not_utf8(tmp_path, request):
    args, _ = _inject_input(tmp_path, "")
    data = Path(args[args.index("--input") + 1])
    data.write_bytes(NOT_UTF8)
    return args, f"{data}: not a UTF-8 text file"


def _comve_not_object(tmp_path, request):
    return _inject_input(tmp_path, "5")


def _comve_label_not_integer(tmp_path, request):
    return _inject_input(tmp_path, json.dumps({
        "id": "x", "sent0": "sugar is sweet", "sent1": "sugar is sour",
        "label": "x"}))


def _comve_statement_not_string(tmp_path, request):
    return _inject_input(tmp_path, json.dumps({
        "id": "x", "sent0": 5, "sent1": "sugar is sour", "label": 1}))


def _link_not_utf8(tmp_path, request):
    args, where = _link_line(tmp_path, "")
    Path(where[:-2]).write_bytes(NOT_UTF8)
    return args, where[:-2]


def _train_args(tmp_path):
    bench = tmp_path / "bench"
    CliRunner().invoke(main, ["synth", "--seed", "3", "--out-dir", str(bench),
                              "--sizes", "8,4,4", "--n-concepts", "60",
                              "--n-edges", "120"], catch_exceptions=False)
    return ["train", "--subtask", "a", "--kb", str(bench / "kb.tsv"),
            "--train-data", str(bench / "train.jsonl"),
            "--dev-data", str(bench / "dev.jsonl"),
            "--output", str(tmp_path / "m.ckpt")]


def _train_vectors(tmp_path, content):
    vectors = tmp_path / "bad.vec"
    vectors.write_bytes(content)
    return _train_args(tmp_path) + ["--vectors", str(vectors)], str(vectors)


def _train_config(tmp_path, text):
    config = tmp_path / "cfg.json"
    config.write_text(text, encoding="utf-8")
    return _train_args(tmp_path) + ["--config", str(config)], str(config)


def _config_not_json(tmp_path, request):
    return _train_config(tmp_path, "{bad")


def _config_not_object(tmp_path, request):
    args, config = _train_config(tmp_path, "[1]")
    return args, f"{config}: config must be a JSON object"


def _config_batch_size_zero(tmp_path, request):
    args, config = _train_config(tmp_path, '{"batch_size": 0}')
    return args, f"{config}: batch_size must be >= 1, got 0"


def _config_epochs_not_integer(tmp_path, request):
    args, config = _train_config(tmp_path, '{"epochs_phase1": "x"}')
    return args, f"{config}: epochs_phase1 must be int, got 'x'"


def _config_epochs_phase2_not_integer(tmp_path, request):
    args, config = _train_config(tmp_path, '{"epochs_phase2": "x"}')
    return args, f"{config}: epochs_phase2 must be int, got 'x'"


def _config_lr_negative(tmp_path, request):
    args, config = _train_config(tmp_path, '{"lr_phase1": -1}')
    return args, f"{config}: lr_phase1 must be > 0, got -1"


def _config_lr_phase2_zero(tmp_path, request):
    args, config = _train_config(tmp_path, '{"lr_phase2": 0}')
    return args, f"{config}: lr_phase2 must be > 0, got 0"


def _config_lr_infinite(tmp_path, request):
    args, config = _train_config(
        tmp_path, '{"lr_phase1": Infinity, "epochs_phase2": 0}')
    return args, f"{config}: lr_phase1 must be finite, got inf"


def _config_lr_overflows_float(tmp_path, request):
    args, config = _train_config(tmp_path, '{"lr_phase1": 1%s}' % ("0" * 400))
    return args, f"{config}: int too large to convert to float"


def _config_adam_eps_infinite(tmp_path, request):
    args, config = _train_config(
        tmp_path, '{"adam_eps": Infinity, "epochs_phase1": 1, '
                  '"epochs_phase2": 0}')
    return args, f"{config}: adam_eps must be finite, got inf"


def _config_dim_not_integer(tmp_path, request):
    args, config = _train_config(tmp_path, '{"dim": "x"}')
    return args, f"{config}: dim must be int, got 'x'"


def _config_dim_beyond_numpy(tmp_path, request):
    args, config = _train_config(
        tmp_path, '{"dim": 1%s, "epochs_phase1": 1, "epochs_phase2": 0}'
                  % ("0" * 400))
    return args, f"{config}: cannot build the model (Maximum allowed dimension"


def _config_head_hidden_beyond_memory(tmp_path, request):
    args, config = _train_config(   # a 931 TiB head matrix
        tmp_path, '{"head_hidden": 1000000000000, "epochs_phase1": 1, '
                  '"epochs_phase2": 0}')
    return args, f"{config}: cannot build the model (Unable to allocate"


def _config_gate_hidden_overflows_float(tmp_path, request):
    args, config = _train_config(   # its init scale 2 / (fan_in + fan_out)
        tmp_path, '{"gate_hidden": 1%s, "epochs_phase1": 1, '
                  '"epochs_phase2": 0}' % ("0" * 400))
    return args, f"{config}: cannot build the model (int too large to convert"


def _config_schedule_key_misspelled(tmp_path, request):
    args, config = _train_config(tmp_path, '{"batch-size": 0}')
    return args, f"{config}: unknown key 'batch-size'"


def _config_model_key_misspelled(tmp_path, request):
    args, config = _train_config(tmp_path, '{"dim": 16, "n_layer": 1}')
    return args, f"{config}: unknown key 'n_layer'"


def _config_flag_not_bool(tmp_path, request):
    args, config = _train_config(tmp_path, '{"no_kemb": "false"}')
    return args, f"{config}: unknown key 'no_kemb'"


def _config_flag_key(tmp_path, request):   # the ablations are flags only
    args, config = _train_config(tmp_path, '{"no_kemb": true}')
    return args, f"{config}: unknown key 'no_kemb'"


def _split_empty(tmp_path, option):
    args = _train_args(tmp_path)
    split = args[args.index(option) + 1]
    Path(split).write_text("", encoding="utf-8")
    return args, f"{split}: no instances"


def _train_data_empty(tmp_path, request):
    return _split_empty(tmp_path, "--train-data")


def _dev_data_empty(tmp_path, request):
    return _split_empty(tmp_path, "--dev-data")


def _vectors_not_utf8(tmp_path, request):
    return _train_vectors(tmp_path, NOT_UTF8)


def _vectors_nan(tmp_path, request):
    args, vectors = _train_vectors(tmp_path, b"sugar 0.5 1.0\ncoffee nan 1.0\n")
    return args, f"{vectors}:2"


def _blocklist_not_utf8(tmp_path, request):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    block = tmp_path / "block.txt"
    block.write_bytes(NOT_UTF8)
    return (["kb", "ingest", "--input", str(kb), "--blocklist", str(block),
             "--output", str(tmp_path / "ingested.tsv")], str(block))


def _kgat_kb(tmp_path, request):   # the KB form `kb ingest` wrote before TSV
    args, _ = _link_line(tmp_path, json.dumps({"text": "sugar"}))
    kb = tmp_path / "kb.bin"
    kb.write_bytes(b"KGAT\x01" + json.dumps({
        "edges": [["sugar", "/r/IsA", "food", 1.0]], "blocklist": [],
        "stats": {"loaded": 1, "skipped_blocklist": 0,
                  "skipped_comments": 0}}).encode("utf-8"))
    args[args.index("--kb") + 1] = str(kb)
    return args, f"{kb}:1: expected 4 tab-separated columns, got 1"


def _data_empty(tmp_path, request, command, option="--checkpoint"):
    _, ckpt, _ = request.getfixturevalue("trained")
    data = tmp_path / "empty.jsonl"
    data.write_text("", encoding="utf-8")
    return ([command, option, str(ckpt), "--data", str(data), "--subtask",
             "a"], f"{data}: no instances")


def _eval_data_empty(tmp_path, request):
    return _data_empty(tmp_path, request, "eval")


def _predict_data_empty(tmp_path, request):
    return _data_empty(tmp_path, request, "predict")


def _ensemble_data_empty(tmp_path, request):
    return _data_empty(tmp_path, request, "ensemble", "--checkpoints")


def _vectors_edited(tmp_path, request):
    bench, ckpt, _ = request.getfixturevalue("trained")
    vectors = bench / "concepts.vec"
    vectors.write_text(vectors.read_text() + "zebra" + " 0.9" * 64 + "\n",
                       encoding="utf-8")
    return (["eval", "--checkpoint", str(ckpt), "--data",
             str(bench / "dev.jsonl"), "--subtask", "a"], str(vectors))


def _model_record_without_vectors_sha256(tmp_path, request):
    def corrupt(raw):
        at = raw.index(b'"vectors_sha256"')
        raw[at:at + 16] = b'"vectors_sha257"'
        return raw
    return _eval_corrupted(request, corrupt), "'vectors_sha256'"


def _model_record_without_subtask(tmp_path, request):
    def corrupt(raw):
        at = raw.index(b'"subtask"')
        raw[at:at + 9] = b'"subtasq"'
        return raw
    return _eval_corrupted(request, corrupt), "'subtask'"


def _model_record_max_len_above_positions(tmp_path, request):
    def corrupt(raw):   # the tiny config's max_len 48, max_positions 64
        at = raw.index(b'"max_len": 48')
        raw[at:at + 13] = b'"max_len": 99'
        return raw
    return (_eval_corrupted(request, corrupt),
            "max_len 99 exceeds max_positions 64")


def _eval_model_config(request, key, value):
    """`eval` of a checkpoint whose model description sets config `key` to
    `value`, beside the trained model's parameters."""
    bench, ckpt, _ = request.getfixturevalue("trained")
    meta, store = read_model_header(ckpt)[0], cli._load_model(ckpt, "a").store
    meta["config"][key] = value
    save_checkpoint(ckpt, store, model_meta=meta)
    return ["eval", "--checkpoint", str(ckpt), "--data",
            str(bench / "dev.jsonl"), "--subtask", "a"]


def _model_record_dropout_overflows_float(tmp_path, request):
    return (_eval_model_config(request, "dropout", 10 ** 400),
            "OverflowError: int too large to convert to float")


def _model_record_dim_beyond_numpy(tmp_path, request):
    return (_eval_model_config(request, "dim", 10 ** 400),
            "cannot build the model: Maximum allowed dimension exceeded")


def _model_record_head_hidden_beyond_memory(tmp_path, request):
    return (_eval_model_config(request, "head_hidden", 10 ** 12),
            "cannot build the model: Unable to allocate")


def _model_record_node_dim_beyond_memory(tmp_path, request):
    # the vectors' projection to node_dim is built with the model
    return (_eval_model_config(request, "node_dim", 10 ** 12),
            "cannot build the model: Unable to allocate")


def _model_record_gate_hidden_overflows_float(tmp_path, request):
    return (_eval_model_config(request, "gate_hidden", 10 ** 400),
            "cannot build the model: int too large to convert to float")


# a build takes time and memory per layer, so these fail before it: the
# tiny model's checkpoint lists 36 parameters
def _model_record_a_million_layers(tmp_path, request):
    return (_eval_model_config(request, "n_layers", 10 ** 6),
            "ValueError: n_layers 1000000 exceeds the 36 parameters the "
            "checkpoint lists")


def _model_record_a_million_gat_layers(tmp_path, request):
    return (_eval_model_config(request, "gat_layers", 10 ** 6),
            "ValueError: gat_layers 1000000 exceeds the 36 parameters the "
            "checkpoint lists")


def _config_max_len_above_positions(tmp_path, request):
    args, config = _train_config(
        tmp_path, '{"max_len": 300, "max_positions": 160}')
    return args, f"{config}: max_len 300 exceeds max_positions 160"


def _model_record_max_len_below_trunk(tmp_path, request):
    def corrupt(raw):   # the tiny config's max_len 48
        at = raw.index(b'"max_len": 48')
        raw[at:at + 13] = b'"max_len":  4'
        return raw
    return (_eval_corrupted(request, corrupt),
            "max_len 4 below minimum trunk length 8")


def _config_max_len_below_trunk(tmp_path, request):
    args, config = _train_config(
        tmp_path, '{"max_len": 4, "epochs_phase1": 0, "epochs_phase2": 0}')
    return args, f"{config}: max_len 4 below minimum trunk length 8"


def _subtask_b_data(tmp_path):
    data = tmp_path / "b.jsonl"
    data.write_text(json.dumps({
        "id": "1", "false_sent": "he put coffee in sugar",
        "optionA": "sugar is sweet", "optionB": "coffee is a drink",
        "optionC": "cups hold coffee", "label": 0}) + "\n", encoding="utf-8")
    return data


def _subtask_mismatch(tmp_path, request, command, option="--checkpoint"):
    _, ckpt, _ = request.getfixturevalue("trained")
    return ([command, option, str(ckpt), "--data",
             str(_subtask_b_data(tmp_path)), "--subtask", "b"],
            f"{ckpt}: the model was trained for subtask 'a', not 'b'")


def _eval_subtask_mismatch(tmp_path, request):
    return _subtask_mismatch(tmp_path, request, "eval")


def _predict_subtask_mismatch(tmp_path, request):
    return _subtask_mismatch(tmp_path, request, "predict")


def _ensemble_subtask_mismatch(tmp_path, request):
    return _subtask_mismatch(tmp_path, request, "ensemble", "--checkpoints")


def _ensemble_checkpoints_disagree(tmp_path, request):
    bench, ckpt, _ = request.getfixturevalue("trained")
    other = tmp_path / "b.ckpt"
    other.write_bytes(ckpt.read_bytes().replace(b'"subtask": "a"',
                                                b'"subtask": "b"'))
    return (["ensemble", "--checkpoints", f"{ckpt},{other}", "--data",
             str(bench / "dev.jsonl"), "--subtask", "a"],
            f"{other}: the model was trained for subtask 'b', not 'a'")


def _directory_as(tmp_path, args, option):
    """`args` with a directory as the value of file option `option`."""
    folder = tmp_path / "folder"
    folder.mkdir()
    args[args.index(option) + 1] = str(folder)
    return args, f"'{option}': File '{folder}' is a directory"


def _eval_checkpoint_directory(tmp_path, request):
    bench, ckpt, _ = request.getfixturevalue("trained")
    return _directory_as(tmp_path, ["eval", "--checkpoint", str(ckpt), "--data",
                                    str(bench / "dev.jsonl"), "--subtask", "a"],
                         "--checkpoint")


def _link_kb_directory(tmp_path, request):
    args, _ = _link_line(tmp_path, json.dumps({"text": "sugar"}))
    return _directory_as(tmp_path, args, "--kb")


def _augment_templates_directory(tmp_path, request):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    return _directory_as(tmp_path, ["augment", "--kb", str(kb), "--templates",
                                    "x", "--output", str(tmp_path / "o.jsonl")],
                         "--templates")


def _ingest_output_directory(tmp_path, request):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    return _directory_as(tmp_path, ["kb", "ingest", "--input", str(kb),
                                    "--output", "x"], "--output")


def _train_output_directory(tmp_path, request):
    return _directory_as(tmp_path, _train_args(tmp_path), "--output")


def _synth_out_dir_file(tmp_path, request):
    (tmp_path / "afile").write_text("", encoding="utf-8")
    return (["synth", "--out-dir", str(tmp_path / "afile"), "--sizes", "4,4,4"],
            f"'--out-dir': Directory '{tmp_path / 'afile'}' is a file")


def _ensemble_checkpoints(request, second):
    bench, ckpt, _ = request.getfixturevalue("trained")
    return ["ensemble", "--checkpoints", f"{ckpt},{second}", "--data",
            str(bench / "dev.jsonl"), "--subtask", "a"]


def _ensemble_checkpoint_missing(tmp_path, request):
    missing = tmp_path / "missing.ckpt"
    return (_ensemble_checkpoints(request, missing),
            f"'--checkpoints': File '{missing}' does not exist")


def _ensemble_checkpoint_directory(tmp_path, request):
    (tmp_path / "folder").mkdir()
    return (_ensemble_checkpoints(request, tmp_path / "folder"),
            f"'--checkpoints': File '{tmp_path / 'folder'}' is a directory")


def _trained_with_directory(request, name):
    """Eval arguments whose checkpoint names `name`, now a directory."""
    bench, ckpt, _ = request.getfixturevalue("trained")
    (bench / name).unlink()
    (bench / name).mkdir()
    return (["eval", "--checkpoint", str(ckpt), "--data",
             str(bench / "dev.jsonl"), "--subtask", "a"],
            f"{bench / name}: missing; the model was trained with it")


def _kb_now_directory(tmp_path, request):
    return _trained_with_directory(request, "kb.tsv")


def _vectors_now_directory(tmp_path, request):
    return _trained_with_directory(request, "concepts.vec")


@pytest.mark.parametrize("make, code, prefix", [
    (_link_no_text, 2, "data error: "),
    (_link_not_json, 2, "data error: "),
    (_checkpoint_as_kb, 2, "data error: "),
    (_truncated_checkpoint, 3, "numeric failure: "),
    (_header_length_past_eof, 3, "numeric failure: "),
    (_v2_checkpoint, 3, "numeric failure: "),
    (_nan_weight, 2, "data error: "),
    (_inf_weight, 2, "data error: "),
    (_binary_kb, 2, "data error: "),
    (_template_not_string, 2, "data error: "),
    (_template_missing_slot, 2, "data error: "),
    (_template_repeated_slot, 2, "data error: "),
    (_templates_not_json, 2, "data error: "),
    (_kb_as_checkpoint, 3, "numeric failure: "),
    (_header_not_utf8, 3, "numeric failure: "),
    (_shape_disagrees_with_body, 3, "numeric failure: "),
    (_header_not_object, 3, "numeric failure: "),
    (_kb_edited, 2, "data error: "),
    (_kb_deleted, 2, "data error: "),
    (_comve_not_utf8, 2, "data error: "),
    (_comve_not_object, 2, "data error: "),
    (_comve_label_not_integer, 2, "data error: "),
    (_comve_statement_not_string, 2, "data error: "),
    (_link_not_utf8, 2, "data error: "),
    (_vectors_not_utf8, 2, "data error: "),
    (_vectors_nan, 2, "data error: "),
    (_blocklist_not_utf8, 2, "data error: "),
    (_kgat_kb, 2, "data error: "),
    (_vectors_edited, 2, "data error: "),
    (_model_record_without_vectors_sha256, 3, "numeric failure: "),
    (_config_not_json, 2, "data error: "),
    (_config_not_object, 2, "data error: "),
    (_config_batch_size_zero, 2, "data error: "),
    (_config_epochs_not_integer, 2, "data error: "),
    (_config_epochs_phase2_not_integer, 2, "data error: "),
    (_config_lr_negative, 2, "data error: "),
    (_config_lr_phase2_zero, 2, "data error: "),
    (_config_lr_infinite, 2, "data error: "),
    (_config_lr_overflows_float, 2, "data error: "),
    (_config_adam_eps_infinite, 2, "data error: "),
    (_config_dim_not_integer, 2, "data error: "),
    (_config_dim_beyond_numpy, 2, "data error: "),
    (_config_head_hidden_beyond_memory, 2, "data error: "),
    (_config_gate_hidden_overflows_float, 2, "data error: "),
    (_config_flag_not_bool, 2, "data error: "),
    (_config_flag_key, 2, "data error: "),
    (_config_schedule_key_misspelled, 2, "data error: "),
    (_config_model_key_misspelled, 2, "data error: "),
    (_train_data_empty, 2, "data error: "),
    (_dev_data_empty, 2, "data error: "),
    (_eval_data_empty, 2, "data error: "),
    (_predict_data_empty, 2, "data error: "),
    (_ensemble_data_empty, 2, "data error: "),
    (_model_record_without_subtask, 3, "numeric failure: "),
    (_model_record_max_len_above_positions, 3, "numeric failure: "),
    (_model_record_dropout_overflows_float, 3, "numeric failure: "),
    (_model_record_dim_beyond_numpy, 3, "numeric failure: "),
    (_model_record_head_hidden_beyond_memory, 3, "numeric failure: "),
    (_model_record_node_dim_beyond_memory, 3, "numeric failure: "),
    (_model_record_gate_hidden_overflows_float, 3, "numeric failure: "),
    (_model_record_a_million_layers, 3, "numeric failure: "),
    (_model_record_a_million_gat_layers, 3, "numeric failure: "),
    (_config_max_len_above_positions, 2, "data error: "),
    (_model_record_max_len_below_trunk, 3, "numeric failure: "),
    (_config_max_len_below_trunk, 2, "data error: "),
    (_eval_subtask_mismatch, 2, "data error: "),
    (_predict_subtask_mismatch, 2, "data error: "),
    (_ensemble_subtask_mismatch, 2, "data error: "),
    (_ensemble_checkpoints_disagree, 2, "data error: "),
    (_eval_checkpoint_directory, 1, "Error: "),
    (_link_kb_directory, 1, "Error: "),
    (_augment_templates_directory, 1, "Error: "),
    (_ingest_output_directory, 1, "Error: "),
    (_train_output_directory, 1, "Error: "),
    (_synth_out_dir_file, 1, "Error: "),
    (_ensemble_checkpoint_missing, 1, "Error: "),
    (_ensemble_checkpoint_directory, 1, "Error: "),
    (_kb_now_directory, 2, "data error: "),
    (_vectors_now_directory, 2, "data error: "),
], ids=["link-no-text", "link-not-json", "checkpoint-as-kb",
        "truncated-checkpoint", "header-length-past-eof", "v2-checkpoint",
        "nan-weight", "inf-weight",
        "binary-kb", "template-not-string", "template-missing-slot",
        "template-repeated-slot", "templates-not-json",
        "kb-as-checkpoint", "header-not-utf8", "shape-disagrees-with-body",
        "header-not-object", "kb-edited", "kb-deleted", "comve-not-utf8",
        "comve-not-object", "comve-label-not-integer",
        "comve-statement-not-string", "link-not-utf8", "vectors-not-utf8",
        "vectors-nan", "blocklist-not-utf8", "kgat-kb", "vectors-edited",
        "model-record-without-vectors-sha256", "config-not-json",
        "config-not-object", "config-batch-size-zero",
        "config-epochs-not-integer", "config-epochs-phase2-not-integer",
        "config-lr-negative", "config-lr-phase2-zero",
        "config-lr-infinite", "config-lr-overflows-float",
        "config-adam-eps-infinite",
        "config-dim-not-integer", "config-dim-beyond-numpy",
        "config-head-hidden-beyond-memory",
        "config-gate-hidden-overflows-float", "config-flag-not-bool",
        "config-flag-key",
        "config-schedule-key-misspelled", "config-model-key-misspelled",
        "train-data-empty", "dev-data-empty", "eval-data-empty",
        "predict-data-empty", "ensemble-data-empty",
        "model-record-without-subtask",
        "model-record-max-len-above-positions",
        "model-record-dropout-overflows-float",
        "model-record-dim-beyond-numpy",
        "model-record-head-hidden-beyond-memory",
        "model-record-node-dim-beyond-memory",
        "model-record-gate-hidden-overflows-float",
        "model-record-a-million-layers", "model-record-a-million-gat-layers",
        "config-max-len-above-positions",
        "model-record-max-len-below-trunk", "config-max-len-below-trunk",
        "eval-subtask-mismatch",
        "predict-subtask-mismatch", "ensemble-subtask-mismatch",
        "ensemble-checkpoints-disagree", "eval-checkpoint-directory",
        "link-kb-directory", "augment-templates-directory",
        "ingest-output-directory", "train-output-directory", "synth-out-dir-file",
        "ensemble-checkpoint-missing", "ensemble-checkpoint-directory",
        "kb-now-directory", "vectors-now-directory"])
def test_malformed_input_exits_with_message(runner, tmp_path, request, make,
                                            code, prefix):
    args, fragment = make(tmp_path, request)
    result = runner.invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == code
    lines = result.output.strip().splitlines()
    if code == 1:   # click prints its usage lines above the one error line
        assert lines[0].startswith("Usage: ") and len(lines) == 4
        lines = lines[-1:]
    (line,) = lines
    assert line.startswith(prefix) and fragment in line


def _with_vocab(tokens):
    return lambda meta: {"vocab": tokens(meta["vocab"])}


def _with_template(pattern):
    return lambda meta: {"templates": {**meta["templates"], "/r/IsA": pattern}}


_TEMPLATE_SLOTS = ("DataFormatError: 'templates': template for '/r/IsA' must "
                   "contain each of {head} and {tail} exactly once")


@pytest.mark.parametrize("edit, fragment", [
    (lambda meta: {"kb": None}, "TypeError: 'kb' is None, not a string"),
    (lambda meta: {"kb": ["x"]}, "TypeError: 'kb' is ['x'], not a string"),
    (lambda meta: {"kb": 7}, "TypeError: 'kb' is 7, not a string"),
    (lambda meta: {"kb": 0}, "TypeError: 'kb' is 0, not a string"),
    (lambda meta: {"kb_sha256": 7}, "TypeError: 'kb_sha256' is 7, not a"),
    (lambda meta: {"vectors": 7}, "TypeError: 'vectors' 7 and"),
    (lambda meta: {"vectors": 0}, "TypeError: 'vectors' 0 and"),
    (lambda meta: {"vectors": None}, "'vectors' None and 'vectors_sha256' '"),
    (lambda meta: {"vectors_sha256": None}, "and 'vectors_sha256' None are"),
    (lambda meta: {"subtask": "c"}, "ValueError: unknown subtask 'c'"),
    (_with_vocab(lambda tokens: tokens[1:]),
     "first four vocab entries must be the reserved tokens"),
    (_with_vocab(lambda tokens: tokens + tokens[-1:]),
     "duplicate token in vocab"),
    (_with_template("{head} is"), _TEMPLATE_SLOTS),
    (_with_template("{head} {tail} of {tail}"), _TEMPLATE_SLOTS),
    (_with_template(["{head}", "{tail}"]),
     "DataFormatError: 'templates': template for '/r/IsA' must be a string, "
     "got list"),
], ids=["kb-null", "kb-list", "kb-7", "kb-0", "kb-sha256-7", "vectors-7",
        "vectors-0", "vectors-null-sha256-string", "vectors-string-sha256-null",
        "unknown-subtask", "vocab-without-reserved-prefix",
        "vocab-duplicate-token", "template-missing-slot",
        "template-repeated-slot", "template-not-string"])
def test_malformed_model_description_exits_3_before_opening_a_file(
        runner, trained_once, tmp_path, monkeypatch, edit, fragment):
    """A model description whose KB or vectors entry is not a path string
    (an integer would open a file descriptor, 0 stdin), whose subtask is
    unknown, or whose vocab or a template is malformed exits 3 with one
    line, reading no KB, vectors or standard input."""
    bench, ckpt, _ = trained_once
    meta = read_model_header(ckpt)[0]
    meta.update(edit(meta))
    save_checkpoint(tmp_path / "m.ckpt", ParamStore(), model_meta=meta)
    calls = []
    for module, name in ((kgstore, "load_graph"), (cli, "_file_sha256"),
                         (cli.gatmod, "load_concept_table")):
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a))
    result = runner.invoke(main, ["eval", "--checkpoint",
                                  str(tmp_path / "m.ckpt"), "--data",
                                  str(bench / "dev.jsonl"), "--subtask", "a"])
    assert result.exit_code == 3, result.output
    (line,) = result.output.splitlines()
    assert line.startswith(f"numeric failure: {tmp_path / 'm.ckpt'}: "
                           "malformed model description (")
    assert fragment in line
    assert calls == []   # so `open` never saw the KB or vectors entry


def test_model_without_graph_reasoning_loads_with_any_gat_layers(
        runner, trained_once, tmp_path):
    """A model without graph reasoning builds no GAT layer, so its
    description may carry a `gat_layers` beyond the checkpoint's parameter
    list: `eval` runs."""
    bench, ckpt, _ = trained_once
    meta = read_model_header(ckpt)[0]
    meta["config"].update(use_kegat=False, gat_layers=10 ** 6)
    model = KegatModel(ModelConfig(**meta["config"]), Vocab(meta["vocab"]),
                       load_graph(meta["kb"]))
    save_checkpoint(tmp_path / "m.ckpt", model.store, model_meta=meta)
    result = runner.invoke(main, ["eval", "--checkpoint",
                                  str(tmp_path / "m.ckpt"), "--data",
                                  str(bench / "dev.jsonl"), "--subtask", "a"])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("key", ["kb", "vectors"])
@pytest.mark.parametrize("command", ["eval", "predict", "ensemble"])
def test_model_description_path_with_nul_byte_exits_3(
        runner, trained_once, tmp_path, command, key):
    """A KB or vectors path holding a NUL byte names no file: each command
    that loads a model exits 3 with one line and no traceback (ensemble
    after loading a good model first)."""
    bench, ckpt, _ = trained_once
    meta = read_model_header(ckpt)[0]
    meta[key] = "a\u0000b"
    bad = tmp_path / "m.ckpt"
    save_checkpoint(bad, ParamStore(), model_meta=meta)
    models = (["--checkpoints", f"{ckpt},{bad}"] if command == "ensemble"
              else ["--checkpoint", str(bad)])
    result = runner.invoke(main, [command, *models, "--data",
                                  str(bench / "dev.jsonl"), "--subtask", "a"])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 3, result.output
    assert result.stderr == (
        f"numeric failure: {bad}: malformed model description (ValueError: "
        f"{key!r} 'a\\x00b' holds a NUL byte)\n")
    assert "Traceback" not in result.output


# -- fuzzing the CLI ----------------------------------------------------------

@pytest.fixture(scope="module")
def trained_once(tmp_path_factory):
    return _train_tiny(tmp_path_factory.mktemp("fuzz"))


# the type of each config key's value: the keys are the fields of both
# config dataclasses, less the ablations, which are flags
_KINDS = {f.name: type(f.default)
          for f in dataclasses.fields(ModelConfig) + dataclasses.fields(Schedule)
          if not f.name.startswith("use_")}
_CONFIG_KEYS = sorted(_KINDS) + ["lr", "n_layer"]   # and two unknown keys
# any JSON value; small integers keep every generated model small
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 16) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)


def _valid_value(key):
    """Values of `key`'s type, mostly in its range, so that some generated
    configs train; an unknown key takes an int."""
    kind = _KINDS.get(key, int)
    return st.integers(1, 12) if kind is int else st.floats(1e-6, 0.5)


def _assert_one_line_exit_2(result):
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 2, result.output
    (line,) = result.stderr.strip().splitlines()
    assert line.startswith("data error: ")
    assert "Traceback" not in result.output


def test_train_fuzzed_config_trains_or_exits_2(trained_once):
    """Any JSON object as `--config` trains (with no epochs), or exits 2
    with one line."""
    bench, _, _ = trained_once
    cfg, out = bench.parent / "fuzz.json", bench.parent / "fuzz" / "m.ckpt"
    args = ["train", "--subtask", "a", "--config", str(cfg),
            "--kb", str(bench / "kb.tsv"),
            "--vectors", str(bench / "concepts.vec"),
            "--train-data", str(bench / "train.jsonl"),
            "--dev-data", str(bench / "dev.jsonl"), "--output", str(out)]

    @given(st.lists(st.sampled_from(_CONFIG_KEYS), max_size=4, unique=True)
           .flatmap(lambda keys: st.fixed_dictionaries(
               {k: st.one_of(*[_valid_value(k)] * 3, _JSON_VALUES)
                for k in keys})))
    @settings(max_examples=60, deadline=None)
    def run(config):
        config.update(epochs_phase1=0, epochs_phase2=0)
        cfg.write_text(json.dumps(config), encoding="utf-8")
        result = CliRunner().invoke(main, args)
        if result.exit_code != 0:
            _assert_one_line_exit_2(result)
        else:
            assert json.loads(result.stdout)["checkpoint"] == str(out)
    run()


def _nested(depth):
    value = 0
    for _ in range(depth):
        value = [value]
    return value


# values in place of a model-description entry; sizes are small or too large
# to allocate, never in between, where a build can run for minutes
_ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.sampled_from([10 ** 12, 10 ** 400, 1e308]),
    st.text(max_size=3).map(lambda text: text + "\0"),
    st.lists(st.integers(-1, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 2), max_size=2),
    st.integers(2, 300).map(_nested))
# counts up to 10**6 too: a layer count above the checkpoint's parameter list
# fails before the model builds a layer
_LAYER_COUNTS = ("n_layers", "gat_layers")


def test_fuzzed_model_description_exits_0_2_or_3(trained_once, monkeypatch):
    """A checkpoint whose model description has one or two entries, or
    config entries, replaced: `eval`, `predict` and `ensemble` exit 0, 2 or
    3, with one stderr line when they fail, no traceback, and never open a
    file descriptor, standard input among them."""
    bench, ckpt, _ = trained_once
    meta, store = read_model_header(ckpt)[0], cli._load_model(ckpt, "a").store
    bad = bench.parent / "fuzz-description.ckpt"
    real_open = open

    def open_path(file, *args, **kwargs):
        assert not isinstance(file, int), f"opened file descriptor {file}"
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr("builtins.open", open_path)
    entries = (st.sampled_from([(key,) for key in meta])
               | st.sampled_from([("config", key) for key in meta["config"]]))
    edits = entries.flatmap(lambda entry: st.tuples(
        st.just(entry), st.integers(-2, 10 ** 6) | _ODD_VALUES
        if entry[-1] in _LAYER_COUNTS else _ODD_VALUES))
    commands = {"eval": ["--checkpoint", str(bad)],
                "predict": ["--checkpoint", str(bad)],
                "ensemble": ["--checkpoints", f"{ckpt},{bad}"]}

    @given(st.lists(edits, min_size=1, max_size=2),
           st.sampled_from(sorted(commands)))
    @settings(max_examples=100, deadline=None)
    def run(edits, command):
        edited = json.loads(json.dumps(meta))
        for entry, value in edits:
            owner = edited if len(entry) == 1 else edited["config"]
            if isinstance(owner, dict):   # "config" itself may be replaced
                owner[entry[-1]] = value
        save_checkpoint(bad, store, model_meta=edited)
        result = CliRunner().invoke(main, [
            command, *commands[command], "--data", str(bench / "dev.jsonl"),
            "--subtask", "a"])
        assert result.exit_code in (0, 2, 3), result.output
        if result.exit_code:
            assert isinstance(result.exception, SystemExit), result.exception
            (line,) = result.stderr.splitlines()
            assert line.startswith(("data error: ", "numeric failure: "))
        assert "Traceback" not in result.output
    run()


def test_fuzzed_integer_options_exit_0_1_or_2(tmp_path_factory):
    """`link`, `preprocess inject`, `augment` and `synth` end with exit 0, 1
    (a bad option) or 2 (a KB too small for the augment draw) on any integer
    option values, never with an uncaught exception. `synth` reads no file,
    so it never exits 2."""
    root = tmp_path_factory.mktemp("options")
    link, _ = _link_line(root, json.dumps({
        "id": "x", "text": "he put sugar in coffee",
        "sent0": "he put sugar in coffee", "sent1": "he put coffee in sugar",
        "label": 1}))
    ints = st.integers(-2, 12)
    commands = st.one_of(
        ints.map(lambda n: link + ["--max-ngram", str(n)]),
        st.tuples(st.integers(-2, 200), ints, ints).map(
            lambda v: ["preprocess", "inject"] + link[1:] + [
                "--max-len", str(v[0]), "--per-entity-limit", str(v[1]),
                "--max-ngram", str(v[2])]),
        st.tuples(st.tuples(*[st.integers(1, 8)] * 3).map(list)
                  | st.lists(st.integers(-1, 8), max_size=4),
                  st.integers(-1, 40), st.integers(-1, 60),
                  st.sampled_from("ab"), st.integers(-1, 9)).map(
            lambda v: ["synth", "--out-dir", str(root / "bench"),
                       "--sizes", ",".join(map(str, v[0])),
                       "--n-concepts", str(v[1]), "--n-edges", str(v[2]),
                       "--subtask", v[3], "--seed", str(v[4])]),
        st.tuples(ints, ints, st.sampled_from("ab")).map(
            lambda v: ["augment", "--kb", link[2], "--count", str(v[0]),
                       "--seed", str(v[1]), "--subtask", v[2],
                       "--output", str(root / "aug.jsonl")]))

    @given(commands)
    @settings(max_examples=80, deadline=None)
    def run(args):
        result = CliRunner().invoke(main, args)
        codes = (0, 1) if args[0] == "synth" else (0, 1, 2)
        assert result.exit_code in codes, result.output
        if result.exit_code:
            assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
    run()


_WORDS = st.sampled_from(["sugar", "coffee", "the", "is", "a", "zebra"])


def test_predict_fuzzed_text_sums_to_one(trained_once):
    """A trained model scores any statement text: any Unicode, text with no
    token, or text longer than `max_len`."""
    bench, ckpt, _ = trained_once
    data = bench.parent / "fuzz.jsonl"
    concepts = [line.split("\t")[0].replace("_", " ") for line in
                (bench / "kb.tsv").read_text().splitlines()[1:]]
    words = _WORDS | st.sampled_from(concepts)
    texts = st.one_of(
        st.text(min_size=1, max_size=40),
        st.text(st.characters(categories=["P", "S", "Z"]), min_size=1,
                max_size=8),   # no word characters: no token at all
        st.lists(words, min_size=TINY_TRAIN_CFG["max_len"],
                 max_size=3 * TINY_TRAIN_CFG["max_len"]).map(" ".join))

    @given(st.tuples(texts, texts))
    @settings(max_examples=40, deadline=None)
    def run(statements):
        data.write_text(json.dumps({"id": "f", "sent0": statements[0],
                                    "sent1": statements[1], "label": 0})
                        + "\n", encoding="utf-8")
        result = CliRunner().invoke(main, [
            "predict", "--checkpoint", str(ckpt), "--data", str(data),
            "--subtask", "a"])
        assert result.exit_code == 0, result.output
        (pred,) = _lines(result)
        assert len(pred["probs"]) == 2
        assert abs(sum(pred["probs"]) - 1.0) < 1e-5
    run()
