"""End-to-end command-line tests with the click runner."""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from kegat.cli import main
from kegat.kgstore import MAGIC, load_binary, load_graph, save_binary
from kegat.trainkit import ParamStore, save_checkpoint

from conftest import SUGAR_KB_ROWS, write_kb


@pytest.fixture
def runner():
    return CliRunner()


def _lines(result):
    return [json.loads(line) for line in result.output.strip().splitlines()]


def test_kb_ingest_writes_binary_and_stats(runner, tmp_path):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    out = tmp_path / "kb.bin"
    result = runner.invoke(main, ["kb", "ingest", "--input", str(kb),
                                  "--output", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["stats"]["loaded"] == 5
    assert "/r/ExternalURL" in payload["blocklist"]
    graph = load_binary(out)
    assert len(graph.edges) == 5


def test_kb_ingest_custom_blocklist(runner, tmp_path):
    kb = write_kb(tmp_path / "kb.tsv", SUGAR_KB_ROWS)
    block = tmp_path / "block.txt"
    block.write_text("/r/AtLocation\n", encoding="utf-8")
    out = tmp_path / "kb.bin"
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
    out = tmp_path / "kb.bin"
    result = runner.invoke(main, ["kb", "ingest", "--input", str(kb),
                                  "--output", str(out)])
    assert result.exit_code == 2
    assert "data error" in result.output


def test_usage_error_exits_1(runner):
    result = runner.invoke(main, ["kb", "ingest"])   # missing required options
    assert result.exit_code == 1


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
    out = tmp_path / "kb.bin"
    runner.invoke(main, ["kb", "ingest", "--input", str(kb),
                         "--output", str(out)])
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


TINY_TRAIN_CFG = {"dim": 16, "n_layers": 1, "n_heads": 2, "ffn_mult": 2,
                  "max_len": 48, "max_positions": 64, "gat_layers": 1,
                  "gat_heads": 1, "sample_k": 2, "node_dim": 8,
                  "fuse_hidden": 8, "fuse_dim": 8, "gate_hidden": 4,
                  "head_hidden": 4, "per_entity_limit": 1, "dropout": 0.0,
                  "seed": 1, "epochs_phase1": 1, "epochs_phase2": 1,
                  "lr_phase1": 0.001, "lr_phase2": 0.00001}


@pytest.fixture
def trained(runner, tmp_path):
    """A tiny benchmark plus one trained checkpoint."""
    bench = tmp_path / "bench"
    runner.invoke(main, ["synth", "--seed", "3", "--out-dir", str(bench),
                         "--sizes", "8,4,4", "--n-concepts", "60",
                         "--n-edges", "120"], catch_exceptions=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_TRAIN_CFG), encoding="utf-8")
    ckpt = tmp_path / "run" / "model.ckpt"     # train creates run/
    result = runner.invoke(main, [
        "train", "--subtask", "a", "--config", str(cfg),
        "--kb", str(bench / "kb.tsv"), "--vectors", str(bench / "concepts.vec"),
        "--train-data", str(bench / "train.jsonl"),
        "--dev-data", str(bench / "dev.jsonl"), "--output", str(ckpt)],
        catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return bench, ckpt, result


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


def test_ensemble_on_empty_file_matches_eval(runner, trained, tmp_path):
    _, ckpt, _ = trained
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    data = ["--data", str(empty), "--subtask", "a"]
    ev = runner.invoke(main, ["eval", "--checkpoint", str(ckpt)] + data)
    assert ev.exit_code == 0 and json.loads(ev.output) == {"accuracy": 0.0,
                                                           "count": 0}
    result = runner.invoke(main, ["ensemble", "--checkpoints",
                                  f"{ckpt},{ckpt}"] + data)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {"accuracy": 0.0, "models": 2}


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


def _bad_dtype_tag(tmp_path, request):
    def corrupt(raw):
        name_len = int.from_bytes(raw[5:7], "little")   # first record's name
        raw[7 + name_len] = 99
        return raw
    return _eval_corrupted(request, corrupt), "dtype tag 99"


def _kb_as_checkpoint(tmp_path, request):
    bench, ckpt, _ = request.getfixturevalue("trained")
    save_binary(load_graph(bench / "kb.tsv"), ckpt)
    return (["eval", "--checkpoint", str(ckpt), "--data",
             str(bench / "dev.jsonl"), "--subtask", "a"],
            "bad checkpoint magic")


def _record_name_not_utf8(tmp_path, request):
    def corrupt(raw):
        raw[7] = 0xFF   # first byte of the first record's name
        return raw
    return _eval_corrupted(request, corrupt), "not UTF-8"


def _dimension_too_large(tmp_path, request):
    def corrupt(raw):
        name_len = int.from_bytes(raw[5:7], "little")
        dim = 7 + name_len + 2   # first record's first dimension
        raw[dim:dim + 8] = b"\xff" * 8
        return raw
    return _eval_corrupted(request, corrupt), "truncated"


def _model_record_not_json(tmp_path, request):
    def corrupt(raw):
        raw[raw.index(b'{"config"')] = ord("!")
        return raw
    return _eval_corrupted(request, corrupt), "'meta/model'"


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
             "--output", str(tmp_path / "kb.bin")],
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
    return args, f"{config}: schedule needs batch_size >= 1"


def _config_epochs_not_integer(tmp_path, request):
    args, config = _train_config(tmp_path, '{"epochs_phase1": "x"}')
    return args, f"{config}: epochs must be int, got 'x'"


def _config_lr_negative(tmp_path, request):
    args, config = _train_config(tmp_path, '{"lr_phase1": -1}')
    return args, f"{config}: phase needs lr > 0"


def _config_dim_not_integer(tmp_path, request):
    args, config = _train_config(tmp_path, '{"dim": "x"}')
    return args, f"{config}: dim must be int, got 'x'"


def _config_schedule_key_misspelled(tmp_path, request):
    args, config = _train_config(tmp_path, '{"batch-size": 0}')
    return args, f"{config}: unknown key 'batch-size'"


def _config_model_key_misspelled(tmp_path, request):
    args, config = _train_config(tmp_path, '{"dim": 16, "n_layer": 1}')
    return args, f"{config}: unknown key 'n_layer'"


def _config_flag_not_bool(tmp_path, request):
    args, config = _train_config(tmp_path, '{"no_kemb": "false"}')
    return args, f"{config}: no_kemb must be bool, got 'false'"


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
             "--output", str(tmp_path / "kb.bin")], str(block))


def _binary_kb_weight(tmp_path, weight):
    args, _ = _link_line(tmp_path, json.dumps({"text": "sugar"}))
    payload = {"edges": [["sugar", "/r/IsA", "food", weight]], "blocklist": [],
               "stats": {"loaded": 1, "skipped_blocklist": 0,
                         "skipped_comments": 0}}
    kb = tmp_path / "kb.bin"
    kb.write_bytes(MAGIC + b"\x01" + json.dumps(payload).encode("utf-8"))
    args[args.index("--kb") + 1] = str(kb)
    return args, f"{kb}: edge 0"


def _binary_kb_nan_weight(tmp_path, request):
    return _binary_kb_weight(tmp_path, float("nan"))


def _binary_kb_zero_weight(tmp_path, request):
    return _binary_kb_weight(tmp_path, 0.0)


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


@pytest.mark.parametrize("make, code, prefix", [
    (_link_no_text, 2, "data error: "),
    (_link_not_json, 2, "data error: "),
    (_checkpoint_as_kb, 2, "data error: "),
    (_truncated_checkpoint, 3, "numeric failure: "),
    (_bad_dtype_tag, 3, "numeric failure: "),
    (_nan_weight, 2, "data error: "),
    (_inf_weight, 2, "data error: "),
    (_binary_kb, 2, "data error: "),
    (_template_not_string, 2, "data error: "),
    (_templates_not_json, 2, "data error: "),
    (_kb_as_checkpoint, 3, "numeric failure: "),
    (_record_name_not_utf8, 3, "numeric failure: "),
    (_dimension_too_large, 3, "numeric failure: "),
    (_model_record_not_json, 3, "numeric failure: "),
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
    (_binary_kb_nan_weight, 2, "data error: "),
    (_binary_kb_zero_weight, 2, "data error: "),
    (_vectors_edited, 2, "data error: "),
    (_model_record_without_vectors_sha256, 3, "numeric failure: "),
    (_config_not_json, 2, "data error: "),
    (_config_not_object, 2, "data error: "),
    (_config_batch_size_zero, 2, "data error: "),
    (_config_epochs_not_integer, 2, "data error: "),
    (_config_lr_negative, 2, "data error: "),
    (_config_dim_not_integer, 2, "data error: "),
    (_config_flag_not_bool, 2, "data error: "),
    (_config_schedule_key_misspelled, 2, "data error: "),
    (_config_model_key_misspelled, 2, "data error: "),
    (_train_data_empty, 2, "data error: "),
    (_dev_data_empty, 2, "data error: "),
], ids=["link-no-text", "link-not-json", "checkpoint-as-kb",
        "truncated-checkpoint", "bad-dtype-tag", "nan-weight", "inf-weight",
        "binary-kb", "template-not-string", "templates-not-json",
        "kb-as-checkpoint", "record-name-not-utf8", "dimension-too-large",
        "model-record-not-json", "kb-edited", "kb-deleted", "comve-not-utf8",
        "comve-not-object", "comve-label-not-integer",
        "comve-statement-not-string", "link-not-utf8", "vectors-not-utf8",
        "vectors-nan", "blocklist-not-utf8", "binary-kb-nan-weight",
        "binary-kb-zero-weight", "vectors-edited",
        "model-record-without-vectors-sha256", "config-not-json",
        "config-not-object", "config-batch-size-zero",
        "config-epochs-not-integer", "config-lr-negative",
        "config-dim-not-integer", "config-flag-not-bool",
        "config-schedule-key-misspelled", "config-model-key-misspelled",
        "train-data-empty",
        "dev-data-empty"])
def test_malformed_input_exits_with_message(runner, tmp_path, request, make,
                                            code, prefix):
    args, fragment = make(tmp_path, request)
    result = runner.invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == code
    (line,) = result.output.strip().splitlines()
    assert line.startswith(prefix) and fragment in line
