"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from kegat import kemb  # noqa: E402
from kegat.vocab import Vocab  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_named_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_code_and_spec_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        workloads.PER_LAYER


def _installed_originals():
    t = spans.Tracer()
    workloads.install_spans(t)
    originals = [(owner, attr, orig) for owner, attr, orig in t._patches]
    t.restore()
    return originals


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_restores_wrappers_and_self_times_are_nonnegative(
        workload, tmp_path):
    originals = _installed_originals()
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in originals)
    result, report = workloads.run(workload, 5, 0.5, True, tmp_path / "work",
                                   scale="tiny", spans_dir=tmp_path / "spans")
    assert result["correct"], report["checks"]
    for owner, attr, orig in originals:
        assert owner.__dict__[attr] is orig, f"{owner.__name__}.{attr}"
    for path in sorted((tmp_path / "spans").glob("*.jsonl")):
        t = spans.Tracer()
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            t.spans.append(spans.Span(rec["name"], rec["start"], rec["end"],
                                      rec["parent"], rec["op"]))
        assert t.spans, path.name
        assert min(t.self_times()) >= 0.0, path.name


def test_self_time_excludes_children():
    t = spans.Tracer()
    outer = t.wrap("outer", lambda: inner() or sum(range(20000)))
    inner = t.wrap("inner", lambda: sum(range(50000)))
    outer()
    names = [s.name for s in t.spans]
    assert names == ["outer", "inner"] and t.spans[1].parent == 0
    selfs = t.self_times()
    whole = t.spans[0].end - t.spans[0].start
    assert selfs[0] == pytest.approx(whole - (t.spans[1].end - t.spans[1].start))
    assert 0.0 <= selfs[0] < whole


def test_kept_branches_counts_branches_that_survive_truncation():
    tokens = ["[CLS]", "sugar", "in", "coffee", "[SEP]"]
    branches = (kemb.Branch(1, ("sugar", "is", "sweet"), 3.0),
                kemb.Branch(1, ("sugar", "is", "food"), 1.0),
                kemb.Branch(3, ("coffee", "is", "a", "drink"), 2.0))
    tree = kemb.InjectedTree(trunk=tuple(tokens), branches=branches)
    vocab = Vocab.build(tok for b in branches for tok in b.tokens)
    assert workloads.kept_branches(kemb.flatten(tree, vocab, 64)) == 3
    # 15 tokens; 12 leaves room for the two heaviest branches only
    assert workloads.kept_branches(kemb.flatten(tree, vocab, 12)) == 2


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "train-a-full", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
