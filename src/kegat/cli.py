"""Command-line harness tying the pipeline together.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import click

from . import gat as gatmod
from . import harness, kemb, kgstore, trainkit
from .errors import DataFormatError, NumericError
from .head import ensemble_average
from .linker import extract_entities, tokenize
from .model import KegatModel, ModelConfig
from .vocab import Vocab

click.UsageError.exit_code = 1


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DataFormatError as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(2)
        except NumericError as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(3)
    return wrapper


def _load_kb(path) -> kgstore.KnowledgeGraph:
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == kgstore.MAGIC:
        return kgstore.load_binary(path)
    return kgstore.load_graph(path)


@click.group()
def main():
    """Knowledge-enhanced graph attention pipeline."""


# -- kb ----------------------------------------------------------------------

@main.group()
def kb():
    """Knowledge-base utilities."""


@kb.command("ingest")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--blocklist", "blocklist_path", type=click.Path(exists=True))
@click.option("--output", "output_path", required=True, type=click.Path())
@_handle_errors
def kb_ingest(input_path, blocklist_path, output_path):
    """Load a TSV edge list, apply the relation blocklist, write binary."""
    blocklist = set(kgstore.DEFAULT_BLOCKLIST)
    if blocklist_path:
        blocklist.update(line.strip() for line in
                         kgstore.text_lines(blocklist_path) if line.strip())
    graph = kgstore.load_graph(input_path, frozenset(blocklist))
    kgstore.save_binary(graph, output_path)
    click.echo(json.dumps({"stats": graph.stats.as_dict(),
                           "blocklist": sorted(blocklist)}))


# -- link --------------------------------------------------------------------

@main.command()
@click.option("--kb", "kb_path", required=True, type=click.Path(exists=True))
@click.option("--input", "input_path", required=True, type=click.Path(exists=True),
              help="JSONL with an 'id' and 'text' field per line.")
@click.option("--max-ngram", default=4, show_default=True)
@_handle_errors
def link(kb_path, input_path, max_ngram):
    """Emit entity spans found in each input line."""
    graph = _load_kb(kb_path)
    for lineno, line in enumerate(kgstore.text_lines(input_path), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataFormatError(
                f"{input_path}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(rec, dict) or not isinstance(rec.get("text"), str):
            raise DataFormatError(
                f"{input_path}:{lineno}: expected an object with a "
                f"string 'text' field")
        tokens = tokenize(rec["text"])
        spans = extract_entities(tokens, graph, max_ngram)
        click.echo(json.dumps({
            "id": rec.get("id", lineno), "tokens": tokens,
            "spans": [{"start": s.start, "end": s.end, "concept": s.concept}
                      for s in spans]}))


# -- preprocess --------------------------------------------------------------

@main.group()
def preprocess():
    """Input preprocessing."""


@preprocess.command("inject")
@click.option("--kb", "kb_path", required=True, type=click.Path(exists=True))
@click.option("--templates", "templates_path", type=click.Path(exists=True))
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--subtask", type=click.Choice(["a", "b"]), default="a", show_default=True)
@click.option("--max-len", default=128, show_default=True)
@click.option("--per-entity-limit", default=2, show_default=True)
@click.option("--max-ngram", default=4, show_default=True)
@_handle_errors
def preprocess_inject(kb_path, templates_path, input_path, subtask, max_len,
                      per_entity_limit, max_ngram):
    """Show knowledge-injected sequences for inspection."""
    graph = _load_kb(kb_path)
    templates = (kemb.load_templates(templates_path) if templates_path
                 else kemb.default_templates())
    instances = harness.load_comve(input_path, subtask)
    vocab = harness.build_vocab(graph, templates, instances)
    for inst in instances:
        for idx, tokens in enumerate(harness.convert(inst)):
            spans = extract_entities(tokens, graph, max_ngram)
            tree = kemb.build_tree(tokens, spans, graph, per_entity_limit, templates)
            seq = kemb.flatten(tree, vocab, max_len)
            click.echo(json.dumps({
                "id": inst.id, "option": idx,
                "tokens": [vocab.token(t) for t in seq.tokens],
                "soft_pos": list(seq.soft_pos),
                "trunk_mask": [int(b) for b in seq.trunk_mask],
                "branches": len(tree.branches)}))


# -- augment / synth ---------------------------------------------------------

@main.command()
@click.option("--kb", "kb_path", required=True, type=click.Path(exists=True))
@click.option("--templates", "templates_path", type=click.Path(exists=True))
@click.option("--count", default=100, show_default=True)
@click.option("--subtask", type=click.Choice(["a", "b"]), default="a", show_default=True)
@click.option("--corrupt-policy", default="uniform-nonneighbor", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--output", "output_path", required=True, type=click.Path())
@_handle_errors
def augment(kb_path, templates_path, count, subtask, corrupt_policy, seed,
            output_path):
    """Generate template-realized instances from the KB."""
    graph = _load_kb(kb_path)
    templates = (kemb.load_templates(templates_path) if templates_path
                 else kemb.default_templates())
    instances = harness.generate_augmented(graph, templates, count,
                                           corrupt_policy, seed, subtask)
    harness.save_comve(instances, output_path)
    click.echo(f"wrote {len(instances)} instances to {output_path}")


@main.command()
@click.option("--seed", default=7, show_default=True)
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--sizes", default="400,120,120", show_default=True)
@click.option("--n-concepts", default=500, show_default=True)
@click.option("--n-edges", default=1000, show_default=True)
@click.option("--subtask", type=click.Choice(["a", "b"]), default="a", show_default=True)
@_handle_errors
def synth(seed, out_dir, sizes, n_concepts, n_edges, subtask):
    """Generate the synthetic toy benchmark."""
    parts = tuple(int(x) for x in sizes.split(","))
    if len(parts) != 3:
        raise click.UsageError("--sizes needs three comma-separated integers")
    bench = harness.synth_benchmark(seed, out_dir, sizes=parts,
                                    n_concepts=n_concepts, n_edges=n_edges,
                                    subtask=subtask)
    click.echo(json.dumps({k: str(v) for k, v in bench.paths.items()}))


# -- train / eval / predict / ensemble ---------------------------------------

def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _concept_table(config: ModelConfig, vectors_path) -> dict:
    if vectors_path and config.use_kegat:
        return gatmod.load_concept_table(vectors_path, config.node_dim, seed=0)
    return {}


def _read_config(path) -> dict:
    """The JSON object in training config file `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (ValueError, RecursionError) as exc:   # ValueError: JSON or UTF-8
        raise DataFormatError(f"{path}: not a JSON file ({exc})") from None
    if not isinstance(cfg, dict):
        raise DataFormatError(f"{path}: config must be a JSON object")
    return cfg


@main.command()
@click.option("--subtask", type=click.Choice(["a", "b"]), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--kb", "kb_path", required=True, type=click.Path(exists=True))
@click.option("--vectors", "vectors_path", type=click.Path(exists=True))
@click.option("--templates", "templates_path", type=click.Path(exists=True))
@click.option("--train-data", required=True, type=click.Path(exists=True))
@click.option("--dev-data", required=True, type=click.Path(exists=True))
@click.option("--output", "output_path", required=True, type=click.Path(),
              help="Checkpoint path; the training log is written alongside.")
@click.option("--no-kemb", is_flag=True, help="Disable knowledge injection.")
@click.option("--no-kegat", is_flag=True, help="Disable graph reasoning.")
@click.option("--no-lm-loss", is_flag=True, help="Disable the reconstruction loss.")
@_handle_errors
def train(subtask, config_path, kb_path, vectors_path, templates_path,
          train_data, dev_data, output_path, no_kemb, no_kegat, no_lm_loss):
    """Two-phase training with dev-accuracy model selection."""
    cfg = _read_config(config_path) if config_path else {}
    flag_keys = ("no_kemb", "no_kegat", "no_lm_loss")
    fields = ({f.name for f in dataclasses.fields(ModelConfig)}
              - {"use_kemb", "use_kegat", "use_lm"})
    unknown = sorted(cfg.keys() - fields - set(flag_keys)
                     - trainkit.Schedule.CONFIG_KEYS)
    if unknown:
        raise DataFormatError(f"{config_path}: unknown key {unknown[0]!r}")
    try:
        for key in flag_keys:
            trainkit.check_type(key, cfg.get(key, False), bool)
        flags = {"use_kemb": not (no_kemb or cfg.get("no_kemb", False)),
                 "use_kegat": not (no_kegat or cfg.get("no_kegat", False)),
                 "use_lm": not (no_lm_loss or cfg.get("no_lm_loss", False))}
        config = ModelConfig(**{k: cfg[k] for k in fields & cfg.keys()}, **flags)
        schedule = trainkit.Schedule.from_config(cfg)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{config_path}: {exc}") from None
    train_set = harness.load_comve(train_data, subtask)
    dev_set = harness.load_comve(dev_data, subtask)
    for path, split in ((train_data, train_set), (dev_data, dev_set)):
        if not split:
            raise DataFormatError(f"{path}: no instances")
    out = Path(output_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    graph = _load_kb(kb_path)
    templates = (kemb.load_templates(templates_path) if templates_path
                 else kemb.default_templates())
    vocab = harness.build_vocab(graph, templates, train_set + dev_set)
    model = KegatModel(config, vocab, graph,
                       _concept_table(config, vectors_path), templates)
    result = trainkit.two_phase_train(model, train_set, dev_set, schedule,
                                      cfg.get("seed", 0))
    # everything eval needs to rebuild this model, beside its parameters
    model_meta = {
        "config": config.as_dict(), "vocab": vocab.tokens,
        "templates": {rel: " ".join(t.pattern) for rel, t in templates.items()},
        "kb": str(Path(kb_path).resolve()), "kb_sha256": kgstore.fingerprint(graph),
        "vectors": str(Path(vectors_path).resolve()) if vectors_path else None,
        "vectors_sha256": _file_sha256(vectors_path) if vectors_path else None}
    trainkit.save_checkpoint(out, model.store, best_metric=result.best_metric,
                             model_meta=model_meta)
    with open(out.with_suffix(".log.jsonl"), "w", encoding="utf-8") as fh:
        for entry in result.log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    click.echo(json.dumps({"best_dev_accuracy": result.best_metric,
                           "aborted": result.aborted,
                           "checkpoint": str(out)}))
    if result.aborted:
        sys.exit(3)


def _load_model(checkpoint_path) -> KegatModel:
    """Rebuild a trained model from its checkpoint, reading the KB and vectors
    at the absolute paths recorded when it was trained."""
    meta = trainkit.read_model_meta(checkpoint_path)
    try:
        config = ModelConfig(**meta["config"])
        vocab = Vocab(meta["vocab"])
        templates = {rel: kemb.Template(rel, tuple(pattern.split()))
                     for rel, pattern in meta["templates"].items()}
        kb_path, kb_sha256, vectors = meta["kb"], meta["kb_sha256"], meta["vectors"]
        vectors_sha256 = meta["vectors_sha256"]
    except (KeyError, TypeError, ValueError, AttributeError, DataFormatError) as exc:
        raise NumericError(f"{checkpoint_path}: malformed model description "
                           f"({type(exc).__name__}: {exc})") from None
    try:
        graph = _load_kb(kb_path)
        if (vectors and config.use_kegat
                and _file_sha256(vectors) != vectors_sha256):
            raise DataFormatError(
                f"{vectors}: vectors file changed since the model was trained")
        table = _concept_table(config, vectors)
    except FileNotFoundError as exc:
        raise DataFormatError(
            f"{exc.filename}: missing; the model was trained with it") from None
    if kgstore.fingerprint(graph) != kb_sha256:
        raise DataFormatError(
            f"{kb_path}: knowledge base changed since the model was trained")
    model = KegatModel(config, vocab, graph, table, templates)
    trainkit.load_checkpoint(checkpoint_path, model.store)
    return model


@main.command("eval")
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--subtask", type=click.Choice(["a", "b"]), required=True)
@_handle_errors
def eval_cmd(checkpoint, data_path, subtask):
    """Accuracy of a trained checkpoint on a dataset."""
    instances = harness.load_comve(data_path, subtask)
    model = _load_model(checkpoint)
    metrics = harness.evaluate(model, instances)
    click.echo(json.dumps({"accuracy": metrics.accuracy,
                           "count": len(instances)}))


@main.command()
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--subtask", type=click.Choice(["a", "b"]), required=True)
@click.option("--output", "output_path", type=click.Path())
@_handle_errors
def predict(checkpoint, data_path, subtask, output_path):
    """Per-instance probabilities and predictions."""
    instances = harness.load_comve(data_path, subtask)
    model = _load_model(checkpoint)
    metrics = harness.evaluate(model, instances)
    lines = [json.dumps(p, sort_keys=True) for p in metrics.predictions]
    if output_path:
        Path(output_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        for line in lines:
            click.echo(line)


@main.command()
@click.option("--checkpoints", required=True,
              help="Comma-separated checkpoint paths.")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--subtask", type=click.Choice(["a", "b"]), required=True)
@_handle_errors
def ensemble(checkpoints, data_path, subtask):
    """Probability-averaged ensemble accuracy."""
    instances = harness.load_comve(data_path, subtask)
    models = [_load_model(p.strip())
              for p in checkpoints.split(",") if p.strip()]
    if not models:
        raise click.UsageError("--checkpoints must name at least one checkpoint")
    averaged = SimpleNamespace(predict_probs=lambda inst: ensemble_average(
        [m.predict_probs(inst) for m in models]))
    metrics = harness.evaluate(averaged, instances)
    click.echo(json.dumps({"accuracy": metrics.accuracy,
                           "models": len(models)}))


if __name__ == "__main__":
    main()
