"""Command-line harness tying the pipeline together.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
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

_DEFAULTS = ModelConfig()   # the option defaults `link` and `inject` share
_IN_FILE = click.Path(exists=True, dir_okay=False)
_OUT_FILE = click.Path(dir_okay=False)


class _ExitCodes(click.Group):
    """Every command under it exits 2 on a DataFormatError, 3 on a NumericError."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DataFormatError as exc:
            click.echo(f"data error: {exc}", err=True)
            ctx.exit(2)
        except NumericError as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            ctx.exit(3)


def _check_options(**values) -> None:
    """Reject, as a usage error, option values that `ModelConfig` rejects."""
    try:
        ModelConfig(**values)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(str(exc)) from None


@click.group(cls=_ExitCodes)
def main():
    """Knowledge-enhanced graph attention pipeline."""


# -- kb ----------------------------------------------------------------------

@main.group()
def kb():
    """Knowledge-base utilities."""


@kb.command("ingest")
@click.option("--input", "input_path", required=True, type=_IN_FILE)
@click.option("--blocklist", "blocklist_path", type=_IN_FILE)
@click.option("--output", "output_path", required=True, type=_OUT_FILE)
def kb_ingest(input_path, blocklist_path, output_path):
    """Load a TSV edge list, apply the relation blocklist, write it as TSV."""
    kgstore.make_parent(output_path)
    blocklist = set(kgstore.DEFAULT_BLOCKLIST)
    if blocklist_path:
        blocklist.update(line.strip() for line in
                         kgstore.text_lines(blocklist_path) if line.strip())
    graph = kgstore.load_graph(input_path, frozenset(blocklist))
    kgstore.save_graph(graph, output_path)
    click.echo(json.dumps({"stats": graph.stats.as_dict(),
                           "blocklist": sorted(blocklist)}))


# -- link --------------------------------------------------------------------

@main.command()
@click.option("--kb", "kb_path", required=True, type=_IN_FILE)
@click.option("--input", "input_path", required=True, type=_IN_FILE,
              help="JSONL with an 'id' and 'text' field per line.")
@click.option("--max-ngram", default=_DEFAULTS.max_ngram, show_default=True)
def link(kb_path, input_path, max_ngram):
    """Emit entity spans found in each input line."""
    _check_options(max_ngram=max_ngram)
    graph = kgstore.load_graph(kb_path)
    for lineno, rec in kgstore.jsonl_records(input_path):
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
@click.option("--kb", "kb_path", required=True, type=_IN_FILE)
@click.option("--templates", "templates_path", type=_IN_FILE)
@click.option("--input", "input_path", required=True, type=_IN_FILE)
@click.option("--subtask", type=click.Choice(["a", "b"]), default="a", show_default=True)
@click.option("--max-len", default=_DEFAULTS.max_len, show_default=True)
@click.option("--per-entity-limit", default=_DEFAULTS.per_entity_limit,
              show_default=True)
@click.option("--max-ngram", default=_DEFAULTS.max_ngram, show_default=True)
def preprocess_inject(kb_path, templates_path, input_path, subtask, max_len,
                      per_entity_limit, max_ngram):
    """Show knowledge-injected sequences for inspection."""
    _check_options(max_len=max_len, per_entity_limit=per_entity_limit,
                   max_ngram=max_ngram)
    graph = kgstore.load_graph(kb_path)
    templates = kemb.load_templates(templates_path)
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
@click.option("--kb", "kb_path", required=True, type=_IN_FILE)
@click.option("--templates", "templates_path", type=_IN_FILE)
@click.option("--count", default=100, show_default=True,
              type=click.IntRange(min=0))
@click.option("--subtask", type=click.Choice(["a", "b"]), default="a", show_default=True)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--output", "output_path", required=True, type=_OUT_FILE)
def augment(kb_path, templates_path, count, subtask, seed, output_path):
    """Generate template-realized instances from the KB."""
    kgstore.make_parent(output_path)
    graph = kgstore.load_graph(kb_path)
    templates = kemb.load_templates(templates_path)
    instances = harness.generate_augmented(graph, templates, count, seed,
                                           subtask)
    with kgstore.atomic_write(output_path) as fh:
        fh.write(harness.comve_jsonl(instances).encode("utf-8"))
    click.echo(f"wrote {len(instances)} instances to {output_path}")


@main.command()
@click.option("--seed", default=7, show_default=True)
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--sizes", default="400,120,120", show_default=True)
@click.option("--n-concepts", default=500, show_default=True)
@click.option("--n-edges", default=1000, show_default=True)
@click.option("--subtask", type=click.Choice(["a", "b"]), default="a", show_default=True)
def synth(seed, out_dir, sizes, n_concepts, n_edges, subtask):
    """Generate the synthetic toy benchmark."""
    # synth reads no file, so a graph it cannot draw from is a bad option value
    try:
        bench = harness.synth_benchmark(
            seed, out_dir, sizes=tuple(int(x) for x in sizes.split(",")),
            n_concepts=n_concepts, n_edges=n_edges, subtask=subtask)
    except (ValueError, DataFormatError) as exc:
        raise click.UsageError(str(exc)) from None
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


def _load_split(path, subtask: str) -> list:
    """The instances in dataset `path`; a file with none is a data error."""
    instances = harness.load_comve(path, subtask)
    if not instances:
        raise DataFormatError(f"{path}: no instances")
    return instances


@main.command()
@click.option("--subtask", type=click.Choice(["a", "b"]), required=True)
@click.option("--config", "config_path", type=_IN_FILE)
@click.option("--kb", "kb_path", required=True, type=_IN_FILE)
@click.option("--vectors", "vectors_path", type=_IN_FILE)
@click.option("--templates", "templates_path", type=_IN_FILE)
@click.option("--train-data", required=True, type=_IN_FILE)
@click.option("--dev-data", required=True, type=_IN_FILE)
@click.option("--output", "output_path", required=True, type=_OUT_FILE,
              help="Checkpoint path; the training log is written alongside.")
@click.option("--no-kemb", is_flag=True, help="Disable knowledge injection.")
@click.option("--no-kegat", is_flag=True, help="Disable graph reasoning.")
@click.option("--no-lm-loss", is_flag=True, help="Disable the reconstruction loss.")
def train(subtask, config_path, kb_path, vectors_path, templates_path,
          train_data, dev_data, output_path, no_kemb, no_kegat, no_lm_loss):
    """Two-phase training with dev-accuracy model selection."""
    kgstore.make_parent(output_path)
    cfg = kgstore.json_object(config_path, "config") if config_path else {}
    model_keys = {f.name for f in dataclasses.fields(ModelConfig)
                  if not f.name.startswith("use_")}
    unknown = sorted(cfg.keys() - model_keys - {
        f.name for f in dataclasses.fields(trainkit.Schedule)})
    if unknown:
        raise DataFormatError(f"{config_path}: unknown key {unknown[0]!r}")
    try:
        config = ModelConfig(**{k: cfg[k] for k in model_keys & cfg.keys()},
                             use_kemb=not no_kemb, use_kegat=not no_kegat,
                             use_lm=not no_lm_loss)
        schedule = trainkit.Schedule.from_config(cfg)
    # OverflowError: an integer too large for a float, such as a 400-digit lr
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{config_path}: {exc}") from None
    train_set = _load_split(train_data, subtask)
    dev_set = _load_split(dev_data, subtask)
    out = Path(output_path)
    graph = kgstore.load_graph(kb_path)
    templates = kemb.load_templates(templates_path)
    vocab = harness.build_vocab(graph, templates, train_set + dev_set)
    # sizes have no upper bound in the config: numpy rejects a shape beyond
    # its dimension limit, or an array too large for memory, and a size too
    # large for a float overflows a matrix's init scale
    try:
        model = KegatModel(config, vocab, graph,
                           _concept_table(config, vectors_path), templates)
    except (ValueError, MemoryError, OverflowError) as exc:
        raise DataFormatError(
            f"{config_path}: cannot build the model ({exc})") from None
    result = trainkit.two_phase_train(model, train_set, dev_set, schedule,
                                      config.seed)
    # everything eval needs to rebuild this model, beside its parameters
    model_meta = {
        "config": config.as_dict(), "subtask": subtask, "vocab": vocab.tokens,
        "templates": {rel: " ".join(t) for rel, t in templates.items()},
        "kb": str(Path(kb_path).resolve()), "kb_sha256": kgstore.fingerprint(graph),
        "vectors": str(Path(vectors_path).resolve()) if vectors_path else None,
        "vectors_sha256": _file_sha256(vectors_path) if vectors_path else None}
    trainkit.save_checkpoint(out, model.store, best_metric=result.best_metric,
                             model_meta=model_meta)
    with kgstore.atomic_write(out.with_suffix(".log.jsonl")) as fh:
        fh.write("".join(json.dumps(entry, sort_keys=True) + "\n"
                         for entry in result.log).encode("utf-8"))
    click.echo(json.dumps({"best_dev_accuracy": result.best_metric,
                           "aborted": result.aborted,
                           "checkpoint": str(out)}))
    if result.aborted:
        raise NumericError(f"{out}: training diverged; saved its best state")


def _load_model(checkpoint_path, subtask: str) -> KegatModel:
    """Rebuild a model trained for `subtask` from its checkpoint, reading the
    KB and vectors at the absolute paths recorded when it was trained."""
    meta, listed = trainkit.read_model_header(checkpoint_path)
    try:
        config = ModelConfig(**meta["config"])
        trained_for = meta["subtask"]
        if trained_for not in harness.SUBTASKS:
            raise ValueError(f"unknown subtask {trained_for!r}")
        vocab = Vocab(meta["vocab"])
        templates = kemb.parse_templates(meta["templates"], "'templates'")
        kb_path, kb_sha256, vectors = meta["kb"], meta["kb_sha256"], meta["vectors"]
        vectors_sha256 = meta["vectors_sha256"]
        # a path that is not a string could name a file descriptor, stdin
        # too; one with a NUL byte names no file
        for key in ("kb", "kb_sha256"):
            if not isinstance(meta[key], str):
                raise TypeError(f"{key!r} is {meta[key]!r}, not a string")
        if not (isinstance(vectors, str) and isinstance(vectors_sha256, str)
                or vectors is None and vectors_sha256 is None):
            raise TypeError(f"'vectors' {vectors!r} and 'vectors_sha256' "
                            f"{vectors_sha256!r} are not two strings or two "
                            f"nulls")
        for key, path in (("kb", kb_path), ("vectors", vectors)):
            if path is not None and "\0" in path:
                raise ValueError(f"{key!r} {path!r} holds a NUL byte")
        # each layer the build makes lists a parameter, so a layer count
        # above the header's list fails the load: reject it before a build
        # that takes time and memory per layer
        n_listed = len(listed) if isinstance(listed, list) else 0
        for key in (("n_layers", "gat_layers") if config.use_kegat
                    else ("n_layers",)):
            if getattr(config, key) > n_listed:
                raise ValueError(f"{key} {getattr(config, key)} exceeds the "
                                 f"{n_listed} parameters the checkpoint lists")
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError,
            DataFormatError) as exc:
        raise NumericError(f"{checkpoint_path}: malformed model description "
                           f"({type(exc).__name__}: {exc})") from None
    if trained_for != subtask:
        raise DataFormatError(f"{checkpoint_path}: the model was trained for "
                              f"subtask {trained_for!r}, not {subtask!r}")
    try:
        graph = kgstore.load_graph(kb_path)
        if (vectors and config.use_kegat
                and _file_sha256(vectors) != vectors_sha256):
            raise DataFormatError(
                f"{vectors}: vectors file changed since the model was trained")
    except (FileNotFoundError, IsADirectoryError) as exc:
        raise DataFormatError(
            f"{exc.filename}: missing; the model was trained with it") from None
    if kgstore.fingerprint(graph) != kb_sha256:
        raise DataFormatError(
            f"{kb_path}: knowledge base changed since the model was trained")
    try:   # sizes numpy cannot build, which `train` rejects too
        model = KegatModel(config, vocab, graph,
                           _concept_table(config, vectors), templates)
    except (ValueError, MemoryError, OverflowError) as exc:
        raise NumericError(f"{checkpoint_path}: malformed model description "
                           f"(cannot build the model: {exc})") from None
    trainkit.load_checkpoint(checkpoint_path, model.store)
    return model


@main.command("eval")
@click.option("--checkpoint", required=True, type=_IN_FILE)
@click.option("--data", "data_path", required=True, type=_IN_FILE)
@click.option("--subtask", type=click.Choice(["a", "b"]), required=True)
def eval_cmd(checkpoint, data_path, subtask):
    """Accuracy of a trained checkpoint on a dataset."""
    instances = _load_split(data_path, subtask)
    model = _load_model(checkpoint, subtask)
    metrics = harness.evaluate(model, instances)
    click.echo(json.dumps({"accuracy": metrics.accuracy,
                           "count": len(instances)}))


@main.command()
@click.option("--checkpoint", required=True, type=_IN_FILE)
@click.option("--data", "data_path", required=True, type=_IN_FILE)
@click.option("--subtask", type=click.Choice(["a", "b"]), required=True)
@click.option("--output", "output_path", type=_OUT_FILE)
def predict(checkpoint, data_path, subtask, output_path):
    """Per-instance probabilities and predictions."""
    if output_path:
        kgstore.make_parent(output_path)
    instances = _load_split(data_path, subtask)
    model = _load_model(checkpoint, subtask)
    metrics = harness.evaluate(model, instances)
    lines = [json.dumps(p, sort_keys=True) for p in metrics.predictions]
    if output_path:
        with kgstore.atomic_write(output_path) as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))
    else:
        click.echo("\n".join(lines))


def _checkpoint_paths(ctx, param, value) -> list:
    """The comma-separated checkpoint paths, each checked as `--checkpoint`
    is; naming none is a usage error, raised before any file is read."""
    paths = [_IN_FILE.convert(p.strip(), param, ctx)
             for p in value.split(",") if p.strip()]
    if not paths:
        raise click.BadParameter("must name at least one checkpoint",
                                 ctx, param)
    return paths


@main.command()
@click.option("--checkpoints", required=True, callback=_checkpoint_paths,
              help="Comma-separated checkpoint paths.")
@click.option("--data", "data_path", required=True, type=_IN_FILE)
@click.option("--subtask", type=click.Choice(["a", "b"]), required=True)
def ensemble(checkpoints, data_path, subtask):
    """Probability-averaged ensemble accuracy."""
    instances = _load_split(data_path, subtask)
    # each model must match --subtask, so models that disagree exit 2 too
    models = [_load_model(p, subtask) for p in checkpoints]
    averaged = SimpleNamespace(predict_probs=lambda inst: ensemble_average(
        [m.predict_probs(inst) for m in models]))
    metrics = harness.evaluate(averaged, instances)
    click.echo(json.dumps({"accuracy": metrics.accuracy,
                           "models": len(models)}))


if __name__ == "__main__":
    main()
