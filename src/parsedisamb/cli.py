"""Command-line entry point for reproducible batch workflows.

Subcommands: ``train``, ``eval``, ``cluster``, ``synth``, ``stats``.  Every
command writes its outputs under ``--out-dir``, then a run manifest (command,
resolved configuration digest, input and output file digests, seed, tool
version, timestamps); an earlier run's manifest is removed first.  Reruns with
identical flags and seed produce bit-identical model, trace, and report
files; the manifest carries the only timestamps.  A command that fails
writes nothing: ``--out-dir`` is created only with the outputs, once every
one of them has been computed.  ``train`` and ``eval`` compile their corpus
as they read it and keep no sentence record; ``stats`` and
``train --parsebank`` load it.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 internal
consistency failure (a violated likelihood guarantee).

A JSON config file (``--config``) supplies defaults by long flag name,
parsed as the flags are; explicit flags win.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import gc
import hashlib
import json
import os
import re
import sys
from typing import Iterable, Optional

from . import __version__
from .corpus import (SyntheticConfig, _assemble, _Sentences, atomic_write,
                     check_max_parses, corpus_stats, extract_parsebank,
                     generate_synthetic, load_corpus, read_json, save_corpus,
                     typed, write_json)
from .errors import ConfigError, DataError, InternalConsistencyError
from .evaluation import (_check_baseline, evaluate, format_report_table,
                         random_baseline, sweep_checkpoints, write_report_json,
                         write_sweep_csv)
from .lexicalization import (build_freq_table, load_freq_table,
                             load_pair_counts, save_cluster_model,
                             save_freq_table, train_clusters)
from .model import (DEFAULT_TIE_EPSILON, check_tie_epsilon, load_model,
                    save_model)
from .properties import (FeatureMatrix, add_correction, check_cutoff,
                         compile_corpus, compile_templates, save_registry,
                         select_properties)
from .trainer import TrainingConfig, train

MANIFEST_NAME = "manifest.json"
CHECKPOINT_PATTERN = re.compile(r"checkpoint_(\d+)\.json$")

TASK_ALIASES = {"exact": "exact_match", "frame": "frame_match",
                "exact_match": "exact_match", "frame_match": "frame_match"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# Run manifest

def _file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: str, command: str, config: dict,
                   input_paths: list[str], seed: Optional[int],
                   outputs: Iterable[str] = ()) -> None:
    """Write ``out_dir``/manifest.json; ``outputs`` are the paths under
    ``out_dir`` of the files the command wrote, digested as they are."""
    resolved = {k: config[k] for k in sorted(config)}
    manifest = {
        "command": command,
        "config": resolved,
        "config_digest": hashlib.sha256(
            json.dumps(resolved, sort_keys=True).encode("utf-8")).hexdigest(),
        "input_digests": {p: _file_digest(p) for p in sorted(set(input_paths))},
        "output_digests": {name: _file_digest(os.path.join(out_dir, name))
                           for name in sorted(outputs)},
        "seed": seed,
        "tool_version": __version__,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    write_json(manifest, os.path.join(out_dir, MANIFEST_NAME), indent=1)


def verify_manifest(path) -> bool:
    """Recompute the digests recorded in a manifest, of the configuration,
    the inputs and the outputs (beside the manifest); True when all match.
    A missing, unreadable or incomplete manifest verifies False."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        config = json.dumps(manifest["config"], sort_keys=True)
        out_dir = os.path.dirname(os.fspath(path))
        return (hashlib.sha256(config.encode("utf-8")).hexdigest()
                == manifest["config_digest"]
                and all(_file_digest(p) == digest
                        for p, digest in manifest["input_digests"].items())
                and all(_file_digest(os.path.join(out_dir, name)) == digest
                        for name, digest
                        in manifest["output_digests"].items()))
    except (OSError, ValueError, LookupError, TypeError, AttributeError):
        return False


def _write_jsonl(rows, path) -> None:
    with atomic_write(path) as handle:
        handle.writelines(json.dumps(r, sort_keys=True) + "\n" for r in rows)


def _write_outputs(command: str, conf: dict, inputs: list[str],
                   outputs: list, stale: Iterable[str] = ()) -> None:
    """Remove an earlier run's manifest, then its ``stale`` outputs; write
    each (writer, value, path under ``--out-dir``) in order, then the
    manifest, which digests each output.  So an interrupted run leaves no
    manifest that vouches for outputs it did not write, and an output
    changed after the run fails ``verify_manifest``."""
    out_dir = conf["out_dir"]
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, MANIFEST_NAME))
    for name in stale:
        os.remove(os.path.join(out_dir, name))
    for write, value, name in outputs:
        path = os.path.join(out_dir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write(value, path)
    write_manifest(out_dir, command, conf, inputs, conf.get("seed"),
                   [name for _, _, name in outputs])


# ---------------------------------------------------------------------------
# Shared plumbing

def nonnegative_int(text: str) -> int:
    """argparse type of ``--seed``: numpy seeds are nonnegative."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def _command(sub, name: str, func, summary: str) -> argparse.ArgumentParser:
    """The subcommand's parser, with ``--out-dir`` and ``--config``.  An
    absent flag leaves no key, so a ``--config`` value shows through."""
    p = sub.add_parser(name, help=summary,
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out-dir")
    p.add_argument("--config",
                   help="JSON file of flag defaults; explicit flags win")
    p.set_defaults(func=func)
    return p


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """builtin defaults < config file < explicit flags.

    The config file's values are parsed as the command's flags: a list gives
    a flag's arguments, true the bare switch, false and null leave the
    default, and any other value is the flag's one argument.
    """
    given = dict(vars(args))
    given.pop("func", None)
    path = given.pop("config", None)
    if not path:
        return {**defaults, **given}
    try:
        file_conf = read_json(path,
                              lambda doc: typed(doc, dict, "config file"))
    except DataError as exc:  # invalid JSON, a repeated key or no object
        raise ConfigError(str(exc)) from None
    unknown = set(file_conf) - set(defaults)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    argv = [args.command]
    for key, value in file_conf.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            # argparse would read an argument that starts with "-" as a flag.
            if any(isinstance(v, str) and v.startswith("-") for v in value):
                raise ConfigError(f"{path}: argument {flag}: invalid "
                                  f"arguments {value!r}")
            argv += [flag, *map(str, value)]
        elif value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv.append(f"{flag}={value}")
    # No command line carries a NUL, and open() raises ValueError on one.
    if any("\0" in arg for arg in argv):
        raise ConfigError(f"{path}: a value holds a NUL character")
    try:
        parsed = vars(build_parser().parse_args(argv))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return {**defaults, **{key: parsed[key] for key in file_conf
                           if key in parsed}, **given}


def _require_out_dir(conf: dict) -> str:
    """The ``--out-dir`` flag; the command creates it when it writes."""
    out_dir = conf.get("out_dir")
    if not out_dir:
        raise ConfigError("--out-dir is required for this command")
    return out_dir


def _compiled(compile_, path, *args, max_parses: Optional[int] = None,
              gold: bool = False) -> FeatureMatrix:
    """``compile_(sentences, *args)`` over the sentences of the corpus at
    ``path`` as ``load_corpus(path, max_parses)`` keeps them, compiled as
    the file is read, so that no sentence is kept; the matrix takes their
    normalized weights.  With ``gold``, a sentence without a gold index is
    a DataError that names its line."""
    sentences = _Sentences(path, max_parses, gold=gold, values={})
    matrix = compile_(sentences, *args)
    return dataclasses.replace(matrix, weights=sentences.weights)


# ---------------------------------------------------------------------------
# train

TRAIN_DEFAULTS = {
    "corpus": None, "parsebank": False, "max_parses": None,
    "select_cutoff": None, "lexicalized": None, "init": "uniform_zero",
    "init_range": 0.5, "max_iterations": 100, "tolerance": 1e-8,
    "checkpoint_every": 5, "complete_data": False,
    "seed": None, "out_dir": None,
}


def cmd_train(args: argparse.Namespace) -> int:
    conf = _resolve(args, TRAIN_DEFAULTS)
    if not conf["corpus"]:
        raise ConfigError("--corpus is required")
    training = TrainingConfig(
        init=conf["init"],
        init_range=conf["init_range"],
        seed=conf["seed"],
        max_iterations=conf["max_iterations"],
        likelihood_tolerance=conf["tolerance"],
        checkpoint_every=conf["checkpoint_every"],
    )
    check_max_parses(conf["max_parses"])
    check_cutoff(conf["select_cutoff"])
    out_dir = _require_out_dir(conf)

    inputs = [conf["corpus"]]
    lex_table = None
    if conf["lexicalized"]:
        # Table first: its decode frees ~10x what it keeps, for the corpus.
        lex_table = load_freq_table(conf["lexicalized"])
        inputs.append(conf["lexicalized"])

    # One compile of the corpus serves the registry, the correction and the
    # trainer.  It reads the corpus as it compiles, so no sentence is kept.
    # The templates are projected once, onto the selected columns, and
    # freed; the correction then keeps those columns in place.
    complete = conf["complete_data"]
    if conf["parsebank"]:
        templates = compile_templates(extract_parsebank(load_corpus(
            conf["corpus"], max_parses=conf["max_parses"])), lex_table)
        complete = True
    else:
        templates = _compiled(compile_templates, conf["corpus"], lex_table,
                              max_parses=conf["max_parses"], gold=complete)
    registry = templates.registry
    if conf["select_cutoff"] is not None:
        registry = select_properties(registry, conf["select_cutoff"])
    features = templates.universe().project(registry)
    del templates
    registry = add_correction(registry, features)
    features = features.project(registry)
    model, trace = train(features, registry, training, complete_data=complete)

    # An earlier run's checkpoints would join this run's sweep.
    stale = []
    with contextlib.suppress(FileNotFoundError):
        stale = [os.path.join("checkpoints", name) for name in filter(
            CHECKPOINT_PATTERN.match,
            os.listdir(os.path.join(out_dir, "checkpoints")))]
    rows = [{"iter": r.iteration, "L": r.log_likelihood,
             "max_gamma": r.max_abs_gamma} for r in trace.records]
    _write_outputs("train", conf, inputs, [
        (save_model, model, "model.json"),
        (save_registry, registry, "registry.json"),
        (_write_jsonl, rows, "trace.jsonl"),
        *((save_model, model.with_lam(lam),
           os.path.join("checkpoints", f"checkpoint_{iteration:04d}.json"))
          for iteration, lam in trace.checkpoints())], stale)
    print(f"trained {trace.n_iterations} iterations, "
          f"final L = {trace.final_log_likelihood:.6f}, "
          f"converged = {trace.converged}")
    return 0


# ---------------------------------------------------------------------------
# eval

EVAL_DEFAULTS = {
    "model": None, "corpus": None, "task": None,
    "tie_epsilon": DEFAULT_TIE_EPSILON,
    "baseline": None, "lambda_range": 1.0, "checkpoints": None,
    "lex_table": None, "seed": None, "out_dir": None,
}


def _load_checkpoint_models(directory: str, inputs: list[str]) -> list:
    """(iteration, model) of each checkpoint; each path joins ``inputs``."""
    found = []
    for name in sorted(os.listdir(directory)):
        match = CHECKPOINT_PATTERN.match(name)
        if match:
            path = os.path.join(directory, name)
            found.append((int(match.group(1)), load_model(path)))
            inputs.append(path)
    if not found:
        raise DataError(f"no checkpoint models in {directory}")
    return found


def cmd_eval(args: argparse.Namespace) -> int:
    conf = _resolve(args, EVAL_DEFAULTS)
    check_tie_epsilon(conf["tie_epsilon"])
    _check_baseline(conf["baseline"], conf["lambda_range"])
    if not conf["model"] or not conf["corpus"]:
        raise ConfigError("--model and --corpus are required")
    _require_out_dir(conf)

    model = load_model(conf["model"])
    inputs = [conf["model"], conf["corpus"]]
    lex_table = None
    if conf["lex_table"]:
        # Table first: its decode frees ~10x what it keeps, for the corpus.
        lex_table = load_freq_table(conf["lex_table"])
        inputs.append(conf["lex_table"])

    # One compile of the test corpus, as it is read, serves every model
    # scored below.
    features = _compiled(compile_corpus, conf["corpus"], model.registry,
                         lex_table, gold=True)
    tasks = [TASK_ALIASES[task] for task in conf["task"] or ["exact"]]

    checkpoint_models = None
    if conf["checkpoints"]:
        checkpoint_models = _load_checkpoint_models(conf["checkpoints"],
                                                    inputs)

    tie = conf["tie_epsilon"]
    outputs = []  # (writer, value, file name), written once all are computed
    for task in tasks:
        outcome = evaluate(model, features, task=task, tie_epsilon=tie)
        print(format_report_table(outcome))
        print()
        outputs.append((write_report_json, outcome, f"report_{task}.json"))

        if conf["baseline"]:
            report = random_baseline(
                features, task, model.registry, n_models=conf["baseline"],
                seed=conf["seed"] or 0, lambda_range=conf["lambda_range"],
                tie_epsilon=tie)
            print(f"random baseline ({task}): mean precision "
                  f"{report.mean_precision:.4f} +- {report.stdev_precision:.4f}")
            outputs.append((write_json, report.to_json_dict(),
                            f"baseline_{task}.json"))

        if checkpoint_models:
            rows = sweep_checkpoints(checkpoint_models, features, task=task,
                                     tie_epsilon=tie)
            outputs.append((write_sweep_csv, rows, f"sweep_{task}.csv"))
            decided = [r for r in rows if r.precision is not None]
            if decided:
                best = max(decided, key=lambda r: r.precision)
                print(f"sweep ({task}): {len(rows)} checkpoints, best "
                      f"precision {best.precision} at iteration "
                      f"{best.iteration}")
            else:
                print(f"sweep ({task}): {len(rows)} checkpoints, "
                      "precision undefined everywhere")

    _write_outputs("eval", conf, inputs, outputs)
    return 0


# ---------------------------------------------------------------------------
# cluster

CLUSTER_DEFAULTS = {
    "pairs": None, "classes": 32, "max_iterations": 100, "tolerance": 1e-6,
    "seed": None, "out_dir": None,
}


def cmd_cluster(args: argparse.Namespace) -> int:
    conf = _resolve(args, CLUSTER_DEFAULTS)
    if not conf["pairs"]:
        raise ConfigError("--pairs is required")
    _require_out_dir(conf)

    counts = load_pair_counts(conf["pairs"])
    model, trace = train_clusters(
        counts, n_classes=conf["classes"],
        max_iterations=conf["max_iterations"],
        tolerance=conf["tolerance"], seed=conf["seed"] or 0)
    table = build_freq_table(model, counts)

    rows = [{"iter": i, "L": L, **({"abs_delta_L": abs(L - trace[i - 1])}
                                   if i else {})} for i, L in enumerate(trace)]
    _write_outputs("cluster", conf, [conf["pairs"]], [
        (save_cluster_model, model, "cluster_model.json"),
        (save_freq_table, table, "freq_table.json"),
        (_write_jsonl, rows, "trace.jsonl")])
    print(f"clustered {len(counts)} pairs into {model.n_classes} classes in "
          f"{len(trace) - 1} iterations, final L = {trace[-1]:.6f}")
    return 0


# ---------------------------------------------------------------------------
# synth

SYNTH_DEFAULTS = {
    "sentences": 1000, "ambiguity": [1, 6], "features": 20, "relations": 4,
    "split": 0.8, "seed": 0, "out_dir": None,
}


def cmd_synth(args: argparse.Namespace) -> int:
    conf = _resolve(args, SYNTH_DEFAULTS)
    split = conf["split"]
    if not (0.0 < split < 1.0):
        raise ConfigError("--split must lie strictly between 0 and 1")
    config = SyntheticConfig(
        n_sentences=conf["sentences"],
        ambiguity_range=tuple(conf["ambiguity"]),
        n_features=conf["features"],
        n_relations=conf["relations"],
        seed=conf["seed"],
    )
    # The generator writes exactly n_sentences sentences.
    n_train = int(split * config.n_sentences)
    if n_train == 0 or n_train == config.n_sentences:
        raise ConfigError("--split leaves one side of the split empty")
    out_dir = _require_out_dir(conf)

    corpus, description = generate_synthetic(config)
    # The generator validated every sentence; each part only renormalizes.
    train_part = _assemble(corpus.entries[:n_train])
    test_part = _assemble(corpus.entries[n_train:])

    _write_outputs("synth", conf, [], [
        (save_corpus, train_part, "train.jsonl"),
        (save_corpus, test_part, "test.jsonl"),
        (write_json, description, "hidden_model.json")])
    print(f"wrote {len(train_part.entries)} train / {len(test_part.entries)} "
          f"test sentences under {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# stats

STATS_DEFAULTS = {"corpus": None, "out_dir": None}


def cmd_stats(args: argparse.Namespace) -> int:
    conf = _resolve(args, STATS_DEFAULTS)
    if not conf["corpus"]:
        raise ConfigError("--corpus is required")
    corpus = load_corpus(conf["corpus"])
    stats = corpus_stats(corpus)
    doc = {"n_sentences": stats.n_sentences,
           "mean_ambiguity": stats.mean_ambiguity,
           "mean_length": stats.mean_length,
           "universe_size": stats.universe_size}
    print(json.dumps(doc, sort_keys=True, indent=1))
    if conf["out_dir"]:
        _write_outputs("stats", conf, [conf["corpus"]],
                       [(write_json, doc, "stats.json")])
    return 0


# ---------------------------------------------------------------------------
# Wiring

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="parsedisamb",
                     description="Train and evaluate log-linear parse "
                                 "disambiguation models.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "train", cmd_train, "estimate a model from a corpus")
    p.add_argument("--corpus")
    p.add_argument("--parsebank", action="store_true",
                   help="train on the unique-parse subcorpus (complete data)")
    p.add_argument("--max-parses", type=int,
                   help="drop sentences with more candidate parses than this")
    p.add_argument("--select-cutoff", type=int,
                   help="drop properties active on fewer parses than this")
    p.add_argument("--lexicalized", metavar="FREQ_TABLE",
                   help="add pre-disambiguation properties backed by this "
                        "class-based frequency table")
    p.add_argument("--init", choices=["uniform_zero", "random"])
    p.add_argument("--init-range", type=float)
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--checkpoint-every", type=int)
    p.add_argument("--complete-data", action="store_true",
                   help="use gold parses for the empirical side of the update")
    p.add_argument("--seed", type=nonnegative_int)

    p = _command(sub, "eval", cmd_eval, "evaluate a model on a gold corpus")
    p.add_argument("--model")
    p.add_argument("--corpus")
    p.add_argument("--task", action="extend", nargs="+",
                   choices=sorted(TASK_ALIASES))
    p.add_argument("--tie-epsilon", type=float)
    p.add_argument("--baseline", type=int, metavar="N_MODELS",
                   help="also report the random-parameter baseline")
    p.add_argument("--lambda-range", type=float)
    p.add_argument("--checkpoints", metavar="DIR",
                   help="sweep the checkpoint models in this directory")
    p.add_argument("--lex-table")
    p.add_argument("--seed", type=nonnegative_int)

    p = _command(sub, "cluster", cmd_cluster,
                 "fit the latent-class pair model")
    p.add_argument("--pairs", help="tab-separated verb/noun/count file")
    p.add_argument("--classes", type=int)
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--seed", type=nonnegative_int)

    p = _command(sub, "synth", cmd_synth, "generate a synthetic corpus")
    p.add_argument("--sentences", type=int)
    p.add_argument("--ambiguity", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--features", type=int)
    p.add_argument("--relations", type=int)
    p.add_argument("--split", type=float,
                   help="train fraction; the rest is held out")
    p.add_argument("--seed", type=nonnegative_int)

    p = _command(sub, "stats", cmd_stats, "print corpus statistics")
    p.add_argument("--corpus")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # A command builds ~10^5 acyclic tuples and records, which the cyclic
    # collector would rescan again and again as they pile up; reference
    # counting frees them all the same.  The state is restored on any exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
