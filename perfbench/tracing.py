"""In-memory span recorder and the traced, in-process copy of the pipeline.

The traced run calls the public functions of every ``parsedisamb`` module in
the order the CLI commands call them, with a span around each call, so a
layer's time is measured from outside the program.  Probes afterwards time
layers the pipeline does not isolate (one IM step, one feature-matrix
build, one disambiguation pass, ...); they are not part of the traced total.
"""

from __future__ import annotations

import json
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

from parsedisamb import (SyntheticConfig, TrainingConfig, add_correction,
                         build_corpus, build_feature_matrix, build_freq_table,
                         build_registry, disambiguate, evaluate,
                         generate_synthetic, im_step, lexicalized_properties,
                         load_corpus, load_model, load_pair_counts,
                         pair_counts_from_corpus, random_baseline,
                         save_corpus, save_model, save_pair_counts,
                         save_registry, select_properties, sweep_checkpoints,
                         train, train_clusters, write_report_json,
                         write_sweep_csv)
from parsedisamb import cli
from parsedisamb.lexicalization import (load_freq_table, save_cluster_model,
                                        save_freq_table)

import structural

IM_STEP_PROBES = 5


class Tracer:
    """Spans (id, name, start, end, parent) kept in memory until written."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _conf(argv: list[str], defaults: dict) -> dict:
    """The CLI's resolved configuration for ``argv`` (no config file)."""
    given = vars(cli.build_parser().parse_args(argv))
    given.pop("func", None)
    return {**defaults, **given}


# ---------------------------------------------------------------------------
# Set-up

def traced_setup(tracer: Tracer, workload, seed: int, in_dir: str) -> None:
    """Generate and save the workload's inputs with corpus spans."""
    if workload.structural:
        structural.write_inputs(seed, in_dir, workload.sizes, tracer)
        return
    conf = _conf(["synth", *workload.synth_args(), "--seed", str(seed),
                  "--out-dir", in_dir], cli.SYNTH_DEFAULTS)
    os.makedirs(in_dir, exist_ok=True)
    with tracer.span("corpus.generate"):
        corpus, _ = generate_synthetic(SyntheticConfig(
            n_sentences=int(conf["sentences"]),
            ambiguity_range=tuple(conf["ambiguity"]),
            n_features=int(conf["features"]),
            n_relations=int(conf["relations"]), seed=seed))
        n_train = int(float(conf["split"]) * len(corpus.entries))
        train_part = build_corpus(corpus.entries[:n_train])
        test_part = build_corpus(corpus.entries[n_train:])
    with tracer.span("corpus.save"):
        save_corpus(train_part, os.path.join(in_dir, "train.jsonl"))
        save_corpus(test_part, os.path.join(in_dir, "test.jsonl"))
        save_pair_counts(pair_counts_from_corpus(train_part),
                         os.path.join(in_dir, "pairs.tsv"))


# ---------------------------------------------------------------------------
# The pipeline, command by command

def _cluster(tracer: Tracer, argv: list[str], state: dict) -> None:
    conf = _conf(argv, cli.CLUSTER_DEFAULTS)
    out_dir = conf["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with tracer.span("lexicalization.load_pairs"):
        counts = load_pair_counts(conf["pairs"])
    with tracer.span("lexicalization.train_clusters"):
        model, trace = train_clusters(
            counts, n_classes=int(conf["classes"]),
            max_iterations=int(conf["max_iterations"]),
            tolerance=float(conf["tolerance"]), seed=conf["seed"] or 0)
    with tracer.span("lexicalization.freq_table"):
        table = build_freq_table(model, counts)
    with tracer.span("cli.write_artifacts"):
        save_cluster_model(model, os.path.join(out_dir, "cluster_model.json"))
        save_freq_table(table, os.path.join(out_dir, "freq_table.json"))
        cli.write_manifest(out_dir, "cluster", conf, [conf["pairs"]],
                           conf["seed"])
    state.update(pairs=len(counts), cluster_iterations=len(trace) - 1,
                 freq_table=table)


def _train(tracer: Tracer, argv: list[str], state: dict) -> None:
    conf = _conf(argv, cli.TRAIN_DEFAULTS)
    out_dir = conf["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with tracer.span("corpus.load", path=conf["corpus"]):
        corpus = load_corpus(conf["corpus"], max_parses=conf["max_parses"])
    with tracer.span("corpus.digest"):
        corpus.content_digest()
    inputs = [conf["corpus"]]
    lex_table = None
    if conf["lexicalized"]:
        with tracer.span("lexicalization.load_freq_table"):
            lex_table = load_freq_table(conf["lexicalized"])
        inputs.append(conf["lexicalized"])
    with tracer.span("properties.build_registry"):
        registry = build_registry(corpus, include_lexicalized=lex_table is not None,
                                  lex_table=lex_table)
    if conf["select_cutoff"] is not None:
        with tracer.span("properties.select"):
            registry = select_properties(registry, int(conf["select_cutoff"]))
    unfrozen = registry
    with tracer.span("properties.add_correction"):
        registry = add_correction(registry, corpus, lex_table=lex_table)
    training = TrainingConfig(
        init=conf["init"], init_range=float(conf["init_range"]),
        seed=conf["seed"], max_iterations=int(conf["max_iterations"]),
        likelihood_tolerance=float(conf["tolerance"]),
        checkpoint_every=int(conf["checkpoint_every"]))
    complete = bool(conf["complete_data"])
    with tracer.span("trainer.train"):
        model, trace = train(corpus, registry, training, complete_data=complete,
                             lex_table=lex_table)
    with tracer.span("cli.write_artifacts"):
        save_model(model, os.path.join(out_dir, "model.json"))
        save_registry(registry, os.path.join(out_dir, "registry.json"))
        with open(os.path.join(out_dir, "trace.jsonl"), "w",
                  encoding="utf-8") as handle:
            for record in trace.records:
                handle.write(json.dumps(
                    {"iter": record.iteration, "L": record.log_likelihood,
                     "max_gamma": record.max_abs_gamma}, sort_keys=True) + "\n")
        os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)
        for iteration, lam in trace.checkpoints():
            save_model(model.with_lam(lam),
                       os.path.join(out_dir, "checkpoints",
                                    f"checkpoint_{iteration:04d}.json"))
        cli.write_manifest(out_dir, "train", conf, inputs, conf["seed"])
    state.update(train_corpus=corpus, unfrozen_registry=unfrozen,
                 registry=registry, model=model, complete=complete,
                 iterations=trace.n_iterations, converged=trace.converged,
                 checkpoint_dir=os.path.join(out_dir, "checkpoints"))


def _load_checkpoints(directory: str) -> list:
    found = []
    for name in sorted(os.listdir(directory)):
        match = cli.CHECKPOINT_PATTERN.match(name)
        if match:
            found.append((int(match.group(1)),
                          load_model(os.path.join(directory, name))))
    return found


def _eval(tracer: Tracer, argv: list[str], state: dict) -> None:
    conf = _conf(argv, cli.EVAL_DEFAULTS)
    out_dir = conf["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with tracer.span("model.load"):
        model = load_model(conf["model"])
    with tracer.span("corpus.load", path=conf["corpus"]):
        corpus = load_corpus(conf["corpus"])
    inputs = [conf["model"], conf["corpus"]]
    lex_table = None
    if conf["lex_table"]:
        with tracer.span("lexicalization.load_freq_table"):
            lex_table = load_freq_table(conf["lex_table"])
        inputs.append(conf["lex_table"])
    tasks = [cli.TASK_ALIASES[t] for t in (conf["task"] or ["exact"])]
    tie = float(conf["tie_epsilon"])
    if conf["baseline"]:
        # The baseline models are bound to the test corpus's digest.
        with tracer.span("corpus.digest"):
            corpus.content_digest()
    evaluations = 0
    for task in tasks:
        with tracer.span("evaluation.evaluate", task=task):
            outcome = evaluate(model, corpus, task=task, tie_epsilon=tie,
                               lex_table=lex_table)
        evaluations += 1
        with tracer.span("cli.write_artifacts"):
            write_report_json(outcome,
                              os.path.join(out_dir, f"report_{task}.json"))
        if conf["baseline"]:
            with tracer.span("evaluation.random_baseline", task=task):
                report = random_baseline(
                    corpus, task, model.registry, n_models=int(conf["baseline"]),
                    seed=conf["seed"] or 0,
                    lambda_range=float(conf["lambda_range"]),
                    tie_epsilon=tie, lex_table=lex_table)
            evaluations += int(conf["baseline"])
            with tracer.span("cli.write_artifacts"):
                with open(os.path.join(out_dir, f"baseline_{task}.json"), "w",
                          encoding="utf-8") as handle:
                    json.dump(report.to_json_dict(), handle, sort_keys=True)
                    handle.write("\n")
        if conf["checkpoints"]:
            with tracer.span("cli.load_checkpoints"):
                models = _load_checkpoints(conf["checkpoints"])
            with tracer.span("evaluation.sweep", task=task):
                rows = sweep_checkpoints(models, corpus, task=task,
                                         tie_epsilon=tie, lex_table=lex_table)
            evaluations += len(models)
            with tracer.span("cli.write_artifacts"):
                write_sweep_csv(rows, os.path.join(out_dir, f"sweep_{task}.csv"))
    with tracer.span("cli.write_artifacts"):
        cli.write_manifest(out_dir, "eval", conf, inputs, conf["seed"])
    state.update(test_corpus=corpus, eval_lex_table=lex_table, tie=tie,
                 model_evaluations=evaluations)


COMMANDS = {"cluster": _cluster, "train": _train, "eval": _eval}


# ---------------------------------------------------------------------------
# Probes

def _probe_layers(tracer: Tracer, state: dict, seed: int) -> dict:
    """Time layers in isolation; returns counts measured along the way."""
    found = {}
    corpus, registry = state["train_corpus"], state["registry"]
    lex_table = state["eval_lex_table"]
    with tracer.span("properties.feature_matrix"):
        features = build_feature_matrix(corpus, registry, lex_table=lex_table)
    values = features.values
    found["matrix_density"] = float((values != 0).sum() / values.size)
    found["matrix_bytes"] = values.shape[0] * values.shape[1] * values.itemsize
    model = state["model"]
    for _ in range(IM_STEP_PROBES):
        with tracer.span("trainer.im_step"):
            im_step(model, features=features, complete_data=state["complete"])
    del features, values

    test = state["test_corpus"]
    with tracer.span("properties.test_matrix"):
        found["clamped_corrections"] = build_feature_matrix(
            test, registry, lex_table=lex_table).clamped_corrections
    if not tracer.durations("properties.select"):
        with tracer.span("properties.select"):
            select_properties(state["unfrozen_registry"], 5)

    dont_know = 0
    with tracer.span("model.disambiguate"):
        for entry in test.entries:
            decision = disambiguate(model, entry, tie_epsilon=state["tie"],
                                    lex_table=lex_table)
            dont_know += decision.kind == "dont_know"
    found["dont_know"] = dont_know

    table = state["freq_table"]
    with tracer.span("lexicalization.lexicalized_properties"):
        for entry in corpus.entries:
            lexicalized_properties(entry, table)

    if not tracer.durations("evaluation.random_baseline"):
        with tracer.span("evaluation.random_baseline"):
            random_baseline(test, "exact_match", model.registry, n_models=1,
                            seed=seed, lex_table=lex_table)
    if not tracer.durations("evaluation.sweep"):
        with tracer.span("cli.load_checkpoints"):
            models = _load_checkpoints(state["checkpoint_dir"])
        with tracer.span("evaluation.sweep"):
            sweep_checkpoints(models, test, lex_table=lex_table)
    return found


def _dir_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(directory) for name in names)


def traced_run(workload, seed: int, in_dir: str, out_dir: str,
               steps: list[tuple[str, list[str]]], import_s: float,
               spans_path: str) -> dict:
    """Run set-up, pipeline and probes with spans; return per-layer metrics.

    The traced set-up writes its own copy of the inputs under ``out_dir``;
    the pipeline reads the measured run's inputs in ``in_dir``.  ``steps``
    are the CLI (command, argv) pairs of the measured pipeline, writing
    under ``out_dir``;
    ``import_s`` is the measured interpreter start plus CLI import, which
    the in-process copy does not pay.
    """
    tracer = Tracer()
    with tracer.span("setup"):
        traced_setup(tracer, workload, seed, os.path.join(out_dir, "setup"))
    state: dict = {}
    for command, argv in steps:
        with tracer.span(f"cli.{command}"):
            COMMANDS[command](tracer, argv, state)
    pipeline_spans = sum(tracer.total(f"cli.{command}") for command, _ in steps)
    with tracer.span("probes"):
        found = _probe_layers(tracer, state, seed)
    tracer.write(spans_path)

    corpus_files = [os.path.join(in_dir, n) for n in sorted(os.listdir(in_dir))
                    if n.endswith((".jsonl", ".tsv"))]
    test, train_corpus = state["test_corpus"], state["train_corpus"]
    evaluate_calls = tracer.durations("evaluation.evaluate")
    metrics = {
        "corpus.generate_s": tracer.total("corpus.generate"),
        "corpus.save_s": tracer.total("corpus.save"),
        "corpus.load_s": tracer.total("corpus.load"),
        "corpus.digest_s": tracer.total("corpus.digest"),
        "corpus.sentences": len(train_corpus) + len(test),
        "corpus.parses": sum(len(e.parses) for c in (train_corpus, test)
                             for e in c.entries),
        "corpus.file_bytes": sum(os.path.getsize(p) for p in corpus_files),
        "properties.build_registry_s": tracer.total("properties.build_registry"),
        "properties.select_s": tracer.total("properties.select"),
        "properties.add_correction_s": tracer.total("properties.add_correction"),
        "properties.feature_matrix_s": tracer.total("properties.feature_matrix"),
        "properties.registry_size": state["registry"].size,
        "properties.correction_K": float(state["registry"].correction_K),
        "properties.matrix_density": found["matrix_density"],
        "properties.clamped_corrections": found["clamped_corrections"],
        "properties.matrix_bytes": found["matrix_bytes"],
        "trainer.train_s": tracer.total("trainer.train"),
        "trainer.im_step_s": statistics.median(tracer.durations("trainer.im_step")),
        "trainer.iterations": state["iterations"],
        "trainer.converged": int(state["converged"]),
        "model.disambiguate_s": tracer.total("model.disambiguate"),
        "model.dont_know": found["dont_know"],
        "lexicalization.load_pairs_s": tracer.total("lexicalization.load_pairs"),
        "lexicalization.train_clusters_s":
            tracer.total("lexicalization.train_clusters"),
        "lexicalization.freq_table_s": tracer.total("lexicalization.freq_table"),
        "lexicalization.lexicalized_properties_s":
            tracer.total("lexicalization.lexicalized_properties"),
        "lexicalization.cluster_iterations": state["cluster_iterations"],
        "lexicalization.pairs": state["pairs"],
        "evaluation.evaluate_s": statistics.mean(evaluate_calls),
        "evaluation.random_baseline_s":
            tracer.total("evaluation.random_baseline"),
        "evaluation.sweep_s": tracer.total("evaluation.sweep"),
        "evaluation.model_evaluations": state["model_evaluations"],
        "cli.import_s": import_s,
        "cli.write_artifacts_s": tracer.total("cli.write_artifacts"),
        "cli.load_checkpoints_s": tracer.total("cli.load_checkpoints"),
        "cli.artifact_bytes": sum(_dir_bytes(os.path.join(out_dir, command))
                                  for command, _ in steps),
        "trace.total_s": pipeline_spans + len(steps) * import_s,
    }
    return metrics
