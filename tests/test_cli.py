import argparse
import codecs
import gc
import itertools
import json
import os
import re
import shutil

import pytest

import parsedisamb.cli as cli
import parsedisamb.corpus as corpus_module
import parsedisamb.properties as properties
from parsedisamb import (corpus_stats, load_corpus, load_model,
                         pair_counts_from_corpus, save_pair_counts, PairCounts)
from parsedisamb.cli import build_parser, main, verify_manifest
from parsedisamb.corpus import write_json
from conftest import random_structural_corpus


def _run(*argv):
    return main(list(argv))


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _numeric_ids(lines, first=10):
    """Corpus lines with the sentence ids rewritten as JSON integers."""
    records = [json.loads(line) for line in lines[1:]]
    for i, record in enumerate(records):
        record["sentence_id"] = first + i
    return lines[:1] + [json.dumps(record) for record in records]


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    code = _run("synth", "--sentences", "120", "--ambiguity", "1", "5",
                "--features", "10", "--seed", "5", "--split", "0.8",
                "--out-dir", str(out))
    assert code == 0
    return out


class TestSynth:
    def test_outputs_and_split(self, synth_dir):
        train = load_corpus(synth_dir / "train.jsonl")
        test = load_corpus(synth_dir / "test.jsonl")
        assert len(train.entries) == 96
        assert len(test.entries) == 24
        assert (synth_dir / "hidden_model.json").exists()
        assert verify_manifest(synth_dir / "manifest.json")

    def test_seeded_reruns_are_bit_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert _run("synth", "--sentences", "50", "--seed", "5",
                        "--out-dir", str(out)) == 0
            outs.append(out)
        for fname in ("train.jsonl", "test.jsonl", "hidden_model.json"):
            assert _read(outs[0] / fname) == _read(outs[1] / fname)

    def test_unambiguous_generation(self, tmp_path):
        out = tmp_path / "bank"
        assert _run("synth", "--sentences", "30", "--ambiguity", "1", "1",
                    "--seed", "2", "--out-dir", str(out)) == 0
        for fname in ("train.jsonl", "test.jsonl"):
            corpus = load_corpus(out / fname)
            assert all(len(e.parses) == 1 for e in corpus.entries)
            assert all(e.gold_index == 0 for e in corpus.entries)

    def test_invalid_range_is_config_error(self, tmp_path):
        assert _run("synth", "--sentences", "10", "--ambiguity", "0", "3",
                    "--out-dir", str(tmp_path / "x")) == 1

    def test_each_parse_is_validated_once(self, tmp_path, monkeypatch):
        # The generator validates its corpus; the split only renormalizes.
        calls = []
        validate = corpus_module._validate_parse

        def counting(parse, where):
            calls.append(parse)
            validate(parse, where)

        monkeypatch.setattr(corpus_module, "_validate_parse", counting)
        out = tmp_path / "s"
        assert _run("synth", "--sentences", "40", "--ambiguity", "1", "4",
                    "--seed", "3", "--out-dir", str(out)) == 0
        written = [len(json.loads(line)["parses"])
                   for name in ("train.jsonl", "test.jsonl")
                   for line in (out / name).read_text().splitlines()[1:]]
        assert len(written) == 40
        assert len(calls) == sum(written)
        assert len({id(parse) for parse in calls}) == len(calls)


class TestTrainCommand:
    def test_end_to_end_and_reproducible(self, synth_dir, tmp_path):
        runs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = _run("train", "--corpus", str(synth_dir / "train.jsonl"),
                        "--max-iterations", "40", "--checkpoint-every", "10",
                        "--seed", "7", "--out-dir", str(out))
            assert code == 0
            runs.append(out)
        for fname in ("model.json", "trace.jsonl", "registry.json"):
            assert _read(runs[0] / fname) == _read(runs[1] / fname)
        checkpoints = sorted(os.listdir(runs[0] / "checkpoints"))
        assert checkpoints
        for name in checkpoints:
            assert _read(runs[0] / "checkpoints" / name) == \
                _read(runs[1] / "checkpoints" / name)
        # Trace is one JSON record per iteration with non-decreasing L.
        records = [json.loads(line) for line in
                   (runs[0] / "trace.jsonl").read_text().splitlines()]
        likelihoods = [r["L"] for r in records]
        assert all(b >= a - 1e-10 for a, b in zip(likelihoods, likelihoods[1:]))
        assert all({"iter", "L", "max_gamma"} <= set(r) for r in records)

    def test_random_init_seeded(self, synth_dir, tmp_path):
        outs = []
        for name in ("ra", "rb"):
            out = tmp_path / name
            assert _run("train", "--corpus", str(synth_dir / "train.jsonl"),
                        "--init", "random", "--seed", "7",
                        "--max-iterations", "15", "--out-dir", str(out)) == 0
            outs.append(out)
        assert _read(outs[0] / "model.json") == _read(outs[1] / "model.json")

    @pytest.mark.parametrize("case", ["infinite weight", "NaN feature"])
    def test_non_finite_corpus_is_data_error(self, tmp_path, capsys, case):
        from test_corpus import NON_FINITE_LINES, write_non_finite
        path = write_non_finite(tmp_path, NON_FINITE_LINES[case])
        code = _run("train", "--corpus", str(path),
                    "--out-dir", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "non-finite" in err

    def test_mixed_corpus_is_data_error(self, tmp_path, capsys):
        # One parse carries only a c- and an f-structure, the other only
        # precomputed features: neither template rule covers both.
        path = tmp_path / "mixed.jsonl"
        lines = [{"format": "forest-corpus", "version": 1},
                 {"sentence_id": "s0", "tokens": ["a"], "parses": [
                     {"parse_id": "p0", "cstructure": ["S", ["a"]],
                      "fstructure": {"functions": ["SUBJ"]}}]},
                 {"sentence_id": "s1", "tokens": ["b"], "parses": [
                     {"parse_id": "p1", "precomputed_features": {"0": 1}}]}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert _run("train", "--corpus", str(path),
                    "--out-dir", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "mixes" in err
        assert "'p0' of sentence 's0'" in err and "'p1' of sentence 's1'" in err
        assert "Traceback" not in err

    def test_complete_data_missing_gold_is_rejected_at_load(
            self, synth_dir, tmp_path, capsys, monkeypatch):
        import parsedisamb.cli as cli
        lines = (synth_dir / "train.jsonl").read_text().splitlines()
        record = json.loads(lines[4])
        record["gold_index"] = None
        lines[4] = json.dumps(record)
        path = tmp_path / "ungold.jsonl"
        path.write_text("\n".join(lines) + "\n")

        def unreachable(*args, **kwargs):
            raise AssertionError("the corpus was compiled")

        # train compiles the corpus as it reads it; the gold check comes at
        # the end of the file, before the compiled columns are registered.
        with monkeypatch.context() as patched:
            patched.setattr(properties, "_template_registry", unreachable)
            code = _run("train", "--corpus", str(path), "--complete-data",
                        "--max-iterations", "3", "--out-dir",
                        str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: line 5: sentence {record['sentence_id']!r} has no " \
            "gold_index annotation" in err
        # Integer ids load as strings; the line is still the fifth.
        path.write_text("\n".join(_numeric_ids(lines)) + "\n")
        assert _run("train", "--corpus", str(path), "--complete-data",
                    "--out-dir", str(tmp_path / "o")) == 2
        assert f"{path}: line 5: sentence '13' has no gold_index" in \
            capsys.readouterr().err
        # Incomplete data never reads gold_index, with or without a cap.
        for flags in ([], ["--max-parses", "1"]):
            assert _run("train", "--corpus", str(path), *flags,
                        "--max-iterations", "3",
                        "--out-dir", str(tmp_path / "ok")) == 0

    def test_threads_flag_is_gone(self, synth_dir, tmp_path):
        code = _run("train", "--corpus", str(synth_dir / "train.jsonl"),
                    "--threads", "2", "--out-dir", str(tmp_path / "o"))
        assert code == 1

    def test_parsebank_flag_is_gone(self, synth_dir, tmp_path, capsys):
        # The paper's parsebank is annotated parses: --complete-data.
        corpus = str(synth_dir / "train.jsonl")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"parsebank": True}))
        for flags in (["--parsebank"], ["--config", str(config)]):
            assert _run("train", "--corpus", corpus, *flags,
                        "--out-dir", str(tmp_path / "o")) == 1
            assert "parsebank" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        code = _run("train", "--corpus", str(tmp_path / "absent.jsonl"),
                    "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "absent.jsonl" in capsys.readouterr().err

    def test_bad_flag_value_is_config_error(self, synth_dir, tmp_path):
        code = _run("train", "--corpus", str(synth_dir / "train.jsonl"),
                    "--max-iterations", "0", "--out-dir", str(tmp_path / "o"))
        assert code == 1
        # numpy takes no negative seed.
        assert _run("synth", "--seed", "-1", "--out-dir",
                    str(tmp_path / "s")) == 1

    def test_internal_consistency_exit_code(self, synth_dir, tmp_path,
                                            monkeypatch):
        from parsedisamb.errors import InternalConsistencyError
        import parsedisamb.cli as cli

        def broken_train(*args, **kwargs):
            raise InternalConsistencyError("log-likelihood decreased")

        monkeypatch.setattr(cli, "train", broken_train)
        code = _run("train", "--corpus", str(synth_dir / "train.jsonl"),
                    "--out-dir", str(tmp_path / "o"))
        assert code == 3

    def test_config_file_layering(self, synth_dir, tmp_path):
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps(
            {"max_iterations": 5, "checkpoint_every": 2}))
        out1 = tmp_path / "c1"
        assert _run("train", "--corpus", str(synth_dir / "train.jsonl"),
                    "--config", str(config_path), "--out-dir", str(out1)) == 0
        records = (out1 / "trace.jsonl").read_text().splitlines()
        assert len(records) == 6  # iteration 0 plus five updates
        # Explicit flag wins over the config file.
        out2 = tmp_path / "c2"
        assert _run("train", "--corpus", str(synth_dir / "train.jsonl"),
                    "--config", str(config_path), "--max-iterations", "3",
                    "--out-dir", str(out2)) == 0
        assert len((out2 / "trace.jsonl").read_text().splitlines()) == 4


class TestEvalCommand:
    @pytest.fixture()
    def trained(self, synth_dir, tmp_path):
        out = tmp_path / "model"
        assert _run("train", "--corpus", str(synth_dir / "train.jsonl"),
                    "--max-iterations", "30", "--checkpoint-every", "10",
                    "--seed", "1", "--out-dir", str(out)) == 0
        return out

    def test_two_tasks_two_reports(self, synth_dir, trained, tmp_path):
        out = tmp_path / "eval"
        code = _run("eval", "--model", str(trained / "model.json"),
                    "--corpus", str(synth_dir / "test.jsonl"),
                    "--task", "exact", "--task", "frame",
                    "--out-dir", str(out))
        assert code == 0
        assert (out / "report_exact_match.json").exists()
        assert (out / "report_frame_match.json").exists()
        assert verify_manifest(out / "manifest.json")

    def test_a_repeated_task_runs_once(self, synth_dir, trained, tmp_path,
                                       capsys):
        printed = []
        for name, tasks in (("once", ["exact"]),
                            ("twice", ["exact", "exact_match"])):
            out = tmp_path / name
            assert _run("eval", "--model", str(trained / "model.json"),
                        "--corpus", str(synth_dir / "test.jsonl"),
                        *(f"--task={task}" for task in tasks),
                        "--baseline", "2", "--out-dir", str(out)) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert printed[1].count("random baseline (exact_match)") == 1
        assert sorted(os.listdir(tmp_path / "twice")) == [
            "baseline_exact_match.json", "manifest.json",
            "report_exact_match.json"]

    def test_baseline_and_sweep_reproducible(self, synth_dir, trained, tmp_path):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            code = _run("eval", "--model", str(trained / "model.json"),
                        "--corpus", str(synth_dir / "test.jsonl"),
                        "--baseline", "25", "--seed", "3",
                        "--checkpoints", str(trained / "checkpoints"),
                        "--out-dir", str(out))
            assert code == 0
            outs.append(out)
        for fname in ("report_exact_match.json", "baseline_exact_match.json",
                      "sweep_exact_match.csv"):
            assert _read(outs[0] / fname) == _read(outs[1] / fname)
        sweep_lines = (outs[0] / "sweep_exact_match.csv").read_text().splitlines()
        n_checkpoints = len(os.listdir(trained / "checkpoints"))
        assert len(sweep_lines) == n_checkpoints + 1

    def test_missing_model_is_data_error(self, synth_dir, tmp_path):
        code = _run("eval", "--model", str(tmp_path / "no.json"),
                    "--corpus", str(synth_dir / "test.jsonl"),
                    "--out-dir", str(tmp_path / "o"))
        assert code == 2

    @pytest.mark.parametrize("lineno", [2, 7])
    def test_missing_gold_is_rejected_at_load(self, synth_dir, trained,
                                              tmp_path, capsys, monkeypatch,
                                              lineno):
        import parsedisamb.cli as cli
        lines = (synth_dir / "test.jsonl").read_text().splitlines()
        record = json.loads(lines[lineno - 1])
        record["gold_index"] = None
        lines[lineno - 1] = json.dumps(record)
        path = tmp_path / "ungold.jsonl"
        path.write_text("\n".join(lines) + "\n")

        def unreachable(*args, **kwargs):
            raise AssertionError("the corpus was scored")

        # eval compiles the corpus as it reads it; the gold check comes at
        # the end of the file, before any model is scored.
        monkeypatch.setattr(cli, "evaluate", unreachable)
        code = _run("eval", "--model", str(trained / "model.json"),
                    "--corpus", str(path), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: line {lineno}: sentence " \
            f"{record['sentence_id']!r} has no gold_index" in err
        # Integer ids load as strings; the line is still found.
        path.write_text("\n".join(_numeric_ids(lines)) + "\n")
        assert _run("eval", "--model", str(trained / "model.json"),
                    "--corpus", str(path), "--out-dir", str(tmp_path / "o")) == 2
        assert f"{path}: line {lineno}: sentence '{lineno + 8}' has no " \
            "gold_index" in capsys.readouterr().err

    def test_older_model_evaluates_identically(self, synth_dir, trained,
                                               tmp_path, capsys):
        # Models written before the universe digest covered the compiled
        # matrix record the corpus content digest; eval never reads it.
        doc = json.loads((trained / "model.json").read_text())
        doc["universe"] = load_corpus(
            synth_dir / "train.jsonl").content_digest()
        older = tmp_path / "older.json"
        write_json(doc, older)
        outs, printed = [], []
        for name, model in (("new", trained / "model.json"), ("old", older)):
            out = tmp_path / name
            assert _run("eval", "--model", str(model),
                        "--corpus", str(synth_dir / "test.jsonl"),
                        "--task", "exact", "--task", "frame",
                        "--baseline", "5", "--seed", "3",
                        "--checkpoints", str(trained / "checkpoints"),
                        "--out-dir", str(out)) == 0
            outs.append(out)
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        names = sorted(n for n in os.listdir(outs[0]) if n != "manifest.json")
        assert len(names) == 6
        for name in names:
            assert _read(outs[0] / name) == _read(outs[1] / name)


@pytest.fixture()
def command_argv(synth_dir, tmp_path):
    """Minimal argv of each command that takes a config file."""
    from parsedisamb import pair_counts_from_corpus
    pairs = tmp_path / "pairs.tsv"
    save_pair_counts(pair_counts_from_corpus(
        load_corpus(synth_dir / "train.jsonl")), pairs)
    model = tmp_path / "model"
    assert _run("train", "--corpus", str(synth_dir / "train.jsonl"),
                "--max-iterations", "4", "--checkpoint-every", "2",
                "--out-dir", str(model)) == 0
    return {"train": ["train", "--corpus", str(synth_dir / "train.jsonl"),
                      "--max-iterations", "4"],
            "eval": ["eval", "--model", str(model / "model.json"),
                     "--corpus", str(synth_dir / "test.jsonl")],
            "cluster": ["cluster", "--pairs", str(pairs), "--classes", "2"],
            "synth": ["synth", "--sentences", "30"]}


class TestConfigFile:
    @pytest.mark.parametrize("command, doc", [
        pytest.param("train", 5, id="train-number"),
        pytest.param("eval", ["task", "exact"], id="eval-list"),
        pytest.param("cluster", "classes", id="cluster-string"),
        pytest.param("synth", None, id="synth-null"),
        pytest.param("train", {"max_iterations": "ten"}, id="train-int"),
        pytest.param("eval", {"tie_epsilon": "small"}, id="eval-float"),
        pytest.param("eval", {"task": "all"}, id="eval-choice"),
        pytest.param("cluster", {"classes": "x"}, id="cluster-int"),
        pytest.param("synth", {"ambiguity": 3}, id="synth-pair"),
        pytest.param("synth", {"ambiguity": [1, 2, "-h"]}, id="synth-dash"),
        pytest.param("train", {"complete_data": "yes"}, id="train-switch"),
        pytest.param("train", {"seed": -1}, id="train-seed"),
        pytest.param("train", {"corpus": "a\0b"}, id="train-nul")])
    def test_bad_config_is_a_config_error(self, command_argv, tmp_path,
                                          capsys, command, doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert _run(*command_argv[command], "--config", str(config),
                    "--out-dir", str(tmp_path / "out")) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {config}: ")
        assert "Traceback" not in captured.err and not captured.out

    @pytest.mark.parametrize("command, doc, flags", [
        pytest.param("eval", {"task": ["exact", "frame"]},
                     ["--task", "exact", "--task", "frame"], id="task-list"),
        pytest.param("eval", {"task": "frame", "baseline": 3, "seed": 2},
                     ["--task", "frame", "--baseline", "3", "--seed", "2"],
                     id="task-string"),
        pytest.param("synth", {"ambiguity": [2, 3], "split": 0.5},
                     ["--ambiguity", "2", "3", "--split", "0.5"],
                     id="ambiguity-pair"),
        pytest.param("train", {"complete_data": True, "max_parses": False,
                               "tolerance": 1e-3, "init": None},
                     ["--complete-data", "--tolerance", "1e-3"],
                     id="switches-and-null")])
    def test_values_behave_as_the_flags(self, command_argv, tmp_path, capsys,
                                        command, doc, flags):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        outs, printed = [], []
        for name, extra in (("config", ["--config", str(config)]),
                            ("flags", flags)):
            out = tmp_path / name
            assert _run(*command_argv[command], *extra,
                        "--out-dir", str(out)) == 0
            outs.append(out)
            printed.append(capsys.readouterr().out.replace(str(out), "OUT"))
        assert printed[0] == printed[1]
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        for name in names:
            if name == "manifest.json":
                configs = [json.loads((out / name).read_text())["config"]
                           for out in outs]
                assert {**configs[0], "out_dir": None} == \
                    {**configs[1], "out_dir": None}
            elif os.path.isfile(outs[0] / name):
                assert _read(outs[0] / name) == _read(outs[1] / name)

    @pytest.mark.parametrize("text, message", [
        pytest.param('{{"corpus": "missing.jsonl", "corpus": "{corpus}"}}',
                     "duplicate key 'corpus'", id="repeated-key"),
        pytest.param('{{"corpus": "{corpus}"', "invalid JSON",
                     id="truncated")])
    def test_undecodable_config_exits_1(self, synth_dir, tmp_path, capsys,
                                        text, message):
        corpus = synth_dir / "train.jsonl"
        config = tmp_path / "config.json"
        config.write_text(text.format(corpus=corpus))
        assert _run("stats", "--config", str(config)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {config}: {message}\n"
        assert not captured.out

    def test_explicit_flags_win_over_a_list(self, command_argv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"task": ["exact", "frame"]}))
        out = tmp_path / "out"
        assert _run(*command_argv["eval"], "--config", str(config),
                    "--task", "frame", "--out-dir", str(out)) == 0
        assert sorted(n for n in os.listdir(out) if n.startswith("report")) \
            == ["report_frame_match.json"]


class TestNanTolerance:
    """Every comparison with NaN is false, so a NaN tolerance would train to
    the iteration cap without a word."""

    @pytest.mark.parametrize("command", ["train", "cluster"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_exits_1(self, command_argv, tmp_path, capsys, command, source):
        extra = ["--tolerance", "nan"]
        if source == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"tolerance": float("nan")}))
            extra = ["--config", str(config)]
        assert _run(*command_argv[command], *extra,
                    "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "tolerance" in err


class TestTieEpsilon:
    """A negative or non-finite tie_epsilon would decide every tie."""

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_exits_1(self, command_argv, tmp_path, capsys, value):
        assert _run(*command_argv["eval"], "--tie-epsilon", value,
                    "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: tie_epsilon must be "
                              "finite and >= 0")

    def test_checked_before_any_load(self, command_argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run("eval", "--model", command_argv["eval"][2],
                    "--corpus", str(tmp_path / "absent.jsonl"),
                    "--tie-epsilon", "-1", "--out-dir", str(out)) == 1
        assert capsys.readouterr().err.startswith(
            "configuration error: tie_epsilon must be finite and >= 0")
        assert not out.exists()

    def test_zero_is_valid(self, command_argv, tmp_path):
        assert _run(*command_argv["eval"], "--tie-epsilon", "0",
                    "--out-dir", str(tmp_path / "out")) == 0


class TestCollectorState:
    """``main`` pauses the cyclic garbage collector while a command runs and
    restores the state it found on every exit."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_success_runs_paused(self, synth_dir, monkeypatch, collector):
        import parsedisamb.cli as cli
        seen = []
        stats = cli.corpus_stats

        def recording(corpus):
            seen.append(gc.isenabled())
            return stats(corpus)

        monkeypatch.setattr(cli, "corpus_stats", recording)
        assert _run("stats", "--corpus", str(synth_dir / "train.jsonl")) == 0
        assert seen == [False]
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("argv, code", [
        pytest.param(["train", "--out-dir", "{tmp}/o"], 1, id="config-error"),
        pytest.param(["stats", "--corpus", "{tmp}/absent.jsonl"], 2,
                     id="data-error")])
    def test_failures(self, tmp_path, collector, argv, code):
        assert _run(*[a.format(tmp=tmp_path) for a in argv]) == code
        assert gc.isenabled() is collector

    def test_internal_consistency_failure(self, synth_dir, tmp_path,
                                          monkeypatch, collector):
        from parsedisamb.errors import InternalConsistencyError
        import parsedisamb.cli as cli

        def broken_train(*args, **kwargs):
            raise InternalConsistencyError("log-likelihood decreased")

        monkeypatch.setattr(cli, "train", broken_train)
        assert _run("train", "--corpus", str(synth_dir / "train.jsonl"),
                    "--out-dir", str(tmp_path / "o")) == 3
        assert gc.isenabled() is collector

    def test_version_exit(self, capsys, collector):
        with pytest.raises(SystemExit):
            _run("--version")
        assert gc.isenabled() is collector


class TestMissingInputs:
    @pytest.mark.parametrize("command, flag", [
        ("eval", "--model"), ("eval", "--lex-table"), ("eval", "--checkpoints"),
        ("cluster", "--pairs"), ("train", "--lexicalized")])
    def test_exits_2_naming_the_path(self, command_argv, tmp_path, capsys,
                                     command, flag):
        absent = tmp_path / "absent"
        argv = command_argv[command]
        if flag in argv:
            argv[argv.index(flag) + 1] = str(absent)
        else:
            argv += [flag, str(absent)]
        assert _run(*argv, "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert str(absent) in err and "Traceback" not in err


class TestFailedCommands:
    """A command that fails leaves no new ``--out-dir`` and no partial
    output: each command creates it only once its outputs are computed."""

    @pytest.mark.parametrize("case, code", [
        ("cluster-no-classes", 1), ("train-no-iterations", 1),
        ("train-missing-corpus", 2), ("eval-missing-model", 2),
        ("eval-frame-without-frames", 2)])
    def test_leave_no_out_dir(self, command_argv, synth_dir, tmp_path, capsys,
                              case, code):
        lines = (synth_dir / "test.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        for record in records:
            for parse in record["parses"]:
                del parse["frame"]
        frameless = tmp_path / "frameless.jsonl"
        frameless.write_text("\n".join([lines[0], *map(json.dumps, records)])
                             + "\n")
        argv = {
            "cluster-no-classes": [*command_argv["cluster"], "--classes", "0"],
            "train-no-iterations": [*command_argv["train"],
                                    "--max-iterations", "0"],
            "train-missing-corpus": ["train", "--corpus",
                                     str(tmp_path / "missing.jsonl")],
            "eval-missing-model": ["eval", "--model",
                                   str(tmp_path / "nope.json"), "--corpus",
                                   str(synth_dir / "test.jsonl")],
            "eval-frame-without-frames": [
                "eval", "--model", command_argv["eval"][2], "--corpus",
                str(frameless), "--task", "exact", "--task", "frame"],
        }[case]
        out = tmp_path / "out"
        assert _run(*argv, "--out-dir", str(out)) == code
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


class TestClusterCommand:
    def _pairs(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        save_pair_counts(PairCounts(counts={
            ("eat", "apple"): 4, ("eat", "pasta"): 2, ("drive", "car"): 3,
            ("drive", "truck"): 1, ("read", "book"): 5}), path)
        return path

    def test_single_class_identity(self, tmp_path):
        out = tmp_path / "c"
        code = _run("cluster", "--pairs", str(self._pairs(tmp_path)),
                    "--classes", "1", "--out-dir", str(out))
        assert code == 0
        doc = json.loads((out / "freq_table.json").read_text())
        values = {(v, n): x for v, n, x in doc["entries"]}
        assert values[("eat", "apple")] == 5.0
        assert values[("read", "book")] == 6.0

    def test_seeded_reproducible(self, tmp_path):
        outs = []
        for name in ("k1", "k2"):
            out = tmp_path / name
            assert _run("cluster", "--pairs", str(self._pairs(tmp_path)),
                        "--classes", "3", "--seed", "11",
                        "--out-dir", str(out)) == 0
            outs.append(out)
        for fname in ("cluster_model.json", "freq_table.json", "trace.jsonl"):
            assert _read(outs[0] / fname) == _read(outs[1] / fname)

    def test_trace(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert _run("cluster", "--pairs", str(self._pairs(tmp_path)),
                    "--classes", "3", "--seed", "11", "--max-iterations", "7",
                    "--out-dir", str(out)) == 0
        iterations = int(re.search(r"in (\d+) iterations",
                                   capsys.readouterr().out).group(1))
        records = [json.loads(line)
                   for line in (out / "trace.jsonl").read_text().splitlines()]
        assert len(records) == iterations + 1
        assert [r["iter"] for r in records] == list(range(iterations + 1))
        assert "abs_delta_L" not in records[0]
        for before, after in zip(records, records[1:]):
            assert after["L"] >= before["L"]
            assert after["abs_delta_L"] == abs(after["L"] - before["L"])

    def test_empty_pairs_is_data_error(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code = _run("cluster", "--pairs", str(empty),
                    "--out-dir", str(tmp_path / "o"))
        assert code == 2

    def test_zero_count_pairs_are_dropped(self, tmp_path, capsys):
        # v1 and n2 occur only in a zero-count pair; EM never sees them.
        path = tmp_path / "pairs.tsv"
        path.write_text("v0\tn0\t3\nv0\tn1\t2\nv1\tn2\t0\n")
        out = tmp_path / "c"
        assert _run("cluster", "--pairs", str(path), "--classes", "2",
                    "--out-dir", str(out)) == 0
        assert "clustered 2 pairs" in capsys.readouterr().out
        doc = json.loads((out / "cluster_model.json").read_text())
        assert doc["verbs"] == ["v0"] and doc["nouns"] == ["n0", "n1"]

        path.write_text("v0\tn0\t0\nv1\tn2\t0\n")
        assert _run("cluster", "--pairs", str(path), "--classes", "2",
                    "--out-dir", str(tmp_path / "z")) == 2
        err = capsys.readouterr().err
        assert f"{path}: pair counts are empty" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        pytest.param("v0\tn0\t3\nv1\tn1\t-2\n", id="new-pair"),
        pytest.param("v0\tn0\t3\nv0\tn0\t-2\n", id="repeated-pair"),
    ])
    def test_negative_count_names_file_and_line(self, tmp_path, capsys, text):
        path = tmp_path / "pairs.tsv"
        path.write_text(text)
        assert _run("cluster", "--pairs", str(path), "--classes", "2",
                    "--out-dir", str(tmp_path / "c")) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 2: negative count -2" in err
        assert "Traceback" not in err


class TestLexicalizedPipeline:
    def test_train_and_eval_with_frequency_table(self, synth_dir, tmp_path):
        # Build pair counts from the corpus relations, cluster, then train
        # and evaluate a lexicalized model end to end.
        from parsedisamb import pair_counts_from_corpus
        corpus = load_corpus(synth_dir / "train.jsonl")
        pairs_path = tmp_path / "pairs.tsv"
        save_pair_counts(pair_counts_from_corpus(corpus), pairs_path)
        cluster_out = tmp_path / "clusters"
        assert _run("cluster", "--pairs", str(pairs_path), "--classes", "4",
                    "--seed", "2", "--out-dir", str(cluster_out)) == 0
        train_out = tmp_path / "lexmodel"
        assert _run("train", "--corpus", str(synth_dir / "train.jsonl"),
                    "--lexicalized", str(cluster_out / "freq_table.json"),
                    "--max-iterations", "25", "--out-dir", str(train_out)) == 0
        model = load_model(train_out / "model.json")
        assert "lexicalized-relation" in model.registry.kinds()
        # Eval requires the table for a lexicalized model.
        missing = _run("eval", "--model", str(train_out / "model.json"),
                       "--corpus", str(synth_dir / "test.jsonl"),
                       "--out-dir", str(tmp_path / "bad"))
        assert missing == 1
        ok = _run("eval", "--model", str(train_out / "model.json"),
                  "--corpus", str(synth_dir / "test.jsonl"),
                  "--lex-table", str(cluster_out / "freq_table.json"),
                  "--out-dir", str(tmp_path / "good"))
        assert ok == 0


class TestSentenceWeights:
    """Every sentence weighs something: a zero weight is bad input at its
    line, and so is a sum of weights that overflows, for each command that
    reads a corpus."""

    def _argv(self, command, synth_dir, tmp_path, path):
        if command == "stats":
            return ["stats", "--corpus", str(path)]
        if command == "train":
            return ["train", "--corpus", str(path), "--max-iterations", "2",
                    "--out-dir", str(tmp_path / "out")]
        assert _run("train", "--corpus", str(synth_dir / "train.jsonl"),
                    "--max-iterations", "2",
                    "--out-dir", str(tmp_path / "model")) == 0
        return ["eval", "--model", str(tmp_path / "model" / "model.json"),
                "--corpus", str(path), "--out-dir", str(tmp_path / "out")]

    def _error(self, argv, capsys, tmp_path):
        capsys.readouterr()
        assert _run(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "out").exists()
        return err

    @pytest.mark.parametrize("command", ["stats", "train", "eval"])
    def test_a_zero_weight_exits_2_at_its_line(self, synth_dir, tmp_path,
                                               capsys, command):
        lines = (synth_dir / "test.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        record["weight"] = 0.0
        lines[2] = json.dumps(record)
        path = tmp_path / "zero.jsonl"
        path.write_text("\n".join(lines) + "\n")
        argv = self._argv(command, synth_dir, tmp_path, path)
        assert self._error(argv, capsys, tmp_path) == (
            f"data error: {path}: line 3: sentence "
            f"{record['sentence_id']!r} has a zero weight (0.0)\n")

    @pytest.mark.parametrize("command", ["stats", "train", "eval"])
    def test_merged_weights_that_overflow_exit_2(self, synth_dir, tmp_path,
                                                 capsys, command):
        # Two equal sentences of weight 1e308 merge into one of weight inf.
        lines = (synth_dir / "test.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record["weight"] = 1e308
        again = dict(record, sentence_id="again")
        path = tmp_path / "huge.jsonl"
        path.write_text("\n".join([lines[0], json.dumps(record), *lines[2:],
                                   json.dumps(again)]) + "\n")
        argv = self._argv(command, synth_dir, tmp_path, path)
        assert self._error(argv, capsys, tmp_path) == (
            f"data error: {path}: total corpus weight overflows; cannot "
            "normalize\n")


class TestStatsCommand:
    def test_prints_stats(self, synth_dir, capsys):
        assert _run("stats", "--corpus", str(synth_dir / "train.jsonl")) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_sentences"] == 96
        assert set(doc) == {"n_sentences", "mean_ambiguity", "mean_length",
                            "universe_size"}

    @pytest.mark.parametrize("lines", [
        pytest.param(["null"], id="null-header"),
        pytest.param(['{"format": "forest-corpus", "version": 1}',
                      '{"sentence_id": "s0", "tokens": ["a"], "parses": '
                      '[{"parse_id": "p0", "cstructure": ["S", ["a"]], '
                      '"fstructure": ["x"]}]}'], id="list-fstructure")])
    def test_malformed_corpus_exits_2(self, tmp_path, capsys, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert _run("stats", "--corpus", str(path)) == 2
        err = capsys.readouterr().err
        assert f"{path}: line {len(lines)}:" in err
        assert "Traceback" not in err

    def test_writes_stats_file(self, synth_dir, tmp_path):
        out = tmp_path / "stats"
        assert _run("stats", "--corpus", str(synth_dir / "train.jsonl"),
                    "--out-dir", str(out)) == 0
        assert (out / "stats.json").exists()
        assert verify_manifest(out / "manifest.json")
        assert json.loads((out / "manifest.json").read_text())["seed"] is None

    def test_seed_is_rejected(self, synth_dir, tmp_path, capsys):
        corpus = str(synth_dir / "train.jsonl")
        assert _run("stats", "--corpus", corpus, "--seed", "1") == 1
        assert "--seed" in capsys.readouterr().err
        config = tmp_path / "stats.json"
        config.write_text(json.dumps({"seed": 1}))
        assert _run("stats", "--corpus", corpus, "--config", str(config)) == 1
        assert "unknown config keys ['seed']" in capsys.readouterr().err


class TestManifest:
    def test_tampering_detected(self, synth_dir, tmp_path):
        out = tmp_path / "m"
        assert _run("stats", "--corpus", str(synth_dir / "train.jsonl"),
                    "--out-dir", str(out)) == 0
        manifest_path = out / "manifest.json"
        assert verify_manifest(manifest_path)
        with open(synth_dir / "train.jsonl", "a") as handle:
            handle.write("\n")
        assert not verify_manifest(manifest_path)

    def test_eval_digests_the_checkpoints_it_sweeps(self, synth_dir, tmp_path):
        model = tmp_path / "model"
        assert _run("train", "--corpus", str(synth_dir / "train.jsonl"),
                    "--max-iterations", "6", "--checkpoint-every", "3",
                    "--out-dir", str(model)) == 0
        out = tmp_path / "eval"
        assert _run("eval", "--model", str(model / "model.json"),
                    "--corpus", str(synth_dir / "test.jsonl"),
                    "--checkpoints", str(model / "checkpoints"),
                    "--out-dir", str(out)) == 0
        manifest = out / "manifest.json"
        swept = sorted(str(path) for path in (model / "checkpoints").iterdir())
        assert len(swept) > 1
        assert set(swept) <= set(json.loads(manifest.read_text())
                                 ["input_digests"])
        assert verify_manifest(manifest)
        with open(swept[-1], "a") as handle:
            handle.write("\n")
        assert not verify_manifest(manifest)

    @pytest.mark.parametrize("damage", ["missing", "not-json", "config",
                                        "config_digest", "input_digests",
                                        "output_digests"])
    def test_unreadable_manifest_is_false(self, synth_dir, tmp_path, damage):
        out = tmp_path / "m"
        assert _run("stats", "--corpus", str(synth_dir / "train.jsonl"),
                    "--out-dir", str(out)) == 0
        manifest = out / "manifest.json"
        doc = json.loads(manifest.read_text())
        if damage == "missing":
            manifest.unlink()
        elif damage == "not-json":
            manifest.write_text(manifest.read_text()[:-2])
        else:
            del doc[damage]
            manifest.write_text(json.dumps(doc))
        assert verify_manifest(manifest) is False

    def test_interrupted_rerun_leaves_no_valid_manifest(self, tmp_path,
                                                        monkeypatch):
        """A rerun stopped after its first output must not leave the earlier
        run's manifest vouching for the mix of old and new files."""
        data, out = tmp_path / "data", tmp_path / "o"
        assert _run("synth", "--sentences", "60", "--seed", "1",
                    "--out-dir", str(data)) == 0
        argv = ["train", "--corpus", str(data / "train.jsonl"), "--seed", "1",
                "--out-dir", str(out)]
        assert _run(*argv, "--max-iterations", "50") == 0
        assert verify_manifest(out / "manifest.json")

        def interrupt(registry, path):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "save_registry", interrupt)
        with pytest.raises(KeyboardInterrupt):
            _run(*argv, "--max-iterations", "3")
        assert load_model(out / "model.json").lam.size
        assert verify_manifest(out / "manifest.json") is False

    @staticmethod
    def _outputs(directory):
        """Every file under ``directory`` but the manifest, with its bytes."""
        return {os.path.relpath(os.path.join(root, name), directory):
                _read(os.path.join(root, name))
                for root, _, names in os.walk(directory) for name in names
                if name != "manifest.json"}

    @staticmethod
    def _interrupt(patch, directory, at):
        """Raise KeyboardInterrupt just after the ``at``-th file removal or
        replacement (every atomic write ends in one) under ``directory``."""
        seen = itertools.count()
        for name in ("remove", "replace"):
            def wrapper(path, *rest, real=getattr(os, name), **kwargs):
                real(path, *rest, **kwargs)
                target = os.fspath(rest[0] if rest else path)
                if (target.startswith(os.path.join(directory, ""))
                        and next(seen) == at):
                    raise KeyboardInterrupt
            patch.setattr(os, name, wrapper)

    @pytest.mark.parametrize("command",
                             ["synth", "stats", "cluster", "train", "eval"])
    def test_every_interrupted_write_leaves_no_valid_manifest(
            self, synth_dir, tmp_path, monkeypatch, command):
        """A rerun into an earlier run's out-dir, stopped at each of its file
        writes and removals in turn, leaves no manifest that verifies; a
        clean rerun then writes what a run into a fresh directory writes."""
        train = str(synth_dir / "train.jsonl")
        test = str(synth_dir / "test.jsonl")
        if command == "synth":
            earlier = ["--sentences", "20", "--seed", "1"]
            rerun = ["--sentences", "30", "--seed", "2"]
        elif command == "stats":
            earlier, rerun = ["--corpus", train], ["--corpus", test]
        elif command == "cluster":
            pairs = str(tmp_path / "pairs.tsv")
            save_pair_counts(pair_counts_from_corpus(load_corpus(train)), pairs)
            earlier = ["--pairs", pairs, "--max-iterations", "5",
                       "--classes", "2"]
            rerun = [*earlier[:-1], "3"]
        elif command == "train":
            # The earlier run leaves checkpoints this one does not write.
            earlier = ["--corpus", train, "--max-iterations", "12",
                       "--checkpoint-every", "3"]
            rerun = ["--corpus", train, "--max-iterations", "4",
                     "--checkpoint-every", "2"]
        else:
            model = tmp_path / "model"
            assert _run("train", "--corpus", train, "--max-iterations", "4",
                        "--checkpoint-every", "2", "--out-dir", str(model)) == 0
            earlier = ["--model", str(model / "model.json"), "--corpus", test]
            rerun = [*earlier, "--baseline", "2",
                     "--checkpoints", str(model / "checkpoints")]

        def run(out, flags):
            return _run(command, *flags, "--out-dir", str(out))

        assert run(tmp_path / "fresh", rerun) == 0
        expected = self._outputs(tmp_path / "fresh")
        before = tmp_path / "before"
        assert run(before, earlier) == 0
        assert verify_manifest(before / "manifest.json")
        verdicts = []
        for at in itertools.count():
            out = tmp_path / f"o{at}"
            shutil.copytree(before, out)
            with monkeypatch.context() as patch:
                self._interrupt(patch, out, at)
                try:
                    code = run(out, rerun)
                except KeyboardInterrupt:
                    code = None
            if code is not None:  # ``at`` is past the last write
                break
            verdicts.append(verify_manifest(out / "manifest.json"))
            assert run(out, rerun) == 0
            assert self._outputs(out) == expected, at
        assert code == 0 and self._outputs(out) == expected
        # Only the last write, the manifest's, leaves one that verifies.
        assert verdicts == [False] * (at - 1) + [True]
        assert at >= 3
        # The manifest digests every output: one edited after the run, or
        # gone, no longer verifies.
        manifest = out / "manifest.json"
        assert sorted(json.loads(manifest.read_text())["output_digests"]) \
            == sorted(expected)
        for name in expected:
            edited = out / name
            edited.write_bytes(expected[name] + b"\n")
            assert verify_manifest(manifest) is False, name
            edited.write_bytes(expected[name])
            assert verify_manifest(manifest), name
        edited.unlink()
        assert verify_manifest(manifest) is False


class TestParser:
    """Every flag of a subcommand is absent unless given, so a ``--config``
    value shows through, and each one has a builtin default."""

    DEFAULTS = {"train": cli.TRAIN_DEFAULTS, "eval": cli.EVAL_DEFAULTS,
                "cluster": cli.CLUSTER_DEFAULTS, "synth": cli.SYNTH_DEFAULTS,
                "stats": cli.STATS_DEFAULTS}

    @pytest.mark.parametrize("command", sorted(DEFAULTS))
    def test_flags_are_the_defaults_keys(self, command):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert sorted(sub.choices) == sorted(self.DEFAULTS)
        dests = {action.dest for action in sub.choices[command]._actions}
        assert dests - {"help"} == {*self.DEFAULTS[command], "config"}

    @pytest.mark.parametrize("command", sorted(DEFAULTS))
    def test_bare_command_sets_no_flag(self, command):
        assert set(vars(build_parser().parse_args([command]))) == \
            {"command", "func"}


class TestCheckpointDirectory:
    def test_train_replaces_earlier_checkpoints(self, synth_dir, tmp_path):
        corpus = str(synth_dir / "train.jsonl")
        out, fresh = tmp_path / "model", tmp_path / "fresh"
        assert _run("train", "--corpus", corpus, "--max-iterations", "12",
                    "--checkpoint-every", "3", "--out-dir", str(out)) == 0
        (out / "checkpoints" / "notes.txt").write_text("not a checkpoint")
        for target in (out, fresh):
            assert _run("train", "--corpus", corpus, "--max-iterations", "10",
                        "--checkpoint-every", "5",
                        "--out-dir", str(target)) == 0
        written = sorted(os.listdir(fresh / "checkpoints"))
        assert sorted(os.listdir(out / "checkpoints")) == \
            [*written, "notes.txt"]
        # The sweep reads this run's checkpoints only.
        assert _run("eval", "--model", str(out / "model.json"),
                    "--corpus", str(synth_dir / "test.jsonl"),
                    "--checkpoints", str(out / "checkpoints"),
                    "--out-dir", str(tmp_path / "eval")) == 0
        rows = (tmp_path / "eval" / "sweep_exact_match.csv").read_text()
        assert [int(line.split(",")[0]) for line in rows.splitlines()[1:]] \
            == [int(name[11:15]) for name in written]

    @pytest.mark.parametrize("other", ["wider", "structural"])
    def test_checkpoints_with_columns_the_model_lacks_exit_2(
            self, synth_dir, tmp_path, capsys, other):
        """``eval`` compiles the test corpus once, for ``--model``; it does
        not compile it again for checkpoints of a wider registry or of
        another corpus, whose first checkpoint file it names as it loads
        them, before any table is printed."""
        def registry(name, corpus, *flags):
            assert _run("train", "--corpus", str(corpus),
                        "--max-iterations", "4", *flags,
                        "--out-dir", str(tmp_path / name)) == 0
            return load_model(tmp_path / name / "model.json").registry

        wide = registry("wide", synth_dir / "train.jsonl")
        cutoff = max(d.activation_count for d in wide.properties[:-1])
        assert registry("narrow", synth_dir / "train.jsonl",
                        "--select-cutoff", str(cutoff)).size < wide.size
        checkpoints = tmp_path / "wide" / "checkpoints"
        if other == "structural":
            import numpy as np
            path = tmp_path / "structural.jsonl"
            corpus_module.save_corpus(
                random_structural_corpus(np.random.default_rng(2), 10), path)
            registry("structural", path)
            checkpoints = tmp_path / "structural" / "checkpoints"
        capsys.readouterr()
        assert _run("eval", "--model", str(tmp_path / "narrow" / "model.json"),
                    "--corpus", str(synth_dir / "test.jsonl"),
                    "--checkpoints", str(checkpoints),
                    "--out-dir", str(tmp_path / "eval")) == 2
        first = checkpoints / sorted(os.listdir(checkpoints))[0]
        assert capsys.readouterr() == ("", (
            f"data error: {first}: the checkpoint's registry does not have "
            "the model's columns\n"))
        assert not (tmp_path / "eval").exists()


class TestFlagErrors:
    """A flag error is reported before ``--out-dir`` is created."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["train"], "--corpus is required", id="train"),
        pytest.param(["eval", "--corpus", "c.jsonl"],
                     "--model and --corpus are required", id="eval-model"),
        pytest.param(["eval", "--model", "m.json"],
                     "--model and --corpus are required", id="eval-corpus"),
        pytest.param(["cluster"], "--pairs is required", id="cluster"),
        pytest.param(["synth", "--split", "1.5"],
                     "--split must lie strictly between 0 and 1", id="synth"),
        pytest.param(["synth", "--sentences", "3", "--split", "0.2"],
                     "--split leaves one side of the split empty",
                     id="synth-empty-side"),
        pytest.param(["synth", "--ambiguity", "0", "3"],
                     "ambiguity_range must lie within [1, 50]",
                     id="synth-ambiguity")])
    def test_required_flags_leave_no_out_dir(self, tmp_path, capsys, argv,
                                             message):
        out = tmp_path / "out"
        assert _run(*argv, "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--baseline", "0"], "n_models must be >= 1, not 0",
                     id="no-models"),
        pytest.param(["--baseline", "-2"], "n_models must be >= 1, not -2",
                     id="negative-models"),
        pytest.param(["--baseline", "2", "--lambda-range", "-1"],
                     "lambda_range must be nonnegative and finite",
                     id="negative-range"),
        pytest.param(["--baseline", "2", "--lambda-range", "inf"],
                     "lambda_range must be nonnegative and finite",
                     id="infinite-range"),
        pytest.param(["--lambda-range", "nan"],
                     "lambda_range must be nonnegative and finite",
                     id="nan-range")])
    def test_baseline_is_checked_before_any_load(self, tmp_path, capsys,
                                                 flags, message):
        out = tmp_path / "out"
        assert _run("eval", "--model", str(tmp_path / "absent.json"),
                    "--corpus", str(tmp_path / "absent.jsonl"), *flags,
                    "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--max-parses", "0"], "max_parses must be >= 1, not 0",
                     id="no-parses"),
        pytest.param(["--max-parses", "-1"],
                     "max_parses must be >= 1, not -1", id="negative-parses"),
        pytest.param(["--select-cutoff", "-1"], "cutoff must be nonnegative",
                     id="negative-cutoff")])
    def test_train_flags_are_checked_before_any_load(
            self, synth_dir, tmp_path, capsys, monkeypatch, flags, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("train loaded an input despite a bad flag")

        # Every corpus line is read through corpus._read.
        monkeypatch.setattr(corpus_module, "_read", unreachable)
        monkeypatch.setattr(cli, "load_freq_table", unreachable)
        out = tmp_path / "out"
        assert _run("train", "--corpus", str(synth_dir / "train.jsonl"),
                    *flags, "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()


@pytest.fixture()
def structural_inputs(tmp_path):
    """(training corpus, test corpus) of random structural sentences, saved
    as train.jsonl and test.jsonl under ``tmp_path`` next to the
    frequency table table.json of the training corpus's pairs."""
    import numpy as np
    from parsedisamb import (build_freq_table, pair_counts_from_corpus,
                             save_corpus, train_clusters)
    from parsedisamb.lexicalization import save_freq_table

    rng = np.random.default_rng(6)
    train_corpus, test_corpus = (random_structural_corpus(rng, 12),
                                 random_structural_corpus(rng, 6))
    save_corpus(train_corpus, tmp_path / "train.jsonl")
    save_corpus(test_corpus, tmp_path / "test.jsonl")
    pairs = pair_counts_from_corpus(train_corpus)
    clusters, _ = train_clusters(pairs, n_classes=2, seed=1)
    save_freq_table(build_freq_table(clusters, pairs),
                    tmp_path / "table.json")
    return train_corpus, test_corpus


class TestCompileOnce:
    def test_each_parse_is_extracted_once_per_command(
            self, tmp_path, monkeypatch, structural_inputs):
        import parsedisamb.properties as properties

        train_corpus, test_corpus = structural_inputs
        extracted, lexicalized = {}, {}

        def counted(calls, function):
            def wrapper(item, *args, **kwargs):
                calls.setdefault(id(item), [item, 0])[1] += 1
                return function(item, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(properties, "structural_values",
                            counted(extracted, properties.structural_values))
        monkeypatch.setattr(properties, "lexicalized_properties",
                            counted(lexicalized,
                                    properties.lexicalized_properties))

        def run_and_count(*argv):
            extracted.clear()
            lexicalized.clear()
            assert _run(*argv) == 0
            return ([n for _, n in extracted.values()],
                    [n for _, n in lexicalized.values()])

        parses, sentences = run_and_count(
            "train", "--corpus", str(tmp_path / "train.jsonl"),
            "--lexicalized", str(tmp_path / "table.json"),
            "--select-cutoff", "1", "--max-iterations", "4",
            "--checkpoint-every", "2", "--out-dir", str(tmp_path / "model"))
        assert parses == [1] * corpus_stats(train_corpus).universe_size
        assert sentences == [1] * len(train_corpus.entries)

        parses, sentences = run_and_count(
            "eval", "--model", str(tmp_path / "model" / "model.json"),
            "--corpus", str(tmp_path / "test.jsonl"),
            "--lex-table", str(tmp_path / "table.json"),
            "--task", "exact", "--task", "frame", "--baseline", "3",
            "--checkpoints", str(tmp_path / "model" / "checkpoints"),
            "--out-dir", str(tmp_path / "eval"))
        assert len(os.listdir(tmp_path / "model" / "checkpoints")) >= 2
        assert parses == [1] * corpus_stats(test_corpus).universe_size
        assert sentences == [1] * len(test_corpus.entries)


class TestUniverseDigest:
    @pytest.mark.parametrize("shape", ["structural-lex", "passthrough"])
    def test_train_records_the_universe_build_feature_matrix_compiles(
            self, tmp_path, shape):
        import numpy as np
        from parsedisamb import (SyntheticConfig, build_feature_matrix,
                                 build_freq_table, generate_synthetic,
                                 normalize, pair_counts_from_corpus,
                                 save_corpus, train_clusters)
        from parsedisamb.corpus import read_json
        from parsedisamb.lexicalization import load_freq_table, save_freq_table
        from parsedisamb.properties import PropertyRegistry

        if shape == "passthrough":
            corpus, _ = generate_synthetic(SyntheticConfig(
                n_sentences=40, ambiguity_range=(1, 5), seed=3))
        else:
            corpus = random_structural_corpus(np.random.default_rng(8), 12)
        save_corpus(corpus, tmp_path / "train.jsonl")
        pairs = pair_counts_from_corpus(corpus)
        clusters, _ = train_clusters(pairs, n_classes=2, seed=1)
        save_freq_table(build_freq_table(clusters, pairs),
                        tmp_path / "table.json")
        assert _run("train", "--corpus", str(tmp_path / "train.jsonl"),
                    "--lexicalized", str(tmp_path / "table.json"),
                    "--select-cutoff", "1", "--max-iterations", "5",
                    "--out-dir", str(tmp_path / "model")) == 0

        model = load_model(tmp_path / "model" / "model.json")
        features = build_feature_matrix(
            load_corpus(tmp_path / "train.jsonl"),
            read_json(tmp_path / "model" / "registry.json",
                      PropertyRegistry.from_json_dict),
            lex_table=load_freq_table(tmp_path / "table.json"))
        assert "lexicalized-relation" in features.registry.kinds()
        assert (shape == "passthrough") == \
            ("passthrough" in features.registry.kinds())
        assert model.universe == features.digest
        assert model.universe_size == features.n_parses
        normalize(model, features)


class TestLexicalizedMemory:
    """What keeps the peak RSS of the lexicalized commands down."""

    def test_train_remaps_the_template_columns_once(
            self, tmp_path, monkeypatch, structural_inputs):
        import parsedisamb.properties as properties
        from parsedisamb.lexicalization import load_freq_table

        templates = properties.compile_templates(
            structural_inputs[0], load_freq_table(tmp_path / "table.json"))
        counts = [d.activation_count for d in templates.registry.properties]
        cutoff = 2
        # The cutoff drops some columns and keeps others, so no projection
        # is skipped for having the registry's own columns.
        assert min(counts) < cutoff <= max(counts)

        remaps = []
        project = properties.FeatureMatrix.project

        def counted(matrix, registry):
            projected = project(matrix, registry)
            source = [(d.kind, d.key) for d in matrix.registry.properties]
            target = [(d.kind, d.key) for d in registry.properties]
            # An in-place map keeps every source column where it is.
            if projected is not matrix and target[:len(source)] != source:
                remaps.append(registry.size)
            return projected

        monkeypatch.setattr(properties.FeatureMatrix, "project", counted)
        assert _run("train", "--corpus", str(tmp_path / "train.jsonl"),
                    "--lexicalized", str(tmp_path / "table.json"),
                    "--select-cutoff", str(cutoff), "--max-iterations", "3",
                    "--out-dir", str(tmp_path / "model")) == 0
        kept = sum(count >= cutoff for count in counts)
        assert remaps == [kept]
        assert load_model(tmp_path / "model" / "model.json").registry.size \
            == kept + 1

    def test_the_frequency_table_loads_before_the_corpus(
            self, tmp_path, monkeypatch, structural_inputs):
        calls = []

        def recorded(function):
            def wrapper(*args, **kwargs):
                calls.append(function.__name__)
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "load_freq_table",
                            recorded(cli.load_freq_table))
        # Every corpus line is read through corpus._read; train and eval
        # read the corpus while they compile it, without load_corpus.
        monkeypatch.setattr(corpus_module, "_read",
                            recorded(corpus_module._read))
        table = str(tmp_path / "table.json")
        assert _run("train", "--corpus", str(tmp_path / "train.jsonl"),
                    "--lexicalized", table, "--max-iterations", "3",
                    "--out-dir", str(tmp_path / "model")) == 0
        assert calls == ["load_freq_table", "_read"]
        calls.clear()
        assert _run("eval", "--model", str(tmp_path / "model" / "model.json"),
                    "--corpus", str(tmp_path / "test.jsonl"),
                    "--lex-table", table,
                    "--out-dir", str(tmp_path / "eval")) == 0
        assert calls == ["load_freq_table", "_read"]

    def test_a_loaded_table_keeps_seventeen_bytes_an_entry(self, tmp_path):
        # A table's entries cost one int64 code and one double each, plus
        # the 1/16 an array reserves to grow: the strings, lists and floats
        # the decode made are all freed.
        import tracemalloc

        import numpy as np
        from parsedisamb import PairCounts, build_freq_table, train_clusters
        from parsedisamb.lexicalization import (load_freq_table,
                                                save_freq_table)

        rng = np.random.default_rng(5)
        draws = zip(rng.integers(0, 200, 8000).tolist(),
                    rng.integers(0, 1500, 8000).tolist())
        counts = PairCounts(counts={(f"verb{v}", f"noun{n}"): 1
                                    for v, n in draws})
        model, _ = train_clusters(counts, n_classes=4, max_iterations=2)
        table = build_freq_table(model, counts)
        save_freq_table(table, tmp_path / "table.json")
        doc = table.to_json_dict()
        doc["entries"] = []
        write_json(doc, tmp_path / "empty.json")

        def kept(path):
            gc.collect()
            tracemalloc.start()
            try:
                loaded = load_freq_table(path)
                gc.collect()
                return tracemalloc.get_traced_memory()[0], loaded
            finally:
                tracemalloc.stop()

        (full, loaded), (empty, _) = kept(tmp_path / "table.json"), kept(
            tmp_path / "empty.json")
        assert len(loaded.codes) == len(counts) > 7000
        assert full - empty <= 17 * len(counts) + 4096


class TestByteOrderMark:
    """JSON allows no byte-order mark, and a file some editors saved with
    one fails with a message that names it."""

    MARK = "invalid JSON (it starts with a UTF-8 byte-order mark)"

    def _marked(self, path):
        marked = path.with_name("marked_" + path.name)
        marked.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        return str(marked)

    def test_corpus_and_table_exit_2(self, tmp_path, capsys,
                                     structural_inputs):
        train, table = tmp_path / "train.jsonl", tmp_path / "table.json"
        corpus = self._marked(train)
        for argv in (["stats", "--corpus", corpus],
                     ["train", "--corpus", corpus, "--out-dir",
                      str(tmp_path / "out")]):
            assert _run(*argv) == 2
            assert capsys.readouterr().err \
                == f"data error: {corpus}: line 1: {self.MARK}\n"
        assert _run("train", "--corpus", str(train), "--lexicalized",
                    str(table), "--max-iterations", "3",
                    "--out-dir", str(tmp_path / "model")) == 0
        marked = self._marked(table)
        for argv in (["train", "--corpus", str(train),
                      "--lexicalized", marked],
                     ["eval", "--model", str(tmp_path / "model" / "model.json"),
                      "--corpus", str(tmp_path / "test.jsonl"),
                      "--lex-table", marked]):
            capsys.readouterr()
            assert _run(*argv, "--out-dir", str(tmp_path / "out")) == 2
            assert capsys.readouterr().err \
                == f"data error: {marked}: {self.MARK}\n"
        assert not (tmp_path / "out").exists()

    def test_config_exits_1(self, tmp_path, capsys, structural_inputs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpus": str(tmp_path / "train.jsonl")}))
        assert _run("stats", "--config", str(config)) == 0
        marked = self._marked(config)
        capsys.readouterr()
        assert _run("stats", "--config", marked) == 1
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {marked}: {self.MARK}\n"
        assert not captured.out

    def test_pair_file_exits_2(self, tmp_path, capsys):
        # Kept, the mark would make "\ufeffeat" a second verb beside "eat".
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("eat\tapple\t3\neat\tpasta\t1\n")
        marked = self._marked(pairs)
        assert _run("cluster", "--pairs", marked, "--classes", "2",
                    "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            f"data error: {marked}: line 1: it starts with a UTF-8 "
            "byte-order mark\n")
        assert not (tmp_path / "out").exists()


class TestEvalErrorOrder:
    def test_a_lexicalized_model_without_a_table_fails_before_the_corpus(
            self, tmp_path, capsys, structural_inputs):
        # eval compiles the corpus as it reads it, so the compile's check
        # of the table comes before any line is read.
        table = str(tmp_path / "table.json")
        assert _run("train", "--corpus", str(tmp_path / "train.jsonl"),
                    "--lexicalized", table, "--max-iterations", "3",
                    "--out-dir", str(tmp_path / "model")) == 0
        text = (tmp_path / "test.jsonl").read_text()
        path = tmp_path / "truncated.jsonl"
        path.write_text(text[:len(text) // 2])
        argv = ["eval", "--model", str(tmp_path / "model" / "model.json"),
                "--corpus", str(path), "--out-dir", str(tmp_path / "eval")]
        capsys.readouterr()
        assert _run(*argv) == 1
        assert capsys.readouterr().err == (
            "configuration error: registry has lexicalized properties but "
            "no frequency table was provided\n")
        assert _run(*argv, "--lex-table", table) == 2
        assert f"{path}: line " in capsys.readouterr().err
