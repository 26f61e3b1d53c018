"""``train`` and ``eval`` compile their corpus while reading it and keep
no record.

The streamed compile (``cli._compiled``) equals
``compile_templates(load_corpus(path))`` array for array, and ``train``
writes the bytes it writes when it compiles the loaded corpus instead, on
corpora that probe the reader: merged duplicates (0.0 and -0.0, 2 and 2.0
feature values), a duplicate sentence id that ``--max-parses`` removes,
unequal weights, weights that sum to one within 1e-12 and weights whose
sum overflows, structural and
passthrough corpora, and mixed corpora and missing gold indices, whose
errors are the same.  ``eval``'s streamed compile equals
``compile_corpus(load_corpus(path), registry, lex_table)`` the same way,
and ``eval`` writes the bytes of the loaded corpus too.
"""

import gc
import json
import math
import os

import numpy as np
import pytest

import parsedisamb.cli as cli
import parsedisamb.corpus as corpus_module
from parsedisamb import (DataError, ParseRecord, SentenceEntry, add_correction,
                         build_freq_table, load_corpus,
                         pair_counts_from_corpus, save_corpus, train_clusters)
from parsedisamb.cli import main
from parsedisamb.properties import compile_corpus, compile_templates
from conftest import random_structural_corpus

HEADER = {"format": "forest-corpus", "version": 1}


def _parse(parse_id, features=None, structure=False, frame=None):
    parse = {"parse_id": parse_id, "frame": frame}
    if features is not None:
        parse["precomputed_features"] = features
    if structure:
        parse["cstructure"] = ["S", ["a"]]
        parse["fstructure"] = {"functions": ["SUBJ"], "pairs": [["T", "x"]]}
    return parse


def _sentence(sentence_id, parses, weight=1.0, gold=0, tokens=("a",)):
    return {"sentence_id": sentence_id, "tokens": list(tokens),
            "weight": weight, "gold_index": gold, "parses": parses}


def _write(path, sentences):
    # json writes -0.0 as "-0.0" and 2 as "2", as the file format allows.
    path.write_text("".join(json.dumps(line) + "\n"
                            for line in [HEADER, *sentences]))
    return path


def _loaded_compile(compile_, path, *args, max_parses=None, gold=False):
    """``cli._compiled`` with the corpus loaded first; with ``gold``, the
    reader's gold check, the one gold check in the CLI, comes after the
    load's checks."""
    corpus = load_corpus(path, max_parses)
    if gold:
        list(corpus_module._Sentences(path, max_parses, gold=True))
    return compile_(corpus, *args)


def _loaded(path, max_parses=None, gold=False, lex_table=None):
    return _loaded_compile(compile_templates, path, lex_table,
                           max_parses=max_parses, gold=gold)


def _streamed(path, max_parses=None, gold=False, lex_table=None):
    return cli._compiled(compile_templates, path, lex_table,
                         max_parses=max_parses, gold=gold)


def _assert_same(streamed, loaded):
    for name in ("indptr", "indices", "data", "offsets", "weights", "gold",
                 "frames"):
        a, b = getattr(streamed, name), getattr(loaded, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert streamed.sentence_ids == loaded.sentence_ids
    assert streamed.parse_ids == loaded.parse_ids
    assert streamed.registry == loaded.registry
    assert streamed.digest == loaded.digest


def _lex_table(corpus):
    pairs = pair_counts_from_corpus(corpus)
    clusters, _ = train_clusters(pairs, n_classes=2, seed=1)
    return build_freq_table(clusters, pairs)


def _outputs(directory):
    return {os.path.relpath(os.path.join(root, name), directory):
            open(os.path.join(root, name), "rb").read()
            for root, _, names in os.walk(directory) for name in names
            if name != "manifest.json"}


def _new_records_at(monkeypatch, name, argv):
    """The ParseRecord and SentenceEntry objects that ``main(argv)`` made
    and holds when it calls ``cli.<name>``."""
    def records():
        return [o for o in gc.get_objects()
                if type(o) in (ParseRecord, SentenceEntry)]

    # Records that other tests left alive are held in ``before``, so
    # that no new record can take the id of one of them.
    before = records()
    known = {id(o) for o in before}
    alive = []
    real = getattr(cli, name)

    def counted(*args, **kwargs):
        alive.extend(o for o in records() if id(o) not in known)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    assert main(argv) == 0
    assert len(before) == len(known)
    return alive


def _error(compile_, *args):
    with pytest.raises(DataError) as raised:
        compile_(*args)
    return str(raised.value)


# Three sentences merge into s0 and two into s3; s2 differs from s0 only in
# its gold index and s3 only in its parses, so neither merges into s0.
MERGED = [
    _sentence("s0", [_parse("p0", {"0": 2, "1": 0.0}, frame="f"),
                     _parse("p1", {"1": 1})], weight=0.5),
    _sentence("s1", [_parse("p0", {"0": 2.0, "1": -0.0}, frame="f"),
                     _parse("p1", {"1": 1.0})], weight=0.25),
    _sentence("s2", [_parse("p0", {"0": 2, "1": 0.0}, frame="f"),
                     _parse("p1", {"1": 1})], weight=0.125, gold=1),
    _sentence("s3", [_parse("p0", {"0": 2, "1": 0.0}),
                     _parse("p1", {"1": 3})], weight=2.0),
    _sentence("s4", [_parse("p0", {"1": -0.0, "0": 2.0}, frame="f"),
                     _parse("p1", {"1": 1})], weight=0.0625),
    _sentence("s5", [_parse("p0", {"0": 2, "1": 0.0}),
                     _parse("p1", {"1": 3.0})], weight=1.0),
    _sentence("s6", [_parse("q0", {"0": 1}), _parse("q1", {"2": 1})],
              weight=0.375, tokens=("b", "c")),
]


class TestStreamedCompile:
    def test_merged_duplicates(self, tmp_path):
        path = _write(tmp_path / "merged.jsonl", MERGED)
        streamed = _streamed(path, None, False, None)
        _assert_same(streamed, _loaded(path))
        assert streamed.sentence_ids == ("s0", "s2", "s3", "s6")
        # Dyadic weights: every sum is exact.
        total = 0.5 + 0.25 + 0.0625 + 0.125 + 2.0 + 1.0 + 0.375
        assert streamed.weights.tolist() == [
            (0.5 + 0.25 + 0.0625) / total, 0.125 / total, 3.0 / total,
            0.375 / total]

    def test_every_sentence_in_one_hash_group(self, tmp_path, monkeypatch):
        # With one hash for every sentence, each is compared with every
        # earlier kept one, read again from the file.
        monkeypatch.setattr(corpus_module, "hash", lambda key: 0,
                            raising=False)
        path = _write(tmp_path / "merged.jsonl", MERGED)
        _assert_same(_streamed(path, None, False, None),
                     _loaded(path))
        rng = np.random.default_rng(3)
        path = tmp_path / "structural.jsonl"
        save_corpus(random_structural_corpus(rng, 30), path)
        _assert_same(_streamed(path, None, False, None),
                     _loaded(path))

    def test_a_duplicate_id_removed_by_the_parse_cap(self, tmp_path):
        path = _write(tmp_path / "dup.jsonl", [
            _sentence("s0", [_parse("p0", {"0": 1}), _parse("p1", {"1": 1})]),
            _sentence("s1", [_parse("p0", {"0": 1})], tokens=("b",)),
            _sentence("s0", [_parse(f"p{j}", {str(j): 1}) for j in range(3)],
                      tokens=("c",))])
        _assert_same(_streamed(path, 2, False, None),
                     _loaded(path, 2))
        message = _error(_loaded, path)
        assert "duplicate sentence_id(s): ['s0']" in message
        assert _error(_streamed, path, None, False, None) \
            == message
        _assert_same(_streamed(path, 1, False, None),
                     _loaded(path, 1))
        path = _write(tmp_path / "capped.jsonl", [
            _sentence("s0", [_parse("p0", {"0": 1}), _parse("p1", {"1": 1})])])
        message = _error(_loaded, path, 1)
        assert "no sentences left after max_parses=1 cutoff" in message
        assert _error(_streamed, path, 1, False, None) \
            == message

    @pytest.mark.parametrize("weights", [
        [0.1] * 10,                      # 0.9999999999999999: no division
        [0.5, 0.125, 0.25, 0.0625, 0.5],  # unequal weights, a sum above one
        [1e-3, 2e-3, 5e-4],
        [1e308, 1e308]])                 # a sum that overflows
    def test_weights(self, tmp_path, weights):
        path = _write(tmp_path / "w.jsonl", [
            _sentence(f"s{i}", [_parse("p0", {"0": i + 1}),
                                _parse("p1", {"1": 1})],
                      weight=w, tokens=(f"t{i}",))
            for i, w in enumerate(weights)])
        if sum(weights) == math.inf:
            message = _error(_loaded, path)
            assert "total corpus weight overflows" in message
            assert _error(_streamed, path, None, False,
                          None) == message
            return
        streamed = _streamed(path, None, False, None)
        _assert_same(streamed, _loaded(path))
        assert streamed.weights.tolist() == [
            e.weight for e in load_corpus(path).entries]

    def test_structural_and_lexicalized(self, tmp_path):
        corpus = random_structural_corpus(np.random.default_rng(11), 40)
        path = tmp_path / "structural.jsonl"
        save_corpus(corpus, path)
        for lex_table in (None, _lex_table(corpus)):
            for cap in (None, 2):
                streamed = _streamed(path, cap, True, lex_table)
                _assert_same(streamed, _loaded(path, cap, True, lex_table))
        assert streamed.registry.kinds() >= {"production",
                                             "lexicalized-relation"}

    def test_passthrough(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--sentences", "60", "--seed", "2",
                     "--out-dir", str(out)]) == 0
        path = out / "train.jsonl"
        streamed = _streamed(path, 3, False, None)
        _assert_same(streamed, _loaded(path, 3))
        assert streamed.registry.kinds() == {"passthrough"}

    def test_an_iterator_of_sentences_is_read_once(self, tmp_path):
        # A passthrough corpus makes the structural walk stop and restart.
        path = _write(tmp_path / "merged.jsonl", MERGED)
        corpus = load_corpus(path)
        _assert_same(compile_templates(iter(corpus.entries)),
                     compile_templates(corpus))

    @pytest.mark.parametrize("order", ["structure first", "features first"])
    def test_mixed_corpus(self, tmp_path, order):
        lines = [_sentence("s0", [_parse("p0", structure=True)]),
                 _sentence("s1", [_parse("p1", {"0": 1})], tokens=("b",)),
                 _sentence("s2", [_parse("p2", {"0": 1}, structure=True)],
                           tokens=("c",))]
        if order == "features first":
            lines.reverse()
        path = _write(tmp_path / "mixed.jsonl", lines)
        message = _error(_loaded, path)
        assert "mixes" in message and "'p0' of sentence 's0'" in message
        assert _error(_streamed, path, None, False, None) \
            == message
        # A fault on a later line comes first, as when the corpus loads.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{\n")
        message = _error(_loaded, path)
        assert "line 5: invalid JSON" in message
        assert _error(_streamed, path, None, False, None) \
            == message

    def test_missing_gold(self, tmp_path):
        lines = [_sentence(f"s{i}", [_parse("p0", {"0": i + 1}),
                                     _parse("p1", {"1": 1})],
                           tokens=(f"t{i}",)) for i in range(4)]
        lines[2]["gold_index"] = None
        path = _write(tmp_path / "gold.jsonl", lines)
        message = _error(_loaded, path, None, True)
        assert message == (f"{path}: line 4: sentence 's2' has no "
                           "gold_index annotation")
        assert _error(_streamed, path, None, True, None) \
            == message
        # Incomplete data never reads gold_index.
        _assert_same(_streamed(path, None, False, None),
                     _loaded(path))

    def test_missing_gold_names_the_line_the_cap_keeps(self, tmp_path,
                                                       capsys):
        # Line 2 has line 4's id but more parses than the cap, which drops
        # it; the sentence without a gold index is line 4's.
        path = _write(tmp_path / "gold.jsonl", [
            _sentence("s0", [_parse(f"p{j}", {str(j): 1}) for j in range(4)]),
            _sentence("s1", [_parse("p0", {"0": 1})], tokens=("b",)),
            _sentence("s0", [_parse("p0", {"0": 1}), _parse("p1", {"1": 1})],
                      gold=None, tokens=("c",))])
        message = f"{path}: line 4: sentence 's0' has no gold_index annotation"
        assert _error(_streamed, path, 3, True, None) == message
        assert main(["train", "--corpus", str(path), "--complete-data",
                     "--max-parses", "3", "--out-dir",
                     str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"


class TestTrainCommand:
    @pytest.mark.parametrize("corpus", ["merged", "synth", "structural"])
    def test_train_writes_the_bytes_of_the_loaded_corpus(
            self, tmp_path, monkeypatch, corpus):
        flags = ["--max-iterations", "20", "--checkpoint-every", "7"]
        if corpus == "merged":
            path = _write(tmp_path / "merged.jsonl", MERGED)
        elif corpus == "synth":
            assert main(["synth", "--sentences", "80", "--seed", "4",
                         "--out-dir", str(tmp_path / "synth")]) == 0
            path = tmp_path / "synth" / "train.jsonl"
            flags += ["--max-parses", "4"]
        else:
            path = tmp_path / "structural.jsonl"
            save_corpus(random_structural_corpus(
                np.random.default_rng(5), 30), path)
            flags += ["--complete-data", "--select-cutoff", "2"]
        argv = ["train", "--corpus", str(path), *flags, "--out-dir"]
        assert main([*argv, str(tmp_path / "streamed")]) == 0
        monkeypatch.setattr(cli, "_compiled", _loaded_compile)
        assert main([*argv, str(tmp_path / "loaded")]) == 0
        streamed = _outputs(tmp_path / "streamed")
        assert "model.json" in streamed and "trace.jsonl" in streamed
        assert streamed == _outputs(tmp_path / "loaded")

    def test_no_record_is_alive_when_training_starts(self, tmp_path,
                                                     monkeypatch):
        """Regression guard: ``cmd_train`` holds no ParseRecord or
        SentenceEntry when it enters ``train``."""
        assert main(["synth", "--sentences", "60", "--seed", "1",
                     "--out-dir", str(tmp_path / "synth")]) == 0
        assert _new_records_at(monkeypatch, "train", [
            "train", "--corpus", str(tmp_path / "synth" / "train.jsonl"),
            "--max-iterations", "3", "--out-dir", str(tmp_path / "o")]) == []


class TestEvalCommand:
    @pytest.mark.parametrize("corpus", ["merged", "structural-lex"])
    def test_the_streamed_matrix_is_the_loaded_one(self, tmp_path, corpus):
        if corpus == "merged":
            path = _write(tmp_path / "merged.jsonl", MERGED)
            training, lex_table = load_corpus(path), None
        else:
            rng = np.random.default_rng(12)
            training = random_structural_corpus(rng, 30)
            path = tmp_path / "test.jsonl"
            save_corpus(random_structural_corpus(rng, 20), path)
            lex_table = _lex_table(training)
        templates = compile_templates(training, lex_table)
        registry = add_correction(templates.registry, templates)
        streamed = cli._compiled(compile_corpus, path, registry, lex_table,
                                 gold=True)
        _assert_same(streamed,
                     compile_corpus(load_corpus(path), registry, lex_table))
        assert streamed.registry == registry
        if lex_table is not None:
            assert "lexicalized-relation" in registry.kinds()

    def test_eval_writes_the_bytes_of_the_loaded_corpus(self, tmp_path,
                                                        monkeypatch):
        path = _write(tmp_path / "merged.jsonl", MERGED)
        model = tmp_path / "model"
        assert main(["train", "--corpus", str(path), "--max-iterations", "9",
                     "--checkpoint-every", "4", "--out-dir", str(model)]) == 0
        argv = ["eval", "--model", str(model / "model.json"), "--corpus",
                str(path), "--baseline", "3", "--checkpoints",
                str(model / "checkpoints"), "--out-dir"]
        assert main([*argv, str(tmp_path / "streamed")]) == 0
        monkeypatch.setattr(cli, "_compiled", _loaded_compile)
        assert main([*argv, str(tmp_path / "loaded")]) == 0
        streamed = _outputs(tmp_path / "streamed")
        assert "report_exact_match.json" in streamed
        assert "sweep_exact_match.csv" in streamed
        assert streamed == _outputs(tmp_path / "loaded")

    def test_no_record_is_alive_when_scoring_starts(self, tmp_path,
                                                    monkeypatch):
        """Regression guard: ``cmd_eval`` holds no ParseRecord or
        SentenceEntry when it enters ``evaluate``."""
        synth, model = tmp_path / "synth", tmp_path / "model"
        assert main(["synth", "--sentences", "60", "--seed", "1",
                     "--out-dir", str(synth)]) == 0
        assert main(["train", "--corpus", str(synth / "train.jsonl"),
                     "--max-iterations", "3", "--out-dir", str(model)]) == 0
        assert _new_records_at(monkeypatch, "evaluate", [
            "eval", "--model", str(model / "model.json"),
            "--corpus", str(synth / "test.jsonl"),
            "--out-dir", str(tmp_path / "o")]) == []


class TestStatsCommand:
    def test_no_record_is_alive_when_the_outputs_are_written(self, tmp_path,
                                                             monkeypatch):
        """Regression guard: ``cmd_stats`` counts the sentences as it reads
        them and holds none once it has its counts."""
        path = _write(tmp_path / "merged.jsonl", MERGED)
        assert _new_records_at(monkeypatch, "_write_outputs", [
            "stats", "--corpus", str(path),
            "--out-dir", str(tmp_path / "o")]) == []

    def test_no_record_outlives_its_line(self, tmp_path, monkeypatch):
        # Between two lines, the records alive are the last sentence read
        # and its parses; MERGED re-reads kept lines to merge later ones.
        path = _write(tmp_path / "merged.jsonl", MERGED)
        before = {id(o) for o in gc.get_objects()
                  if type(o) in (ParseRecord, SentenceEntry)}
        real, held = cli.corpus_stats, []

        def counting(sentences):
            def each():
                for entry in sentences:
                    yield entry
                    held.append(({id(o) for o in gc.get_objects()
                                  if type(o) in (ParseRecord, SentenceEntry)}
                                 - before)
                                == {id(entry), *map(id, entry.parses)})
            return real(each())

        monkeypatch.setattr(cli, "corpus_stats", counting)
        assert main(["stats", "--corpus", str(path)]) == 0
        assert held == [True] * 4
