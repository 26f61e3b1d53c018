"""``train`` compiles its corpus while reading it and keeps no record.

The streamed compile (``cli._streamed_templates``) equals
``compile_templates(load_corpus(path))`` array for array, and ``train``
writes the bytes it writes when it compiles the loaded corpus instead, on
corpora that probe the reader: merged duplicates (0.0 and -0.0, 2 and 2.0
feature values), a duplicate sentence id that ``--max-parses`` removes,
zero weights and weights that sum to one within 1e-12, structural and
passthrough corpora, and mixed corpora and missing gold indices, whose
errors are the same.
"""

import gc
import json
import os

import numpy as np
import pytest

import parsedisamb.cli as cli
import parsedisamb.corpus as corpus_module
from parsedisamb import (DataError, ParseRecord, SentenceEntry, load_corpus,
                         save_corpus)
from parsedisamb.cli import main
from parsedisamb.properties import compile_templates
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


def _loaded(path, max_parses=None, gold=False, lex_table=None):
    corpus = load_corpus(path, max_parses)
    if gold:
        cli._require_gold(corpus, path)
    return compile_templates(corpus, lex_table)


def _assert_same(streamed, loaded):
    for name in ("indptr", "indices", "data", "offsets", "weights", "gold",
                 "frames"):
        a, b = getattr(streamed, name), getattr(loaded, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert streamed.sentence_ids == loaded.sentence_ids
    assert streamed.parse_ids == loaded.parse_ids
    assert streamed.registry == loaded.registry
    assert streamed.digest == loaded.digest


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
                     _parse("p1", {"1": 1})], weight=0.0),
    _sentence("s5", [_parse("p0", {"0": 2, "1": 0.0}),
                     _parse("p1", {"1": 3.0})], weight=1.0),
    _sentence("s6", [_parse("q0", {"0": 1}), _parse("q1", {"2": 1})],
              weight=0.0, tokens=("b", "c")),
]


class TestStreamedCompile:
    def test_merged_duplicates(self, tmp_path):
        path = _write(tmp_path / "merged.jsonl", MERGED)
        streamed = cli._streamed_templates(path, None, False, None)
        _assert_same(streamed, _loaded(path))
        assert streamed.sentence_ids == ("s0", "s2", "s3", "s6")
        total = 0.5 + 0.25 + 0.0 + 0.125 + 2.0 + 1.0 + 0.0
        assert streamed.weights.tolist() == [
            (0.5 + 0.25 + 0.0) / total, 0.125 / total, 3.0 / total, 0.0]

    def test_every_sentence_in_one_hash_group(self, tmp_path, monkeypatch):
        # With one hash for every sentence, each is compared with every
        # earlier kept one, read again from the file.
        monkeypatch.setattr(corpus_module, "hash", lambda key: 0,
                            raising=False)
        path = _write(tmp_path / "merged.jsonl", MERGED)
        _assert_same(cli._streamed_templates(path, None, False, None),
                     _loaded(path))
        rng = np.random.default_rng(3)
        path = tmp_path / "structural.jsonl"
        save_corpus(random_structural_corpus(rng, 30), path)
        _assert_same(cli._streamed_templates(path, None, False, None),
                     _loaded(path))

    def test_a_duplicate_id_removed_by_the_parse_cap(self, tmp_path):
        path = _write(tmp_path / "dup.jsonl", [
            _sentence("s0", [_parse("p0", {"0": 1}), _parse("p1", {"1": 1})]),
            _sentence("s1", [_parse("p0", {"0": 1})], tokens=("b",)),
            _sentence("s0", [_parse(f"p{j}", {str(j): 1}) for j in range(3)],
                      tokens=("c",))])
        _assert_same(cli._streamed_templates(path, 2, False, None),
                     _loaded(path, 2))
        message = _error(_loaded, path)
        assert "duplicate sentence_id(s): ['s0']" in message
        assert _error(cli._streamed_templates, path, None, False, None) \
            == message
        _assert_same(cli._streamed_templates(path, 1, False, None),
                     _loaded(path, 1))
        path = _write(tmp_path / "capped.jsonl", [
            _sentence("s0", [_parse("p0", {"0": 1}), _parse("p1", {"1": 1})])])
        message = _error(_loaded, path, 1)
        assert "no sentences left after max_parses=1 cutoff" in message
        assert _error(cli._streamed_templates, path, 1, False, None) \
            == message

    @pytest.mark.parametrize("weights", [
        [0.1] * 10,                      # 0.9999999999999999: no division
        [0.5, 0.0, 0.25, 0.0, 0.5],      # zero weights, a sum above one
        [1e-3, 2e-3, 0.0],
        [0.0, 0.0]])                     # no weight at all
    def test_weights(self, tmp_path, weights):
        path = _write(tmp_path / "w.jsonl", [
            _sentence(f"s{i}", [_parse("p0", {"0": i + 1}),
                                _parse("p1", {"1": 1})],
                      weight=w, tokens=(f"t{i}",))
            for i, w in enumerate(weights)])
        if sum(weights) == 0:
            message = _error(_loaded, path)
            assert "total corpus weight is zero" in message
            assert _error(cli._streamed_templates, path, None, False,
                          None) == message
            return
        streamed = cli._streamed_templates(path, None, False, None)
        _assert_same(streamed, _loaded(path))
        assert streamed.weights.tolist() == [
            e.weight for e in load_corpus(path).entries]

    def test_structural_and_lexicalized(self, tmp_path):
        from parsedisamb import (build_freq_table, pair_counts_from_corpus,
                                 train_clusters)
        corpus = random_structural_corpus(np.random.default_rng(11), 40)
        path = tmp_path / "structural.jsonl"
        save_corpus(corpus, path)
        pairs = pair_counts_from_corpus(corpus)
        clusters, _ = train_clusters(pairs, n_classes=2, seed=1)
        table = build_freq_table(clusters, pairs)
        for lex_table in (None, table):
            for cap in (None, 2):
                streamed = cli._streamed_templates(path, cap, True, lex_table)
                _assert_same(streamed, _loaded(path, cap, True, lex_table))
        assert streamed.registry.kinds() >= {"production",
                                             "lexicalized-relation"}

    def test_passthrough(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--sentences", "60", "--seed", "2",
                     "--out-dir", str(out)]) == 0
        path = out / "train.jsonl"
        streamed = cli._streamed_templates(path, 3, False, None)
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
        assert _error(cli._streamed_templates, path, None, False, None) \
            == message
        # A fault on a later line comes first, as when the corpus loads.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{\n")
        message = _error(_loaded, path)
        assert "line 5: invalid JSON" in message
        assert _error(cli._streamed_templates, path, None, False, None) \
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
        assert _error(cli._streamed_templates, path, None, True, None) \
            == message
        # Incomplete data never reads gold_index.
        _assert_same(cli._streamed_templates(path, None, False, None),
                     _loaded(path))


class TestTrainCommand:
    @staticmethod
    def _outputs(directory):
        return {os.path.relpath(os.path.join(root, name), directory):
                open(os.path.join(root, name), "rb").read()
                for root, _, names in os.walk(directory) for name in names
                if name != "manifest.json"}

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
        monkeypatch.setattr(cli, "_streamed_templates", _loaded)
        assert main([*argv, str(tmp_path / "loaded")]) == 0
        streamed = self._outputs(tmp_path / "streamed")
        assert "model.json" in streamed and "trace.jsonl" in streamed
        assert streamed == self._outputs(tmp_path / "loaded")

    def test_no_record_is_alive_when_training_starts(self, tmp_path,
                                                     monkeypatch):
        """Regression guard: ``cmd_train`` holds no ParseRecord or
        SentenceEntry when it enters ``train``."""
        assert main(["synth", "--sentences", "60", "--seed", "1",
                     "--out-dir", str(tmp_path / "synth")]) == 0

        def records():
            return [o for o in gc.get_objects()
                    if type(o) in (ParseRecord, SentenceEntry)]

        # Records that other tests left alive are held in ``before``, so
        # that no new record can take the id of one of them.
        before = records()
        known = {id(o) for o in before}
        alive = []
        real_train = cli.train

        def counted(*args, **kwargs):
            alive.extend(o for o in records() if id(o) not in known)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", counted)
        assert main(["train", "--corpus", str(tmp_path / "synth" /
                                              "train.jsonl"),
                     "--max-iterations", "3",
                     "--out-dir", str(tmp_path / "o")]) == 0
        assert alive == []
        assert len(before) == len(known)
