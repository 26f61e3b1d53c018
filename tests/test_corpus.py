import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from numpy.testing import assert_allclose

import parsedisamb.corpus as corpus_module
from parsedisamb import (DataError, ParseRecord, SentenceEntry,
                         SyntheticConfig, build_corpus, corpus_stats,
                         extract_parsebank, generate_synthetic, load_corpus,
                         save_corpus)
from conftest import passthrough_corpus, structural_parse
from test_compile import SETTINGS, corpora


# The location of the first relation in a corpus line.
RELATION = ("parses", 0, "relations", 0)


def _counts_corpus(parse_counts, **kwargs):
    return passthrough_corpus([[{0: 1}] * k for k in parse_counts], **kwargs)


def _write(corpus, tmp_path, name="corpus.jsonl"):
    path = tmp_path / name
    save_corpus(corpus, path)
    return path


class TestLoadCorpus:
    @SETTINGS
    @given(corpus=corpora())
    @example(corpus=_counts_corpus([1, 3, 2], golds=[0, 1, None],
                                   frames=[["a"], ["a", "b", "a"], ["c", "c"]]))
    def test_round_trip(self, tmp_path_factory, corpus):
        # load_corpus merges sentences with equal payloads; parse ids that
        # carry the sentence id keep every payload distinct.
        corpus = build_corpus([
            replace(e, parses=tuple(
                replace(p, parse_id=f"{e.sentence_id}.{p.parse_id}")
                for p in e.parses))
            for e in corpus.entries])
        tmp_path = tmp_path_factory.mktemp("corpus")
        path = _write(corpus, tmp_path)
        again = load_corpus(path)
        assert again.entries == corpus.entries
        assert again.content_digest() == corpus.content_digest()
        # A second round trip is byte-stable.
        path2 = _write(again, tmp_path, "again.jsonl")
        assert path.read_bytes() == path2.read_bytes()

    def test_max_parses_cutoff(self, tmp_path):
        corpus = _counts_corpus([1, 3, 1, 20, 25])
        path = _write(corpus, tmp_path)
        loaded = load_corpus(path, max_parses=20)
        assert len(loaded.entries) == 4
        assert loaded.universe_size == 25

    def test_weight_normalization(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [{"format": "forest-corpus", "version": 1}] + [
            {"sentence_id": f"s{s}", "tokens": [f"t{s}"], "weight": weight,
             "parses": [{"parse_id": "p0", "precomputed_features": {"0": 1}}]}
            for s, weight in enumerate([1.0, 3.0])]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        loaded = load_corpus(path)
        assert_allclose([e.weight for e in loaded.entries], [0.25, 0.75])

    def test_zero_total_weight_names_the_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [{"format": "forest-corpus", "version": 1},
                 {"sentence_id": "s0", "tokens": ["a"], "weight": 0.0,
                  "parses": [{"parse_id": "p0",
                              "precomputed_features": {"0": 1}}]}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(DataError, match="total corpus weight is zero") \
                as info:
            load_corpus(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_parse_without_any_features_is_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps({"format": "forest-corpus", "version": 1}) + "\n")
            handle.write(json.dumps({
                "sentence_id": "s0", "tokens": ["a"], "weight": 1.0,
                "gold_index": None,
                "parses": [{"parse_id": "naked", "cstructure": None,
                            "fstructure": None, "relations": [],
                            "frame": None, "precomputed_features": None}],
            }) + "\n")
        with pytest.raises(DataError, match="naked"):
            load_corpus(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps({"format": "forest-corpus", "version": 1}) + "\n")
            handle.write("{not json\n")
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_missing_field_reports_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps({"format": "forest-corpus", "version": 1}) + "\n")
            handle.write(json.dumps({"sentence_id": "s0", "tokens": []}) + "\n")
        with pytest.raises(DataError, match="parses"):
            load_corpus(path)

    def test_non_object_records_are_reported(self, tmp_path):
        header = json.dumps({"format": "forest-corpus", "version": 1})
        for bad_line in ("[1, 2]", "3", '"text"'):
            path = tmp_path / "bad.jsonl"
            path.write_text(header + "\n" + bad_line + "\n")
            with pytest.raises(DataError, match="line 2"):
                load_corpus(path)
        for fstructure in (["x"], 3, "text"):
            record = {"sentence_id": "s0", "tokens": ["a"],
                      "parses": [{"parse_id": "p0", "cstructure": ["S", ["a"]],
                                  "fstructure": fstructure}]}
            path.write_text(header + "\n" + json.dumps(record) + "\n")
            with pytest.raises(DataError, match="line 2.*fstructure"):
                load_corpus(path)

    def test_malformed_weight_and_gold(self, tmp_path):
        header = json.dumps({"format": "forest-corpus", "version": 1})
        record = {"sentence_id": "s0", "tokens": ["a"], "weight": "heavy",
                  "parses": [{"parse_id": "p0",
                              "precomputed_features": {"0": 1}}]}
        path = tmp_path / "bad.jsonl"
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)
        record["weight"] = 1.0
        record["gold_index"] = "first"
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    @pytest.mark.parametrize("field, value", [
        pytest.param(("gold_index",), 1.7, id="fractional-gold"),
        pytest.param(("gold_index",), True, id="boolean-gold"),
        pytest.param(RELATION + (4,), 1.9, id="fractional-position"),
        pytest.param(RELATION + (4,), True, id="boolean-position"),
        pytest.param(("weight",), 10 ** 400, id="overflowing-weight"),
        pytest.param(("weight",), "0.5", id="string-weight"),
        pytest.param(("weight",), True, id="boolean-weight"),
        pytest.param(("tokens", 0), 5, id="integer-token"),
        pytest.param(("sentence_id",), [1], id="list-sentence-id"),
        pytest.param(("parses", 1, "parse_id"), 1.5, id="fractional-parse-id"),
        pytest.param(("parses", 0, "fstructure", "pairs"), ["ab"],
                     id="string-fstructure-pair"),
        pytest.param(("parses", 0, "fstructure", "functions", 0), 3,
                     id="integer-fstructure-function"),
        pytest.param(RELATION + (1,), 7, id="integer-relation-verb"),
        pytest.param(("parses", 0, "relations"), {}, id="object-relations"),
        pytest.param(("parses", 1, "precomputed_features"),
                     {"1": 1.0, " 1": 2.0, "1_0": 3.0},
                     id="colliding-feature-keys"),
        pytest.param(("parses", 1, "precomputed_features"), {"01": 1.0},
                     id="zero-padded-feature-key")])
    def test_numbers_are_not_truncated_or_coerced(self, tmp_path, field,
                                                  value):
        header = json.dumps({"format": "forest-corpus", "version": 1})
        record = {"sentence_id": "s0", "tokens": ["a"], "gold_index": 0,
                  "parses": [{"parse_id": "p0", "cstructure": ["S", ["a"]],
                              "fstructure": {"pairs": [["TENSE", "past"]],
                                             "functions": ["SUBJ"]},
                              "relations": [["subj", "v", "n", "active", 1]]},
                             {"parse_id": "p1", "cstructure": ["S", ["a"]],
                              "fstructure": {"functions": ["OBJ"]},
                              "precomputed_features": {"1": 1.0}}]}
        path = tmp_path / "bad.jsonl"
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        assert load_corpus(path).entries[0].parses[0].relations[0].position == 1
        target = record
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DataError, match=f"^{path}: line 2: "):
            load_corpus(path)

    @pytest.mark.parametrize("field", [
        pytest.param(("gold_idx",), id="sentence"),
        pytest.param(("parses", 0, "cstructur"), id="parse"),
        pytest.param(("parses", 0, "fstructure", "function"), id="fstructure")])
    def test_misspelled_keys_name_the_file_and_line(self, tmp_path, field):
        header = json.dumps({"format": "forest-corpus", "version": 1})
        record = {"sentence_id": "s0", "tokens": ["a"], "weight": 0.5,
                  "parses": [{"parse_id": "p0", "cstructure": ["S", ["a"]],
                              "fstructure": {"functions": ["SUBJ"]}}]}
        target = record
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = 1
        path = tmp_path / "bad.jsonl"
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DataError, match=f"^{path}: line 2: .*unknown "
                           f"keys: '{field[-1]}'"):
            load_corpus(path)

    @pytest.mark.parametrize("text, repeated", [
        pytest.param('"weight": 1.0', '"weight": 1.0, "weight": 0.5',
                     id="sentence"),
        pytest.param('{"0": 1.0}', '{"0": 1.0, "0": 2.0}',
                     id="precomputed-features")])
    def test_duplicate_keys_name_the_file_and_line(self, tmp_path, text,
                                                   repeated):
        header = json.dumps({"format": "forest-corpus", "version": 1})
        line = json.dumps({"sentence_id": "s0", "tokens": ["a"], "weight": 1.0,
                           "parses": [{"parse_id": "p0",
                                       "precomputed_features": {"0": 1.0}}]})
        path = tmp_path / "bad.jsonl"
        path.write_text(header + "\n" + line + "\n")
        load_corpus(path)
        path.write_text(header + "\n" + line.replace(text, repeated) + "\n")
        with pytest.raises(DataError,
                           match=f"^{path}: line 2: duplicate key"):
            load_corpus(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for header in ('{"sentence_id": "s0"}', "null", "[1]", '"forest-corpus"'):
            path.write_text(header + "\n")
            with pytest.raises(DataError, match="line 1: not a forest-corpus"):
                load_corpus(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_is_a_json_integer(self, tmp_path, version):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "forest-corpus",
                                    "version": version}) + "\n"
                        + _write(_counts_corpus([1]), tmp_path,
                                 "good.jsonl").read_text().splitlines()[1])
        with pytest.raises(DataError,
                           match=f"^{path}: line 1: unsupported forest-corpus"):
            load_corpus(path)

    @pytest.mark.parametrize("value", ["2", False])
    def test_feature_values_are_json_numbers(self, tmp_path, value):
        header = json.dumps({"format": "forest-corpus", "version": 1})
        record = {"sentence_id": "s0", "tokens": ["a"],
                  "parses": [{"parse_id": "p0",
                              "precomputed_features": {"0": 2}}]}
        path = tmp_path / "bad.jsonl"
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        assert load_corpus(path).entries[0].parses[0] \
            .precomputed_features == {0: 2.0}
        record["parses"][0]["precomputed_features"]["0"] = value
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DataError, match=f"^{path}: line 2: "):
            load_corpus(path)

    def test_duplicate_sentence_id_rejected(self):
        entry = SentenceEntry(
            sentence_id="dup", tokens=("t",),
            parses=(ParseRecord(parse_id="p0", precomputed_features={0: 1.0}),))
        other = SentenceEntry(
            sentence_id="dup", tokens=("t",),
            parses=(ParseRecord(parse_id="p0", precomputed_features={0: 2.0}),))
        with pytest.raises(DataError, match="dup"):
            build_corpus([entry, other])

    def test_identical_duplicates_aggregate_on_load(self, tmp_path):
        corpus = _counts_corpus([1, 1])
        path = tmp_path / "dup.jsonl"
        lines = _write(corpus, tmp_path).read_text().splitlines()
        # Repeat the first sentence under a fresh id: same payload, more mass.
        repeated = json.loads(lines[1])
        repeated["sentence_id"] = "s0-copy"
        path.write_text("\n".join(lines + [json.dumps(repeated)]) + "\n")
        loaded = load_corpus(path)
        # The copy merges into s0's position, past s1.
        assert [e.sentence_id for e in loaded.entries] == ["s0", "s1"]
        weights = {e.sentence_id: e.weight for e in loaded.entries}
        assert_allclose(weights["s0"], 2 / 3)
        assert_allclose(weights["s1"], 1 / 3)

    def test_duplicates_with_different_gold_stay_apart(self, tmp_path):
        corpus = _counts_corpus([2, 1], golds=[0, 0])
        path = tmp_path / "gold.jsonl"
        lines = _write(corpus, tmp_path).read_text().splitlines()
        # Same tokens and parses as s0, but the other parse is gold.
        other = json.loads(lines[1])
        other.update(sentence_id="s0-other", gold_index=1)
        path.write_text("\n".join(lines + [json.dumps(other)]) + "\n")
        loaded = load_corpus(path)
        assert [(e.sentence_id, e.gold_index) for e in loaded.entries] == \
            [("s0", 0), ("s1", 0), ("s0-other", 1)]
        assert_allclose([e.weight for e in loaded.entries], [1 / 3] * 3)

    def test_non_string_frame_is_rejected(self, tmp_path):
        header = json.dumps({"format": "forest-corpus", "version": 1})
        record = {"sentence_id": "s0", "tokens": ["a"],
                  "parses": [{"parse_id": "p0", "frame": ["f0"],
                              "precomputed_features": {"0": 1}}]}
        path = tmp_path / "bad.jsonl"
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DataError, match="line 2: field 'frame'"):
            load_corpus(path)

    def test_empty_after_cutoff(self, tmp_path):
        path = _write(_counts_corpus([4, 5]), tmp_path)
        with pytest.raises(DataError, match="cutoff"):
            load_corpus(path, max_parses=2)


class TestMerge:
    def test_parse_records_hash_by_value(self):
        record = ParseRecord(parse_id="p0", frame="f0",
                             precomputed_features={0: 1.0, 3: 2.0})
        same = ParseRecord(parse_id="p0", frame="f0",
                           precomputed_features={3: 2.0, 0: 1.0})
        assert record == same
        assert hash(record) == hash(same)
        assert record != replace(same, precomputed_features={0: 1.0, 3: 2.5})

    def test_one_feature_value_apart_stays_two_entries(self, tmp_path):
        path = _write(passthrough_corpus([[{0: 1, 1: 2}], [{0: 1, 1: 3}]]),
                      tmp_path)
        # Equal tokens and parse ids: only the feature value of 1 differs.
        lines = path.read_text().replace("tok1", "tok0")
        path.write_text(lines)
        loaded = load_corpus(path)
        assert [e.sentence_id for e in loaded.entries] == ["s0", "s1"]
        assert [e.parses[0].precomputed_features[1]
                for e in loaded.entries] == [2.0, 3.0]

    def test_each_line_is_validated_once(self, tmp_path, monkeypatch):
        path = _write(_counts_corpus([1, 2, 3]), tmp_path)
        calls = []
        validate = corpus_module._validate_entry

        def counting(entry, where):
            calls.append(where)
            validate(entry, where)

        monkeypatch.setattr(corpus_module, "_validate_entry", counting)
        load_corpus(path)
        assert calls == [f"{path}: line {n}" for n in (2, 3, 4)]


def _tree_line(tree, tokens=("a", "b"), parse_id="p0", sentence_id="s0"):
    """A corpus line with one structural parse of ``tree``."""
    return json.dumps({
        "sentence_id": sentence_id, "tokens": list(tokens),
        "parses": [{"parse_id": parse_id, "cstructure": tree,
                    "fstructure": {"functions": ["SUBJ"]}}]})


class TestTrees:
    HEADER = json.dumps({"format": "forest-corpus", "version": 1})

    def test_load_walks_each_tree_once(self, tmp_path, monkeypatch):
        # Decoding counts the leaves: nothing walks a loaded tree again.
        path = tmp_path / "trees.jsonl"
        path.write_text("\n".join([
            self.HEADER, _tree_line(["S", [["NP", ["a"]], ["VP", ["b"]]]]),
            _tree_line(["S", ["a", ["X", ["b", "c"]]]], ("a", "b", "c"),
                       sentence_id="s1")])
            + "\n")
        calls = []
        count = corpus_module.count_leaves

        def counting(*args):
            calls.append(args)
            return count(*args)

        monkeypatch.setattr(corpus_module, "count_leaves", counting)
        loaded = load_corpus(path)
        assert calls == []
        assert loaded.entries[0].parses[0].cstructure == \
            ("S", (("NP", ("a",)), ("VP", ("b",))))
        assert loaded.entries[1].parses[0].cstructure == \
            ("S", ("a", ("X", ("b", "c"))))

    def test_leaf_mismatch_names_file_line_and_parse(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([
            self.HEADER, _tree_line(["S", ["a", "b"]]),
            _tree_line(["S", [["NP", ["a"]], "b", "c"]], parse_id="long",
                       sentence_id="s1")])
            + "\n")
        with pytest.raises(DataError) as info:
            load_corpus(path)
        assert str(info.value) == (
            f"{path}: line 3: parse 'long' has 3 c-structure leaves but the "
            "sentence has 2 tokens")

    @pytest.mark.parametrize("tree", [["S"], ["S", "x"], [1, []],
                                      ["S", [["NP"], "b"]]])
    def test_malformed_trees_fail_at_load(self, tmp_path, tree):
        path = tmp_path / "bad.jsonl"
        path.write_text(self.HEADER + "\n" + _tree_line(tree) + "\n")
        with pytest.raises(DataError,
                           match=f"^{path}: line 2: malformed c-structure"):
            load_corpus(path)

    def test_build_corpus_counts_leaves_in_memory(self):
        entry = SentenceEntry(
            sentence_id="s0", tokens=("a", "b"),
            parses=(structural_parse("p0", ("S", ("a", ("X", ("b", "c"))))),))
        with pytest.raises(DataError) as info:
            build_corpus([entry])
        assert str(info.value) == (
            "sentence 's0': parse 'p0' has 3 c-structure leaves but the "
            "sentence has 2 tokens")
        build_corpus([replace(entry, tokens=("a", "b", "c"))])


NON_FINITE_LINES = {
    # An infinite weight used to load as weights [nan, 0.0].
    "infinite weight": '{"sentence_id": "s1", "tokens": ["a"], '
                       '"weight": Infinity, "parses": [{"parse_id": "p0", '
                       '"precomputed_features": {"0": 1.0}}]}',
    "NaN feature": '{"sentence_id": "s1", "tokens": ["a"], "weight": 1.0, '
                   '"parses": [{"parse_id": "p0", '
                   '"precomputed_features": {"0": NaN}}]}',
    "overflowing weight": '{"sentence_id": "s1", "tokens": ["a"], '
                          '"weight": 1e999, "parses": [{"parse_id": "p0", '
                          '"precomputed_features": {"0": 1.0}}]}',
}


def write_non_finite(tmp_path, line):
    """A corpus file whose line 3 carries ``line``."""
    good = _write(_counts_corpus([2]), tmp_path).read_text()
    path = tmp_path / "non_finite.jsonl"
    path.write_text(good + line + "\n")
    return path


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("case", sorted(NON_FINITE_LINES))
    def test_rejected_at_load_with_file_and_line(self, tmp_path, case):
        path = write_non_finite(tmp_path, NON_FINITE_LINES[case])
        with pytest.raises(DataError, match="non-finite") as info:
            load_corpus(path)
        assert str(path) in str(info.value)
        assert "line 3" in str(info.value)

    def test_rejected_when_built_in_memory(self):
        for weight, value in ((float("inf"), 1.0), (1.0, float("nan"))):
            entry = SentenceEntry(
                sentence_id="s0", tokens=("t",), weight=weight,
                parses=(ParseRecord(parse_id="p0",
                                    precomputed_features={0: value}),))
            with pytest.raises(DataError, match="non-finite"):
                build_corpus([entry])


class TestParsebank:
    def test_unique_parse_extraction(self):
        bank = extract_parsebank(_counts_corpus([1, 3, 1, 20]))
        assert len(bank.entries) == 2
        assert all(len(e.parses) == 1 for e in bank.entries)
        assert all(e.gold_index == 0 for e in bank.entries)
        assert_allclose(sum(e.weight for e in bank.entries), 1.0)

    def test_all_ambiguous_is_an_error(self):
        with pytest.raises(DataError, match="unambiguous"):
            extract_parsebank(_counts_corpus([2, 3]))

    def test_single_unambiguous_identity(self):
        bank = extract_parsebank(_counts_corpus([1]))
        assert len(bank.entries) == 1
        assert_allclose(bank.entries[0].weight, 1.0)

    def test_idempotent(self):
        corpus = _counts_corpus([1, 3, 1])
        once = extract_parsebank(corpus)
        twice = extract_parsebank(once)
        assert once == twice


class TestStats:
    def test_arithmetic(self):
        rows = [[{0: 1}], [{0: 1}] * 3]
        entries = []
        for s, (parses, length) in enumerate(zip(rows, [4, 6])):
            entries.append(SentenceEntry(
                sentence_id=f"s{s}", tokens=tuple(f"t{i}" for i in range(length)),
                parses=tuple(ParseRecord(parse_id=f"p{j}",
                                         precomputed_features=dict(r))
                             for j, r in enumerate(parses))))
        stats = corpus_stats(build_corpus(entries))
        assert stats.mean_ambiguity == 2.0
        assert stats.mean_length == 5.0
        assert stats.n_sentences == 2
        assert stats.universe_size == 4

    def test_parsebank_ambiguity_is_one(self):
        bank = extract_parsebank(_counts_corpus([1, 2, 1]))
        assert corpus_stats(bank).mean_ambiguity == 1.0


class TestSyntheticGeneration:
    def test_same_seed_is_byte_identical(self, tmp_path):
        config = SyntheticConfig(n_sentences=40, ambiguity_range=(1, 6),
                                 n_features=12, seed=9)
        c1, d1 = generate_synthetic(config)
        c2, d2 = generate_synthetic(config)
        assert d1 == d2
        p1 = _write(c1, tmp_path, "a.jsonl")
        p2 = _write(c2, tmp_path, "b.jsonl")
        assert p1.read_bytes() == p2.read_bytes()

    def test_forced_single_parse(self):
        corpus, _ = generate_synthetic(
            SyntheticConfig(n_sentences=15, ambiguity_range=(1, 1), seed=1))
        assert all(len(e.parses) == 1 for e in corpus.entries)
        assert all(e.gold_index == 0 for e in corpus.entries)

    def test_invalid_ranges(self):
        from parsedisamb import ConfigError
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticConfig(n_sentences=0))
        with pytest.raises(ConfigError):
            generate_synthetic(
                SyntheticConfig(n_sentences=5, ambiguity_range=(0, 3)))
        with pytest.raises(ConfigError):
            generate_synthetic(
                SyntheticConfig(n_sentences=5, ambiguity_range=(2, 60)))

    def test_negative_seed_is_a_config_error(self):
        from parsedisamb import ConfigError
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            generate_synthetic(SyntheticConfig(n_sentences=5, seed=-1))

    def test_zero_params_give_uniform_gold(self):
        # Monte Carlo against binomial bounds: with all-zero parameters each
        # of the 4 indices is gold with p = 1/4; 3 sigma over 10000 draws.
        n = 10_000
        corpus, _ = generate_synthetic(
            SyntheticConfig(n_sentences=n, ambiguity_range=(4, 4),
                            n_features=6, seed=123),
            true_params=np.zeros(6))
        freqs = np.bincount([e.gold_index for e in corpus.entries],
                            minlength=4) / n
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(freqs - 0.25) < 3 * sigma)

    def test_top1_frequency_matches_hidden_model_mass(self):
        # The rate at which the hidden model's argmax parse is gold converges
        # to the model's expected top-1 mass (Monte Carlo, 3 sigma).
        config = SyntheticConfig(n_sentences=8000, ambiguity_range=(2, 5),
                                 n_features=10, seed=77)
        corpus, description = generate_synthetic(config)
        theta = np.asarray(description["true_params"])
        hits = []
        masses = []
        for entry in corpus.entries:
            V = np.zeros((len(entry.parses), config.n_features))
            for j, parse in enumerate(entry.parses):
                for idx, value in parse.precomputed_features.items():
                    V[j, idx] = value
            scores = V @ theta
            probs = np.exp(scores - scores.max())
            probs /= probs.sum()
            top = int(np.argmax(probs))
            hits.append(1.0 if entry.gold_index == top else 0.0)
            masses.append(probs[top])
        observed = np.mean(hits)
        expected = np.mean(masses)
        sigma = np.sqrt(np.mean([m * (1 - m) for m in masses]) / len(masses))
        assert abs(observed - expected) < 3 * sigma

    def test_weights_are_uniform(self):
        corpus, _ = generate_synthetic(
            SyntheticConfig(n_sentences=10, seed=2))
        assert_allclose([e.weight for e in corpus.entries], [0.1] * 10)
