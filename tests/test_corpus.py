import gc
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import parsedisamb.corpus as corpus_module
from parsedisamb import (ConfigError, DataError, FStructure, ParseRecord,
                         Relation, SentenceEntry, SyntheticConfig,
                         build_corpus, corpus_stats, extract_parsebank,
                         generate_synthetic, load_corpus, save_corpus)
from conftest import feature_pairs, passthrough_corpus, structural_parse
from test_compile import SETTINGS, corpora
from test_fuzz import STRUCTURAL_LINE, _replaced, _variants
from oracles import reference_read_entry


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
    # Keys saved out of numeric order ("12" before "3") load sorted; a -0.0
    # beside a 0.0 at the same index and a shared pair keeps its sign.
    @example(corpus=passthrough_corpus([[{12: 1.0, 3: 2.0}, {3: 0.0, 5: 1.0}],
                                        [{3: -0.0, 5: 1.0}]]))
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
            .precomputed_features == feature_pairs({0: 2.0})
        record["parses"][0]["precomputed_features"]["0"] = value
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DataError, match=f"^{path}: line 2: "):
            load_corpus(path)

    def test_duplicate_sentence_id_rejected(self):
        entry = SentenceEntry(
            sentence_id="dup", tokens=("t",),
            parses=(ParseRecord(parse_id="p0",
                                precomputed_features=feature_pairs({0: 1.0})),))
        other = SentenceEntry(
            sentence_id="dup", tokens=("t",),
            parses=(ParseRecord(parse_id="p0",
                                precomputed_features=feature_pairs({0: 2.0})),))
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

    @pytest.mark.parametrize("max_parses", [0, -1])
    def test_cap_below_one_is_a_config_error(self, tmp_path, max_parses):
        # No corpus survives such a cap, whatever it holds.
        path = _write(_counts_corpus([1, 2]), tmp_path)
        with pytest.raises(ConfigError,
                           match=f"max_parses must be >= 1, not {max_parses}"):
            load_corpus(path, max_parses=max_parses)


class TestMerge:
    def test_parse_records_hash_by_value(self):
        record = ParseRecord(
            parse_id="p0", frame="f0",
            precomputed_features=feature_pairs({0: 1.0, 3: 2.0}))
        same = ParseRecord(
            parse_id="p0", frame="f0",
            precomputed_features=feature_pairs({3: 2.0, 0: 1.0}))
        assert record == same
        assert hash(record) == hash(same)
        assert record != replace(
            same, precomputed_features=feature_pairs({0: 1.0, 3: 2.5}))

    def test_one_feature_value_apart_stays_two_entries(self, tmp_path):
        path = _write(passthrough_corpus([[{0: 1, 1: 2}], [{0: 1, 1: 3}]]),
                      tmp_path)
        # Equal tokens and parse ids: only the feature value of 1 differs.
        lines = path.read_text().replace("tok1", "tok0")
        path.write_text(lines)
        loaded = load_corpus(path)
        assert [e.sentence_id for e in loaded.entries] == ["s0", "s1"]
        assert [dict(e.parses[0].precomputed_features)[1]
                for e in loaded.entries] == [2.0, 3.0]

    def test_a_copy_merges_into_the_equal_sentence_of_its_group(
            self, tmp_path):
        # Three sentences share tokens and gold index; the third repeats the
        # second's parses, so it merges there and not into the first.
        path = _write(passthrough_corpus([[{0: 1}], [{0: 2}], [{0: 2}]]),
                      tmp_path)
        path.write_text(path.read_text().replace("tok1", "tok0")
                        .replace("tok2", "tok0"))
        loaded = load_corpus(path)
        assert [e.sentence_id for e in loaded.entries] == ["s0", "s1"]
        assert_allclose([e.weight for e in loaded.entries], [1 / 3, 2 / 3])

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


def _sharing_corpus(path, tree, n_parses, n_sentences=1, tokens=("a", "b")):
    """A corpus file of sentences whose parses all carry ``tree``; the
    sentences differ only by their frame."""
    lines = [json.dumps({"format": "forest-corpus", "version": 1})]
    for s in range(n_sentences):
        lines.append(json.dumps({
            "sentence_id": f"s{s}", "tokens": list(tokens), "gold_index": 0,
            "parses": [{"parse_id": f"p{j}", "cstructure": tree,
                        "fstructure": {"functions": ["SUBJ", "OBJ"],
                                       "pairs": [["TENSE", "past"]]},
                        "relations": [["subj", "v1", f"n{j}", "active", 1]],
                        "frame": f"f{s}"} for j in range(n_parses)]}))
    path.write_text("\n".join(lines) + "\n")
    return path


def _balanced_tree(tokens):
    """A binary tree over ``tokens``, each under a preterminal."""
    if len(tokens) == 1:
        return ["N", [tokens[0]]]
    half = len(tokens) // 2
    return ["X", [_balanced_tree(tokens[:half]), _balanced_tree(tokens[half:])]]


class TestSharing:
    def test_equal_values_are_one_object(self, tmp_path):
        tree = ["S", [["NP", ["a"]], ["VP", [["V", ["b"]], ["NP", ["a"]]]]]]
        path = _sharing_corpus(tmp_path / "c.jsonl", tree, n_parses=2,
                               n_sentences=2, tokens=("a", "b", "a"))
        first, second = load_corpus(path).entries
        assert [len(first.parses), len(second.parses)] == [2, 2]
        trees = [p.cstructure for e in (first, second) for p in e.parses]
        assert all(t is trees[0] for t in trees)
        np_left, vp = trees[0][1]
        assert vp[1][1] is np_left  # equal subtrees within one tree
        assert first.tokens[0] is first.tokens[2] is second.tokens[0]
        assert np_left[1][0] is first.tokens[0]  # a leaf and its token
        relations = [p.relations[0] for e in (first, second) for p in e.parses]
        for field in ("name", "verb", "voice"):
            assert len({id(getattr(r, field)) for r in relations}) == 1
        assert relations[0].noun is relations[2].noun
        assert first.parses[0].parse_id is second.parses[0].parse_id
        assert first.parses[0].frame is first.parses[1].frame
        fstructures = [p.fstructure for e in (first, second) for p in e.parses]
        assert all(f.pairs[0] is fstructures[0].pairs[0] for f in fstructures)
        assert all(f.functions[1] is fstructures[0].functions[1]
                   for f in fstructures)

    def test_each_load_has_its_own_table(self, tmp_path):
        path = _sharing_corpus(tmp_path / "c.jsonl", ["S", ["a", "b"]], 1)
        once, again = load_corpus(path), load_corpus(path)
        assert once == again
        assert once.entries[0].parses[0].cstructure \
            is not again.entries[0].parses[0].cstructure

    def test_negative_zero_feature_survives_a_round_trip(self, tmp_path):
        path = _write(passthrough_corpus([[{0: -0.0, 1: 0.0, 2: 1.0},
                                           {0: 0.0, 1: -0.0}]]), tmp_path)
        loaded = load_corpus(path)
        signs = [[np.copysign(1.0, v) for _, v in p.precomputed_features]
                 for p in loaded.entries[0].parses]
        assert signs == [[-1.0, 1.0, 1.0], [1.0, -1.0]]
        again = _write(loaded, tmp_path, "again.jsonl")
        assert again.read_bytes() == path.read_bytes()
        assert '"0": -0.0' in path.read_text()

    def test_parses_of_one_tree_share_its_memory(self, tmp_path):
        tokens = tuple(f"w{i}" for i in range(64))
        tree = _balanced_tree(list(tokens))
        sizes = {}
        for n in (1, 8):
            path = _sharing_corpus(tmp_path / f"{n}.jsonl", tree, n_parses=n,
                                   n_sentences=4, tokens=tokens)
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                loaded = load_corpus(path)
                gc.collect()
                sizes[n] = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert sum(len(e.parses) for e in loaded.entries) == 4 * n
            del loaded
        assert sizes[8] < 2 * sizes[1], sizes


def _passthrough_file(path, sentences):
    """A corpus file of ``sentences``, each a list of (feature object,
    relations) per parse, written as given."""
    lines = [json.dumps({"format": "forest-corpus", "version": 1})]
    for s, parses in enumerate(sentences):
        lines.append(json.dumps({
            "sentence_id": f"s{s}", "tokens": ["a"],
            "parses": [{"parse_id": f"p{j}", "precomputed_features": features,
                        "relations": relations}
                       for j, (features, relations) in enumerate(parses)]}))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCompactRecords:
    """Records carry no per-instance dict, and one load keeps one object
    per distinct relation and per distinct nonzero feature value."""

    SUBJ = ["subj", "v0", "n1", "active", 1]
    DOBJ = ["dobj", "v0", "n2", "passive", 1]

    def test_records_have_no_instance_dict(self):
        relation = Relation("subj", "v0", "n1", "active", 1)
        parse = ParseRecord(parse_id="p0", cstructure=("S", ("a",)),
                            fstructure=FStructure(functions=("SUBJ",)),
                            relations=(relation,))
        entry = SentenceEntry(sentence_id="s0", tokens=("a",), parses=(parse,))
        for value in (relation, parse.fstructure, parse, entry):
            assert not hasattr(value, "__dict__"), type(value).__name__

    def test_equal_relations_and_values_are_one_object(self, tmp_path):
        path = _passthrough_file(tmp_path / "c.jsonl", [
            [({"0": 2.0, "1": 0.5}, [self.SUBJ, self.DOBJ]),
             ({"0": 0.5, "2": 2}, [self.SUBJ])],
            [({"1": 2.0}, [self.DOBJ, self.SUBJ])]])
        first, second = load_corpus(path).entries
        subj = first.parses[0].relations[0]
        dobj = first.parses[0].relations[1]
        assert subj is first.parses[1].relations[0] is second.parses[0].relations[1]
        assert dobj is second.parses[0].relations[0]
        assert subj != dobj
        values = [v for e in (first, second) for p in e.parses
                  for _, v in p.precomputed_features]
        assert values == [2.0, 0.5, 0.5, 2.0, 2.0]
        twos, halves = values[0::3] + values[4:], values[1:3]
        assert all(v is twos[0] for v in twos)  # 2 was written as an int
        assert halves[0] is halves[1]

    def test_zeros_keep_their_signs_beside_shared_values(self, tmp_path):
        path = _write(passthrough_corpus([[{0: -0.0, 1: 0.0, 2: 1.0},
                                           {0: 0.0, 1: -0.0, 2: 1.0}],
                                          [{0: -0.0, 2: 1.0}]]), tmp_path)
        loaded = load_corpus(path)
        rows = [[v for _, v in p.precomputed_features]
                for e in loaded.entries for p in e.parses]
        assert [[np.copysign(1.0, v) for v in row] for row in rows] \
            == [[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, 1.0]]
        assert rows[0][2] is rows[1][2] is rows[2][1]
        again = _write(loaded, tmp_path, "again.jsonl")
        assert again.read_bytes() == path.read_bytes()

    def test_a_loaded_corpus_retains_few_bytes_per_parse(self, tmp_path):
        # 400 sentences, 2,451 parses of 3.0 nonzero features on average.
        # Retained (tracemalloc): 1,278,713 bytes, 522 per parse, with a
        # dict per parse; 856,097 bytes, 349 per parse, with shared pairs
        # in a tuple per parse (Python 3.11).
        corpus, _ = generate_synthetic(SyntheticConfig(
            n_sentences=400, ambiguity_range=(2, 10), seed=1))
        path = _write(corpus, tmp_path)
        del corpus
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = load_corpus(path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        parses = sum(len(e.parses) for e in loaded.entries)
        assert parses == 2451
        assert retained / parses < 420, retained / parses

    def test_two_loads_share_no_object(self, tmp_path):
        path = _passthrough_file(tmp_path / "c.jsonl", [
            [({"0": 2.0}, [self.SUBJ]), ({"0": 2.0}, [self.SUBJ])]])
        once, again = load_corpus(path), load_corpus(path)
        assert once == again

        def shared(corpus):
            return {id(x) for e in corpus.entries for p in e.parses
                    for x in (*p.relations, p.precomputed_features,
                              *p.precomputed_features,
                              *dict(p.precomputed_features).values())}

        # One relation, one feature tuple, one pair (0, 2.0) and one 2.0.
        assert len(shared(once)) == 4
        assert shared(once).isdisjoint(shared(again))


PASSTHROUGH_LINE = {
    "sentence_id": 7, "tokens": ["a", "b"], "weight": 2, "gold_index": 1,
    "parses": [
        {"parse_id": "p0", "precomputed_features": {"0": 1.0, "12": 2},
         "relations": [["subj", "v0", "n1", "active", 1],
                       ["dobj", "v1", "n1", "passive", 2]], "frame": "f0"},
        {"parse_id": 1, "precomputed_features": {"3": -0.0},
         "relations": None, "frame": None}]}


class TestReader:
    """The reader, which checks a relation at once where it can, accepts
    exactly the lines that the typed readers accept, reads them into equal
    entries, and names a bad line's first fault as the typed readers do."""

    def _check(self, line):
        try:
            expected = reference_read_entry("w", line)
        except DataError as exc:
            expected = exc
        try:
            entry = corpus_module._decode_json(
                "w", line.encode("utf-8"),
                lambda rec: corpus_module._entry_from_json(
                    rec, {}.setdefault, {}))
            corpus_module._validate_entry(entry, "w")
        except DataError as exc:
            assert str(exc) == str(expected)
            return
        assert entry == expected
        # -0.0 == 0.0: compare the signs of the feature values too.
        signs = [[np.copysign(1.0, v) for _, v in p.precomputed_features
                  or ()]
                 for e in (entry, expected) for p in e.parses]
        assert signs[:len(signs) // 2] == signs[len(signs) // 2:]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_variants(STRUCTURAL_LINE), _variants(PASSTHROUGH_LINE)),
           st.booleans())
    def test_agrees_with_the_typed_readers(self, variant, structural):
        doc = STRUCTURAL_LINE if structural else PASSTHROUGH_LINE
        try:
            line = _replaced(doc, *variant)
        except (KeyError, IndexError, TypeError):  # a path of the other line
            return
        self._check(json.dumps(line))

    @pytest.mark.parametrize("structural, path, value", [
        (True, RELATION + (3,), "middle"), (True, RELATION + (4,), 0),
        (True, RELATION + (4,), -1), (True, RELATION + (4,), True),
        (True, RELATION, ["subj", "v0", "n1", "active"]),
        (True, RELATION[:-1], ["abcde"]),
        (True, RELATION[:-1], [["s", "v0", "n", "active", 1],
                               ["t", "v9", "n", "active", 1]]),
        (True, ("parses", 1, "parse_id"), "p0"), (True, ("gold_index",), 2),
        (True, ("weight",), -1.0), (True, ("weight",), math.inf),
        (True, ("weight",), True), (True, ("sentence_id",), 1.5),
        (True, ("sentence_id",), True), (True, ("parses",), []),
        (True, ("tokens",), ["a", 1]), (True, ("parses", 0, "frame"), 3),
        (True, ("parses", 0, "cstructure"), "a"),
        (True, ("parses", 0, "cstructure"),
         ["S", [["NP", ["a"]], ["VP", ["b", "c"]]]]),
        (True, ("parses", 0, "fstructure"), []),
        (True, ("parses", 0, "fstructure"), None),
        (True, ("parses", 0, "fstructure", "pairs"), [["a"]]),
        (True, ("parses", 0, "fstructure", "pairs"), [["a", 1]]),
        (True, ("parses", 0, "fstructure", "pairs"), ["ab"]),
        (True, ("parses", 0, "fstructure", "pairs"), [["a", "b", "c"]]),
        (True, ("parses", 0, "fstructure", "functions"), "ab"),
        *[(False, ("parses", 0, "precomputed_features"), features)
          for features in ({"0": -1.0}, {"-1": 1.0}, {"01": 1.0},
                           {" 1": 1.0}, {"1_0": 1.0}, {"1": 1.0, "\u0661": 2},
                           {"0": math.nan}, {"0": True}, {"0": math.inf},
                           {"0": 10 ** 23}, {"0": 10 ** 400}, [], {},
                           {"0": 1.0, "1 2": 1.0}, {"0": 1.0, "": 1.0},
                           {"1" + "0" * 18: 1.0}, {"1" + "0" * 5000: 1.0})],
        (False, ("parses", 1, "precomputed_features"), None),
        # Good values: keys out of numeric order, and a 0.0 at the index
        # where the other parse has -0.0.
        *[(False, ("parses", 0, "precomputed_features"), features)
          for features in ({"12": 1.0, "3": 2.0, "0": 1.0},
                           {"3": 0.0, "0": 1.0})]])
    def test_agrees_on_one_bad_value(self, structural, path, value):
        doc = STRUCTURAL_LINE if structural else PASSTHROUGH_LINE
        self._check(json.dumps(_replaced(doc, path, value)))

    @pytest.mark.parametrize("faults", [
        [(RELATION + (3,), "middle"), (("parses", 1, "cstructure"), ["S"])],
        [(("weight",), -1.0), (("parses", 1, "frame"), 3)],
        [(("gold_index",), 5), (("parses", 1, "fstructure", "pairs"), [[]])],
        [(RELATION + (4,), 0), (("parses", 1, "relations", 0, 4), True)],
        [(("parses", 0, "parse_id"), "p1"), (RELATION + (3,), "middle")]])
    def test_names_the_first_fault_as_the_typed_readers_do(self, faults):
        doc = STRUCTURAL_LINE
        for path, value in faults:
            doc = _replaced(doc, path, value)
        with pytest.raises(DataError):
            reference_read_entry("w", json.dumps(doc))
        self._check(json.dumps(doc))


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
                parses=(ParseRecord(
                    parse_id="p0",
                    precomputed_features=feature_pairs({0: value})),))
            with pytest.raises(DataError, match="non-finite"):
                build_corpus([entry])


@pytest.mark.parametrize("features, fault", [
    ({0: 1.0, 1: -0.5}, "negative"), ({-1: 1.0}, "negative"),
    ({0: 1.0, 1: math.nan}, "non-finite"), ({0: math.inf}, "non-finite"),
    ({0: 1e308, 1: 1e308}, None), ({0: -0.0, 1: 0.0}, None)])
def test_every_feature_value_is_checked(features, fault):
    # Values whose sum overflows are each finite, so they pass.
    entry = SentenceEntry(sentence_id="s0", tokens=("t",), parses=(
        ParseRecord(parse_id="p0",
                    precomputed_features=feature_pairs(features)),))
    if fault is None:
        build_corpus([entry])
    else:
        with pytest.raises(DataError, match=f"has a {fault} precomputed"):
            build_corpus([entry])


@pytest.mark.parametrize("features, fault", [
    (((3, 1.0), (3, 2.0)), "repeated or out-of-order precomputed feature "
     r"index \(after 3\) \(3: 2.0\)"),
    (((0, 1.0), (4, 1.0), (2, 1.0)), "repeated or out-of-order precomputed "
     r"feature index \(after 4\) \(2: 1.0\)"),
    (((-1, 1.0), (0, 1.0)), "negative precomputed feature"),
    ({0: 1.0}, None)])
def test_features_are_pairs_by_increasing_index(features, fault):
    # A repeated index would put two nonzeros of one row in one column.
    entry = SentenceEntry(sentence_id="s0", tokens=("t",), parses=(
        ParseRecord(parse_id="p0", precomputed_features=features),))
    match = (r"precomputed_features must be a tuple of \(index, value\) "
             "pairs" if fault is None else f"parse 'p0' has a {fault}")
    with pytest.raises(DataError, match=match):
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
                                         precomputed_features=feature_pairs(r))
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
                for idx, value in parse.precomputed_features:
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
