from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from parsedisamb import (ConfigError, DataError, ParseRecord, SentenceEntry,
                         add_correction, build_corpus, build_feature_matrix,
                         build_registry, compile_corpus, save_registry,
                         select_properties, train)
from parsedisamb.corpus import read_json
from parsedisamb.properties import PropertyDescriptor, PropertyRegistry
from conftest import feature_pairs, passthrough_corpus, structural_parse
from oracles import entry_feature_rows


def _named_rows(corpus, registry, **kwargs):
    """Per parse of the compiled corpus: {(kind, key): value} of its row."""
    matrix = compile_corpus(corpus, registry, **kwargs)
    rows = []
    for r in range(matrix.n_parses):
        a, b = matrix.indptr[r], matrix.indptr[r + 1]
        rows.append({(registry.properties[c].kind, registry.properties[c].key): v
                     for c, v in zip(matrix.indices[a:b], matrix.data[a:b])})
    return rows


def _kind_rows(corpus, *kinds):
    """Per parse: the entries of ``kinds`` in its row over the full registry."""
    return [{name: v for name, v in row.items() if name[0] in kinds}
            for row in _named_rows(corpus, build_registry(corpus))]


def _keyed(row):
    return {key: v for (_, key), v in row.items()}


def _structural_corpus(parse_specs):
    """One sentence per spec; each spec is a list of ParseRecords."""
    entries = []
    for s, parses in enumerate(parse_specs):
        n_tokens = len(_leaves(parses[0].cstructure))
        entries.append(SentenceEntry(
            sentence_id=f"s{s}",
            tokens=tuple(f"w{s}_{i}" for i in range(n_tokens)),
            parses=tuple(parses)))
    return build_corpus(entries)


def _leaves(tree):
    if isinstance(tree, str):
        return [tree]
    out = []
    for child in tree[1]:
        out.extend(_leaves(child))
    return out


FLAT = ("S", (("NP", ("DT", "NN")), ("VP", ("V",))))


class TestStructuralExtractors:
    def test_production_counts(self):
        corpus = _structural_corpus([[structural_parse("p0", FLAT)]])
        (row,) = _kind_rows(corpus, "production")
        assert _keyed(row) == {"S -> NP VP": 1, "NP -> DT NN": 1, "VP -> V": 1}

    def test_right_branching_tree_scores_zero(self):
        right = ("A", ("x", ("B", ("y", ("C", ("z", "w"))))))
        left = ("A", (("B", (("C", ("z", "w")), "y")), "x"))
        corpus = _structural_corpus([
            [structural_parse("p0", right), structural_parse("p1", left)]])
        p_right, p_left = _kind_rows(corpus, "non-right-branching")
        assert p_right == {}
        (value,) = p_left.values()
        assert value == 2  # B and C both have a right sibling

    def test_coordination_parallelism(self):
        same = ("NP", (("NP", ("a",)), ("CC", ("und",)), ("NP", ("b",))))
        diff = ("NP", (("NP", ("a",)), ("CC", ("und",)), ("S", ("b",))))
        corpus = _structural_corpus([
            [structural_parse("p0", same), structural_parse("p1", diff)]])
        p_same, p_diff = _kind_rows(corpus, "coord-non-parallel")
        assert p_same == {}
        (value,) = p_diff.values()
        assert value == 1

    def test_attachment_complexity_buckets(self):
        # NP dominates 2 tokens -> bucket 2-3; VP dominates 1 -> bucket 1.
        corpus = _structural_corpus([[structural_parse(
            "p0", ("S", (("NP", ("a", "b")), ("VP", ("c",)))))]])
        (row,) = _kind_rows(corpus, "attachment-complexity")
        assert _keyed(row) == {"1": 1, "2-3": 1}

    def test_argument_adjunct_split(self):
        parse = structural_parse(
            "p0", ("S", ("a",)),
            functions=["SUBJ", "OBJ", "ADJUNCT", "SUBJ"])
        corpus = _structural_corpus([[parse]])
        (row,) = _kind_rows(corpus, "subtree-attachment")
        assert _keyed(row) == {"argument": 3, "adjunct": 1}

    def test_fstr_kinds(self):
        parse = structural_parse(
            "p0", ("S", ("a",)),
            functions=["SUBJ", "SUBJ", "OBJ"],
            pairs=[("TENSE", "past"), ("CASE", "acc"), ("TENSE", "past")])
        corpus = _structural_corpus([[parse]])
        (named,) = _kind_rows(corpus, "fstr-attribute", "fstr-atomic-pair")
        assert named == {
            ("fstr-attribute", "SUBJ"): 2,
            ("fstr-attribute", "OBJ"): 1,
            ("fstr-atomic-pair", "TENSE=past"): 2,
            ("fstr-atomic-pair", "CASE=acc"): 1,
        }

    def test_extraction_is_pure(self):
        corpus = _structural_corpus([[structural_parse("p0", FLAT)]])
        registry = build_registry(corpus)
        first = compile_corpus(corpus, registry)
        again = compile_corpus(corpus, registry)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(first, name), getattr(again, name))


class TestRegistryConstruction:
    def test_passthrough_registry(self):
        corpus = passthrough_corpus([[{0: 1, 4: 2}], [{2: 1}]])
        registry = build_registry(corpus)
        assert registry.size == 5
        assert all(d.kind == "passthrough" for d in registry.properties)

    def test_deterministic_ordering(self):
        corpus = _structural_corpus([[structural_parse(
            "p0", FLAT, functions=["SUBJ"], pairs=[("T", "x")])]])
        registry = build_registry(corpus)
        keys = [(d.kind, d.key) for d in registry.properties]
        assert keys == sorted(keys)

    def test_one_parse_without_structure_selects_passthrough(self):
        with_both = replace(structural_parse("p0", FLAT),
                            precomputed_features=feature_pairs({0: 1.0}))
        features_only = ParseRecord(parse_id="p1",
                                    precomputed_features=feature_pairs({1: 2.0}))
        corpus = build_corpus([SentenceEntry(
            sentence_id="s0", tokens=("a", "b", "c"),
            parses=(with_both, features_only))])
        assert build_registry(corpus).kinds() == {"passthrough"}

    def test_mixed_corpus_is_a_data_error(self):
        structure_only = structural_parse("p0", FLAT)
        features_only = ParseRecord(parse_id="p1",
                                    precomputed_features=feature_pairs({0: 1.0}))
        corpus = build_corpus([
            SentenceEntry(sentence_id="s0", tokens=("a", "b", "c"),
                          parses=(structure_only,)),
            SentenceEntry(sentence_id="s1", tokens=("a",),
                          parses=(features_only,))])
        with pytest.raises(DataError, match="mixes") as info:
            build_registry(corpus)
        assert "'p0' of sentence 's0'" in str(info.value)
        assert "'p1' of sentence 's1'" in str(info.value)

    def test_activation_counts(self):
        corpus = passthrough_corpus([[{0: 1}, {0: 2, 1: 1}], [{1: 3}]])
        registry = build_registry(corpus)
        counts = {d.key: d.activation_count for d in registry.properties}
        assert counts == {"000000": 2, "000001": 2}

    def test_structural_plus_lexicalized(self):
        from parsedisamb import slot_key, train_clusters
        from parsedisamb.lexicalization import PairCounts
        from conftest import freq_table, relation

        single, _ = train_clusters(PairCounts(counts={("v", "n"): 1}),
                                   n_classes=1)
        table = freq_table(single, {("v", "a"): 2.0, ("v", "b"): 5.0})
        parses = [
            structural_parse("p0", FLAT, functions=["SUBJ"],
                             relations=[relation("subj", "v", "a")]),
            structural_parse("p1", FLAT, functions=["OBJ"],
                             relations=[relation("subj", "v", "b")]),
        ]
        corpus = _structural_corpus([parses])
        registry = build_registry(corpus, include_lexicalized=True,
                                  lex_table=table)
        kinds = registry.kinds()
        assert "production" in kinds and "lexicalized-relation" in kinds
        slot = registry.index_of("lexicalized-relation",
                                 slot_key("subj", "active", 1))
        assert slot is not None
        # Only the f_c-maximal parse activates the slot.
        assert registry.properties[slot].activation_count == 1
        # The slot values come from the sentence-level pre-disambiguator,
        # and the correction tops every row up to K.
        frozen = add_correction(registry, corpus, lex_table=table)
        matrix = compile_corpus(corpus, frozen, lex_table=table)
        assert list(matrix.values[:, slot]) == [0, 1]
        assert np.all(matrix.values.sum(axis=1) == frozen.correction_K)
        with pytest.raises(ConfigError, match="table"):
            compile_corpus(corpus, frozen)

    def test_lexicalized_without_table_is_an_error(self):
        corpus = passthrough_corpus([[{0: 1}]])
        with pytest.raises(ConfigError, match="table"):
            build_registry(corpus, include_lexicalized=True)

    def test_serialization_round_trip(self, tmp_path):
        corpus = _structural_corpus([[structural_parse(
            "p0", FLAT, functions=["SUBJ"])]])
        registry = add_correction(build_registry(corpus), corpus)
        path = tmp_path / "registry.json"
        save_registry(registry, path)
        again = read_json(path, PropertyRegistry.from_json_dict)
        assert again.to_json_dict() == registry.to_json_dict()
        assert again.correction_K == registry.correction_K


class TestCorrection:
    def test_constant_total(self):
        corpus = passthrough_corpus([[{0: 3}, {0: 2, 1: 3}, {1: 2}]])
        registry = add_correction(build_registry(corpus), corpus)
        assert registry.correction_K == 5
        matrix = build_feature_matrix(corpus, registry)
        assert_allclose(matrix.values.sum(axis=1), [5, 5, 5])
        corrections = matrix.values[:, registry.correction_index]
        assert_allclose(corrections, [2, 0, 3])

    def test_equal_masses_zero_correction(self):
        corpus = passthrough_corpus([[{0: 4}, {1: 4}]])
        registry = add_correction(build_registry(corpus), corpus)
        assert registry.correction_K == 4
        matrix = build_feature_matrix(corpus, registry)
        assert_allclose(matrix.values[:, registry.correction_index], [0, 0])

    def test_single_parse(self):
        corpus = passthrough_corpus([[{0: 7}]])
        registry = add_correction(build_registry(corpus), corpus)
        assert registry.correction_K == 7
        matrix = build_feature_matrix(corpus, registry)
        assert matrix.values[0, registry.correction_index] == 0

    def test_exactness_on_integer_inputs(self):
        rng = np.random.default_rng(5)
        sentences = []
        for _ in range(30):
            k = int(rng.integers(1, 5))
            sentences.append([
                {int(f): int(rng.integers(0, 5)) for f in range(6)}
                for _ in range(k)])
        corpus = passthrough_corpus(sentences)
        registry = add_correction(build_registry(corpus), corpus)
        matrix = build_feature_matrix(corpus, registry)
        totals = matrix.values.sum(axis=1)
        assert np.all(totals == registry.correction_K)  # exact, not approximate

    def test_double_correction_rejected(self):
        corpus = passthrough_corpus([[{0: 1}]])
        registry = add_correction(build_registry(corpus), corpus)
        with pytest.raises(ConfigError):
            add_correction(registry, corpus)

    def test_stale_registry_detected(self):
        corpus = passthrough_corpus([[{0: 1}]])
        registry = add_correction(build_registry(corpus), corpus)
        bigger = passthrough_corpus([[{0: 9}]])
        matrix = build_feature_matrix(bigger, registry)
        assert matrix.clamped_corrections == 1
        assert matrix.values[0, registry.correction_index] == 0
        # Training on the universe of a stale registry is a data error,
        # whether train compiles the corpus or is handed the matrix.
        with pytest.raises(DataError, match="stale"):
            train(bigger, registry)
        with pytest.raises(DataError, match="stale"):
            train(matrix, registry)

    def test_zero_weight_sentences_leave_the_universe(self):
        corpus = passthrough_corpus([[{0: 1}, {0: 2}], [{0: 3}]],
                                    weights=[1.0, 0.0])
        assert corpus.universe_size == 2
        registry = add_correction(build_registry(corpus), corpus)
        matrix = build_feature_matrix(corpus, registry)
        assert matrix.n_parses == 2
        assert matrix.sentence_ids == ("s0",)
        assert matrix.parse_ids == ("p0", "p1")
        assert matrix.frames.tolist() == [-1, -1]

    def test_entry_rows_match_matrix(self):
        corpus = passthrough_corpus([[{0: 3}, {1: 1}], [{0: 1, 1: 1}]])
        registry = add_correction(build_registry(corpus), corpus)
        matrix = build_feature_matrix(corpus, registry)
        row = 0
        for s, entry in enumerate(corpus.entries):
            for sparse in entry_feature_rows(entry, registry):
                dense = np.zeros(registry.size)
                for idx, value in sparse.items():
                    dense[idx] = value
                assert_allclose(dense, matrix.values[row])
                row += 1


class TestSelection:
    def _registry(self, counts):
        props = [PropertyDescriptor(kind="passthrough",
                                    key=f"{i:06d}", activation_count=c)
                 for i, c in enumerate(counts)]
        return PropertyRegistry(properties=props)

    def test_threshold(self):
        registry = select_properties(self._registry([100, 3, 0]), cutoff=4)
        assert registry.size == 1
        assert registry.properties[0].activation_count == 100

    def test_zero_cutoff_is_identity(self):
        base = self._registry([100, 3, 0])
        registry = select_properties(base, cutoff=0)
        assert [(d.kind, d.key) for d in registry.properties] == \
               [(d.kind, d.key) for d in base.properties]

    def test_empty_selection_is_an_error(self):
        with pytest.raises(DataError):
            select_properties(self._registry([100]), cutoff=101)

    def test_must_precede_correction(self):
        corpus = passthrough_corpus([[{0: 1}]])
        registry = add_correction(build_registry(corpus), corpus)
        with pytest.raises(ConfigError):
            select_properties(registry, cutoff=1)

    def test_selected_extraction_is_a_subvector(self):
        corpus = passthrough_corpus([[{0: 1, 1: 2, 2: 3}, {2: 1}], [{1: 1}]])
        full = build_registry(corpus)
        selected = select_properties(full, cutoff=2)
        assert 0 < selected.size < full.size
        kept = {d.key for d in selected.properties}
        for row_full, row_selected in zip(_named_rows(corpus, full),
                                          _named_rows(corpus, selected)):
            assert row_selected == {k: v for k, v in row_full.items()
                                    if k[1] in kept}

    def test_recount_against_corpus(self):
        # Selection uses the stored counts, which are a count over the corpus.
        corpus = passthrough_corpus([[{0: 1}, {0: 2}], [{1: 1}]])
        registry = build_registry(corpus)
        matrix = compile_corpus(corpus, registry)
        recount = np.bincount(matrix.indices, minlength=matrix.n_features)
        assert [d.activation_count for d in registry.properties] == \
            recount.tolist()
        selected = select_properties(registry, cutoff=2)
        assert [d.key for d in selected.properties] == ["000000"]
