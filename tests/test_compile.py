"""The compiled feature matrix against the per-parse reference extraction.

Random corpora carry either structural templates or only precomputed
features (the passthrough registry), together with lexicalized slots, and
include unequal sentence weights, single-parse sentences, duplicated parses
(exact score ties) and, in the held-out corpus, parses whose mass exceeds K.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parsedisamb import (ConfigError, DataError, FStructure, LogLinearModel,
                         PairCounts, ParseRecord, PropertyDescriptor,
                         PropertyRegistry, Relation, SentenceEntry,
                         TrainingConfig, add_correction, build_corpus,
                         build_feature_matrix,
                         build_freq_table, compile_corpus, compile_templates,
                         corpus_stats,
                         disambiguate, evaluate, lexicalized_properties,
                         pair_counts_from_corpus, random_baseline,
                         select_properties, sweep_checkpoints, train,
                         train_clusters)
from parsedisamb import corpus as corpus_module
from parsedisamb import properties
from parsedisamb.evaluation import TASKS
from parsedisamb.properties import STRUCTURAL_KINDS, structural_values
from conftest import (feature_pairs, freq_table, passthrough_corpus,
                      random_passthrough_instance, random_structural_corpus)
from oracles import (reference_correction, reference_decision,
                     reference_lexicalized_properties, reference_matrix,
                     reference_project,
                     reference_registry, reference_selection,
                     reference_structural_values)

LABELS = ("S", "NP", "VP", "PP", "CC")
TAGS = ("DT", "NN", "V", "CC", "P")
FUNCTIONS = ("SUBJ", "OBJ", "ADJUNCT", "MOD", "OBL")
PAIRS = (("TENSE", "past"), ("TENSE", "pres"), ("NUM", "sg"), ("CASE", "acc"))
SLOTS = (("subj", "active"), ("dobj", "active"), ("dobj", "passive"),
         ("iobj", "passive"))
VERBS = ("v0", "v1")
NOUNS = ("n0", "n1", "n2", "n3")

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


def _tree(draw, tokens, lo, hi, root=False):
    if hi - lo == 1 and not root and draw(st.booleans()):
        return tokens[lo]
    if hi - lo == 1:
        return (draw(st.sampled_from(TAGS)), (tokens[lo],))
    n_children = draw(st.integers(2, min(3, hi - lo)))
    cuts = sorted(draw(st.lists(st.integers(lo + 1, hi - 1),
                                min_size=n_children - 1,
                                max_size=n_children - 1, unique=True)))
    bounds = [lo, *cuts, hi]
    return (draw(st.sampled_from(LABELS)),
            tuple(_tree(draw, tokens, a, b) for a, b in zip(bounds, bounds[1:])))


def _parse(draw, parse_id, tokens, structured):
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        name, voice = draw(st.sampled_from(SLOTS))
        position = draw(st.integers(1, 4))  # 4 lies outside every slot
        relations.append(Relation(name, VERBS[position % len(VERBS)],
                                  draw(st.sampled_from(NOUNS)), voice,
                                  position))
    tree = fstructure = None
    if structured:
        tree = _tree(draw, tokens, 0, len(tokens), root=True)
        fstructure = FStructure(
            pairs=tuple(draw(st.lists(st.sampled_from(PAIRS), max_size=3))),
            functions=tuple(draw(st.lists(st.sampled_from(FUNCTIONS),
                                          max_size=4))))
    return ParseRecord(
        parse_id=parse_id,
        cstructure=tree,
        fstructure=fstructure,
        relations=tuple(relations),
        frame=draw(st.sampled_from(("f0", "f1", "f2"))),
        precomputed_features=feature_pairs(draw(st.dictionaries(
            st.integers(0, 5), st.sampled_from((0.0, 1.0, 2.0, 3.0)),
            max_size=3))))


@st.composite
def corpora(draw, max_tokens=5):
    """Structural corpora, or corpora whose parses carry only precomputed
    features."""
    structured = draw(st.booleans())
    entries = []
    for s in range(draw(st.integers(1, 5))):
        tokens = tuple(f"t{draw(st.integers(0, 3))}"
                       for _ in range(draw(st.integers(1, max_tokens))))
        parses = []
        for j in range(draw(st.integers(1, 4))):
            if parses and draw(st.integers(0, 3)) == 0:
                # A copy of the previous parse: an exact score tie.
                parses.append(ParseRecord(
                    parse_id=f"p{j}", cstructure=parses[-1].cstructure,
                    fstructure=parses[-1].fstructure,
                    relations=parses[-1].relations, frame=parses[-1].frame,
                    precomputed_features=parses[-1].precomputed_features))
            else:
                parses.append(_parse(draw, f"p{j}", tokens, structured))
        weight = 1.0 if s == 0 else float(draw(st.sampled_from((0.5, 1, 2))))
        entries.append(SentenceEntry(
            sentence_id=f"s{s}", tokens=tokens, parses=tuple(parses),
            weight=weight, gold_index=draw(st.integers(0, len(parses) - 1))))
    return build_corpus(entries)


@st.composite
def lex_tables(draw):
    single, _ = train_clusters(PairCounts(counts={("v", "n"): 1}), n_classes=1)
    entries = {(v, n): float(draw(st.integers(1, 3)))
               for v in VERBS for n in NOUNS if draw(st.booleans())}
    return freq_table(single, entries)


def _lambdas(size):
    """Dyadic parameters: sums are exact in any order, so ties stay ties."""
    return st.lists(st.sampled_from((-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)),
                    min_size=size, max_size=size).map(np.array)


class TestAgainstReference:
    @SETTINGS
    @given(corpora(), lex_tables(),
           st.lists(st.sampled_from(STRUCTURAL_KINDS), min_size=1,
                    unique=True))
    def test_extractors_keep_their_output(self, corpus, table, kinds):
        for entry in corpus.entries:
            assert lexicalized_properties(entry, table) == \
                reference_lexicalized_properties(entry, table)
            for parse in entry.parses:
                fast = structural_values(parse, kinds)
                slow = reference_structural_values(parse, kinds)
                assert list(fast.items()) == list(slow.items())  # order too

    @SETTINGS
    @given(corpora(), corpora(max_tokens=8), lex_tables(), st.integers(0, 4))
    def test_registry_correction_matrix_selection(self, corpus, heldout, table,
                                                   cutoff):
        expected = reference_registry(corpus, include_lexicalized=True,
                                      lex_table=table)
        passthrough = not corpus.entries[0].parses[0].has_structure
        if passthrough and not any(kind == "passthrough"
                                   for kind, _, _ in expected):
            with pytest.raises(DataError, match="empty"):
                compile_templates(corpus, table)
            return
        templates = compile_templates(corpus, table)
        registry = templates.registry
        assert [(d.kind, d.key, d.activation_count)
                for d in registry.properties] == expected
        assert np.array_equal(np.bincount(templates.indices,
                                          minlength=templates.n_features),
                              [d.activation_count for d in registry.properties])

        expected = reference_selection(registry, cutoff)
        if not expected:
            with pytest.raises(DataError):
                select_properties(registry, cutoff)
            return
        selected = select_properties(registry, cutoff)
        assert [(d.kind, d.key, d.activation_count)
                for d in selected.properties] == expected
        # The stored counts are those of a recount against the corpus.
        assert expected == reference_selection(registry, cutoff, corpus=corpus,
                                               lex_table=table)

        K, activation = reference_correction(selected, corpus, table)
        if K <= 0:
            with pytest.raises(DataError, match="zero feature mass"):
                add_correction(selected, corpus, lex_table=table)
            return
        frozen = add_correction(selected, corpus, lex_table=table)
        assert frozen.correction_K == K
        assert frozen.properties[-1].activation_count == activation
        # The compiled templates give the same correction without a walk.
        assert add_correction(selected, templates) == frozen

        dense, clamped = reference_matrix(corpus, frozen, table)
        assert clamped == 0
        matrix = build_feature_matrix(corpus, frozen, lex_table=table)
        assert matrix.clamped_corrections == 0
        assert np.array_equal(matrix.values, dense)
        projected = templates.project(frozen)
        assert projected.clamped_corrections == 0
        for name in ("indptr", "indices", "data", "offsets", "weights", "gold",
                     "frames"):
            assert np.array_equal(getattr(projected, name), getattr(matrix, name))
        assert projected.sentence_ids == matrix.sentence_ids
        assert projected.parse_ids == matrix.parse_ids
        # The CLI's compile path and compile_corpus give one universe, and
        # so does the template matrix in the corpus's place.
        assert projected.digest == matrix.digest
        assert build_feature_matrix(templates, frozen).digest == matrix.digest

        # Held-out data: every sentence kept, masses above K clamped.
        dense, clamped = reference_matrix(heldout, frozen, table)
        compiled = compile_corpus(heldout, frozen, lex_table=table)
        assert np.array_equal(compiled.values, dense)
        assert compiled.clamped_corrections == clamped

        for compiled_by in (templates, projected, matrix, compiled):
            assert compiled_by.indices.dtype == np.intp
            assert compiled_by.rows.dtype == np.intp
            # Columns increase within a row.
            starts, ends = compiled_by.indptr[:-1], compiled_by.indptr[1:]
            assert all(np.all(np.diff(compiled_by.indices[a:b]) > 0)
                       for a, b in zip(starts, ends))

    @SETTINGS
    @given(corpora(), corpora(max_tokens=8), lex_tables(), st.data())
    def test_batched_decisions_match_per_sentence_decisions(
            self, corpus, heldout, table, data):
        try:
            registry = compile_templates(corpus, table).registry
            registry = add_correction(registry, corpus, lex_table=table)
        except DataError:  # no feature mass anywhere
            return
        lam = data.draw(_lambdas(registry.size))
        model = LogLinearModel(
            lam=lam, registry=registry, universe=corpus.content_digest(),
            universe_size=corpus_stats(corpus).universe_size)
        expected = [reference_decision(lam, entry, registry,
                                       lex_table=table)
                    for entry in heldout.entries]
        outcome = evaluate(model, heldout, lex_table=table)
        assert [(v.decision_kind, v.chosen_parse_ids)
                for v in outcome.verdicts] == expected
        for entry, (kind, ids) in zip(heldout.entries, expected):
            decision = disambiguate(model, entry, lex_table=table)
            assert (decision.kind, decision.parse_ids) == (kind, ids)
        exact, frame = [], []
        for entry, (kind, ids) in zip(heldout.entries, expected):
            gold = entry.parses[entry.gold_index]
            frames = {p.frame for p in entry.parses if p.parse_id in ids}
            exact.append("dont_know" if kind == "dont_know" else
                         "correct" if ids == (gold.parse_id,) else "incorrect")
            frame.append("dont_know" if len(frames) > 1 else
                         "correct" if frames == {gold.frame} else "incorrect")
        assert [v.verdict for v in outcome.verdicts] == exact
        assert [v.verdict for v in evaluate(model, heldout, task="frame_match",
                                            lex_table=table).verdicts] == frame


class TestCompileWalk:
    def test_compile_walks_each_tree_once(self, monkeypatch):
        # structural_values counts the leaves in its own walk of the tree.
        tokens = ("a", "b", "c")
        parses = tuple(ParseRecord(
            parse_id=f"p{j}", cstructure=tree,
            fstructure=FStructure(functions=("SUBJ",)))
            for j, tree in enumerate((
                ("S", (("NP", ("a",)), ("VP", ("b", ("N", ("c",)))))),
                ("S", ("a", ("X", ("b", "c")))))))
        corpus = build_corpus([SentenceEntry(
            sentence_id="s0", tokens=tokens, parses=parses, gold_index=0)])
        registry = add_correction(compile_templates(corpus).registry, corpus)
        calls = []
        count = corpus_module.count_leaves

        def counting(*args):
            calls.append(args)
            return count(*args)

        for module in (corpus_module, properties):
            monkeypatch.setattr(module, "count_leaves", counting, raising=False)
        compiled = compile_corpus(corpus, registry)
        templates = compile_templates(corpus)
        assert calls == []
        assert templates.registry.index_of("attachment-complexity", "2-3") \
            is not None
        assert np.array_equal(compiled.values,
                              templates.project(registry).values)


class TestFeatureMatrix:
    CORPUS = passthrough_corpus([[{0: 3}, {}, {0: 1, 2: 2}], [{1: 1}]],
                                weights=[1.0, 0.5])

    def _matrix(self):
        return compile_templates(self.CORPUS)

    def test_products_match_the_dense_matrix(self):
        matrix = self._matrix()
        dense = matrix.values
        lam = np.array([0.5, -1.0, 2.0])
        assert np.array_equal(matrix.dot(lam), dense @ lam)
        weights = np.array([0.25, 1.0, -0.5, 2.0])
        assert np.array_equal(matrix.weighted_sum(weights), weights @ dense)
        assert np.array_equal(matrix.row_totals(), dense.sum(axis=1))
        assert np.array_equal(np.bincount(matrix.indices,
                                          minlength=matrix.n_features),
                              (dense != 0).sum(axis=0))

    def test_rows_are_sorted_when_templates_come_in_registry_order(self):
        # The templates first occur in registry order, so the columns of
        # the walk already have their final numbers; later rows still list
        # them out of order.
        corpus = passthrough_corpus([[{0: 1, 1: 2}, {1: 3, 0: 4}],
                                     [{2: 5, 1: 6, 0: 7}]])
        matrix = compile_templates(corpus)
        assert [d.key for d in matrix.registry.properties] \
            == ["000000", "000001", "000002"]
        assert matrix.indices.tolist() == [0, 1, 0, 1, 0, 1, 2]
        assert matrix.data.tolist() == [1, 2, 4, 3, 7, 6, 5]
        frozen = add_correction(matrix.registry, matrix)
        for compiled in (matrix.project(frozen),
                         build_feature_matrix(corpus, frozen),
                         compile_corpus(corpus, frozen)):
            starts, ends = compiled.indptr[:-1], compiled.indptr[1:]
            assert all(np.all(np.diff(compiled.indices[a:b]) > 0)
                       for a, b in zip(starts, ends))
            assert np.array_equal(compiled.values[:, :3], matrix.values)

    @SETTINGS
    @given(st.integers(0, 2 ** 32 - 1), st.data())
    def test_projection_equals_the_reference(self, seed, data):
        corpus, _ = random_passthrough_instance(np.random.default_rng(seed))
        matrix = compile_templates(corpus)
        columns = matrix.registry.properties
        # Columns kept in any order, so some maps reorder rows.
        kept = data.draw(st.lists(st.sampled_from(range(len(columns))),
                                  min_size=1, unique=True))
        registry = PropertyRegistry(properties=[columns[i] for i in kept])
        if data.draw(st.booleans()):
            registry = add_correction(registry, matrix)
            if data.draw(st.booleans()):  # a K below some totals clamps
                registry = replace(registry, correction_K=float(
                    data.draw(st.integers(0, 8))))
        projected = matrix.project(registry)
        # A projection that keeps every column reads the source's row
        # index; one that drops columns counts rows without it.
        if projected is not matrix:
            assert ("rows" in vars(matrix)) == (len(kept) == len(columns))
        indptr, indices, values, clamped = reference_project(matrix, registry)
        for got, want in ((projected.indptr, indptr),
                          (projected.indices, indices),
                          (projected.data, values)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert projected.clamped_corrections == clamped
        assert np.array_equal(projected.rows, np.repeat(
            np.arange(projected.n_parses), np.diff(indptr)))

    def test_matrices_hold_the_corpus_sentences(self):
        matrix = self._matrix()
        frozen = add_correction(matrix.registry, matrix)
        ids = [(e.sentence_id, tuple(p.parse_id for p in e.parses))
               for e in self.CORPUS.entries]

        def held(compiled):
            return [(compiled.sentence_ids[s], compiled.parse_ids[
                compiled.offsets[s]:compiled.offsets[s + 1]])
                for s in range(compiled.n_sentences)]

        assert held(matrix) == ids
        assert held(compile_corpus(self.CORPUS, frozen)) == ids
        # Projecting a matrix keeps its sentences.
        projected = matrix.project(frozen)
        assert projected.sentence_ids is matrix.sentence_ids
        assert projected.parse_ids is matrix.parse_ids
        assert projected.frames is matrix.frames
        again = build_feature_matrix(self.CORPUS, frozen)
        assert held(again) == ids
        assert np.array_equal(again.frames, matrix.frames)

    def test_index_arrays_are_native(self):
        matrix = self._matrix()
        frozen = add_correction(matrix.registry, matrix)
        for compiled in (matrix, matrix.project(frozen),
                         build_feature_matrix(self.CORPUS, frozen),
                         compile_corpus(self.CORPUS, frozen)):
            assert compiled.indices.dtype == np.intp
            assert compiled.rows.dtype == np.intp

    def test_digest_follows_every_scored_input(self):
        matrix = self._matrix()
        frozen = add_correction(matrix.registry, matrix)
        universe = build_feature_matrix(self.CORPUS, frozen)
        assert universe.digest == \
            build_feature_matrix(self.CORPUS, frozen).digest
        value, weight = universe.data.copy(), universe.weights.copy()
        value[1] += 1.0
        weight[0] = 0.5
        renamed = replace(frozen, properties=[
            replace(d, key="000009") if d.key == "000002" else d
            for d in frozen.properties])
        for changed in (replace(universe, data=value),
                        replace(universe, weights=weight),
                        replace(universe, registry=renamed)):
            assert changed.digest != universe.digest

    def test_negative_values_rejected_once_at_construction(self):
        matrix = self._matrix()
        with pytest.raises(DataError, match="negative"):
            type(matrix)(indptr=matrix.indptr, indices=matrix.indices,
                         data=-matrix.data, registry=matrix.registry,
                         offsets=matrix.offsets, weights=matrix.weights,
                         gold=matrix.gold, sentence_ids=matrix.sentence_ids,
                         parse_ids=matrix.parse_ids, frames=matrix.frames)


class TestMatrixInPlaceOfACorpus:
    """Each function that compiles a corpus takes the matrix compiled from
    it instead, and gives the same results without compiling again."""

    def _case(self, kind):
        rng = np.random.default_rng(4)
        if kind == "passthrough":
            corpus, _ = random_passthrough_instance(rng, with_gold=True)
            return corpus, None, ("exact_match",)  # no frames
        corpus = random_structural_corpus(rng, 12)
        pairs = pair_counts_from_corpus(corpus)
        clusters, _ = train_clusters(pairs, n_classes=2, seed=1)
        return corpus, build_freq_table(clusters, pairs), TASKS

    @pytest.mark.parametrize("kind", ["passthrough", "structural"])
    def test_the_matrix_gives_the_corpus_results(self, kind):
        corpus, table, tasks = self._case(kind)
        templates = compile_templates(corpus, table)
        registry = add_correction(templates.registry, corpus, lex_table=table)
        assert add_correction(templates.registry, templates) == registry

        config = TrainingConfig(max_iterations=6, checkpoint_every=2)
        model, trace = train(corpus, registry, config, lex_table=table)
        universe = build_feature_matrix(templates, registry)
        for matrix in (templates, universe):
            again, again_trace = train(matrix, registry, config)
            assert np.array_equal(again.lam, model.lam)
            assert again.universe == model.universe
            assert again_trace.likelihoods() == trace.likelihoods()

        test = compile_corpus(corpus, registry, table)
        assert compile_corpus(test, registry) is test
        checkpoints = [(i, model.with_lam(lam))
                       for i, lam in trace.checkpoints()]
        for task in tasks:
            assert evaluate(model, test, task) \
                == evaluate(model, corpus, task, lex_table=table)
            assert random_baseline(test, task, registry, n_models=3, seed=2) \
                == random_baseline(corpus, task, registry, n_models=3, seed=2,
                                   lex_table=table)
            assert sweep_checkpoints(checkpoints, test, task) \
                == sweep_checkpoints(checkpoints, corpus, task,
                                     lex_table=table)

    def test_a_column_the_matrix_lacks_is_a_config_error(self):
        corpus = passthrough_corpus([[{0: 1}, {1: 2}]], golds=[0])
        matrix = compile_templates(corpus)
        wider = PropertyRegistry(properties=[
            *matrix.registry.properties,
            PropertyDescriptor(kind="passthrough", key="000002")])
        frozen = add_correction(wider, corpus)
        for registry in (wider, frozen):
            with pytest.raises(ConfigError, match="columns the matrix lacks"):
                matrix.project(registry)
        with pytest.raises(ConfigError, match="columns the matrix lacks"):
            random_baseline(matrix, "exact_match", frozen, n_models=1)
        # The matrix has every column of a narrower registry.
        narrower = PropertyRegistry(properties=matrix.registry.properties[:1])
        assert matrix.project(narrower).n_features == 1
