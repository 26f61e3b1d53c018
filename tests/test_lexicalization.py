import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from parsedisamb import (SLOTS, ClusterModel, ConfigError, DataError,
                         PairCounts, SentenceEntry, build_corpus,
                         build_freq_table, class_membership,
                         lexicalized_properties, load_pair_counts,
                         pair_counts_from_corpus, save_pair_counts, slot_key,
                         train_clusters)
from parsedisamb import lexicalization
from parsedisamb.corpus import ParseRecord, read_json, write_json
from parsedisamb.lexicalization import (load_freq_table, save_cluster_model,
                                        save_freq_table)
from conftest import feature_pairs, freq_table, relation
from oracles import (reference_build_freq_table, reference_posterior,
                     reference_train_clusters, stored_entries)


# numpy sums fewer than 8 terms one after another and longer runs pairwise,
# 8 partial sums at a time, so bit identity over the class axis needs class
# counts on both sides of 8 and runs with a remainder past a multiple of 8.
CLASS_COUNTS = (1, 2, 3, 6, 8, 9, 16, 17, 33)

TOY_COUNTS = PairCounts(counts={
    ("eat", "apple"): 4,
    ("eat", "pasta"): 2,
    ("drive", "car"): 3,
})


def _uniform_two_class_model(counts: PairCounts) -> ClusterModel:
    V, N = len(counts.verbs), len(counts.nouns)
    return ClusterModel(
        priors=np.array([0.5, 0.5]),
        verb_emissions=np.full((2, V), 1.0 / V),
        noun_emissions=np.full((2, N), 1.0 / N),
        verbs=counts.verbs, nouns=counts.nouns)


class TestDefaultSlots:
    def test_forty_five_slots(self):
        assert len(SLOTS) == len(set(SLOTS)) == 45
        assert ("dobj", "passive", 1) not in SLOTS
        assert ("dobj", "active", 3) in SLOTS
        # Relation-major, then voice, then verb position.
        assert SLOTS[:4] == (("subj", "active", 1), ("subj", "active", 2),
                             ("subj", "active", 3), ("subj", "passive", 1))
        assert SLOTS[6:9] == (("dobj", "active", 1), ("dobj", "active", 2),
                              ("dobj", "active", 3))
        assert SLOTS[-1] == ("adj-acc", "passive", 3)
        assert slot_key(*SLOTS[0]) == "subj/active/1"


class TestTrainClusters:
    def test_single_class_is_closed_form(self):
        model, trace = train_clusters(TOY_COUNTS, n_classes=1, max_iterations=8)
        assert model.n_classes == 1
        assert_allclose(model.priors, [1.0])
        assert_allclose(trace, trace[0])  # constant likelihood
        posterior = class_membership(model, "eat", "apple")
        assert_allclose(posterior, [1.0])

    def test_symmetric_init_preserves_the_saddle(self, monkeypatch):
        # A generator that draws only zeros makes the seeded start uniform.
        class Zeros:
            def random(self, shape):
                return np.zeros(shape)
        monkeypatch.setattr(lexicalization, "seeded_rng", lambda seed: Zeros())
        model, _ = train_clusters(TOY_COUNTS, n_classes=2, max_iterations=6,
                                  tolerance=1e-300)
        assert_allclose(model.verb_emissions[0], model.verb_emissions[1])
        assert_allclose(model.noun_emissions[0], model.noun_emissions[1])
        assert_allclose(model.priors, [0.5, 0.5])

    def test_one_step_matches_hand_computed_oracle(self):
        # Independent EM reference: explicit loops over pairs and classes,
        # from the start that train_clusters draws from its seed.
        rng = np.random.default_rng(42)
        counts = TOY_COUNTS
        V, N = len(counts.verbs), len(counts.nouns)
        priors = np.array([0.5, 0.5])
        ve = 1.0 + 0.1 * rng.random((2, V))
        ve /= ve.sum(axis=1, keepdims=True)
        ne = 1.0 + 0.1 * rng.random((2, N))
        ne /= ne.sum(axis=1, keepdims=True)

        model, _ = train_clusters(counts, n_classes=2, max_iterations=1,
                                  tolerance=1e-300, seed=42)

        # Reference M-step.
        vi = {v: i for i, v in enumerate(counts.verbs)}
        ni = {n: i for i, n in enumerate(counts.nouns)}
        resp = {}
        for (v, n), f in counts.counts.items():
            joint = [priors[c] * ve[c, vi[v]] * ne[c, ni[n]] for c in range(2)]
            total = sum(joint)
            resp[(v, n)] = [j / total for j in joint]
        total_f = sum(counts.counts.values())
        ref_priors = np.zeros(2)
        ref_ve = np.zeros((2, V))
        ref_ne = np.zeros((2, N))
        for (v, n), f in counts.counts.items():
            for c in range(2):
                w = f * resp[(v, n)][c]
                ref_priors[c] += w
                ref_ve[c, vi[v]] += w
                ref_ne[c, ni[n]] += w
        mass = ref_priors.copy()
        ref_priors /= total_f
        ref_ve /= mass[:, None]
        ref_ne /= mass[:, None]

        assert_allclose(model.priors, ref_priors, atol=1e-12)
        assert_allclose(model.verb_emissions, ref_ve, atol=1e-12)
        assert_allclose(model.noun_emissions, ref_ne, atol=1e-12)

    def test_likelihood_non_decreasing(self):
        rng = np.random.default_rng(6)
        verbs = [f"v{i}" for i in range(8)]
        nouns = [f"n{i}" for i in range(12)]
        counts = {}
        for _ in range(40):
            key = (str(rng.choice(verbs)), str(rng.choice(nouns)))
            counts[key] = counts.get(key, 0) + int(rng.integers(1, 6))
        pair_counts = PairCounts(counts=counts)
        for classes in (2, 4):
            _, trace = train_clusters(pair_counts, n_classes=classes,
                                      max_iterations=60, tolerance=1e-12,
                                      seed=3)
            assert all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bit_identical_to_the_two_joint_reference(self, data):
        counts = PairCounts(counts=data.draw(st.dictionaries(
            st.tuples(st.sampled_from(("v0", "v1", "v2", "v3", "v4")),
                      st.sampled_from(("n0", "n1", "n2", "n3", "n4", "n5"))),
            st.integers(0, 9), min_size=1, max_size=20)))
        assume(len(counts))  # all-zero draws leave no pairs
        kwargs = dict(
            n_classes=data.draw(st.sampled_from(CLASS_COUNTS)),
            max_iterations=data.draw(st.integers(1, 20)),
            # The larger tolerances stop EM before max_iterations.
            tolerance=data.draw(st.sampled_from((1e-300, 1e-6, 1e-2, 1.0))),
            seed=data.draw(st.integers(0, 1000)))
        # Zero-count pairs are dropped, so no verb or noun is left without
        # mass and every draw trains.
        assert 0 not in counts.counts.values()
        expected, expected_trace = reference_train_clusters(counts, **kwargs)
        model, trace = train_clusters(counts, **kwargs)
        assert trace == expected_trace
        assert np.array_equal(model.priors, expected.priors)
        assert np.array_equal(model.verb_emissions, expected.verb_emissions)
        assert np.array_equal(model.noun_emissions, expected.noun_emissions)

    def test_zero_count_pairs_are_dropped(self):
        counts = PairCounts(counts={("v0", "n0"): 3, ("v0", "n1"): 2,
                                    ("v1", "n2"): 0})
        assert counts.counts == {("v0", "n0"): 3, ("v0", "n1"): 2}
        assert counts.verbs == ("v0",)
        assert counts.nouns == ("n0", "n1")
        model, _ = train_clusters(counts, n_classes=2, seed=1)
        table = build_freq_table(model, counts)
        assert ("v1", "n2") not in stored_entries(table)
        # The dropped pair's f_c is computed on demand, with f = 0.
        assert table.lookup("v1", "n2") == model.priors.max() * (0 + 1)
        with pytest.raises(DataError, match="negative"):
            PairCounts(counts={("v0", "n0"): 3, ("v1", "n2"): -1})

    def test_misconfiguration(self):
        with pytest.raises(ConfigError):
            train_clusters(TOY_COUNTS, n_classes=0)
        with pytest.raises(ConfigError):
            train_clusters(TOY_COUNTS, n_classes=2, max_iterations=0)
        # NaN <= 0 is false: a NaN tolerance would run to the cap.
        for tolerance in (0.0, float("nan")):
            with pytest.raises(ConfigError):
                train_clusters(TOY_COUNTS, n_classes=2, tolerance=tolerance)
        with pytest.raises(DataError):
            train_clusters(PairCounts(counts={}), n_classes=1)

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            train_clusters(TOY_COUNTS, n_classes=2, seed=-1)

    def test_non_string_words_are_data_errors(self, tmp_path):
        # Checked once per run, before any model is built ...
        with pytest.raises(DataError, match="strings"):
            train_clusters(PairCounts(counts={(1, "n0"): 2}), n_classes=2)
        # ... and in every loaded document.
        model, _ = train_clusters(TOY_COUNTS, n_classes=2, seed=1,
                                  max_iterations=3)
        doc = model.to_json_dict()
        doc["nouns"][0] = 7
        path = tmp_path / "clusters.json"
        write_json(doc, path)
        with pytest.raises(DataError, match="strings"):
            read_json(path, ClusterModel.from_json_dict)


class TestClassMembership:
    def test_posterior_normalized(self):
        model, _ = train_clusters(TOY_COUNTS, n_classes=3, seed=1,
                                  max_iterations=30)
        for v, n in TOY_COUNTS.counts:
            posterior = class_membership(model, v, n)
            assert abs(posterior.sum() - 1.0) < 1e-12
            assert np.all(posterior >= 0)

    def test_oov_falls_back_to_priors(self):
        model, _ = train_clusters(TOY_COUNTS, n_classes=2, seed=0,
                                  max_iterations=10)
        assert_allclose(class_membership(model, "unseen-verb", "apple"),
                        model.priors)
        assert_allclose(class_membership(model, "eat", "unseen-noun"),
                        model.priors)

    def test_uniform_model_uniform_posterior(self):
        model = _uniform_two_class_model(TOY_COUNTS)
        assert_allclose(class_membership(model, "eat", "apple"), [0.5, 0.5])


class TestFreqTable:
    def test_single_class_identity(self):
        model, _ = train_clusters(TOY_COUNTS, n_classes=1)
        table = build_freq_table(model, TOY_COUNTS)
        for pair, f in TOY_COUNTS.counts.items():
            assert table.lookup(*pair) == f + 1  # max posterior is exactly 1

    def test_direct_formula(self):
        # Single verb/noun vocabulary makes the posterior equal the priors:
        # max posterior 0.7 with f = 4 gives 3.5.
        counts = PairCounts(counts={("v", "n"): 4})
        model = ClusterModel(priors=np.array([0.7, 0.3]),
                             verb_emissions=np.ones((2, 1)),
                             noun_emissions=np.ones((2, 1)),
                             verbs=("v",), nouns=("n",))
        table = build_freq_table(model, counts)
        assert_allclose(table.lookup("v", "n"), 3.5)

    def test_unseen_pair(self):
        counts = PairCounts(counts={("v", "n"): 4})
        model = ClusterModel(priors=np.array([0.6, 0.4]),
                             verb_emissions=np.ones((2, 1)),
                             noun_emissions=np.ones((2, 1)),
                             verbs=("v",), nouns=("n",))
        table = build_freq_table(model, counts)
        assert_allclose(table.lookup("x", "y"), 0.6)

    def test_bounded_by_f_plus_one(self):
        model, _ = train_clusters(TOY_COUNTS, n_classes=2, seed=9,
                                  max_iterations=40)
        table = build_freq_table(model, TOY_COUNTS)
        for pair, f in TOY_COUNTS.counts.items():
            assert 0 <= table.lookup(*pair) <= f + 1

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bit_identical_to_the_per_pair_loop(self, data):
        verbs, nouns = ("v0", "v1", "v2", "v3"), ("n0", "n1", "n2", "n3", "n4")

        def draw_counts():
            return PairCounts(counts=data.draw(st.dictionaries(
                st.tuples(st.sampled_from(verbs), st.sampled_from(nouns)),
                st.integers(1, 9), min_size=1, max_size=12)))

        counts = draw_counts()
        n_classes = data.draw(st.sampled_from(CLASS_COUNTS))
        if data.draw(st.booleans()):
            # Trained on other counts: some pairs are out of its vocabulary.
            model, _ = train_clusters(draw_counts(), n_classes=n_classes,
                                      max_iterations=data.draw(st.integers(1, 8)),
                                      seed=data.draw(st.integers(0, 100)))
        else:
            # Zero emissions give some pairs a zero total.
            def rows(height, width):
                raw = np.array(data.draw(st.lists(
                    st.sampled_from((0.0, 0.3, 1.0, 2.5)),
                    min_size=height * width,
                    max_size=height * width))).reshape(height, width)
                raw[raw.sum(axis=1) == 0, 0] = 1.0
                return raw / raw.sum(axis=1, keepdims=True)
            model = ClusterModel(priors=rows(1, n_classes)[0],
                                 verb_emissions=rows(n_classes, len(counts.verbs)),
                                 noun_emissions=rows(n_classes, len(counts.nouns)),
                                 verbs=counts.verbs, nouns=counts.nouns)
        table = build_freq_table(model, counts)
        expected = reference_build_freq_table(model, counts)
        assert table.codes == expected.codes
        assert list(stored_entries(table).items()) \
            == list(stored_entries(expected).items())
        # An unseen pair, in or out of the vocabulary, is computed on demand,
        # alone or among others, seen ones included, in one joint.
        unseen = [(v, n) for v in verbs + ("vx",) for n in nouns + ("nx",)
                  if (v, n) not in counts.counts]
        for pair in unseen + list(counts.counts):
            assert np.array_equal(class_membership(model, *pair),
                                  reference_posterior(model, *pair))
        for pair in unseen:
            assert table.lookup(*pair) == reference_posterior(model, *pair).max()
        mixed = data.draw(st.permutations(unseen + list(counts.counts)))
        stored = stored_entries(table)
        assert table.lookup_all(mixed) == [
            stored[p] if p in counts.counts
            else reference_posterior(model, *p).max() for p in mixed]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_lookups_equal_a_dict_oracle(self, data):
        # A vocabulary in any order; "vx" and "nx" are not the model's, so
        # their stored pairs go to the side table.
        verbs = tuple(data.draw(st.permutations(("v0", "v1", "v2", "v3"))))
        nouns = tuple(data.draw(st.permutations(("n0", "n1", "n2"))))
        rng = np.random.default_rng(data.draw(st.integers(0, 100)))
        emissions = rng.random((2, len(verbs) + len(nouns)))
        model = ClusterModel(
            priors=np.array([0.25, 0.75]),
            verb_emissions=emissions[:, :len(verbs)]
            / emissions[:, :len(verbs)].sum(axis=1, keepdims=True),
            noun_emissions=emissions[:, len(verbs):]
            / emissions[:, len(verbs):].sum(axis=1, keepdims=True),
            verbs=verbs, nouns=nouns)
        pairs = st.tuples(st.sampled_from(verbs + ("vx",)),
                          st.sampled_from(nouns + ("nx",)))
        values = data.draw(st.dictionaries(pairs, st.floats(0, 9)))
        table = freq_table(model, values)
        assert stored_entries(table) == values
        assert all(np.diff(table.codes) > 0)
        assert dict(table.others) == {
            p: f for p, f in values.items() if "vx" in p or "nx" in p}
        asked = data.draw(st.lists(pairs, max_size=20))
        assert table.lookup_all(asked) == [
            values[p] if p in values else reference_posterior(model, *p).max()
            for p in asked]
        assert table.to_json_dict()["entries"] == sorted(
            [v, n, f] for (v, n), f in values.items())

    def test_zero_total_falls_back_to_the_priors(self):
        # v0 lives only in class 0 and n1 only in class 1: p(v0, n1) = 0.
        model = ClusterModel(priors=np.array([0.25, 0.75]),
                             verb_emissions=np.array([[1.0, 0.0], [0.0, 1.0]]),
                             noun_emissions=np.array([[1.0, 0.0], [0.0, 1.0]]),
                             verbs=("v0", "v1"), nouns=("n0", "n1"))
        counts = PairCounts(counts={("v0", "n0"): 2, ("v0", "n1"): 3})
        assert_allclose(class_membership(model, "v0", "n1"), model.priors)
        table = build_freq_table(model, counts)
        assert stored_entries(table) == {("v0", "n0"): 3.0,
                                         ("v0", "n1"): 0.75 * 4}

    def test_monotone_in_frequency(self):
        # For fixed posteriors f_c grows strictly with the raw count.
        model = ClusterModel(priors=np.array([0.7, 0.3]),
                             verb_emissions=np.ones((2, 1)),
                             noun_emissions=np.ones((2, 1)),
                             verbs=("v",), nouns=("n",))
        values = [build_freq_table(
            model, PairCounts(counts={("v", "n"): f})).lookup("v", "n")
            for f in range(5)]
        assert all(b > a for a, b in zip(values, values[1:]))


def _strings_held(obj) -> list[str]:
    """Each string reachable from ``obj`` through containers and the
    attribute values of instances (attribute names left out)."""
    seen, held, stack = set(), [], [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if type(item) is str:
            held.append(item)
        elif isinstance(item, dict):
            stack += [*item.keys(), *item.values()]
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack += item
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            stack += vars(item).values()
    return held


def _entry_with_relations(parse_relations, sentence_id="s0"):
    parses = []
    for j, rels in enumerate(parse_relations):
        parses.append(ParseRecord(parse_id=f"p{j}", relations=tuple(rels),
                                  precomputed_features=feature_pairs({0: 1.0})))
    return SentenceEntry(sentence_id=sentence_id, tokens=("t",),
                         parses=tuple(parses))


def _table_for(values: dict):
    model, _ = train_clusters(PairCounts(counts={k: 1 for k in values}),
                              n_classes=1)
    return freq_table(model, values)


class TestLexicalizedProperties:
    def test_tie_yields_multiple_ones(self):
        table = _table_for({("v", "a"): 3.5, ("v", "b"): 2.0, ("v", "c"): 3.5})
        entry = _entry_with_relations([
            [relation("subj", "v", "a")],
            [relation("subj", "v", "b")],
            [relation("subj", "v", "c")],
        ])
        rows = lexicalized_properties(entry, table)
        key = slot_key("subj", "active", 1)
        assert [r.get(key) for r in rows] == [1, 0, 1]

    def test_single_parse_vacuous_maximum(self):
        table = _table_for({("v", "a"): 0.5})
        entry = _entry_with_relations([[relation("subj", "v", "a")]])
        rows = lexicalized_properties(entry, table)
        assert rows[0][slot_key("subj", "active", 1)] == 1

    def test_parse_without_the_slot_gets_zero(self):
        table = _table_for({("v", "a"): 1.0, ("v", "b"): 2.0})
        entry = _entry_with_relations([
            [relation("subj", "v", "a")],
            [],
            [relation("subj", "v", "b")],
        ])
        rows = lexicalized_properties(entry, table)
        key = slot_key("subj", "active", 1)
        assert rows[0].get(key, 0) == 0
        assert key not in rows[1]
        assert rows[2][key] == 1

    def test_at_least_one_winner_per_occupied_slot(self):
        rng = np.random.default_rng(23)
        verbs = [f"v{i}" for i in range(4)]
        nouns = [f"n{i}" for i in range(6)]
        values = {(v, n): float(rng.integers(1, 9))
                  for v in verbs for n in nouns}
        table = _table_for(values)
        for _ in range(25):
            parse_relations = []
            for _ in range(int(rng.integers(1, 5))):
                rels = []
                for _ in range(int(rng.integers(0, 3))):
                    rel_name, voice, pos = SLOTS[
                        int(rng.integers(0, len(SLOTS)))]
                    rels.append(relation(rel_name, str(rng.choice(verbs)),
                                         str(rng.choice(nouns)), voice, pos))
                parse_relations.append(rels)
            entry = _entry_with_relations(parse_relations)
            rows = lexicalized_properties(entry, table)
            occupied = {k for row in rows for k in row}
            for key in occupied:
                winners = sum(row.get(key, 0) for row in rows)
                assert winners >= 1
                competitors = [row[key] for row in rows if key in row]
                if len([c for c in competitors if c == 1]) == 1:
                    assert winners == 1

    def test_reordering_permutes_values(self):
        table = _table_for({("v", "a"): 1.0, ("v", "b"): 2.0, ("v", "c"): 3.0})
        rels = [[relation("subj", "v", "a")],
                [relation("subj", "v", "b")],
                [relation("subj", "v", "c")]]
        rows = lexicalized_properties(_entry_with_relations(rels), table)
        rows_rev = lexicalized_properties(_entry_with_relations(rels[::-1]), table)
        assert rows == rows_rev[::-1]

    def test_undefined_voice_is_an_error(self):
        table = _table_for({("v", "a"): 1.0})
        parse = ParseRecord(
            parse_id="p0",
            relations=(relation("subj", "v", "a", voice="middle"),),
            precomputed_features=feature_pairs({0: 1.0}))
        entry = SentenceEntry(sentence_id="s0", tokens=("t",), parses=(parse,))
        with pytest.raises(DataError, match="voice"):
            lexicalized_properties(entry, table)


class TestIO:
    def test_pair_counts_round_trip(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        save_pair_counts(TOY_COUNTS, path)
        again = load_pair_counts(path)
        assert again.counts == TOY_COUNTS.counts
        assert again.verbs == TOY_COUNTS.verbs
        # Windows line ends read the same.
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_pair_counts(path).counts == TOY_COUNTS.counts

    def test_malformed_pair_counts(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("eat\tapple\n")
        with pytest.raises(DataError, match="line 1"):
            load_pair_counts(path)
        for count in ("many", "1_0", "+5", " 5"):
            path.write_text(f"eat\tapple\t{count}\n")
            with pytest.raises(DataError, match="line 1: count .* is not an "
                                                "integer"):
                load_pair_counts(path)
        for text in ("", "eat\tapple\t0\ndrive\tcar\t0\n"):
            path.write_text(text)
            with pytest.raises(DataError, match="empty") as info:
                load_pair_counts(path)
            assert str(path) in str(info.value)
        # A negative count is rejected on its own line, also when the pair
        # occurred before with a larger count.
        for text in ("v0\tn0\t3\nv1\tn1\t-2\n", "v0\tn0\t3\nv0\tn0\t-2\n"):
            path.write_text(text)
            with pytest.raises(DataError,
                               match=f"{re.escape(str(path))}: line 2: "
                                     "negative count -2"):
                load_pair_counts(path)

    def test_cluster_model_round_trip(self, tmp_path):
        model, _ = train_clusters(TOY_COUNTS, n_classes=2, seed=1,
                                  max_iterations=15)
        path = tmp_path / "clusters.json"
        save_cluster_model(model, path)
        again = read_json(path, ClusterModel.from_json_dict)
        assert np.array_equal(again.priors, model.priors)
        assert np.array_equal(again.verb_emissions, model.verb_emissions)
        assert again.verbs == model.verbs

    def test_freq_table_round_trip(self, tmp_path):
        model, _ = train_clusters(TOY_COUNTS, n_classes=2, seed=1,
                                  max_iterations=15)
        table = build_freq_table(model, TOY_COUNTS)
        path = tmp_path / "table.json"
        save_freq_table(table, path)
        again = load_freq_table(path)
        assert stored_entries(again) == stored_entries(table)
        assert (again.codes, again.values) == (table.codes, table.values)
        assert_allclose(again.lookup("zz", "yy"), table.lookup("zz", "yy"))
        # Saving the loaded table writes the file's bytes.
        save_freq_table(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_freq_table_writes_sorted_pairs_of_an_unsorted_vocabulary(
            self, tmp_path):
        model, _ = train_clusters(TOY_COUNTS, n_classes=2, seed=1,
                                  max_iterations=15)
        # The model's words in reverse order: codes follow the model's
        # indices, the file lists (verb, noun) in string order.
        reversed_model = ClusterModel(
            priors=model.priors, verb_emissions=model.verb_emissions[:, ::-1],
            noun_emissions=model.noun_emissions[:, ::-1],
            verbs=model.verbs[::-1], nouns=model.nouns[::-1])
        counts = PairCounts(counts={**TOY_COUNTS.counts, ("fly", "kite"): 1})
        table = build_freq_table(reversed_model, counts)
        path = tmp_path / "table.json"
        save_freq_table(table, path)
        entries = table.to_json_dict()["entries"]
        assert [(v, n) for v, n, _ in entries] == sorted(counts.counts)
        assert {(v, n): f for v, n, f in entries} == stored_entries(table)
        again = load_freq_table(path)
        save_freq_table(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        for pair in [*counts.counts, ("fly", "apple"), ("eat", "kite")]:
            assert again.lookup(*pair) == table.lookup(*pair)

    def test_freq_table_keeps_no_decoded_entry_string(self, tmp_path):
        model, _ = train_clusters(TOY_COUNTS, n_classes=2, seed=1,
                                  max_iterations=15)
        counts = PairCounts(counts={**TOY_COUNTS.counts, ("fly", "kite"): 1})
        path = tmp_path / "table.json"
        save_freq_table(build_freq_table(model, counts), path)
        again = load_freq_table(path)
        assert stored_entries(again).keys() == counts.counts.keys()
        # A pair of the model's words is stored as a code; only the pair
        # the model lacks keeps its decoded strings, in the side table.
        assert list(again.others) == [("fly", "kite")]
        words = {id(w) for w in (*again.model.verbs, *again.model.nouns)}
        held = [s for s in _strings_held(again) if id(s) not in words]
        assert sorted(held) == ["fly", "kite"]
        for verb, noun in again.others:
            assert verb not in again.model.verbs
            assert noun not in again.model.nouns

    def test_freq_table_entries_read_at_once_keep_their_messages(
            self, tmp_path):
        model, _ = train_clusters(TOY_COUNTS, n_classes=2, seed=1,
                                  max_iterations=15)
        doc = build_freq_table(model, TOY_COUNTS).to_json_dict()
        entries = doc["entries"]
        path = tmp_path / "table.json"
        # JSON integers read as numbers, and rows may come in any order.
        doc["entries"] = [*entries[::-1], ["fly", "kite", 2]]
        write_json(doc, path)
        loaded = stored_entries(load_freq_table(path))
        assert loaded == {**{(v, n): f for v, n, f in entries},
                          ("fly", "kite"): 2.0}
        assert type(loaded["fly", "kite"]) is float
        for rows, message in (
                ([["v", "n"]], "malformed value (not enough values to "
                               "unpack (expected 3, got 2))"),
                ([["v", "n", 1.0, 2.0]], "malformed value (too many values "
                                         "to unpack (expected 3))"),
                ([7], "malformed value (cannot unpack non-iterable int "
                      "object)"),
                (["abc"], "f_c must be a number, not 'c'"),
                ([[7, "n", 1.0]], "verb must be a string, not 7"),
                ([["v", None, 1.0]], "noun must be a string, not None"),
                ([["v", "n", True]], "f_c must be a number, not True"),
                ([["v", "n", "1.0"]], "f_c must be a number, not '1.0'"),
                ([["v", "n", -1.0]], "f_c -1.0 is below 0"),
                ([["v", "n", float("nan")]], "f_c is a non-finite number"),
                ([["v", "n", float("inf")]], "f_c is a non-finite number"),
                ([["v", "n", 10 ** 400]], "malformed value (int too large "
                                          "to convert to float)"),
                # The first bad row speaks, and a type error comes before a
                # repeated pair.
                ([["v", "n", -1.0], ["v", 7, 1.0]], "f_c -1.0 is below 0"),
                ([["v", 7, 1.0], ["v", "n", -1.0]],
                 "noun must be a string, not 7"),
                ([["v", "n", -1.0], ["v", "n"]], "f_c -1.0 is below 0"),
                ([["v", "n"], ["v", "n", -1.0]], "malformed value (not enough "
                 "values to unpack (expected 3, got 2))"),
                ([entries[0], ["v", "n", -1.0]], "f_c -1.0 is below 0"),
                ([["fly", "kite", 1.0], ["fly", "kite", 1.0], [1]],
                 "malformed value (not enough values to unpack (expected 3, "
                 "got 1))"),
                # The first pair to repeat an earlier one is named.
                ([entries[1], ["fly", "kite", 1.0], entries[1][:2] + [0.5]],
                 f"entries list the pair {tuple(entries[1][:2])!r} twice"),
                ([["fly", "kite", 1.0], ["eat", "kite", 1.0],
                  ["fly", "kite", 2.0], ["eat", "kite", 2.0]],
                 "entries list the pair ('fly', 'kite') twice"),
                ([["eat", "kite", 1.0], ["eat", "kite", 2.0]],
                 "entries list the pair ('eat', 'kite') twice")):
            doc["entries"] = [*entries, *rows]
            path.write_text(json.dumps(doc))
            with pytest.raises(DataError) as info:
                load_freq_table(path)
            assert str(info.value).startswith(f"{path}: {message}"), rows

    def test_cluster_model_rows_read_at_once_keep_their_messages(
            self, tmp_path):
        model, _ = train_clusters(TOY_COUNTS, n_classes=2, seed=1,
                                  max_iterations=15)
        doc = model.to_json_dict()
        path = tmp_path / "clusters.json"
        doc["priors"] = [1, 0]  # JSON integers read as numbers
        write_json(doc, path)
        loaded = read_json(path, ClusterModel.from_json_dict)
        assert loaded.priors.tolist() == [1.0, 0.0]
        for row, message in (([0.5, float("nan")], "a non-finite number"),
                             ([0.5, True], "must be a number, not True"),
                             ([0.5, [0.5]], "malformed value")):
            doc["verb_emissions"][1][:2] = row
            write_json(doc, path)
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "
                                                f".*{re.escape(message)}"):
                read_json(path, ClusterModel.from_json_dict)

    def test_counts_from_corpus(self):
        entry = _entry_with_relations(
            [[relation("subj", "eat", "apple")],
             [relation("subj", "eat", "apple"), relation("dobj", "eat", "pasta")]])
        corpus = build_corpus([entry])
        counts = pair_counts_from_corpus(corpus)
        assert counts.counts == {("eat", "apple"): 2, ("eat", "pasta"): 1}
