import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from parsedisamb import (ConfigError, DataError, build_feature_matrix,
                         disambiguate, evaluate, expectations, load_model,
                         new_model, normalize, random_baseline, save_model,
                         sweep_checkpoints)
from conftest import corrected_registry, passthrough_corpus, \
    random_passthrough_instance


def _uniform_setup(sentences, **kwargs):
    corpus = passthrough_corpus(sentences, **kwargs)
    registry = corrected_registry(corpus)
    model = new_model(build_feature_matrix(corpus, registry))
    return corpus, registry, model


def _universe(corpus, model):
    return build_feature_matrix(corpus, model.registry)


class TestNormalize:
    def test_uniform_case(self):
        corpus, registry, model = _uniform_setup([[{0: 1}, {0: 1}], [{0: 1}, {0: 1}]])
        dist = normalize(model, _universe(corpus, model))
        assert_allclose(dist.probs, 0.25)

    def test_three_to_one(self):
        # Weights 3:1 from a single feature at lambda = ln 3, without the
        # correction property in the way.
        corpus = passthrough_corpus([[{0: 1}, {}]])
        from parsedisamb import build_registry
        registry = build_registry(corpus)  # no correction: width-1 registry
        model = new_model(build_feature_matrix(corpus, registry),
                          lam=np.array([math.log(3)]))
        dist = normalize(model, _universe(corpus, model))
        assert_allclose(dist.probs, [0.75, 0.25])

    def test_sums_to_one_tightly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            corpus, registry = random_passthrough_instance(rng)
            lam = rng.uniform(-2, 2, registry.size)
            model = new_model(build_feature_matrix(corpus, registry), lam=lam)
            dist = normalize(model, _universe(corpus, model))
            assert abs(dist.probs.sum() - 1.0) < 1e-12

    def test_constant_score_shift_is_invariant(self):
        # The correction feature is constant over sentences with equal mass:
        # shifting its weight shifts every score equally.
        corpus, registry, model = _uniform_setup([[{0: 2}, {1: 2}, {0: 1, 1: 1}]])
        base = normalize(model, _universe(corpus, model))
        shifted = normalize(model.with_lam(model.lam + 0.0),
                            _universe(corpus, model))
        assert_allclose(base.probs, shifted.probs)
        # Explicit shift: add c to a feature that is constant across parses.
        wide = passthrough_corpus([[{0: 1, 9: 1}, {1: 1, 9: 1}]])
        from parsedisamb import build_registry
        reg = build_registry(wide)
        m1 = new_model(build_feature_matrix(wide, reg),
                       lam=np.array([0.3, -0.2] + [0.0] * (reg.size - 2)))
        lam2 = m1.lam.copy()
        lam2[reg.size - 1] += 17.0  # feature "9" is constant 1 on every parse
        m2 = new_model(build_feature_matrix(wide, reg), lam=lam2)
        assert_allclose(normalize(m1, _universe(wide, m1)).probs,
                        normalize(m2, _universe(wide, m2)).probs, atol=1e-15)

    def test_wrong_universe_rejected(self):
        corpus, registry, model = _uniform_setup([[{0: 1}, {}]])
        other = passthrough_corpus([[{0: 2}, {}]])
        with pytest.raises(ConfigError, match="universe"):
            normalize(model, _universe(other, model))

    def test_another_corpus_or_registry_matrix_rejected(self):
        corpus, registry, model = _uniform_setup(
            [[{0: 1, 1: 2}, {1: 1}], [{0: 2}, {0: 1, 2: 1}]])
        normalize(model, build_feature_matrix(corpus, registry))
        # The same shape, one value apart.
        other = passthrough_corpus(
            [[{0: 1, 1: 2}, {1: 1}], [{0: 2}, {0: 2, 2: 1}]])
        # The same corpus and size, one column apart.
        renamed = replace(registry, properties=[
            replace(d, key="000009") if d.key == "000002" else d
            for d in registry.properties])
        for features in (build_feature_matrix(other, registry),
                         build_feature_matrix(corpus, renamed)):
            assert features.n_parses == model.universe_size
            with pytest.raises(ConfigError, match="universe"):
                normalize(model, features)

    def test_permutation_equivariance(self):
        rows = [{0: 2}, {1: 1}, {0: 1, 1: 1}]
        lam = np.array([0.7, -0.4, 0.0])
        corpus_a = passthrough_corpus([rows])
        corpus_b = passthrough_corpus([rows[::-1]])
        registry = corrected_registry(corpus_a)
        model_a = new_model(build_feature_matrix(corpus_a, registry), lam=lam)
        model_b = new_model(build_feature_matrix(corpus_b, registry), lam=lam)
        pa = normalize(model_a, _universe(corpus_a, model_a)).probs
        pb = normalize(model_b, _universe(corpus_b, model_b)).probs
        assert_allclose(pa, pb[::-1])


def _sentence_conditional(dist, s):
    offsets = dist.features.offsets
    return dist.conditional[offsets[s]:offsets[s + 1]]


class TestConditional:
    def test_symmetric(self):
        corpus, registry, model = _uniform_setup([[{0: 1}, {0: 1}]])
        k = _sentence_conditional(normalize(model, _universe(corpus, model)), 0)
        assert_allclose(k, [0.5, 0.5])

    def test_singleton(self):
        corpus, registry, model = _uniform_setup([[{0: 1}], [{0: 2}, {0: 3}]])
        k = _sentence_conditional(normalize(model, _universe(corpus, model)), 0)
        assert_allclose(k, [1.0])

    def test_three_to_one_restriction(self):
        corpus = passthrough_corpus([[{0: 1}, {}], [{}, {}]])
        from parsedisamb import build_registry
        registry = build_registry(corpus)
        model = new_model(build_feature_matrix(corpus, registry),
                          lam=np.array([math.log(3)]))
        k = _sentence_conditional(normalize(model, _universe(corpus, model)), 0)
        assert_allclose(k, [0.75, 0.25])

    def test_sums_to_one_per_sentence(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            corpus, registry = random_passthrough_instance(rng)
            model = new_model(build_feature_matrix(corpus, registry),
                              lam=rng.uniform(-3, 3, registry.size))
            dist = normalize(model, _universe(corpus, model))
            for s in range(len(corpus.entries)):
                k = _sentence_conditional(dist, s)
                assert abs(k.sum() - 1.0) < 1e-12

    def test_finite_where_a_whole_sentence_underflows(self):
        # A lambda gap of 1000 puts every parse of sentence 1 about e^-1000
        # below sentence 0's, so its p(x) is exactly 0 in double precision;
        # the conditional and the log mass are still defined.
        corpus = passthrough_corpus([[{0: 1}, {0: 2}], [{1: 1}, {1: 2}, {}]])
        registry = corrected_registry(corpus)
        model = new_model(build_feature_matrix(corpus, registry),
                          lam=np.array([1000.0, 0.0, 0.0]))
        dist = normalize(model, _universe(corpus, model))
        assert np.all(dist.probs[2:] == 0.0)
        assert np.all(np.isfinite(dist.conditional))
        for s in range(2):
            assert_allclose(_sentence_conditional(dist, s).sum(), 1.0,
                            rtol=1e-15)
        assert np.all(np.isfinite(dist.log_masses))
        assert dist.log_masses[1] < -1000


class TestExpectation:
    def test_uniform_average(self):
        corpus = passthrough_corpus([[{0: 1}, {}]])
        from parsedisamb import build_registry
        registry = build_registry(corpus)
        model = new_model(build_feature_matrix(corpus, registry))
        assert_allclose(expectations(model, _universe(corpus, model))[1], [0.5])

    def test_identically_zero_feature_has_zero_expectation(self):
        # Passthrough index 1 exists (width spans the gap) but never fires.
        corpus = passthrough_corpus([[{0: 1}, {2: 1}], [{0: 2, 2: 1}]])
        registry = corrected_registry(corpus)
        idx = next(i for i, d in enumerate(registry.properties)
                   if d.key == "000001")
        model = new_model(build_feature_matrix(corpus, registry))
        _, expectation = expectations(model, _universe(corpus, model))
        assert expectation[idx] == 0.0

    def test_correction_expectation_identity(self):
        # E[correction] = K - E[mass of the other features]; checked against
        # an independent dense summation.
        rng = np.random.default_rng(3)
        corpus, registry = random_passthrough_instance(rng)
        matrix = build_feature_matrix(corpus, registry)
        model = new_model(matrix, lam=rng.uniform(-1, 1, registry.size))
        dist = normalize(model, _universe(corpus, model))
        _, expectation = expectations(model, _universe(corpus, model))
        K = registry.correction_K
        direct = sum(p * matrix.values[r, :-1].sum()
                     for r, p in enumerate(dist.probs))
        assert_allclose(expectation[-1], K - direct, rtol=1e-10)


class TestDisambiguate:
    def test_strict_argmax(self):
        corpus, registry, model = _uniform_setup([[{0: 5}, {0: 3}, {0: 2}]])
        model = model.with_lam(np.array([1.0, 0.0]))
        decision = disambiguate(model, corpus.entries[0])
        assert decision.kind == "unique"
        assert decision.parse_ids == ("p0",)

    def test_exact_tie(self):
        corpus, registry, model = _uniform_setup([[{0: 4}, {0: 4}, {0: 2}]])
        model = model.with_lam(np.array([1.0, 0.0]))
        decision = disambiguate(model, corpus.entries[0], tie_epsilon=1e-9)
        assert decision.kind == "dont_know"
        assert set(decision.parse_ids) == {"p0", "p1"}

    def test_zero_tie_epsilon_keeps_exact_ties(self):
        corpus, registry, model = _uniform_setup([[{0: 4}, {0: 4}, {0: 2}]])
        model = model.with_lam(np.array([1.0, 0.0]))
        decision = disambiguate(model, corpus.entries[0], tie_epsilon=0.0)
        assert decision.kind == "dont_know"
        assert set(decision.parse_ids) == {"p0", "p1"}

    @pytest.mark.parametrize("tie_epsilon",
                             [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_tie_epsilon(self, tie_epsilon):
        # At lam = 0 every parse ties; such an epsilon would decide them all.
        corpus, registry, model = _uniform_setup([[{0: 4}, {0: 4}, {0: 2}]],
                                                 golds=[2])
        with pytest.raises(ConfigError, match="tie_epsilon"):
            disambiguate(model, corpus.entries[0], tie_epsilon=tie_epsilon)
        with pytest.raises(ConfigError, match="tie_epsilon"):
            evaluate(model, corpus, tie_epsilon=tie_epsilon)
        with pytest.raises(ConfigError, match="tie_epsilon"):
            sweep_checkpoints([(0, model)], corpus, tie_epsilon=tie_epsilon)
        with pytest.raises(ConfigError, match="tie_epsilon"):
            random_baseline(corpus, "exact_match", registry, n_models=2,
                            tie_epsilon=tie_epsilon)

    def test_single_parse(self):
        corpus, registry, model = _uniform_setup([[{0: 1}]])
        decision = disambiguate(model, corpus.entries[0])
        assert decision.kind == "unique"
        assert decision.parse_ids == ("p0",)

    def test_zero_lambda_identical_vectors_dont_know(self):
        corpus, registry, model = _uniform_setup(
            [[{0: 1}, {0: 1}], [{0: 2}, {0: 2}, {0: 2}]])
        for entry in corpus.entries:
            assert disambiguate(model, entry).kind == "dont_know"

    def test_ranking_invariance_under_constant_shift(self):
        # Adding a constant to every parse score of a sentence must not
        # change the decision: realized by shifting the weight of a feature
        # that is constant within the sentence.  All parses of sentence 0
        # have mass 4 while K = 6, so their correction value is a constant 2.
        corpus = passthrough_corpus([[{0: 3, 1: 1}, {1: 4}, {0: 1, 1: 3}],
                                     [{0: 6}]])
        registry = corrected_registry(corpus)
        assert registry.correction_K == 6
        lam = np.array([0.9, -0.3, 0.0])
        lam_shifted = lam.copy()
        lam_shifted[-1] += 5.0  # correction is constant within this sentence
        m1 = new_model(build_feature_matrix(corpus, registry), lam=lam)
        m2 = new_model(build_feature_matrix(corpus, registry), lam=lam_shifted)
        d1 = disambiguate(m1, corpus.entries[0])
        d2 = disambiguate(m2, corpus.entries[0])
        assert d1 == d2


class TestNonFiniteScores:
    # Sentence 0's parses all carry feature 0; sentence 1's do not.
    SENTENCES = [[{0: 1}, {0: 2}], [{0: 1}, {1: 1}]]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_every_decision_path_raises(self, value):
        corpus, registry, model = _uniform_setup(self.SENTENCES, golds=[0, 0])
        lam = np.zeros(registry.size)
        lam[0] = value
        model = model.with_lam(lam)
        for call in (lambda: disambiguate(model, corpus.entries[0]),
                     lambda: evaluate(model, corpus),
                     lambda: sweep_checkpoints([(1, model)], corpus)):
            with pytest.raises(DataError, match="non-finite"):
                call()


class TestSerialization:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        corpus, registry = random_passthrough_instance(rng)
        model = new_model(build_feature_matrix(corpus, registry),
                          lam=rng.standard_normal(registry.size) * math.pi)
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert np.array_equal(again.lam, model.lam)  # bit-exact
        assert again.universe == model.universe
        assert again.universe_size == model.universe_size
        path2 = tmp_path / "model2.json"
        save_model(again, path2)
        assert path.read_bytes() == path2.read_bytes()
