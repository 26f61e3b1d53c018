import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from parsedisamb import (ConfigError, DataError,
                         build_feature_matrix, conditional_parse_prob,
                         disambiguate, kl_divergence, load_model,
                         model_expectation, new_model, normalize, save_model,
                         score)
from parsedisamb.model import ParseDistribution
from conftest import corrected_registry, passthrough_corpus, \
    random_passthrough_instance


def _uniform_setup(sentences, **kwargs):
    corpus = passthrough_corpus(sentences, **kwargs)
    registry = corrected_registry(corpus)
    model = new_model(registry, corpus)
    return corpus, registry, model


class TestScore:
    def test_zero_lambda_uniform_reference(self):
        corpus, registry, model = _uniform_setup([[{0: 1}, {}], [{0: 2}, {}]])
        matrix = build_feature_matrix(corpus, registry)
        for row in matrix.values:
            assert_allclose(score(model, row), math.log(1 / 4))

    def test_known_weight(self):
        corpus, registry, model = _uniform_setup([[{0: 1}, {}]])
        model = model.with_lam(np.array([math.log(3), 0.0]))
        log_p0 = -math.log(2)
        assert_allclose(score(model, np.array([1.0, 0.0])) - log_p0,
                        math.log(3))

    def test_all_zero_features(self):
        corpus, registry, model = _uniform_setup([[{0: 1}, {}]])
        model = model.with_lam(np.array([2.5, -1.0]))
        assert_allclose(score(model, np.zeros(2)), -math.log(2))

    def test_dimension_mismatch(self):
        corpus, registry, model = _uniform_setup([[{0: 1}, {}]])
        with pytest.raises(ConfigError):
            score(model, np.zeros(7))
        with pytest.raises(ConfigError):
            score(model, np.zeros(1))


class TestNormalize:
    def test_uniform_case(self):
        corpus, registry, model = _uniform_setup([[{0: 1}, {0: 1}], [{0: 1}, {0: 1}]])
        dist = normalize(model, corpus)
        assert_allclose(dist.probs, 0.25)

    def test_three_to_one(self):
        # Weights 3:1 from a single feature at lambda = ln 3, without the
        # correction property in the way.
        corpus = passthrough_corpus([[{0: 1}, {}]])
        from parsedisamb import build_registry
        registry = build_registry(corpus)  # no correction: width-1 registry
        model = new_model(registry, corpus, lam=np.array([math.log(3)]))
        dist = normalize(model, corpus)
        assert_allclose(dist.probs, [0.75, 0.25])

    def test_sums_to_one_tightly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            corpus, registry = random_passthrough_instance(rng)
            lam = rng.uniform(-2, 2, registry.size)
            model = new_model(registry, corpus, lam=lam)
            dist = normalize(model, corpus)
            assert abs(dist.probs.sum() - 1.0) < 1e-12

    def test_constant_score_shift_is_invariant(self):
        # The correction feature is constant over sentences with equal mass:
        # shifting its weight shifts every score equally.
        corpus, registry, model = _uniform_setup([[{0: 2}, {1: 2}, {0: 1, 1: 1}]])
        base = normalize(model, corpus)
        shifted = normalize(model.with_lam(model.lam + 0.0), corpus)
        assert_allclose(base.probs, shifted.probs)
        # Explicit shift: add c to a feature that is constant across parses.
        wide = passthrough_corpus([[{0: 1, 9: 1}, {1: 1, 9: 1}]])
        from parsedisamb import build_registry
        reg = build_registry(wide)
        m1 = new_model(reg, wide, lam=np.array([0.3, -0.2] + [0.0] * (reg.size - 2)))
        lam2 = m1.lam.copy()
        lam2[reg.size - 1] += 17.0  # feature "9" is constant 1 on every parse
        m2 = new_model(reg, wide, lam=lam2)
        assert_allclose(normalize(m1, wide).probs, normalize(m2, wide).probs,
                        atol=1e-15)

    def test_wrong_universe_rejected(self):
        corpus, registry, model = _uniform_setup([[{0: 1}, {}]])
        other = passthrough_corpus([[{0: 2}, {}]])
        with pytest.raises(ConfigError, match="universe"):
            normalize(model, other)

    def test_permutation_equivariance(self):
        rows = [{0: 2}, {1: 1}, {0: 1, 1: 1}]
        lam = np.array([0.7, -0.4, 0.0])
        corpus_a = passthrough_corpus([rows])
        corpus_b = passthrough_corpus([rows[::-1]])
        registry = corrected_registry(corpus_a)
        model_a = new_model(registry, corpus_a, lam=lam)
        model_b = new_model(registry, corpus_b, lam=lam)
        pa = normalize(model_a, corpus_a).probs
        pb = normalize(model_b, corpus_b).probs
        assert_allclose(pa, pb[::-1])


class TestConditional:
    def test_symmetric(self):
        corpus, registry, model = _uniform_setup([[{0: 1}, {0: 1}]])
        dist = normalize(model, corpus)
        k = conditional_parse_prob(model, corpus.entries[0], dist)
        assert_allclose(k, [0.5, 0.5])

    def test_singleton(self):
        corpus, registry, model = _uniform_setup([[{0: 1}], [{0: 2}, {0: 3}]])
        dist = normalize(model, corpus)
        k = conditional_parse_prob(model, corpus.entries[0], dist)
        assert_allclose(k, [1.0])

    def test_three_to_one_restriction(self):
        corpus = passthrough_corpus([[{0: 1}, {}], [{}, {}]])
        from parsedisamb import build_registry
        registry = build_registry(corpus)
        model = new_model(registry, corpus, lam=np.array([math.log(3)]))
        dist = normalize(model, corpus)
        k = conditional_parse_prob(model, corpus.entries[0], dist)
        assert_allclose(k, [0.75, 0.25])

    def test_sums_to_one_per_sentence(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            corpus, registry = random_passthrough_instance(rng)
            model = new_model(registry, corpus,
                              lam=rng.uniform(-3, 3, registry.size))
            dist = normalize(model, corpus)
            for entry in corpus.entries:
                k = conditional_parse_prob(model, entry, dist)
                assert abs(k.sum() - 1.0) < 1e-12


class TestExpectation:
    def test_uniform_average(self):
        corpus = passthrough_corpus([[{0: 1}, {}]])
        from parsedisamb import build_registry
        registry = build_registry(corpus)
        model = new_model(registry, corpus)
        assert_allclose(model_expectation(model, corpus), [0.5])

    def test_identically_zero_feature_has_zero_expectation(self):
        # Passthrough index 1 exists (width spans the gap) but never fires.
        corpus = passthrough_corpus([[{0: 1}, {2: 1}], [{0: 2, 2: 1}]])
        registry = corrected_registry(corpus)
        idx = next(i for i, d in enumerate(registry.properties)
                   if d.key == "000001")
        model = new_model(registry, corpus)
        expectation = model_expectation(model, corpus)
        assert expectation[idx] == 0.0

    def test_correction_expectation_identity(self):
        # E[correction] = K - E[mass of the other features]; checked against
        # an independent dense summation.
        rng = np.random.default_rng(3)
        corpus, registry = random_passthrough_instance(rng)
        model = new_model(registry, corpus, lam=rng.uniform(-1, 1, registry.size))
        dist = normalize(model, corpus)
        expectation = model_expectation(model, corpus, dist)
        matrix = build_feature_matrix(corpus, registry)
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
        assert decision.unique_id == "p0"

    def test_exact_tie(self):
        corpus, registry, model = _uniform_setup([[{0: 4}, {0: 4}, {0: 2}]])
        model = model.with_lam(np.array([1.0, 0.0]))
        decision = disambiguate(model, corpus.entries[0], tie_epsilon=1e-9)
        assert decision.kind == "dont_know"
        assert set(decision.parse_ids) == {"p0", "p1"}

    def test_single_parse(self):
        corpus, registry, model = _uniform_setup([[{0: 1}]])
        decision = disambiguate(model, corpus.entries[0])
        assert decision.kind == "unique"
        assert decision.unique_id == "p0"

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
        m1 = new_model(registry, corpus, lam=lam)
        m2 = new_model(registry, corpus, lam=lam_shifted)
        d1 = disambiguate(m1, corpus.entries[0])
        d2 = disambiguate(m2, corpus.entries[0])
        assert d1 == d2


class TestKL:
    def _dist(self, probs, features):
        return ParseDistribution(probs=np.asarray(probs, dtype=float),
                                 log_z=0.0, features=features)

    def test_self_divergence_zero(self):
        corpus, registry, model = _uniform_setup([[{0: 1}, {0: 2}]])
        dist = normalize(model, corpus)
        assert kl_divergence(dist, dist) == 0.0

    def test_closed_form(self):
        corpus, registry, model = _uniform_setup([[{0: 1}, {0: 2}]])
        features = normalize(model, corpus).features
        p = self._dist([1.0, 0.0], features)
        q = self._dist([0.5, 0.5], features)
        assert_allclose(kl_divergence(p, q), math.log(2))

    def test_support_violation(self):
        corpus, registry, model = _uniform_setup([[{0: 1}, {0: 2}]])
        features = normalize(model, corpus).features
        p = self._dist([0.5, 0.5], features)
        q = self._dist([1.0, 0.0], features)
        with pytest.raises(DataError):
            kl_divergence(p, q)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(11)
        corpus, registry = random_passthrough_instance(rng)
        for _ in range(1000):
            m1 = new_model(registry, corpus, lam=rng.uniform(-2, 2, registry.size))
            m2 = new_model(registry, corpus, lam=rng.uniform(-2, 2, registry.size))
            d = kl_divergence(normalize(m1, corpus), normalize(m2, corpus))
            assert d >= 0.0


class TestSerialization:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        corpus, registry = random_passthrough_instance(rng)
        model = new_model(registry, corpus,
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
