import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from parsedisamb import (ConfigError, DataError, SyntheticConfig,
                         TrainingConfig, add_correction, build_feature_matrix,
                         build_registry, compare_inits, expectations,
                         generate_synthetic, im_step,
                         incomplete_log_likelihood, new_model, normalize,
                         train)
from conftest import (corrected_registry, passthrough_corpus,
                      random_passthrough_instance, tiny_instance,
                      weighted_parsebank)
from oracles import direct_incomplete_log_likelihood, grid_search_optimum


# Prints the bits of the training likelihoods, incomplete and complete, and
# of the cluster EM likelihoods, each a sum of 12,000 terms: above 10,000
# terms OpenBLAS splits a dot product across its threads.
LIKELIHOODS_OF_12000_TERMS = """
import numpy as np
from parsedisamb import (PairCounts, ParseRecord, SentenceEntry,
                         TrainingConfig, add_correction, build_corpus,
                         build_registry, train, train_clusters)
from conftest import feature_pairs

rng = np.random.default_rng(0)
corpus = build_corpus(
    SentenceEntry(sentence_id=str(s), tokens=("t",), weight=1.0 + s % 7,
                  gold_index=0, parses=tuple(
                      ParseRecord(parse_id=str(j),
                                  precomputed_features=feature_pairs({
                                      j: 1.0, 2: float(rng.integers(0, 4))}))
                      for j in range(2)))
    for s in range(12_000))
registry = add_correction(build_registry(corpus), corpus)
for complete in (False, True):
    _, trace = train(corpus, registry, TrainingConfig(max_iterations=2),
                     complete_data=complete)
    print(*(L.hex() for L in trace.likelihoods()))
counts = PairCounts({(f"v{i}", f"n{j}"): 1 + (i * j) % 5
                     for i in range(120) for j in range(100)})
print(*(L.hex() for L in train_clusters(counts, 4, max_iterations=2)[1]))
"""


def test_likelihoods_do_not_depend_on_the_blas_thread_count():
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join((os.path.join(os.path.dirname(tests), "src"), tests))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-c", LIKELIHOODS_OF_12000_TERMS], env=env,
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert len(outputs[0].split()) == 9
    assert outputs[0] == outputs[1]


def _tight_config(**overrides):
    defaults = dict(max_iterations=2000, likelihood_tolerance=1e-13,
                    checkpoint_every=500)
    defaults.update(overrides)
    return TrainingConfig(**defaults)


class TestLikelihood:
    def test_whole_universe_sentence_is_free(self):
        corpus = passthrough_corpus([[{0: 1}, {0: 2}, {}]])
        registry = corrected_registry(corpus)
        features = build_feature_matrix(corpus, registry)
        model = new_model(features)
        assert_allclose(incomplete_log_likelihood(model, features), 0.0,
                        atol=1e-14)

    def test_two_half_universes(self):
        corpus = passthrough_corpus([[{0: 1}, {0: 2}], [{0: 3}, {0: 4}]])
        registry = corrected_registry(corpus)
        features = build_feature_matrix(corpus, registry)
        model = new_model(features)
        assert_allclose(incomplete_log_likelihood(model, features),
                        math.log(0.5))

    def test_agrees_with_direct_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            corpus, registry = random_passthrough_instance(rng)
            lam = rng.uniform(-1.5, 1.5, registry.size)
            matrix = build_feature_matrix(corpus, registry)
            model = new_model(matrix, lam=lam)
            # Direct formula over pre-correction vectors, with the correction
            # column appended by hand.
            dense, offsets = matrix.values, matrix.offsets
            vectors = [dense[offsets[s]:offsets[s + 1]]
                       for s in range(matrix.n_sentences)]
            direct = direct_incomplete_log_likelihood(
                lam, vectors, matrix.weights)
            assert_allclose(incomplete_log_likelihood(model, matrix), direct,
                            rtol=1e-10, atol=1e-12)


class TestNormalizer:
    def test_trainer_denominator_is_the_model_expectation(self):
        # The trainer's denominator is the expectation under normalize's
        # distribution, bit for bit.
        corpus, _ = generate_synthetic(SyntheticConfig(n_sentences=200, seed=3))
        registry = add_correction(build_registry(corpus), corpus)
        features = build_feature_matrix(corpus, registry)
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = new_model(features, lam=rng.uniform(-1, 1, registry.size))
            dist = normalize(model, features)
            assert np.array_equal(expectations(model, features)[1],
                                  dist.features.weighted_sum(dist.probs))


class TestImStep:
    def test_hand_derived_complete_data_update(self):
        # Universe of two parses; the sentence's empirical mass sits on the
        # first.  Feature 0 is 1 on the gold parse and 0 elsewhere; the
        # correction is its mirror, so K = 1.  By hand:
        #   numerator_0   = 1 * nu_0(gold) = 1
        #   denominator_0 = 0.5 * 1 + 0.5 * 0 = 0.5     (lambda = 0, uniform)
        #   gamma_0       = (1/1) * ln(1 / 0.5) = ln 2
        corpus = passthrough_corpus([[{0: 1}, {}]], golds=[0])
        registry = corrected_registry(corpus)
        assert registry.correction_K == 1
        features = build_feature_matrix(corpus, registry)
        model = new_model(features)
        numerator, denominator = expectations(model, features,
                                              complete_data=True)
        assert_allclose(numerator[0], 1.0, atol=1e-15)
        assert_allclose(denominator[0], 0.5, atol=1e-15)
        _, gamma = im_step(model, features, complete_data=True)
        assert_allclose(gamma[0], math.log(2), atol=1e-12)
        # The correction's numerator is zero (the gold parse has full mass),
        # so the floor rule freezes it.
        assert gamma[1] == 0.0

    def test_fixed_point_when_expectations_match(self):
        # A single sentence owning the whole universe: the conditional equals
        # the model distribution, so every update is exactly zero.
        corpus = passthrough_corpus([[{0: 2}, {1: 1}, {0: 1, 1: 1}]])
        registry = corrected_registry(corpus)
        features = build_feature_matrix(corpus, registry)
        model = new_model(features, lam=np.array([0.4, -0.8, 0.1]))
        updated, gamma = im_step(model, features)
        assert_allclose(gamma, 0.0, atol=1e-12)
        assert_allclose(updated.lam, model.lam, atol=1e-12)

    def test_inactive_feature_is_frozen(self):
        # Feature 1 never fires (index gap), so its numerator is below the
        # floor and its parameter never moves.
        corpus = passthrough_corpus([[{0: 1}, {2: 1}], [{0: 2}, {2: 2}]],
                                    golds=[0, 1])
        registry = corrected_registry(corpus)
        features = build_feature_matrix(corpus, registry)
        updated, gamma = im_step(new_model(features), features)
        frozen_idx = next(i for i, d in enumerate(registry.properties)
                          if d.key == "000001")
        assert gamma[frozen_idx] == 0.0
        assert updated.lam[frozen_idx] == 0.0

    def test_requires_correction(self):
        corpus = passthrough_corpus([[{0: 1}, {}]])
        features = build_feature_matrix(corpus, build_registry(corpus))
        with pytest.raises(ConfigError, match="correction"):
            im_step(new_model(features), features)

    def test_complete_data_requires_gold(self):
        corpus = passthrough_corpus([[{0: 1}, {}]])
        features = build_feature_matrix(corpus, corrected_registry(corpus))
        with pytest.raises(DataError, match="gold"):
            im_step(new_model(features), features, complete_data=True)

    def test_gamma_clamp(self):
        # At lam_0 = -40 the gold parse's model probability is about e^-40,
        # below the expectation floor, so the unclamped step is
        # ln(1 / 1e-12) / K, about 27.6 with K = 1; the clamp is 20/K.
        corpus = passthrough_corpus([[{0: 1}, {}]], golds=[0])
        registry = corrected_registry(corpus)
        assert registry.correction_K == 1
        features = build_feature_matrix(corpus, registry)
        model = new_model(features, lam=np.array([-40.0, 0.0]))
        numerator, denominator = expectations(model, features,
                                              complete_data=True)
        unclamped = math.log(numerator[0] / max(denominator[0], 1e-12))
        assert_allclose(unclamped, 27.63, atol=0.01)
        _, gamma = im_step(model, features, complete_data=True)
        assert gamma[0] == 20.0

    def test_matches_one_training_iteration(self):
        # im_step and the training loop share one step, bit for bit.
        rng = np.random.default_rng(5)
        for complete_data in (False, True):
            corpus, registry = random_passthrough_instance(
                rng, with_gold=complete_data)
            config = TrainingConfig(init="random", seed=3, max_iterations=1)
            trained, trace = train(corpus, registry, config,
                                   complete_data=complete_data)
            features = build_feature_matrix(corpus, registry)
            start = new_model(features, lam=trace.records[0].lam)
            stepped, _ = im_step(start, features, complete_data=complete_data)
            assert np.array_equal(stepped.lam, trained.lam)


class TestTrain:
    def test_monotone_and_traced(self):
        rng = np.random.default_rng(2)
        corpus, registry = random_passthrough_instance(rng)
        model, trace = train(corpus, registry,
                             TrainingConfig(max_iterations=60,
                                            likelihood_tolerance=1e-12,
                                            checkpoint_every=5))
        likelihoods = trace.likelihoods()
        assert all(b >= a - 1e-10 for a, b in zip(likelihoods, likelihoods[1:]))
        iterations = [r.iteration for r in trace.records]
        assert iterations == sorted(iterations)
        assert len(set(iterations)) == len(iterations)
        # Snapshots at every fifth iteration plus the final one.
        snap_iters = [i for i, _ in trace.checkpoints()]
        assert 0 in snap_iters
        assert trace.n_iterations in snap_iters
        for i in snap_iters[:-1]:
            assert i % 5 == 0

    def test_constant_ambiguity_zero_start_is_stationary(self):
        # With uniform weights and the same parse count everywhere, the
        # conditional expectation at lam = 0 equals the model expectation
        # exactly, so the zero start is a stationary point and the loop
        # stops after one zero-step.
        corpus = passthrough_corpus([[{0: 2}, {1: 1}], [{0: 1, 1: 1}, {1: 2}],
                                     [{0: 3}, {0: 1, 1: 1}]])
        registry = corrected_registry(corpus)
        features = build_feature_matrix(corpus, registry)
        numerator, denominator = expectations(new_model(features), features)
        assert_allclose(numerator, denominator, atol=1e-15)
        trained, trace = train(corpus, registry,
                               TrainingConfig(max_iterations=50,
                                              likelihood_tolerance=1e-12))
        assert trace.converged and trace.n_iterations == 1
        assert np.array_equal(trained.lam, np.zeros(registry.size))

    def test_no_information_corpus_stays_at_init(self):
        # Every sentence's parses share one feature vector: the conditional
        # is uniform no matter what, and L never moves.
        corpus = passthrough_corpus([[{0: 2}, {0: 2}], [{0: 1, 1: 1}, {0: 1, 1: 1}]])
        registry = corrected_registry(corpus)
        model, trace = train(corpus, registry,
                             TrainingConfig(max_iterations=25,
                                            likelihood_tolerance=1e-15))
        likelihoods = trace.likelihoods()
        assert_allclose(likelihoods, likelihoods[0], atol=1e-12)
        assert_allclose(model.lam, 0.0, atol=1e-12)

    def test_parsebank_moment_matching(self):
        # Non-uniform sentence weights keep the uniform start away from the
        # optimum, so the moment match is earned, not inherited from init.
        rng = np.random.default_rng(8)
        for _ in range(5):
            corpus, registry = weighted_parsebank(rng)
            model, trace = train(corpus, registry,
                                 _tight_config(max_iterations=60000,
                                               likelihood_tolerance=1e-15,
                                               checkpoint_every=20000),
                                 complete_data=True)
            # Independent empirical expectation: sum of weight * gold row.
            matrix = build_feature_matrix(corpus, registry)
            numerator, denominator = expectations(model, matrix,
                                                  complete_data=True)
            empirical = np.zeros(registry.size)
            for s, entry in enumerate(corpus.entries):
                row = matrix.values[matrix.offsets[s] + entry.gold_index]
                empirical += entry.weight * row
            assert_allclose(numerator, empirical, rtol=1e-12, atol=1e-12)
            active = empirical > 1e-12
            assert np.all(np.abs(denominator - empirical)[active] < 1e-6)

    def test_stationarity_at_convergence(self):
        # At a declared convergence the update ratios are near 1.  Instances
        # whose optimum sits at infinity (a separating feature) never reach
        # the likelihood tolerance and are not covered by the bound.
        rng = np.random.default_rng(14)
        tol = 1e-10
        bound = 10 * math.sqrt(tol)
        converged_runs = 0
        for _ in range(10):
            corpus, registry = random_passthrough_instance(
                rng, max_sentences=8, max_ambiguity=4, max_features=5)
            model, trace = train(
                corpus, registry,
                TrainingConfig(max_iterations=4000, likelihood_tolerance=tol))
            if not trace.converged:
                continue
            converged_runs += 1
            _, gamma = im_step(model, build_feature_matrix(corpus, registry))
            assert np.abs(gamma).max() <= bound
        assert converged_runs >= 6

    def test_likelihood_never_decreases_in_these_runs(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            corpus, registry = random_passthrough_instance(rng)
            config = TrainingConfig(init="random", init_range=1.0,
                                    seed=int(rng.integers(0, 1 << 31)),
                                    max_iterations=40,
                                    likelihood_tolerance=1e-12)
            _, trace = train(corpus, registry, config)
            L = trace.likelihoods()
            assert all(b >= a - 1e-10 for a, b in zip(L, L[1:]))

    def test_gradient_sign_agreement(self):
        # numerator - denominator is the exact gradient of L; check sign
        # against central differences of the likelihood itself.
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(10):
            corpus, registry = random_passthrough_instance(
                rng, max_sentences=6, max_ambiguity=4, max_features=4)
            lam = rng.uniform(-1, 1, registry.size)
            features = build_feature_matrix(corpus, registry)
            model = new_model(features, lam=lam)
            numerator, denominator = expectations(model, features)
            gradient = numerator - denominator
            for i in range(registry.size):
                up = lam.copy(); up[i] += h
                down = lam.copy(); down[i] -= h
                cd = (incomplete_log_likelihood(model.with_lam(up), features)
                      - incomplete_log_likelihood(model.with_lam(down),
                                                  features)) / (2 * h)
                if abs(cd) > 1e-7:
                    assert np.sign(cd) == np.sign(gradient[i])


class TestOracleEquivalence:
    def test_tiny_instances_match_grid_search(self):
        rng = np.random.default_rng(100)
        matched = 0
        total = 8
        for _ in range(total):
            n_features = int(rng.integers(1, 4))
            corpus, registry, vectors = tiny_instance(rng, n_features)
            model, trace = train(corpus, registry, _tight_config())
            weights = np.array([e.weight for e in corpus.entries])
            best = grid_search_optimum(vectors, weights)
            if abs(trace.final_log_likelihood - best) < 1e-4:
                matched += 1
        assert matched >= total - 1

    def test_direct_likelihood_identity(self):
        # The trained model's likelihood equals the oracle formula applied to
        # the equivalent pre-correction parameters.
        rng = np.random.default_rng(200)
        corpus, registry, vectors = tiny_instance(rng, 2)
        model, trace = train(corpus, registry, _tight_config(max_iterations=500))
        # Correction reparameterization: theta_i = lam_i - lam_correction.
        lam = model.lam
        theta = lam[:-1] - lam[-1]
        weights = np.array([e.weight for e in corpus.entries])
        direct = direct_incomplete_log_likelihood(theta, vectors, weights)
        assert_allclose(trace.final_log_likelihood, direct, atol=1e-10)


class TestCompareInits:
    def test_convex_complete_case_all_starts_agree(self):
        corpus = passthrough_corpus([[{0: 2}], [{1: 1}], [{0: 1, 1: 1}]],
                                    golds=[0, 0, 0])
        registry = corrected_registry(corpus)
        report = compare_inits(build_feature_matrix(corpus, registry),
                               _tight_config(max_iterations=800, seed=1),
                               n_random_seeds=4, complete_data=True)
        for L in report.random_final_Ls:
            assert abs(L - report.uniform_final_L) < 1e-6

    def test_zero_random_seeds(self):
        corpus = passthrough_corpus([[{0: 1}, {}]])
        registry = corrected_registry(corpus)
        report = compare_inits(build_feature_matrix(corpus, registry),
                               TrainingConfig(max_iterations=20),
                               n_random_seeds=0)
        assert report.random_final_Ls == ()
        assert math.isnan(report.win_rate)

    def test_random_init_is_seeded(self):
        corpus = passthrough_corpus([[{0: 1}, {}], [{0: 2}, {0: 1}]])
        registry = corrected_registry(corpus)
        config = TrainingConfig(init="random", init_range=1.0, seed=5,
                                max_iterations=10)
        m1, _ = train(corpus, registry, config)
        m2, _ = train(corpus, registry, config)
        assert np.array_equal(m1.lam, m2.lam)


class TestConfigValidation:
    def test_bad_values(self):
        for bad in (dict(init="nope"), dict(max_iterations=0),
                    dict(likelihood_tolerance=0.0),
                    # NaN <= 0 is false: the run would go to the cap.
                    dict(likelihood_tolerance=math.nan),
                    dict(checkpoint_every=0),
                    dict(init="random", init_range=-1.0),
                    dict(init="random", init_range=1e308)):
            with pytest.raises(ConfigError):
                TrainingConfig(**bad)

    def test_negative_seed_of_a_random_start(self):
        corpus = passthrough_corpus([[{0: 1}, {1: 1}]])
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            train(corpus, corrected_registry(corpus),
                  TrainingConfig(init="random", seed=-1))
