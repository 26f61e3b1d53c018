import numpy as np
import pytest
from numpy.testing import assert_allclose

from parsedisamb import (ConfigError, Corpus, DataError, SyntheticConfig,
                         build_feature_matrix, compile_corpus, evaluate,
                         generate_synthetic, new_model, random_baseline,
                         sweep_checkpoints)
from parsedisamb.evaluation import (TASKS, _metrics, format_report_table,
                                    write_report_json, write_sweep_csv)
from parsedisamb.model import decide
from conftest import corrected_registry, passthrough_corpus


def _hand_case():
    """10 sentences: 6 correct, 2 incorrect, 2 don't-know under lam = (2, 0).

    One binary feature decides; gold parses of "correct" sentences carry it,
    gold parses of "incorrect" sentences lack it while a competitor carries
    it, and "don't-know" sentences have two featureless parses (equal scores).
    """
    sentences, golds, frames = [], [], []
    for _ in range(6):
        sentences.append([{0: 1}, {}])
        golds.append(0)
        frames.append(["fa", "fb"])
    for _ in range(2):
        sentences.append([{}, {0: 1}])
        golds.append(0)
        frames.append(["fa", "fb"])
    for _ in range(2):
        sentences.append([{}, {}])
        golds.append(0)
        frames.append(["fa", "fb"])
    corpus = passthrough_corpus(sentences, golds=golds, frames=frames)
    registry = corrected_registry(corpus)
    model = new_model(build_feature_matrix(corpus, registry),
                      lam=np.array([2.0, 0.0]))
    return corpus, registry, model


class TestMetrics:
    def test_six_two_two(self):
        corpus, registry, model = _hand_case()
        outcome = evaluate(model, corpus, task="exact_match")
        assert (outcome.n_correct, outcome.n_incorrect, outcome.n_dont_know) \
            == (6, 2, 2)
        assert_allclose(outcome.precision, 0.75)
        assert_allclose(outcome.effectiveness, 0.6)

    def test_unambiguous_corpus_is_perfect(self):
        corpus = passthrough_corpus([[{0: 1}], [{0: 2}]], golds=[0, 0])
        registry = corrected_registry(corpus)
        model = new_model(build_feature_matrix(corpus, registry))
        outcome = evaluate(model, corpus, task="exact_match")
        assert outcome.precision == 1.0
        assert outcome.effectiveness == 1.0

    def test_precision_undefined_when_nothing_decided(self):
        corpus = passthrough_corpus([[{}, {}]], golds=[0],
                                    frames=[["fa", "fb"]])
        registry = corrected_registry(passthrough_corpus([[{0: 1}, {}]]))
        model = new_model(build_feature_matrix(corpus, registry))
        outcome = evaluate(model, corpus, task="exact_match")
        assert outcome.precision is None
        assert outcome.effectiveness == 0.0
        assert "undefined" in format_report_table(outcome)

    def test_effectiveness_bounded_by_precision_on_random_verdicts(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            counts = np.bincount(rng.integers(0, 3, size=n), minlength=3)
            precision, effectiveness = _metrics(*counts.tolist())
            assert 0.0 <= effectiveness <= 1.0
            if precision is not None:
                assert 0.0 <= precision <= 1.0
                assert effectiveness <= precision

    def test_missing_gold_is_an_error(self):
        corpus = passthrough_corpus([[{0: 1}, {}]])
        registry = corrected_registry(corpus)
        model = new_model(build_feature_matrix(corpus, registry))
        with pytest.raises(DataError, match="gold"):
            evaluate(model, corpus)

    def test_unknown_task(self):
        corpus, registry, model = _hand_case()
        with pytest.raises(ConfigError):
            evaluate(model, corpus, task="meaning_match")


class TestFrameTask:
    def _frame_corpus(self, frames, golds):
        sentences = [[{}, {}] for _ in frames]  # always tied
        return passthrough_corpus(sentences, golds=golds, frames=frames)

    def _model_for(self, corpus):
        registry = corrected_registry(passthrough_corpus([[{0: 1}, {}]]))
        return new_model(build_feature_matrix(corpus, registry))

    def test_shared_frame_tie_counts_against_gold(self):
        corpus = self._frame_corpus([["same", "same"]], golds=[0])
        model = self._model_for(corpus)
        outcome = evaluate(model, corpus, task="frame_match")
        assert outcome.n_correct == 1 and outcome.n_dont_know == 0

    def test_shared_frame_tie_wrong_frame_is_incorrect(self):
        # Both tied parses carry one frame, but the gold parse is a third,
        # non-tied analysis with a different frame.
        corpus = passthrough_corpus([[{}, {}, {0: 1}]], golds=[2],
                                    frames=[["same", "same", "gold"]])
        registry = corrected_registry(passthrough_corpus([[{0: 1}, {}]]))
        model = new_model(build_feature_matrix(corpus, registry),
                          lam=np.array([-5.0, 0.0]))
        outcome = evaluate(model, corpus, task="frame_match")
        assert outcome.n_incorrect == 1

    def test_differing_frames_stay_dont_know(self):
        corpus = self._frame_corpus([["fa", "fb"]], golds=[0])
        model = self._model_for(corpus)
        outcome = evaluate(model, corpus, task="frame_match")
        assert outcome.n_dont_know == 1

    def test_unique_decision_judged_by_frame_only(self):
        # The picked parse differs from gold but shares its frame.
        corpus = passthrough_corpus([[{0: 1}, {}]], golds=[1],
                                    frames=[["shared", "shared"]])
        registry = corrected_registry(corpus)
        model = new_model(build_feature_matrix(corpus, registry),
                          lam=np.array([3.0, 0.0]))
        assert evaluate(model, corpus, task="frame_match").n_correct == 1
        assert evaluate(model, corpus, task="exact_match").n_incorrect == 1

    def test_missing_frame_is_an_error(self):
        corpus = passthrough_corpus([[{0: 1}, {}]], golds=[0])
        registry = corrected_registry(corpus)
        model = new_model(build_feature_matrix(corpus, registry))
        with pytest.raises(DataError, match="frame"):
            evaluate(model, corpus, task="frame_match")

    def test_frame_precision_dominates_exact_precision_without_ties(self):
        # When every decision is unique, the decided sets coincide and an
        # exact hit is always a frame hit.
        rng = np.random.default_rng(5)
        config = SyntheticConfig(n_sentences=60, ambiguity_range=(2, 5),
                                 n_features=8, seed=31)
        corpus, _ = generate_synthetic(config)
        registry = corrected_registry(corpus)
        for _ in range(10):
            model = new_model(build_feature_matrix(corpus, registry),
                              lam=rng.uniform(-1, 1, registry.size))
            exact = evaluate(model, corpus, task="exact_match")
            if exact.n_dont_know > 0:
                continue
            frame = evaluate(model, corpus, task="frame_match")
            assert frame.precision >= exact.precision


class TestRandomBaseline:
    def test_unambiguous_corpus(self):
        corpus = passthrough_corpus([[{0: 1}], [{0: 2}]], golds=[0, 0])
        registry = corrected_registry(corpus)
        report = random_baseline(corpus, "exact_match", registry, n_models=5,
                                 seed=0)
        assert report.mean_precision == 1.0
        assert report.stdev_precision == 0.0

    def test_uniform_choice_rate_on_basis_vector_corpus(self):
        # Each sentence's k parses carry disjoint one-hot features, so a
        # random parameter vector picks each parse with probability exactly
        # 1/k by exchangeability; Monte Carlo within 3 sigma.
        k, n_sentences, n_models = 4, 25, 200
        sentences = []
        golds = []
        rng = np.random.default_rng(99)
        for s in range(n_sentences):
            base = s * k
            sentences.append([{base + j: 1} for j in range(k)])
            golds.append(int(rng.integers(0, k)))
        corpus = passthrough_corpus(sentences, golds=golds)
        registry = corrected_registry(corpus)
        report = random_baseline(corpus, "exact_match", registry,
                                 n_models=n_models, seed=12)
        p = 1.0 / k
        sigma = np.sqrt(p * (1 - p) / (n_models * n_sentences))
        assert abs(report.mean_precision - p) < 3 * sigma

    def test_reproducible(self):
        corpus, registry, model = _hand_case()
        r1 = random_baseline(corpus, "exact_match", registry, n_models=20, seed=3)
        r2 = random_baseline(corpus, "exact_match", registry, n_models=20, seed=3)
        assert r1 == r2

    def test_n_models_validated(self):
        corpus, registry, _ = _hand_case()
        with pytest.raises(ConfigError):
            random_baseline(corpus, "exact_match", registry, n_models=0)

    def test_negative_seed_is_a_config_error(self):
        corpus, registry, _ = _hand_case()
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            random_baseline(corpus, "exact_match", registry, n_models=1,
                            seed=-1)

    def test_lambda_range_validated(self):
        # numpy rejects a negative width and overflows past 8.9e307.
        corpus, registry, _ = _hand_case()
        for bad in (-1.0, 1e308, float("nan")):
            with pytest.raises(ConfigError, match="lambda_range"):
                random_baseline(corpus, "exact_match", registry, n_models=1,
                                lambda_range=bad)

    def test_negative_zero_lambda_range_is_zero(self):
        # -0.0 passes the nonnegative check, so it must draw like 0.0 (all
        # zero vectors, every sentence a tie), not as a negative width.
        corpus, registry, _ = _hand_case()
        for width in (0.0, -0.0):
            with pytest.raises(DataError, match="precision undefined"):
                random_baseline(corpus, "exact_match", registry, n_models=2,
                                lambda_range=width)


class TestSweep:
    def test_single_checkpoint_equals_evaluate(self):
        corpus, registry, model = _hand_case()
        rows = sweep_checkpoints([(7, model)], corpus, task="exact_match")
        outcome = evaluate(model, corpus, task="exact_match")
        assert len(rows) == 1
        assert rows[0].iteration == 7
        assert rows[0].precision == outcome.precision
        assert rows[0].effectiveness == outcome.effectiveness

    def test_rows_ordered_by_iteration(self):
        corpus, registry, model = _hand_case()
        rows = sweep_checkpoints([(10, model), (0, model), (5, model)], corpus)
        assert [r.iteration for r in rows] == [0, 5, 10]

    def test_empty_checkpoints_rejected(self):
        corpus, registry, model = _hand_case()
        with pytest.raises(ConfigError):
            sweep_checkpoints([], corpus)

    def test_peak_is_reported_at_the_argmax_row(self):
        # A seeded training run evaluated at its checkpoints: the sweep's
        # best row must agree with an independent per-checkpoint evaluation
        # (the peak's location itself is data-dependent).
        import numpy as np
        from parsedisamb import (SyntheticConfig, TrainingConfig,
                                 generate_synthetic, train)
        from conftest import corrected_registry

        theta = np.random.default_rng(3).uniform(-0.9, 0.9, 10)
        train_corpus, _ = generate_synthetic(
            SyntheticConfig(n_sentences=300, ambiguity_range=(2, 5),
                            n_features=10, seed=41), true_params=theta)
        test_corpus, _ = generate_synthetic(
            SyntheticConfig(n_sentences=150, ambiguity_range=(2, 5),
                            n_features=10, seed=42), true_params=theta)
        registry = corrected_registry(train_corpus)
        model, trace = train(train_corpus, registry,
                             TrainingConfig(max_iterations=60,
                                            likelihood_tolerance=1e-12,
                                            checkpoint_every=5),
                             complete_data=True)
        models = [(it, model.with_lam(lam)) for it, lam in trace.checkpoints()]
        rows = sweep_checkpoints(models, test_corpus, task="exact_match")
        direct = {it: evaluate(m, test_corpus, task="exact_match").precision
                  for it, m in models}
        for row in rows:
            assert row.precision == direct[row.iteration]
        decided = [r for r in rows if r.precision is not None]
        peak = max(decided, key=lambda r: r.precision)
        assert peak.precision == max(p for p in direct.values()
                                     if p is not None)

    def test_csv_output(self, tmp_path):
        corpus, registry, model = _hand_case()
        rows = sweep_checkpoints([(0, model), (5, model)], corpus)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,precision,effectiveness"
        assert len(lines) == 3


class TestReportJson:
    def test_report_document(self, tmp_path):
        import json
        corpus, registry, model = _hand_case()
        outcome = evaluate(model, corpus, task="exact_match")
        path = tmp_path / "report.json"
        write_report_json(outcome, path)
        doc = json.loads(path.read_text())
        assert doc["task"] == "exact_match"
        assert doc["counts"] == {"correct": 6, "incorrect": 2, "dont_know": 2}
        assert len(doc["per_sentence"]) == 10


class TestCompiledTestCorpus:
    """The sentences a compiled matrix carries name every verdict, and a
    matrix handed in for the test corpus is scored as it is."""

    def _case(self):
        # Every sentence reuses the parse ids p0 and p1; sentence s1 weighs
        # half the others.
        corpus = passthrough_corpus(
            [[{0: 1}, {}], [{}, {0: 1}], [{0: 1}, {}], [{}, {}]],
            golds=[0, 0, 1, 0], frames=[["fa", "fb"]] * 4,
            weights=[1.0, 0.5, 1.0, 1.0])
        registry = corrected_registry(corpus)
        model = new_model(build_feature_matrix(corpus, registry),
                          lam=np.array([2.0, 0.0]))
        return corpus, registry, model

    def test_verdicts_name_sentences_and_parses_in_row_order(self):
        corpus, registry, model = self._case()
        outcome = evaluate(model, corpus)
        assert [(v.sentence_id, v.verdict, v.decision_kind, v.chosen_parse_ids)
                for v in outcome.verdicts] == [
            ("s0", "correct", "unique", ("p0",)),
            ("s1", "incorrect", "unique", ("p1",)),
            ("s2", "incorrect", "unique", ("p0",)),
            ("s3", "dont_know", "dont_know", ("p0", "p1"))]
        # On the compiled matrix, sentence positions are the corpus's.
        universe = build_feature_matrix(corpus, registry)
        decisions = decide(model.lam, universe)
        assert [(universe.sentence_ids[s],
                 decisions.decision(universe, s).parse_ids)
                for s in range(universe.n_sentences)] == [
            ("s0", ("p0",)), ("s1", ("p1",)), ("s2", ("p0",)),
            ("s3", ("p0", "p1"))]

    def test_a_universe_matrix_is_scored_as_the_universe(self):
        # The matrix of three of the four sentences scores those three.
        corpus, registry, model = self._case()
        kept = Corpus(tuple(e for e in corpus.entries if e.sentence_id != "s1"))
        universe = compile_corpus(kept, registry)
        assert universe.n_sentences == 3
        for task in TASKS:
            outcome = evaluate(model, universe, task)
            assert [v.sentence_id for v in outcome.verdicts] \
                == ["s0", "s2", "s3"]
            assert outcome == evaluate(model, kept, task)
            assert evaluate(model, corpus, task).n_sentences == 4
            assert random_baseline(universe, task, registry, n_models=5,
                                   seed=1) \
                == random_baseline(kept, task, registry, n_models=5, seed=1)
            assert sweep_checkpoints([(0, model)], universe, task) \
                == sweep_checkpoints([(0, model)], kept, task)
