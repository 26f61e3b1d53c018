"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line with the measured quantities
(visible with ``pytest -s`` or on failure).  Tolerances are fixed here, not
calibrated at runtime; every randomized check is seeded and therefore
deterministic.
"""

import json
import math
import time

import numpy as np

from parsedisamb import (SLOTS, PairCounts, SentenceEntry, SyntheticConfig,
                         TrainingConfig, build_corpus, build_feature_matrix,
                         compare_inits,
                         evaluate, expectations, generate_synthetic,
                         incomplete_log_likelihood, lexicalized_properties,
                         new_model, normalize, random_baseline, slot_key,
                         train, train_clusters)
from parsedisamb.cli import main as cli_main
from parsedisamb.corpus import ParseRecord
from parsedisamb.evaluation import _metrics
from conftest import (corrected_registry, feature_pairs, freq_table,
                      passthrough_corpus, random_passthrough_instance,
                      relation, tiny_instance, weighted_parsebank)
from oracles import grid_search_optimum


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_c01_likelihood_monotonicity():
    started = time.monotonic()
    rng = np.random.default_rng(12345)
    violations = 0
    for _ in range(100):
        corpus, registry = random_passthrough_instance(
            rng, max_sentences=20, max_ambiguity=6, max_features=10)
        _, trace = train(corpus, registry,
                         TrainingConfig(max_iterations=40,
                                        likelihood_tolerance=1e-12))
        L = trace.likelihoods()
        if not all(b >= a - 1e-10 for a, b in zip(L, L[1:])):
            violations += 1
    elapsed = time.monotonic() - started
    _report(1, "likelihood monotonicity", violations == 0 and elapsed < 10.0,
            f"violations={violations}/100, {elapsed:.1f}s")


def test_c02_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(555)
    matched = 0
    total = 30
    for _ in range(total):
        n_features = int(rng.integers(1, 4))
        corpus, registry, vectors = tiny_instance(rng, n_features)
        _, trace = train(corpus, registry,
                         TrainingConfig(max_iterations=3000,
                                        likelihood_tolerance=1e-13,
                                        checkpoint_every=1000))
        weights = np.array([e.weight for e in corpus.entries])
        best = grid_search_optimum(vectors, weights)
        if abs(trace.final_log_likelihood - best) < 1e-4:
            matched += 1
    elapsed = time.monotonic() - started
    _report(2, "grid-search oracle equivalence",
            matched >= math.ceil(0.95 * total) and elapsed < 60.0,
            f"matched={matched}/{total}, {elapsed:.1f}s")


def test_c03_complete_data_moment_matching():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        corpus, registry = weighted_parsebank(rng)
        model, _ = train(corpus, registry,
                         TrainingConfig(max_iterations=60000,
                                        likelihood_tolerance=1e-15,
                                        checkpoint_every=20000),
                         complete_data=True)
        matrix = build_feature_matrix(corpus, registry)
        _, denominator = expectations(model, matrix, complete_data=True)
        empirical = matrix.weights @ matrix.values[matrix.gold_rows()]
        active = empirical > 1e-12
        worst = max(worst, float(np.abs(denominator - empirical)[active].max()))
    _report(3, "complete-data moment matching", worst < 1e-6,
            f"worst gap {worst:.2e}")


def test_c04_correction_exactness():
    rng = np.random.default_rng(99)
    parses_checked = 0
    exact = True
    corpora = [random_passthrough_instance(rng)[0] for _ in range(25)]
    corpora.append(generate_synthetic(
        SyntheticConfig(n_sentences=150, ambiguity_range=(1, 6),
                        n_features=12, seed=6))[0])
    for corpus in corpora:
        registry = corrected_registry(corpus)
        matrix = build_feature_matrix(corpus, registry)
        totals = matrix.values.sum(axis=1)
        exact = (exact and matrix.clamped_corrections == 0
                 and bool(np.all(totals == registry.correction_K)))
        parses_checked += matrix.n_parses
    _report(4, "correction exactness", exact,
            f"{parses_checked} parses, none clamped, integer totals equal K "
            "exactly")


def test_c05_normalization():
    rng = np.random.default_rng(31415)
    worst = 0.0
    n_models = 0
    for _ in range(20):
        corpus, registry = random_passthrough_instance(rng)
        features = build_feature_matrix(corpus, registry)
        for _ in range(50):
            model = new_model(features, lam=rng.uniform(-3, 3, registry.size))
            dist = normalize(model, features)
            worst = max(worst, abs(float(dist.probs.sum()) - 1.0))
            n_models += 1
    _report(5, "normalization mass", n_models == 1000 and worst <= 1e-12,
            f"{n_models} models, worst |sum-1| = {worst:.2e}")


def test_c06_gradient_sign():
    rng = np.random.default_rng(2718)
    h = 1e-5
    checked, agreed = 0, 0
    for _ in range(50):
        corpus, registry = random_passthrough_instance(
            rng, max_sentences=6, max_ambiguity=4, max_features=4)
        lam = rng.uniform(-1, 1, registry.size)
        features = build_feature_matrix(corpus, registry)
        model = new_model(features, lam=lam)
        numerator, denominator = expectations(model, features)
        gradient = numerator - denominator
        for i in range(registry.size):
            up, down = lam.copy(), lam.copy()
            up[i] += h
            down[i] -= h
            cd = (incomplete_log_likelihood(model.with_lam(up), features)
                  - incomplete_log_likelihood(model.with_lam(down), features)
                  ) / (2 * h)
            if abs(cd) > 1e-7:
                checked += 1
                if np.sign(cd) == np.sign(gradient[i]):
                    agreed += 1
    _report(6, "gradient sign agreement", checked > 0 and agreed == checked,
            f"{agreed}/{checked} differentiable coordinates agree")


def test_c07_clustering():
    # Monotone likelihood on random pair counts.
    rng = np.random.default_rng(404)
    counts = {}
    for _ in range(60):
        key = (f"v{int(rng.integers(0, 9))}", f"n{int(rng.integers(0, 14))}")
        counts[key] = counts.get(key, 0) + int(rng.integers(1, 7))
    pair_counts = PairCounts(counts=counts)
    monotone = True
    for classes, seed in ((2, 0), (5, 1), (8, 2)):
        _, trace = train_clusters(pair_counts, n_classes=classes, seed=seed,
                                  max_iterations=80, tolerance=1e-12)
        monotone = monotone and all(b >= a - 1e-10
                                    for a, b in zip(trace, trace[1:]))

    # One EM step on a 3-pair corpus against an independent hand computation.
    toy = PairCounts(counts={("eat", "apple"): 4, ("eat", "pasta"): 2,
                             ("drive", "car"): 3})
    V, N = len(toy.verbs), len(toy.nouns)
    # The start is the one train_clusters draws from its seed.
    rng = np.random.default_rng(7)
    priors = np.array([0.5, 0.5])
    ve = 1.0 + 0.1 * rng.random((2, V))
    ve /= ve.sum(axis=1, keepdims=True)
    ne = 1.0 + 0.1 * rng.random((2, N))
    ne /= ne.sum(axis=1, keepdims=True)
    stepped, _ = train_clusters(toy, n_classes=2, max_iterations=1,
                                tolerance=1e-300, seed=7)
    vi = {v: i for i, v in enumerate(toy.verbs)}
    ni = {n: i for i, n in enumerate(toy.nouns)}
    ref_mass = np.zeros(2)
    ref_ve = np.zeros((2, V))
    ref_ne = np.zeros((2, N))
    for (v, n), f in toy.counts.items():
        joint = [priors[c] * ve[c, vi[v]] * ne[c, ni[n]] for c in range(2)]
        z = sum(joint)
        for c in range(2):
            w = f * joint[c] / z
            ref_mass[c] += w
            ref_ve[c, vi[v]] += w
            ref_ne[c, ni[n]] += w
    step_gap = max(
        float(np.abs(stepped.priors - ref_mass / sum(toy.counts.values())).max()),
        float(np.abs(stepped.verb_emissions - ref_ve / ref_mass[:, None]).max()),
        float(np.abs(stepped.noun_emissions - ref_ne / ref_mass[:, None]).max()))

    # Single-class identity f_c = f + 1, exact.
    from parsedisamb import build_freq_table
    single, _ = train_clusters(toy, n_classes=1)
    table = build_freq_table(single, toy)
    identity = all(table.lookup(v, n) == f + 1
                   for (v, n), f in toy.counts.items())

    _report(7, "clustering EM",
            monotone and step_gap <= 1e-12 and identity,
            f"monotone={monotone}, oracle step gap={step_gap:.1e}, "
            f"single-class identity={identity}")


def test_c08_lexicalized_indicator_contract():
    single, _ = train_clusters(PairCounts(counts={("v", "n"): 1}), n_classes=1)
    ok = True
    details = []

    # Exact tie: both maximal parses marked.
    table = freq_table(single, {("v", "a"): 3.5, ("v", "b"): 2.0,
                                ("v", "c"): 3.5})
    entry = SentenceEntry(
        sentence_id="s0", tokens=("t",),
        parses=tuple(ParseRecord(parse_id=f"p{j}",
                                 relations=(relation("subj", "v", noun),),
                                 precomputed_features=feature_pairs({0: 1.0}))
                     for j, noun in enumerate("abc")))
    rows = lexicalized_properties(entry, table)
    key = slot_key("subj", "active", 1)
    ok = ok and [r.get(key) for r in rows] == [1, 0, 1]
    details.append("tie handled")

    # Unique maximum plus a parse lacking the slot.
    table = freq_table(single, {("v", "a"): 1.0, ("v", "b"): 6.0})
    entry = SentenceEntry(
        sentence_id="s1", tokens=("t",),
        parses=(
            ParseRecord(parse_id="p0", relations=(relation("subj", "v", "a"),),
                        precomputed_features=feature_pairs({0: 1.0})),
            ParseRecord(parse_id="p1",
                        precomputed_features=feature_pairs({0: 1.0})),
            ParseRecord(parse_id="p2", relations=(relation("subj", "v", "b"),),
                        precomputed_features=feature_pairs({0: 1.0})),
        ))
    rows = lexicalized_properties(entry, table)
    ok = ok and rows[0].get(key) == 0 and key not in rows[1] \
        and rows[2].get(key) == 1
    details.append("unique winner")

    # Randomized: at least one winner per occupied slot, winners exactly the
    # argmax set.
    rng = np.random.default_rng(88)
    values = {(f"v{i}", f"n{j}"): float(rng.integers(1, 9))
              for i in range(4) for j in range(6)}
    table = freq_table(single, values)
    for case in range(30):
        parses = []
        for p in range(int(rng.integers(1, 5))):
            rels = []
            for _ in range(int(rng.integers(0, 3))):
                name, voice, pos = SLOTS[int(rng.integers(0, len(SLOTS)))]
                rels.append(relation(name, f"v{int(rng.integers(0, 4))}",
                                     f"n{int(rng.integers(0, 6))}", voice, pos))
            parses.append(ParseRecord(
                parse_id=f"p{p}", relations=tuple(rels),
                precomputed_features=feature_pairs({0: 1.0})))
        entry = SentenceEntry(sentence_id=f"r{case}", tokens=("t",),
                              parses=tuple(parses))
        rows = lexicalized_properties(entry, table)
        for slot in {k for row in rows for k in row}:
            competitors = {j: _slot_value(parses[j], slot, table)
                           for j, row in enumerate(rows) if slot in row}
            best = max(competitors.values())
            winners = {j for j, row in enumerate(rows)
                       if row.get(slot) == 1}
            expected = {j for j, v in competitors.items() if v >= best}
            ok = ok and winners == expected and len(winners) >= 1
    details.append("30 randomized sentences")
    _report(8, "pre-disambiguation indicator contract", ok,
            "; ".join(details))


def _slot_value(parse, slot, table):
    name, voice, pos = slot.split("/")
    for rel in parse.relations:
        if (rel.name, rel.voice, rel.position) == (name, voice, int(pos)):
            return table.lookup(rel.verb, rel.noun)
    raise AssertionError("slot not present")


def test_c09_metric_formulas():
    sentences, golds, frames = [], [], []
    for _ in range(6):
        sentences.append([{0: 1}, {}]); golds.append(0); frames.append(["a", "b"])
    for _ in range(2):
        sentences.append([{}, {0: 1}]); golds.append(0); frames.append(["a", "b"])
    for _ in range(2):
        sentences.append([{}, {}]); golds.append(0); frames.append(["a", "b"])
    corpus = passthrough_corpus(sentences, golds=golds, frames=frames)
    registry = corrected_registry(corpus)
    model = new_model(build_feature_matrix(corpus, registry),
                      lam=np.array([2.0, 0.0]))
    outcome = evaluate(model, corpus, task="exact_match")
    hand_ok = (outcome.n_correct, outcome.n_incorrect,
               outcome.n_dont_know) == (6, 2, 2) \
        and outcome.precision == 0.75 and outcome.effectiveness == 0.6

    rng = np.random.default_rng(1)
    order_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 50))
        counts = np.bincount(rng.integers(0, 3, size=n), minlength=3)
        precision, effectiveness = _metrics(*counts.tolist())
        if precision is not None and effectiveness > precision:
            order_ok = False
    _report(9, "precision/effectiveness formulas", hand_ok and order_ok,
            f"hand case P={outcome.precision} E={outcome.effectiveness}, "
            f"effectiveness<=precision on 200 random verdict sets")


def test_c10_incomplete_data_training_helps():
    # Hidden model with moderate tilt; 2000 unannotated training sentences
    # against a 60-sentence disambiguated slice (complete data) and a random
    # baseline.  A corpus of singleton parse sets cannot anchor a comparison
    # model: with uniform sentence weights its empirical parse distribution
    # equals the uniform start, so estimation is stationary there and the
    # model ties every test sentence.  The disambiguated slice plays the
    # scarce-complete-data role instead.
    started = time.monotonic()
    seed = 8000
    n_features = 50
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-0.8, 0.8, n_features)
    train_corpus, _ = generate_synthetic(
        SyntheticConfig(n_sentences=2000, ambiguity_range=(2, 8),
                        n_features=n_features, seed=seed + 1),
        true_params=theta)
    test_corpus, _ = generate_synthetic(
        SyntheticConfig(n_sentences=500, ambiguity_range=(2, 8),
                        n_features=n_features, seed=seed + 2),
        true_params=theta)

    config = TrainingConfig(max_iterations=500, likelihood_tolerance=1e-10)
    registry_full = corrected_registry(train_corpus)
    model_incomplete, _ = train(train_corpus, registry_full, config)

    slice_corpus = build_corpus(train_corpus.entries[:60])
    registry_slice = corrected_registry(slice_corpus)
    model_complete, _ = train(slice_corpus, registry_slice, config,
                              complete_data=True)

    p_incomplete = evaluate(model_incomplete, test_corpus,
                            task="exact_match").precision
    p_complete = evaluate(model_complete, test_corpus,
                          task="exact_match").precision
    baseline = random_baseline(test_corpus, "exact_match", registry_full,
                               n_models=100, seed=3)
    elapsed = time.monotonic() - started
    baseline_margin = p_incomplete - baseline.mean_precision
    complete_margin = p_incomplete - p_complete
    _report(10, "incomplete-data training helps",
            baseline_margin >= 0.20 and complete_margin > 0.0
            and elapsed < 120.0,
            f"incomplete={p_incomplete:.3f}, complete-slice={p_complete:.3f}, "
            f"baseline={baseline.mean_precision:.3f}, margins "
            f"{baseline_margin:+.3f}/{complete_margin:+.3f}, {elapsed:.0f}s")


def test_c11_uniform_init_dominates_random():
    corpus, _ = generate_synthetic(
        SyntheticConfig(n_sentences=250, ambiguity_range=(2, 6),
                        n_features=15, seed=4242))
    registry = corrected_registry(corpus)
    config = TrainingConfig(init_range=1.0, seed=100, max_iterations=150,
                            likelihood_tolerance=1e-9)
    report = compare_inits(build_feature_matrix(corpus, registry), config,
                           n_random_seeds=50)
    wins = sum(1 for L in report.random_final_Ls
               if report.uniform_final_L >= L)
    _report(11, "uniform init dominates random starts", wins >= 40,
            f"uniform >= random in {wins}/50 runs")


def test_c12_cli_reproducibility(tmp_path):
    def run(*argv):
        assert cli_main(list(argv)) == 0

    outputs = {}
    for tag in ("one", "two"):
        root = tmp_path / tag
        run("synth", "--sentences", "150", "--ambiguity", "1", "6",
            "--features", "12", "--seed", "9", "--split", "0.8",
            "--out-dir", str(root / "data"))
        run("train", "--corpus", str(root / "data" / "train.jsonl"),
            "--init", "random", "--seed", "9", "--max-iterations", "30",
            "--checkpoint-every", "10", "--out-dir", str(root / "model"))
        run("eval", "--model", str(root / "model" / "model.json"),
            "--corpus", str(root / "data" / "test.jsonl"),
            "--task", "exact", "--task", "frame", "--baseline", "20",
            "--seed", "9", "--checkpoints", str(root / "model" / "checkpoints"),
            "--out-dir", str(root / "eval"))
        outputs[tag] = root

    compared = []
    identical = True
    for rel in ("data/train.jsonl", "data/test.jsonl",
                "data/hidden_model.json", "model/model.json",
                "model/trace.jsonl", "model/registry.json",
                "eval/report_exact_match.json", "eval/report_frame_match.json",
                "eval/baseline_exact_match.json", "eval/sweep_exact_match.csv"):
        a = (outputs["one"] / rel).read_bytes()
        b = (outputs["two"] / rel).read_bytes()
        identical = identical and a == b
        compared.append(rel)
    checkpoint_names = sorted(
        p.name for p in (outputs["one"] / "model" / "checkpoints").iterdir())
    for name in checkpoint_names:
        a = (outputs["one"] / "model" / "checkpoints" / name).read_bytes()
        b = (outputs["two"] / "model" / "checkpoints" / name).read_bytes()
        identical = identical and a == b
    _report(12, "seeded CLI reruns are bit-identical", identical,
            f"{len(compared)} files + {len(checkpoint_names)} checkpoints")
