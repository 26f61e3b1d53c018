"""Class-based lexicalization: pair clustering, smoothed frequencies, and
the per-relation pre-disambiguation indicator.

Run:  python demos/03_lexicalized_clustering.py
"""

import numpy as np

from parsedisamb import (SLOTS, PairCounts, SyntheticConfig, TrainingConfig,
                         add_correction, build_freq_table, build_registry,
                         class_membership, evaluate, generate_synthetic,
                         lexicalized_properties, pair_counts_from_corpus,
                         slot_key, train, train_clusters)

print("=" * 70)
print("1. Latent-class clustering of (verb, noun) pairs")
print("=" * 70)

# Two obvious verb-noun themes plus a little crossover noise.
counts = {}
food_verbs, food_nouns = ["eat", "cook", "taste"], ["apple", "pasta", "soup"]
road_verbs, road_nouns = ["drive", "park"], ["car", "truck"]
rng = np.random.default_rng(0)
for v in food_verbs:
    for n in food_nouns:
        counts[(v, n)] = int(rng.integers(3, 9))
for v in road_verbs:
    for n in road_nouns:
        counts[(v, n)] = int(rng.integers(3, 9))
counts[("eat", "car")] = 1
pairs = PairCounts(counts=counts)

model, trace = train_clusters(pairs, n_classes=2, seed=4, max_iterations=100)
print(f"EM iterations: {len(trace) - 1}, log-likelihood "
      f"{trace[0]:.3f} -> {trace[-1]:.3f} (non-decreasing: "
      f"{all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))})")
for v, n in [("eat", "apple"), ("drive", "car"), ("eat", "car")]:
    posterior = class_membership(model, v, n)
    print(f"  p(class | {v}, {n}) = {np.round(posterior, 3)}")

print()
print("=" * 70)
print("2. Class-smoothed frequencies f_c(v, n) = max_c p(c|v,n) (f(v,n)+1)")
print("=" * 70)

table = build_freq_table(model, pairs)
for v, n in [("eat", "apple"), ("eat", "car"), ("cook", "truck")]:
    raw = counts.get((v, n), 0)
    print(f"  f({v}, {n}) = {raw}   ->   f_c = {table.lookup(v, n):.3f}")
print("(unseen pairs fall back to the best class prior times 1)")

print()
print("=" * 70)
print("3. The pre-disambiguation indicator inside one sentence")
print("=" * 70)

from parsedisamb import ParseRecord, Relation, SentenceEntry

entry = SentenceEntry(
    sentence_id="demo", tokens=("he", "eats", "the", "apple"),
    parses=(
        ParseRecord(parse_id="subj-apple",
                    relations=(Relation("dobj", "eat", "apple", "active", 1),),
                    precomputed_features=((0, 1.0),)),
        ParseRecord(parse_id="subj-car",
                    relations=(Relation("dobj", "eat", "car", "active", 1),),
                    precomputed_features=((0, 1.0),)),
    ))
rows = lexicalized_properties(entry, table)
key = slot_key("dobj", "active", 1)
for parse, row in zip(entry.parses, rows):
    print(f"  parse {parse.parse_id!r}: indicator[{key}] = {row.get(key, 0)}")
print("the parse whose pair is most plausible under the clusters wins the "
      "slot before any training happens")

print()
print("=" * 70)
print("4. Lexicalized properties inside a trained model")
print("=" * 70)

theta = np.random.default_rng(2).uniform(-0.6, 0.6, 12)
corpus, _ = generate_synthetic(
    SyntheticConfig(n_sentences=700, ambiguity_range=(2, 6),
                    n_features=12, seed=11), true_params=theta)
held_out, _ = generate_synthetic(
    SyntheticConfig(n_sentences=300, ambiguity_range=(2, 6),
                    n_features=12, seed=12), true_params=theta)
corpus_pairs = pair_counts_from_corpus(corpus)
cluster_model, _ = train_clusters(corpus_pairs, n_classes=8, seed=1,
                                  max_iterations=60)
corpus_table = build_freq_table(cluster_model, corpus_pairs)

config = TrainingConfig(max_iterations=150, likelihood_tolerance=1e-9)
basic_registry = add_correction(build_registry(corpus), corpus)
basic_model, _ = train(corpus, basic_registry, config)

lex_registry = build_registry(corpus, include_lexicalized=True,
                              lex_table=corpus_table)
lex_registry = add_correction(lex_registry, corpus, lex_table=corpus_table)
lex_model, _ = train(corpus, lex_registry, config, lex_table=corpus_table)

n_slots = sum(1 for d in lex_registry.properties
              if d.kind == "lexicalized-relation")
print(f"basic registry: {basic_registry.size} properties; lexicalized adds "
      f"{n_slots} of the {len(SLOTS)} relation slots")
p_basic = evaluate(basic_model, held_out, task="exact_match").precision
p_lex = evaluate(lex_model, held_out, task="exact_match",
                 lex_table=corpus_table).precision
print(f"held-out exact match: basic {p_basic:.3f}, lexicalized {p_lex:.3f} "
      f"({p_lex - p_basic:+.3f})")
