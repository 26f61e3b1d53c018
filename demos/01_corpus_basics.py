"""Corpus handling: generation, file round trips, filtering, statistics.

Run:  python demos/01_corpus_basics.py
"""

import os
import tempfile

from parsedisamb import (SyntheticConfig, corpus_stats, generate_synthetic,
                         load_corpus, save_corpus)

print("=" * 70)
print("1. Generate a synthetic corpus with a hidden gold model")
print("=" * 70)

config = SyntheticConfig(n_sentences=200, ambiguity_range=(1, 6),
                         n_features=12, n_relations=4, seed=42)
corpus, hidden = generate_synthetic(config)
stats = corpus_stats(corpus)
print(f"sentences        : {stats.n_sentences}")
print(f"mean ambiguity   : {stats.mean_ambiguity:.2f}")
print(f"mean length      : {stats.mean_length:.2f} tokens")
print(f"parse universe   : {stats.universe_size} parses")
print(f"hidden model     : {hidden['n_features']} parameters, "
      f"first three = {[round(v, 3) for v in hidden['true_params'][:3]]}")

entry = corpus.entries[0]
print(f"\nfirst sentence {entry.sentence_id!r}: {len(entry.parses)} parses, "
      f"gold index {entry.gold_index}")
for parse in entry.parses[:2]:
    features = dict(parse.precomputed_features)
    print(f"  parse {parse.parse_id}: features {features}, "
          f"frame {parse.frame!r}")
    for rel in parse.relations:
        print(f"    relation {rel.name} ({rel.voice}, verb #{rel.position}): "
              f"{rel.verb} -> {rel.noun}")

print()
print("=" * 70)
print("2. The corpus file format round-trips exactly")
print("=" * 70)

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "corpus.jsonl")
    save_corpus(corpus, path)
    size = os.path.getsize(path)
    again = load_corpus(path)
    with open(path) as handle:
        header = handle.readline().strip()
        first = handle.readline()[:100]
    print(f"wrote {size} bytes; header line: {header}")
    print(f"first record starts: {first}...")
    print(f"reload equals original: {again == corpus}")

    print()
    print("=" * 70)
    print("3. Ambiguity cutoff")
    print("=" * 70)

    capped = load_corpus(path, max_parses=3)
    print(f"max_parses=3 keeps {len(capped.entries)} of "
          f"{len(corpus.entries)} sentences "
          f"({corpus_stats(capped).universe_size} parses)")
