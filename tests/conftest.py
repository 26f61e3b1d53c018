"""Shared corpus builders for the test suite."""

from typing import Optional, Sequence

import numpy as np

from parsedisamb import (Corpus, FStructure, LexFrequencyTable, ParseRecord,
                         Relation, SentenceEntry, add_correction, build_corpus,
                         build_registry)


def feature_pairs(features: dict) -> tuple:
    """A parse's ``precomputed_features`` from an index -> value map: its
    (index, value) items sorted by index."""
    return tuple(sorted(features.items()))


def passthrough_corpus(sentences: Sequence[Sequence[dict]],
                       golds: Optional[Sequence[Optional[int]]] = None,
                       frames: Optional[Sequence[Sequence[str]]] = None,
                       weights: Optional[Sequence[float]] = None) -> Corpus:
    """Corpus from per-sentence lists of sparse feature dicts."""
    entries = []
    for s, rows in enumerate(sentences):
        parses = []
        for j, row in enumerate(rows):
            frame = frames[s][j] if frames is not None else None
            parses.append(ParseRecord(
                parse_id=f"p{j}",
                frame=frame,
                precomputed_features=feature_pairs(
                    {int(k): float(v) for k, v in row.items()}),
            ))
        entries.append(SentenceEntry(
            sentence_id=f"s{s}",
            tokens=(f"tok{s}",),
            parses=tuple(parses),
            weight=1.0 if weights is None else weights[s],
            gold_index=None if golds is None else golds[s],
        ))
    return build_corpus(entries)


def corrected_registry(corpus: Corpus):
    """Passthrough registry over ``corpus`` with the correction appended."""
    registry = build_registry(corpus)
    return add_correction(registry, corpus)


def random_passthrough_instance(rng: np.random.Generator,
                                max_sentences: int = 20,
                                max_ambiguity: int = 6,
                                max_features: int = 10,
                                with_gold: bool = False):
    """Random small training instance: (corpus, corrected registry).

    Feature values are small nonnegative integer counts; every feature is
    active on at least one parse, and each sentence has at least one parse
    with nonzero mass so a correction constant exists.
    """
    n_sentences = int(rng.integers(1, max_sentences + 1))
    n_features = int(rng.integers(1, max_features + 1))
    sentences = []
    golds = []
    for _ in range(n_sentences):
        k = int(rng.integers(1, max_ambiguity + 1))
        rows = []
        for _ in range(k):
            row = {}
            for f in range(n_features):
                if rng.random() < 0.5:
                    row[f] = int(rng.integers(1, 4))
            rows.append(row)
        if not any(rows):
            rows[0] = {0: 1}
        sentences.append(rows)
        golds.append(int(rng.integers(0, k)))
    # Give every feature at least one activation so none is degenerate.
    sentences[0][0] = {f: max(sentences[0][0].get(f, 0), 1)
                       for f in range(n_features)}
    corpus = passthrough_corpus(sentences, golds=golds if with_gold else None)
    return corpus, corrected_registry(corpus)


def weighted_parsebank(rng: np.random.Generator, max_sentences: int = 10,
                       max_features: int = 5):
    """Singleton parse sets with random positive weights and gold = 0.

    Non-uniform weights keep the uniform start away from the optimum, so
    complete-data moment matching is earned rather than inherited from init.
    """
    n_features = int(rng.integers(2, max_features + 1))
    entries = []
    for s in range(int(rng.integers(4, max_sentences + 1))):
        feats = {f: float(rng.integers(0, 4)) for f in range(n_features)}
        feats = {f: v for f, v in feats.items() if v}
        if not feats:
            feats = {0: 1.0}
        entries.append(SentenceEntry(
            sentence_id=f"s{s}", tokens=(f"t{s}",),
            parses=(ParseRecord(parse_id="p0",
                                precomputed_features=feature_pairs(feats)),),
            weight=float(rng.uniform(0.5, 3.0)), gold_index=0))
    corpus = build_corpus(entries)
    return corpus, corrected_registry(corpus)


def tiny_instance(rng: np.random.Generator, n_features: int):
    """Universe of at most 6 parses over 1-2 sentences, small counts.

    Returns (corpus, corrected registry, per-sentence pre-correction feature
    matrices) for comparison against grid-search oracles.
    """
    while True:
        n_sentences = int(rng.integers(1, 3))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_sentences)]
        if sum(sizes) > 6:
            continue
        sentences = []
        for k in sizes:
            rows = [{f: int(rng.integers(0, 3)) for f in range(n_features)}
                    for _ in range(k)]
            rows = [{f: v for f, v in row.items() if v} for row in rows]
            sentences.append(rows)
        flat = [tuple(sorted(r.items())) for rows in sentences for r in rows]
        if all(not rows or not any(rows) for rows in sentences):
            continue
        if len(set(flat)) < 2:
            continue
        # Every feature must appear somewhere, else the passthrough width
        # shrinks under n_features.
        seen = {f for rows in sentences for row in rows for f in row}
        if seen != set(range(n_features)):
            continue
        corpus = passthrough_corpus(sentences)
        registry = corrected_registry(corpus)
        vectors = []
        for entry in corpus.entries:
            V = np.zeros((len(entry.parses), n_features))
            for j, parse in enumerate(entry.parses):
                for idx, value in parse.precomputed_features or ():
                    V[j, idx] = value
            vectors.append(V)
        return corpus, registry, vectors


def structural_parse(parse_id: str, tree, functions=(), pairs=(),
                     relations=(), frame=None) -> ParseRecord:
    return ParseRecord(
        parse_id=parse_id,
        cstructure=tree,
        fstructure=FStructure(pairs=tuple(pairs), functions=tuple(functions)),
        relations=tuple(relations),
        frame=frame,
    )


def relation(name, verb, noun, voice="active", position=1) -> Relation:
    return Relation(name=name, verb=verb, noun=noun, voice=voice,
                    position=position)


def freq_table(model, values: dict) -> LexFrequencyTable:
    """The frequency table over ``model`` that stores ``values``, a
    (verb, noun) -> f_c map; its words need not be the model's."""
    return LexFrequencyTable.from_columns(
        model, [v for v, _ in values], [n for _, n in values],
        list(values.values()))


def random_structural_corpus(rng: np.random.Generator,
                             n_sentences: int) -> Corpus:
    """Random trees, f-structures, relations and frames, with gold parses."""
    entries = []
    for s in range(n_sentences):
        tokens = tuple(f"w{int(t)}" for t in rng.integers(0, 6, size=4))
        parses = []
        for j in range(int(rng.integers(1, 4))):
            cut = int(rng.integers(1, 4))
            tree = ("S", (("NP", tokens[:cut]),
                          (str(rng.choice(["VP", "XP"])), tokens[cut:])))
            parses.append(structural_parse(
                f"p{j}", tree,
                functions=list(rng.choice(["SUBJ", "OBJ", "ADJUNCT"], size=2)),
                pairs=[("TENSE", str(rng.choice(["past", "pres"])))],
                relations=[relation("subj", "v0",
                                    f"n{int(rng.integers(0, 3))}")],
                frame=f"f{int(rng.integers(0, 2))}"))
        entries.append(SentenceEntry(sentence_id=f"s{s}", tokens=tokens,
                                     parses=tuple(parses),
                                     gold_index=int(rng.integers(0, len(parses)))))
    return build_corpus(entries)
