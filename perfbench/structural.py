"""Seeded c-/f-structure corpus and pair-count generator for the benchmark.

``parsedisamb synth`` emits only precomputed features, so the structural
templates, property selection and lexicalization are never exercised by it.
This generator writes a forest-corpus whose parses carry c-structures,
f-structures, relations and frames, plus a (verb, noun) pair-count file,
through the library's own ``save_corpus`` and ``save_pair_counts``.

* Every sentence has 8-16 tokens and 2-8 candidate parses.  Parses share the
  tokens but differ in bracketing, phrase labels, some part-of-speech tags
  and their f-structure.
* The gold parse is drawn from a hidden log-linear weighting of the
  library's structural properties (``structural_values``), so held-out
  precision stays clearly below 1.
* Every parse of a sentence fills one shared relation slot with its own head
  noun.  The gold parse usually picks a noun of the verb's hidden class.
  The pair counts come from the same hidden classes, so class-based
  lexicalization has a real contrast to pick up.

Deterministic in the seed and the sizes.
"""

from __future__ import annotations

import math
import os
import random
import zlib
from contextlib import nullcontext

import numpy as np

from parsedisamb import (FStructure, PairCounts, ParseRecord, Relation,
                         SentenceEntry, build_corpus, save_corpus,
                         save_pair_counts)
from parsedisamb.corpus import SYNTHETIC_RELATIONS
from parsedisamb.properties import STRUCTURAL_KINDS, structural_values

TAGS = ("N", "N", "N", "V", "V", "D", "D", "A", "P", "ADV", "PRO", "CC")
PHRASES = ("NP", "NP", "VP", "VP", "PP", "AP", "ADVP", "CP", "XP")
FUNCTIONS = ("SUBJ", "OBJ", "OBJ2", "OBL", "XCOMP", "COMP", "ADJUNCT",
             "MOD", "POSS")
ATTRIBUTES = (("TENSE", ("past", "pres", "fut")),
              ("SUBJ NUM", ("sg", "pl")), ("OBJ NUM", ("sg", "pl")),
              ("SUBJ PERS", ("1", "2", "3")), ("PASSIVE", ("+", "-")),
              ("STMT-TYPE", ("decl", "int", "imp")),
              ("MOOD", ("ind", "subj")), ("OBJ CASE", ("acc", "dat")))
N_FRAMES = 12
PREFERENCE = 0.85  # chance that the gold parse's noun is of the verb's class


def _hidden_weight(seed: int, kind: str, key: str) -> float:
    """Weight of one structural property in the hidden model, in [-1, 1]."""
    h = zlib.crc32(f"{seed}|{kind}|{key}".encode("utf-8"))
    return 2.0 * h / 0xFFFFFFFF - 1.0


def _tree(rng: random.Random, tokens, tags, lo: int, hi: int, root: bool):
    if hi - lo == 1:
        return (tags[lo], (tokens[lo],))
    n_children = 2 if hi - lo == 2 or rng.random() < 0.6 else 3
    cuts = sorted(rng.sample(range(lo + 1, hi), n_children - 1))
    bounds = [lo, *cuts, hi]
    children = tuple(_tree(rng, tokens, tags, a, b, False)
                     for a, b in zip(bounds, bounds[1:]))
    return ("S" if root else rng.choice(PHRASES), children)


def _fstructure(rng: random.Random, base_functions, base_pairs) -> FStructure:
    functions = [f if rng.random() < 0.7 else rng.choice(FUNCTIONS)
                 for f in base_functions]
    if rng.random() < 0.3:
        functions.append(rng.choice(FUNCTIONS))
    pairs = []
    for (attribute, values), value in base_pairs:
        pairs.append((attribute, value if rng.random() < 0.8
                      else rng.choice(values)))
    return FStructure(pairs=tuple(pairs), functions=tuple(functions))


def _preferred_noun(rng: random.Random, verb_id: int, sizes) -> str:
    """A noun of the verb's hidden class (class = id modulo class count)."""
    classes = sizes["classes"]
    per_class = sizes["nouns"] // classes
    return f"n{verb_id % classes + classes * rng.randrange(per_class)}"


def _sentence(rng: random.Random, seed: int, s: int, sizes) -> SentenceEntry:
    length = rng.randint(*sizes["tokens"])
    k = rng.randint(*sizes["parses"])
    types = [rng.randrange(sizes["token_types"]) for _ in range(length)]
    tokens = tuple(f"w{t}" for t in types)
    # Each token type has a primary tag; a parse may retag some tokens.
    primary = [TAGS[t % len(TAGS)] for t in types]
    base_functions = rng.sample(FUNCTIONS, rng.randint(2, 4))
    base_pairs = [(a, rng.choice(a[1])) for a in rng.sample(ATTRIBUTES, 4)]
    frame_pool = [f"f{rng.randrange(N_FRAMES)}" for _ in range((k + 1) // 2)]

    slot_name = rng.choice(SYNTHETIC_RELATIONS)
    voice = "passive" if rng.random() < 0.25 else "active"
    position = rng.randint(1, 2)
    verb_id = rng.randrange(sizes["verbs"])

    shapes = []
    scores = []
    for _ in range(k):
        tags = [t if rng.random() < 0.85 else rng.choice(TAGS) for t in primary]
        shape = ParseRecord(
            parse_id="", cstructure=_tree(rng, tokens, tags, 0, length, True),
            fstructure=_fstructure(rng, base_functions, base_pairs))
        shapes.append(shape)
        scores.append(sum(_hidden_weight(seed, kind, key) * v for (kind, key), v
                          in structural_values(shape, STRUCTURAL_KINDS).items()))
    top = max(scores)
    gold = rng.choices(range(k), weights=[math.exp(x - top) for x in scores])[0]

    parses = []
    for j, shape in enumerate(shapes):
        if j == gold and rng.random() < PREFERENCE:
            noun = _preferred_noun(rng, verb_id, sizes)
        else:
            noun = f"n{rng.randrange(sizes['nouns'])}"
        parses.append(ParseRecord(
            parse_id=f"p{j}", cstructure=shape.cstructure,
            fstructure=shape.fstructure,
            relations=(Relation(slot_name, f"v{verb_id}", noun, voice,
                                position),),
            frame=rng.choice(frame_pool)))
    return SentenceEntry(sentence_id=f"s{s}", tokens=tokens,
                         parses=tuple(parses), gold_index=gold)


def generate_corpus(seed: int, sizes: dict):
    """(train, test) corpora of the structural workload for ``seed``."""
    rng = random.Random(seed)
    entries = [_sentence(rng, seed, s, sizes) for s in range(sizes["sentences"])]
    n_train = int(sizes["split"] * len(entries))
    return build_corpus(entries[:n_train]), build_corpus(entries[n_train:])


def generate_pair_counts(seed: int, sizes: dict) -> PairCounts:
    """Pair counts drawn from the hidden verb/noun classes of the corpus."""
    rng = np.random.default_rng(seed)
    classes, n_verbs, n_nouns = sizes["classes"], sizes["verbs"], sizes["nouns"]
    draws = sizes["pair_draws"]
    cls = rng.choice(classes, size=draws, p=rng.dirichlet(np.full(classes, 5.0)))
    # Verbs of class c are the ids congruent to c; Zipf-like use within it.
    verb_rank = np.minimum(rng.zipf(1.6, size=draws) - 1,
                           n_verbs // classes - 1)
    verbs = cls + classes * verb_rank
    in_class = rng.random(draws) < 0.8
    nouns = np.where(in_class,
                     cls + classes * rng.integers(0, n_nouns // classes, draws),
                     rng.integers(0, n_nouns, draws))
    keys, counts = np.unique(verbs * n_nouns + nouns, return_counts=True)
    return PairCounts(counts={
        (f"v{int(k) // n_nouns}", f"n{int(k) % n_nouns}"): int(c)
        for k, c in zip(keys, counts)})


def write_inputs(seed: int, out_dir: str, sizes: dict, tracer=None) -> dict:
    """Write train.jsonl, test.jsonl and pairs.tsv under ``out_dir``.

    With a tracer, generation and saving are recorded as
    ``corpus.generate``/``corpus.save`` spans.  Returns the file paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, f"{name}.{ext}")
             for name, ext in (("train", "jsonl"), ("test", "jsonl"),
                               ("pairs", "tsv"))}
    with _span(tracer, "corpus.generate"):
        train, test = generate_corpus(seed, sizes)
        pairs = generate_pair_counts(seed, sizes)
    with _span(tracer, "corpus.save"):
        save_corpus(train, paths["train"])
        save_corpus(test, paths["test"])
        save_pair_counts(pairs, paths["pairs"])
    return paths


def _span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)
