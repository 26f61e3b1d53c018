"""Class-based lexicalization of head-word dependencies.

A latent-class model over (verb, noun) pairs,

    p(v, n) = sum_c p(c) p(v|c) p(n|c),

is fit with EM to observed pair frequencies.  Its class-membership posterior
smooths raw pair counts into class-based estimated frequencies

    f_c(v, n) = max_c p(c|v, n) * (f(v, n) + 1),

which drive a per-relation pre-disambiguation indicator: within a sentence's
candidate parses, the parses whose (verb, noun) pair for a relation slot
maximizes f_c are marked 1, everything else 0.

A frequency table keeps its pairs as sorted integer codes into its cluster
model's vocabulary, next to an array of their f_c values, so a loaded table
keeps no object its JSON decode made; a lookup is one binary search.

Pair counts are exchanged as tab-separated "verb<TAB>noun<TAB>count" files;
cluster models and frequency tables as versioned JSON documents.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from .corpus import (_ONLY_FLOAT, _ONLY_STR, SYNTHETIC_RELATIONS, VOICES,
                     Corpus, SentenceEntry, _repeated, _utf8, atomic_write,
                     canonical_int, check_envelope, floats, read_json,
                     seeded_rng, strings, typed, write_json)
from .errors import ConfigError, DataError, InternalConsistencyError

CLUSTER_FORMAT = "cluster-model"
CLUSTER_VERSION = 1
FREQ_TABLE_FORMAT = "lex-frequency-table"
FREQ_TABLE_VERSION = 1
# The keys each document may carry: those its writer emits.
CLUSTER_KEYS = frozenset({"format", "version", "priors", "verb_emissions",
                          "noun_emissions", "verbs", "nouns"})
FREQ_TABLE_KEYS = frozenset({"format", "version", "entries", "model"})

# Pre-disambiguation slots (relation, voice, verb position): eight relations,
# two voices and three verb positions, less the direct object under passive
# voice (it is promoted), give 45 slots.
SLOTS = tuple((rel, voice, position) for rel in SYNTHETIC_RELATIONS
              for voice in VOICES if (rel, voice) != ("dobj", "passive")
              for position in (1, 2, 3))
_SLOT_SET = frozenset(SLOTS)
_ONLY_LIST = frozenset({list})


def slot_key(relation: str, voice: str, position: int) -> str:
    """Property key of a slot: ``relation/voice/position``."""
    return f"{relation}/{voice}/{position}"


@dataclass
class PairCounts:
    """Observed (verb, noun) pair frequencies with their vocabularies."""

    counts: dict[tuple[str, str], int]
    verbs: tuple[str, ...] = field(init=False)
    nouns: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        for (v, n), f in self.counts.items():
            if f < 0:
                raise DataError(f"negative count for pair ({v!r}, {n!r})")
        # Zero-count pairs carry no evidence and would leave their words no
        # mass under EM; f_c of one is computed on demand like any unseen's.
        self.counts = {pair: f for pair, f in self.counts.items() if f}
        self.verbs = tuple(sorted({v for v, _ in self.counts}))
        self.nouns = tuple(sorted({n for _, n in self.counts}))

    def __len__(self) -> int:
        return len(self.counts)


def load_pair_counts(path) -> PairCounts:
    """The counts of a UTF-8 file of verb<TAB>noun<TAB>count lines, each
    ending at a line feed (a CR before it is dropped); a pair that repeats
    adds its count."""
    counts: dict[tuple[str, str], int] = {}
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line = _utf8(line).rstrip("\r\n")
            except DataError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(
                    f"{path}: line {lineno}: expected verb<TAB>noun<TAB>count")
            verb, noun, raw = parts
            count = canonical_int(raw, f"{path}: line {lineno}: count")
            if count < 0:
                raise DataError(f"{path}: line {lineno}: negative count {count} "
                                f"for pair ({verb!r}, {noun!r})")
            key = (verb, noun)
            counts[key] = counts.get(key, 0) + count
    pairs = PairCounts(counts=counts)
    if not pairs.counts:
        raise DataError(f"{path}: pair counts are empty")
    return pairs


def save_pair_counts(counts: PairCounts, path) -> None:
    with atomic_write(path) as handle:
        for (verb, noun) in sorted(counts.counts):
            handle.write(f"{verb}\t{noun}\t{counts.counts[(verb, noun)]}\n")


def pair_counts_from_corpus(corpus: Corpus) -> PairCounts:
    """Count (verb, noun) pairs over every relation of every parse."""
    counts: dict[tuple[str, str], int] = {}
    for entry in corpus.entries:
        for parse in entry.parses:
            for rel in parse.relations:
                key = (rel.verb, rel.noun)
                counts[key] = counts.get(key, 0) + 1
    if not counts:
        raise DataError("corpus carries no relation annotations")
    return PairCounts(counts=counts)


# ---------------------------------------------------------------------------
# Latent-class model

@dataclass
class ClusterModel:
    """Latent classes over (verb, noun) pairs.

    ``priors`` has shape (C,); ``verb_emissions`` (C, V) and
    ``noun_emissions`` (C, N) hold p(v|c) and p(n|c) row-wise.  The joint
    reads them pair-major, through two cached C-contiguous tables:
    ``verb_table`` (V, C) holds p(c) p(v|c) and ``noun_table`` (N, C)
    holds p(n|c), so a word's C class terms lie next to each other.
    """

    priors: np.ndarray
    verb_emissions: np.ndarray
    noun_emissions: np.ndarray
    verbs: tuple[str, ...]
    nouns: tuple[str, ...]

    def __post_init__(self):
        n_classes = len(self.priors) if self.priors.ndim == 1 else 0
        if (n_classes == 0
                or self.verb_emissions.shape != (n_classes, len(self.verbs))
                or self.noun_emissions.shape != (n_classes, len(self.nouns))):
            raise DataError("priors, emissions and vocabularies have "
                            "mismatched shapes")
        for name, dist in (("priors", self.priors[None, :]),
                           ("verb_emissions", self.verb_emissions),
                           ("noun_emissions", self.noun_emissions)):
            if np.any(dist < 0):
                raise DataError(f"{name} contains negative entries")
            sums = dist.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > 1e-10):
                raise DataError(f"{name} rows do not sum to 1")

    @property
    def n_classes(self) -> int:
        return len(self.priors)

    @cached_property
    def _verb_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.verbs)}

    @cached_property
    def _noun_index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.nouns)}

    @cached_property
    def verb_table(self) -> np.ndarray:
        return np.ascontiguousarray(
            (self.priors[:, None] * self.verb_emissions).T)

    @cached_property
    def noun_table(self) -> np.ndarray:
        return np.ascontiguousarray(self.noun_emissions.T)

    def to_json_dict(self) -> dict:
        return {
            "format": CLUSTER_FORMAT,
            "version": CLUSTER_VERSION,
            "priors": self.priors.tolist(),
            "verb_emissions": self.verb_emissions.tolist(),
            "noun_emissions": self.noun_emissions.tolist(),
            "verbs": list(self.verbs),
            "nouns": list(self.nouns),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ClusterModel":
        check_envelope(doc, CLUSTER_FORMAT, CLUSTER_VERSION, CLUSTER_KEYS)
        verbs = strings(doc["verbs"], "verbs")
        nouns = strings(doc["nouns"], "nouns")
        # A repeated word would read the emission column of its last index.
        for what, words in (("verbs", verbs), ("nouns", nouns)):
            if len(set(words)) < len(words):
                raise DataError(f"{what} lists {_repeated(words)!r} twice")
        return cls(
            priors=floats(doc["priors"], "priors"),
            verb_emissions=floats(doc["verb_emissions"], "verb_emissions"),
            noun_emissions=floats(doc["noun_emissions"], "noun_emissions"),
            verbs=verbs, nouns=nouns)


def save_cluster_model(model: ClusterModel, path) -> None:
    write_json(model.to_json_dict(), path)


def train_clusters(counts: PairCounts, n_classes: int,
                   max_iterations: int = 100, tolerance: float = 1e-6,
                   seed: int = 0) -> tuple[ClusterModel, list[float]]:
    """Fit the latent-class model with EM.

    E-step responsibilities are p(c|v,n) proportional to p(c)p(v|c)p(n|c);
    the M-step reestimates all three families from responsibilities weighted
    by the observed pair frequency.  Initialization is jittered-uniform from
    ``seed``; with a single class the closed-form solution is used directly,
    so the likelihood trace is constant.  Returns the model and the
    per-iteration log-likelihood trace, which is non-decreasing.

    Each iteration builds one pair-major (P, C) joint and runs the E-step on
    it in place.  The pairs are sorted by verb, and every verb has a pair,
    so the verb rows are ``verb_table`` repeated over the verb runs.  Each
    row is the same C contiguous doubles a column of the class-major joint
    was, so the pairwise class sums, the ``mass`` sums (pair after pair) and
    the add order of every bincount bin are those of the (C, P) reference.
    """
    if len(counts) == 0:
        raise DataError("pair counts are empty")
    if n_classes < 1:
        raise ConfigError("n_classes must be >= 1")
    if max_iterations < 1:
        raise ConfigError("max_iterations must be >= 1")
    if not tolerance > 0:  # NaN included
        raise ConfigError("tolerance must be positive")

    verbs, nouns = counts.verbs, counts.nouns
    # Checked once here: every ClusterModel below shares these vocabularies.
    strings([*verbs, *nouns], "verbs and nouns")
    verb_index = {v: i for i, v in enumerate(verbs)}
    noun_index = {n: i for i, n in enumerate(nouns)}
    pairs = sorted(counts.counts)
    vi = np.array([verb_index[v] for v, _ in pairs], dtype=np.int64)
    ni = np.array([noun_index[n] for _, n in pairs], dtype=np.int64)
    f = np.array([counts.counts[p] for p in pairs], dtype=float)
    total = f.sum()

    if n_classes == 1:
        # Closed form: marginal relative frequencies.
        ve = np.bincount(vi, weights=f, minlength=len(verbs)) / total
        ne = np.bincount(ni, weights=f, minlength=len(nouns)) / total
        model = ClusterModel(priors=np.ones(1), verb_emissions=ve[None, :],
                             noun_emissions=ne[None, :], verbs=verbs, nouns=nouns)
    else:
        rng = seeded_rng(seed)
        priors = np.full(n_classes, 1.0 / n_classes)
        ve = 1.0 + 0.1 * rng.random((n_classes, len(verbs)))
        ne = 1.0 + 0.1 * rng.random((n_classes, len(nouns)))
        ve /= ve.sum(axis=1, keepdims=True)
        ne /= ne.sum(axis=1, keepdims=True)
        model = ClusterModel(priors=priors, verb_emissions=ve,
                             noun_emissions=ne, verbs=verbs, nouns=nouns)

    # Bin c * V + v of a flattened (class, word) table holds class c's
    # counts of word v; each bin adds its pairs in ascending order.
    verb_runs = np.bincount(vi, minlength=len(verbs))
    classes = np.arange(n_classes)
    verb_bins = (vi[:, None] + classes * len(verbs)).ravel()
    noun_bins = (ni[:, None] + classes * len(nouns)).ravel()
    trace: list[float] = []
    while True:
        # One joint per model: its row sums are the pair probabilities,
        # giving both the likelihood and the E-step.
        joint = np.repeat(model.verb_table, verb_runs, axis=0)
        joint *= model.noun_table[ni]
        totals = joint.sum(axis=1)
        if np.any(totals <= 0):
            raise InternalConsistencyError(
                "pair with zero probability under the model")
        # A pairwise sum: a BLAS dot product sums in an order that depends
        # on the thread count.
        likelihood = float(np.add.reduce(f * np.log(totals)))
        if trace and likelihood < trace[-1] - 1e-10:
            raise InternalConsistencyError(
                f"EM likelihood decreased from {trace[-1]} to {likelihood}")
        trace.append(likelihood)
        if len(trace) > max_iterations or (
                len(trace) > 1 and abs(trace[-1] - trace[-2]) < tolerance):
            return model, trace

        joint /= totals[:, None]  # responsibilities,
        joint *= f[:, None]  # times frequencies
        mass = joint.sum(axis=0)  # (C,)
        ve = np.bincount(verb_bins, joint.ravel(),
                         n_classes * len(verbs)).reshape(n_classes, -1)
        ne = np.bincount(noun_bins, joint.ravel(),
                         n_classes * len(nouns)).reshape(n_classes, -1)
        # A class that lost all mass keeps its previous emissions with a
        # zero prior instead of dividing by zero.
        alive = mass > 0
        ve[alive] /= mass[alive, None]
        ne[alive] /= mass[alive, None]
        ve[~alive] = model.verb_emissions[~alive]
        ne[~alive] = model.noun_emissions[~alive]
        model = ClusterModel(priors=mass / total, verb_emissions=ve,
                             noun_emissions=ne, verbs=verbs, nouns=nouns)


def _posteriors(model: ClusterModel, pairs) -> np.ndarray:
    """p(c|v,n) of each (verb, noun) pair, as a (P, C) array.

    Row k holds pair k's C class terms (p(c) p(v|c)) p(n|c) contiguously,
    so it sums bit for bit as a one-pair joint does.  A pair with an
    out-of-vocabulary side (whose index -1 reads the last row) or zero
    probability takes the class priors over a total of 1, so the posterior
    is defined for every pair."""
    vi = [model._verb_index.get(v, -1) for v, _ in pairs]
    ni = [model._noun_index.get(n, -1) for _, n in pairs]
    joint = model.verb_table[vi] * model.noun_table[ni]
    totals = joint.sum(axis=1)
    if -1 in vi or -1 in ni or not (totals > 0).all():
        fallback = (np.minimum(vi, ni) < 0) | ~(totals > 0)
        joint[fallback] = model.priors
        totals[fallback] = 1.0
    joint /= totals[:, None]
    return joint


def class_membership(model: ClusterModel, verb: str, noun: str) -> np.ndarray:
    """Posterior p(c|v,n): the priors for an unknown word or a zero total."""
    return _posteriors(model, [(verb, noun)])[0]


# ---------------------------------------------------------------------------
# Class-based estimated frequencies

@dataclass
class LexFrequencyTable:
    """f_c(v, n) of the counted pairs, with on-demand values for the rest.

    A pair whose verb and noun the model knows is stored as its code
    ``verb_index * len(model.nouns) + noun_index`` in the sorted ``codes``,
    with its f_c at the same place in ``values``, so it keeps no string or
    tuple.  A pair with a word the model lacks is a key of ``others``; no
    table that ``cluster`` writes has one.
    """

    model: ClusterModel
    codes: array  # array("q"), ascending
    values: array  # array("d")
    others: dict[tuple[str, str], float]

    @classmethod
    def from_columns(cls, model: ClusterModel, verbs: Sequence[str],
                     nouns: Sequence[str], values: Sequence[float]
                     ) -> "LexFrequencyTable":
        """The table giving pair (verbs[k], nouns[k]) f_c ``values[k]``;
        a pair that repeats is a DataError."""
        vi = np.array([*map(model._verb_index.get, verbs, repeat(-1))],
                      dtype=np.int64)
        ni = np.array([*map(model._noun_index.get, nouns, repeat(-1))],
                      dtype=np.int64)
        f = np.array(values, dtype=float)
        known = (vi >= 0) & (ni >= 0)
        others = {(verbs[k], nouns[k]): values[k]
                  for k in np.flatnonzero(~known).tolist()}
        codes = (vi * len(model.nouns) + ni)[known]
        order = np.argsort(codes, kind="stable")
        codes, f = codes[order], f[known][order]
        if ((codes[1:] == codes[:-1]).any()
                or len(others) < len(vi) - len(codes)):
            pair = _repeated(zip(verbs, nouns))
            raise DataError(f"entries list the pair {pair!r} twice")
        return cls(model=model, codes=array("q", codes.tobytes()),
                   values=array("d", f.tobytes()), others=others)

    def lookup(self, verb: str, noun: str) -> float:
        return self.lookup_all([(verb, noun)])[0]

    def lookup_all(self, pairs: list[tuple[str, str]]) -> list[float]:
        """f_c of each pair; the unseen ones (f(v, n) = 0, so f_c is the
        best class posterior) take their posteriors in one call."""
        verb_of = self.model._verb_index.get
        noun_of = self.model._noun_index.get
        n_nouns, codes, known = len(self.model.nouns), self.codes, self.values
        size = len(codes)
        values = []
        for verb, noun in pairs:
            v, n = verb_of(verb), noun_of(noun)
            if v is None or n is None:
                values.append(self.others.get((verb, noun)))
                continue
            code = v * n_nouns + n
            k = bisect_left(codes, code)
            values.append(known[k] if k < size and codes[k] == code else None)
        if None in values:
            unseen = [k for k, value in enumerate(values) if value is None]
            best = _posteriors(self.model,
                               [pairs[k] for k in unseen]).max(axis=1)
            for k, value in zip(unseen, best.tolist()):
                values[k] = value
        return values

    def to_json_dict(self) -> dict:
        verbs, nouns = self.model.verbs, self.model.nouns
        entries = [[verbs[code // len(nouns)], nouns[code % len(nouns)], value]
                   for code, value in zip(self.codes, self.values)]
        entries += [[v, n, value] for (v, n), value in self.others.items()]
        return {
            "format": FREQ_TABLE_FORMAT,
            "version": FREQ_TABLE_VERSION,
            "entries": sorted(entries),  # by (verb, noun): each is unique
            "model": self.model.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LexFrequencyTable":
        check_envelope(doc, FREQ_TABLE_FORMAT, FREQ_TABLE_VERSION,
                       FREQ_TABLE_KEYS)
        model = ClusterModel.from_json_dict(doc["model"])
        return cls.from_columns(
            model, *_entry_columns(typed(doc["entries"], list, "entries")))


def _entry_columns(rows: list) -> list[tuple]:
    """The verb, noun and f_c columns of the ``entries`` rows.

    The item classes of each column are checked at once; only rows that
    fail that check are read one by one, so the first bad row raises its
    own error."""
    if (_ONLY_LIST.issuperset(map(type, rows))
            and {3}.issuperset(map(len, rows))):
        columns = [*zip(*rows)] or [(), (), ()]
        verbs, nouns, values = columns
        if (_ONLY_STR.issuperset(map(type, verbs))
                and _ONLY_STR.issuperset(map(type, nouns))
                and _ONLY_FLOAT.issuperset(map(type, values))):
            f = np.array(values, dtype=float)
            if ((f >= 0) & (f < np.inf)).all():
                return columns
    rows = [(typed(v, str, "verb"), typed(n, str, "noun"),
             typed(x, float, "f_c", low=0)) for v, n, x in rows]
    return [*zip(*rows)] or [(), (), ()]


def save_freq_table(table: LexFrequencyTable, path) -> None:
    write_json(table.to_json_dict(), path)


def load_freq_table(path) -> LexFrequencyTable:
    return read_json(path, LexFrequencyTable.from_json_dict)


def build_freq_table(model: ClusterModel, counts: PairCounts) -> LexFrequencyTable:
    """f_c(v, n) = max_c p(c|v,n) * (f(v,n) + 1) for every counted pair."""
    pairs = list(counts.counts)
    freqs = np.array(list(counts.counts.values()), dtype=float)
    best = _posteriors(model, pairs).max(axis=1)
    return LexFrequencyTable.from_columns(
        model, [v for v, _ in pairs], [n for _, n in pairs],
        (best * (freqs + 1.0)).tolist())


# ---------------------------------------------------------------------------
# Pre-disambiguation properties

def lexicalized_properties(entry: SentenceEntry, table: LexFrequencyTable
                           ) -> list[dict[str, int]]:
    """Per-parse indicator features marking the f_c-maximal parses per slot.

    For each of the 45 ``SLOTS``, the parses of the sentence that carry the
    slot compete on the f_c value of their (verb, noun) pair; those
    attaining the maximum get 1 (ties included), the rest get 0, and parses
    lacking the slot get 0 as well.  A parse's first relation in a slot is
    the one that competes.  Keys are ``slot_key`` strings.
    """
    # One pass over the relations buckets the competitors of every slot;
    # their f_c values come in one lookup per sentence.
    occupants: dict[tuple[str, str, int], list[tuple[int, int]]] = {}
    pairs: list[tuple[str, str]] = []
    for j, parse in enumerate(entry.parses):
        filled = set()
        for rel in parse.relations:
            if rel.voice not in VOICES:
                raise DataError(
                    f"sentence {entry.sentence_id!r} parse "
                    f"{parse.parse_id!r}: undefined voice {rel.voice!r}")
            slot = (rel.name, rel.voice, rel.position)
            if slot in _SLOT_SET and slot not in filled:
                filled.add(slot)
                occupants.setdefault(slot, []).append((j, len(pairs)))
                pairs.append((rel.verb, rel.noun))
    values = table.lookup_all(pairs)

    rows: list[dict[str, int]] = [{} for _ in entry.parses]
    for slot in SLOTS:
        competitors = occupants.get(slot)
        if not competitors:
            continue
        key = slot_key(*slot)
        best = max(values[k] for _, k in competitors)
        for j, k in competitors:
            rows[j][key] = 1 if values[k] >= best else 0
    return rows
