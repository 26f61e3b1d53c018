"""Log-linear measure over a finite parse universe.

A model assigns each parse x the probability

    p(x) = Z^-1 * exp(lam . nu(x)) * p0(x)

where nu(x) is the parse's property vector, lam the log-parameter vector,
p0 a fixed reference distribution (uniform over the universe by default) and
Z the normalizer over the defining corpus's parse universe.  All probability
arithmetic runs in log space with max-subtraction.  Models are immutable
value objects; scoring and disambiguation are pure.

Normalization is defined over the training universe only; parses of other
corpora (test data) are scored unnormalized, which leaves per-sentence
ranking unaffected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .corpus import Corpus, SentenceEntry
from .errors import ConfigError, DataError
from .lexicalization import LexFrequencyTable, RelationSpec
from .properties import (FeatureMatrix, PropertyRegistry, build_feature_matrix,
                         compile_corpus)

MODEL_FORMAT = "loglinear-model"
MODEL_VERSION = 1

DEFAULT_TIE_EPSILON = 1e-9


@dataclass(frozen=True, eq=False)
class ReferenceDistribution:
    """Reference p0: uniform over the universe, or explicit positive weights
    aligned with the universe's parse rows (normalized on construction)."""

    kind: str = "uniform"
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("uniform", "explicit"):
            raise ConfigError(f"unknown reference kind {self.kind!r}")
        if self.kind == "explicit":
            if self.weights is None or len(self.weights) == 0:
                raise ConfigError("explicit reference requires weights")
            w = np.asarray(self.weights, dtype=float)
            if np.any(w <= 0):
                raise ConfigError("reference weights must be strictly positive")
            # Normalize only when needed so reload/re-save is ulp-stable.
            if abs(w.sum() - 1.0) > 1e-12:
                w = w / w.sum()
            object.__setattr__(self, "weights", w)

    def log_weights(self, universe_size: int) -> np.ndarray:
        if self.kind == "uniform":
            return np.full(universe_size, -np.log(universe_size))
        if len(self.weights) != universe_size:
            raise ConfigError(
                f"reference has {len(self.weights)} weights for a universe "
                f"of {universe_size} parses")
        return np.log(self.weights)


@dataclass(frozen=True, eq=False)
class LogLinearModel:
    """Parameter vector over a frozen registry, tied to a universe corpus."""

    lam: np.ndarray
    registry: PropertyRegistry
    reference: ReferenceDistribution
    universe: str           # content digest of the defining corpus
    universe_size: int

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        object.__setattr__(self, "lam", lam)
        if lam.shape != (self.registry.size,):
            raise ConfigError(
                f"lambda has length {lam.shape}, registry has "
                f"{self.registry.size} properties")

    @property
    def n_features(self) -> int:
        return self.registry.size

    def with_lam(self, lam: np.ndarray) -> "LogLinearModel":
        return replace(self, lam=np.asarray(lam, dtype=float))


def new_model(registry: PropertyRegistry, corpus: Corpus,
              lam: Optional[np.ndarray] = None,
              reference: Optional[ReferenceDistribution] = None) -> LogLinearModel:
    """Model over ``corpus``'s parse universe, with lam = 0 by default (the
    minimum-divergence start; maximum entropy under the uniform reference)."""
    if lam is None:
        lam = np.zeros(registry.size)
    return LogLinearModel(
        lam=lam,
        registry=registry,
        reference=reference or ReferenceDistribution(),
        universe=corpus.content_digest(),
        universe_size=corpus.universe_size,
    )


@dataclass(frozen=True, eq=False)
class ParseDistribution:
    """Probabilities over the universe's parse rows, with the normalizer."""

    probs: np.ndarray
    log_z: float
    features: FeatureMatrix

    def sentence_probs(self, s: int) -> np.ndarray:
        return self.probs[self.features.offsets[s]:self.features.offsets[s + 1]]


@dataclass(frozen=True)
class Decision:
    """Disambiguation outcome: a unique most probable parse, or a don't-know
    set of parses tied at the maximum."""

    kind: str                   # "unique" | "dont_know"
    parse_ids: tuple[str, ...]

    @property
    def unique_id(self) -> str:
        if self.kind != "unique":
            raise ValueError("decision is not unique")
        return self.parse_ids[0]


# ---------------------------------------------------------------------------
# Scoring

def score(model: LogLinearModel, parse_features: np.ndarray,
          log_p0: Optional[float] = None) -> float:
    """Log-score lam . nu(x) + ln p0(x) of a single parse.

    ``parse_features`` is the parse's dense property vector, indexed against
    the model registry.  ``log_p0`` defaults to the uniform reference weight
    over the model universe.
    """
    if log_p0 is None:
        if model.reference.kind != "uniform":
            raise ConfigError(
                "explicit reference requires the parse's log_p0 value")
        log_p0 = -float(np.log(model.universe_size))
    vec = np.asarray(parse_features, dtype=float)
    if vec.shape != (model.n_features,):
        raise ConfigError(
            f"feature vector has shape {vec.shape}, expected ({model.n_features},)")
    return float(vec @ model.lam) + log_p0


def universe_features(model: LogLinearModel, corpus: Optional[Corpus] = None,
                      features: Optional[FeatureMatrix] = None,
                      lex_table: Optional[LexFrequencyTable] = None,
                      relation_spec: Optional[RelationSpec] = None
                      ) -> FeatureMatrix:
    """The compiled universe of ``model``: ``features`` when given, else
    compiled from ``corpus``; either must be the model's universe."""
    if features is None:
        if corpus is None:
            raise ConfigError("either a corpus or a feature matrix is required")
        features = build_feature_matrix(corpus, model.registry,
                                        lex_table=lex_table,
                                        relation_spec=relation_spec)
    if (features.corpus_digest != model.universe
            or features.n_parses != model.universe_size):
        raise ConfigError(
            "corpus is not the model's universe (content digest mismatch)")
    return features


def row_scores(model: LogLinearModel, features: FeatureMatrix) -> np.ndarray:
    """Log-scores of every universe parse row."""
    scores = features.dot(model.lam)
    scores += model.reference.log_weights(features.n_parses)
    if not np.all(np.isfinite(scores)):
        raise DataError("non-finite parse score; parameters diverged")
    return scores


def normalize(model: LogLinearModel, corpus: Optional[Corpus] = None, *,
              features: Optional[FeatureMatrix] = None,
              lex_table: Optional[LexFrequencyTable] = None,
              relation_spec: Optional[RelationSpec] = None) -> ParseDistribution:
    """Distribution over the model universe, via stable log-sum-exp.

    The corpus must be the model's universe; a prebuilt feature matrix may be
    passed instead to skip re-extraction.
    """
    features = universe_features(model, corpus, features, lex_table,
                                 relation_spec)
    scores = row_scores(model, features)
    shift = scores.max()
    expd = np.exp(scores - shift)
    total = expd.sum()
    probs = expd / total
    return ParseDistribution(probs=probs, log_z=float(shift + np.log(total)),
                             features=features)


def conditional_parse_prob(model: LogLinearModel, entry: SentenceEntry,
                           dist: ParseDistribution) -> np.ndarray:
    """Conditional probability of each parse of ``entry`` among its own
    candidate set, k(x|y) = p(x) / sum over X(y) of p(x')."""
    try:
        s = dist.features.sentence_ids.index(entry.sentence_id)
    except ValueError as exc:
        raise ConfigError(
            f"sentence {entry.sentence_id!r} is not part of the universe"
        ) from exc
    probs = dist.sentence_probs(s)
    mass = probs.sum()
    if mass <= 0:
        raise DataError(
            f"sentence {entry.sentence_id!r}: all parse probabilities "
            "underflowed; conditional is undefined")
    return probs / mass


def model_expectation(model: LogLinearModel, corpus: Optional[Corpus] = None,
                      dist: Optional[ParseDistribution] = None, *,
                      features: Optional[FeatureMatrix] = None) -> np.ndarray:
    """Expected feature vector under the model distribution, p[nu]."""
    if dist is None:
        dist = normalize(model, corpus, features=features)
    return dist.features.weighted_sum(dist.probs)


# ---------------------------------------------------------------------------
# Decisions

@dataclass(frozen=True, eq=False)
class Decisions:
    """The decisions of one parameter vector on every sentence of a
    compiled corpus.

    ``tied`` marks the rows within ``tie_epsilon`` of their sentence's best
    score; a sentence is decided (``unique``) when at most one row is, and
    ``chosen`` holds the row of its last parse at the maximum.
    """

    unique: np.ndarray
    chosen: np.ndarray
    tied: np.ndarray

    def decision(self, features: FeatureMatrix, s: int) -> Decision:
        ids = features.parse_ids[s]
        start = features.offsets[s]
        if self.unique[s]:
            return Decision(kind="unique", parse_ids=(ids[self.chosen[s] - start],))
        rows = np.flatnonzero(self.tied[start:features.offsets[s + 1]])
        return Decision(kind="dont_know", parse_ids=tuple(ids[j] for j in rows))


def decide(lam: np.ndarray, features: FeatureMatrix,
           tie_epsilon: float = DEFAULT_TIE_EPSILON) -> Decisions:
    """Disambiguate every sentence of ``features`` under parameters ``lam``.

    Ranks by the linear part lam . nu(x) alone: per-sentence constants (the
    normalizer and a uniform reference) do not affect ranking.
    """
    scores = features.dot(lam)
    starts = features.offsets[:-1]
    best = np.repeat(np.maximum.reduceat(scores, starts),
                     np.diff(features.offsets))
    tied = best - scores <= tie_epsilon
    at_max = np.where(scores == best, np.arange(scores.size), -1)
    return Decisions(
        unique=np.add.reduceat(tied.astype(np.int64), starts) <= 1,
        chosen=np.maximum.reduceat(at_max, starts),
        tied=tied)


def disambiguate(model: LogLinearModel, entry: SentenceEntry,
                 tie_epsilon: float = DEFAULT_TIE_EPSILON,
                 lex_table: Optional[LexFrequencyTable] = None,
                 relation_spec: Optional[RelationSpec] = None) -> Decision:
    """Pick the most probable parse of a sentence.

    Returns a unique decision when the best log-score beats the runner-up by
    more than ``tie_epsilon``; otherwise a don't-know decision carrying every
    parse within ``tie_epsilon`` of the maximum.
    """
    features = compile_corpus(Corpus(entries=(entry,)), model.registry,
                              lex_table, relation_spec)
    return decide(model.lam, features, tie_epsilon).decision(features, 0)


def kl_divergence(p: ParseDistribution, q: ParseDistribution) -> float:
    """D(p || q) = sum p ln(p/q); requires a shared universe and q positive
    wherever p is."""
    if p.features.corpus_digest != q.features.corpus_digest:
        raise ConfigError("distributions live on different universes")
    pp, qq = p.probs, q.probs
    support = pp > 0
    if np.any(qq[support] <= 0):
        raise DataError("q is zero on p's support; divergence is infinite")
    return float(np.sum(pp[support] * (np.log(pp[support]) - np.log(qq[support]))))


# ---------------------------------------------------------------------------
# Serialization

def model_to_json_dict(model: LogLinearModel) -> dict:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "lambda": [float(v) for v in model.lam],
        "registry": model.registry.to_json_dict(),
        "reference_kind": model.reference.kind,
        "universe": model.universe,
        "universe_size": model.universe_size,
    }
    if model.reference.kind == "explicit":
        doc["reference_weights"] = [float(w) for w in model.reference.weights]
    return doc


def model_from_json_dict(doc: dict) -> LogLinearModel:
    if doc.get("format") != MODEL_FORMAT:
        raise DataError("not a loglinear-model document")
    if doc.get("version") != MODEL_VERSION:
        raise DataError(f"unsupported model version {doc.get('version')!r}")
    kind = doc.get("reference_kind", "uniform")
    if kind == "explicit":
        reference = ReferenceDistribution(
            kind="explicit",
            weights=np.asarray(doc["reference_weights"], dtype=float))
    else:
        reference = ReferenceDistribution()
    return LogLinearModel(
        lam=np.asarray(doc["lambda"], dtype=float),
        registry=PropertyRegistry.from_json_dict(doc["registry"]),
        reference=reference,
        universe=doc["universe"],
        universe_size=int(doc["universe_size"]),
    )


def save_model(model: LogLinearModel, path) -> None:
    # json round-trips float64 exactly (shortest-repr decimal encoding).
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_json_dict(model), handle, sort_keys=True)
        handle.write("\n")


def load_model(path) -> LogLinearModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_json_dict(json.load(handle))
