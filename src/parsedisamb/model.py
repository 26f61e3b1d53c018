"""Log-linear measure over a finite parse universe.

A model assigns each parse x the probability

    p(x) = Z^-1 * exp(lam . nu(x)) * p0(x)

where nu(x) is the parse's property vector, lam the log-parameter vector,
p0 the uniform reference distribution over the universe and Z the
normalizer over the defining corpus's parse universe.  A uniform p0 cancels
in every conditional and every decision.  All probability arithmetic runs in
log space with max-subtraction.  Models are immutable value objects; scoring
and disambiguation are pure.

Normalization is defined over the training universe only; parses of other
corpora (test data) are scored unnormalized, which leaves per-sentence
ranking unaffected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .corpus import Corpus, SentenceEntry, write_json
from .errors import ConfigError, DataError
from .lexicalization import LexFrequencyTable
from .properties import (FeatureMatrix, PropertyRegistry, build_feature_matrix,
                         compile_corpus)

MODEL_FORMAT = "loglinear-model"
MODEL_VERSION = 1

DEFAULT_TIE_EPSILON = 1e-9


@dataclass(frozen=True, eq=False)
class LogLinearModel:
    """Parameter vector over a registry, tied to a universe corpus."""

    lam: np.ndarray
    registry: PropertyRegistry
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
              lam: Optional[np.ndarray] = None) -> LogLinearModel:
    """Model over ``corpus``'s parse universe, with lam = 0 by default (the
    minimum-divergence start; maximum entropy under the uniform reference)."""
    if lam is None:
        lam = np.zeros(registry.size)
    return LogLinearModel(
        lam=lam,
        registry=registry,
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

def score(model: LogLinearModel, parse_features: np.ndarray) -> float:
    """Log-score lam . nu(x) + ln p0(x) of a single parse.

    ``parse_features`` is the parse's dense property vector, indexed against
    the model registry; p0 is uniform over the model universe.
    """
    vec = np.asarray(parse_features, dtype=float)
    if vec.shape != (model.n_features,):
        raise ConfigError(
            f"feature vector has shape {vec.shape}, expected ({model.n_features},)")
    return float(vec @ model.lam) - float(np.log(model.universe_size))


def universe_features(model: LogLinearModel, corpus: Optional[Corpus] = None,
                      features: Optional[FeatureMatrix] = None,
                      lex_table: Optional[LexFrequencyTable] = None
                      ) -> FeatureMatrix:
    """The compiled universe of ``model``: ``features`` when given, else
    compiled from ``corpus``; either must be the model's universe."""
    if features is None:
        if corpus is None:
            raise ConfigError("either a corpus or a feature matrix is required")
        features = build_feature_matrix(corpus, model.registry,
                                        lex_table=lex_table)
    if (features.corpus_digest != model.universe
            or features.n_parses != model.universe_size):
        raise ConfigError(
            "corpus is not the model's universe (content digest mismatch)")
    return features


def row_scores(model: LogLinearModel, features: FeatureMatrix) -> np.ndarray:
    """Log-scores lam . nu(x) + ln p0(x) of every universe parse row."""
    scores = features.dot(model.lam)
    scores -= np.log(features.n_parses)
    if not np.all(np.isfinite(scores)):
        raise DataError("non-finite parse score; parameters diverged")
    return scores


def log_normalize(scores: np.ndarray) -> tuple[np.ndarray, float]:
    """(probabilities, log normalizer) of row log-scores, by
    max-subtraction; the one normalizer of the package."""
    shift = scores.max()
    expd = np.exp(scores - shift)
    total = expd.sum()
    return expd / total, float(shift + np.log(total))


def normalize(model: LogLinearModel, corpus: Optional[Corpus] = None, *,
              features: Optional[FeatureMatrix] = None,
              lex_table: Optional[LexFrequencyTable] = None) -> ParseDistribution:
    """Distribution over the model universe, via stable log-sum-exp.

    The corpus must be the model's universe; a prebuilt feature matrix may be
    passed instead to skip re-extraction.
    """
    features = universe_features(model, corpus, features, lex_table)
    probs, log_z = log_normalize(row_scores(model, features))
    return ParseDistribution(probs=probs, log_z=log_z, features=features)


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
                 lex_table: Optional[LexFrequencyTable] = None) -> Decision:
    """Pick the most probable parse of a sentence.

    Returns a unique decision when the best log-score beats the runner-up by
    more than ``tie_epsilon``; otherwise a don't-know decision carrying every
    parse within ``tie_epsilon`` of the maximum.
    """
    features = compile_corpus(Corpus(entries=(entry,)), model.registry,
                              lex_table)
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
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "lambda": [float(v) for v in model.lam],
        "registry": model.registry.to_json_dict(),
        "universe": model.universe,
        "universe_size": model.universe_size,
    }


def model_from_json_dict(doc: dict) -> LogLinearModel:
    if doc.get("format") != MODEL_FORMAT:
        raise DataError("not a loglinear-model document")
    if doc.get("version") != MODEL_VERSION:
        raise DataError(f"unsupported model version {doc.get('version')!r}")
    # Older models record "reference_kind"; only the uniform one is defined.
    kind = doc.get("reference_kind", "uniform")
    if kind != "uniform":
        raise DataError(f"unsupported reference kind {kind!r}; the reference "
                        "distribution is uniform")
    return LogLinearModel(
        lam=np.asarray(doc["lambda"], dtype=float),
        registry=PropertyRegistry.from_json_dict(doc["registry"]),
        universe=doc["universe"],
        universe_size=int(doc["universe_size"]),
    )


def save_model(model: LogLinearModel, path) -> None:
    write_json(model_to_json_dict(model), path)


def load_model(path) -> LogLinearModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_json_dict(json.load(handle))
