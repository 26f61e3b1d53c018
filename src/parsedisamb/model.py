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

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .corpus import (Corpus, SentenceEntry, check_envelope, floats,
                     read_json, typed, write_json)
from .errors import ConfigError, DataError
from .lexicalization import LexFrequencyTable
from .properties import FeatureMatrix, PropertyRegistry, compile_corpus

MODEL_FORMAT = "loglinear-model"
MODEL_VERSION = 1
# The keys a model may carry.
MODEL_KEYS = frozenset({"format", "version", "lambda", "registry", "universe",
                        "universe_size", "reference_kind"})

DEFAULT_TIE_EPSILON = 1e-9


@dataclass(frozen=True, eq=False)
class LogLinearModel:
    """Parameter vector over a registry, tied to a universe corpus."""

    lam: np.ndarray
    registry: PropertyRegistry
    universe: str           # FeatureMatrix.digest of the defining universe
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


def new_model(features: FeatureMatrix,
              lam: Optional[np.ndarray] = None) -> LogLinearModel:
    """Model over the parse universe ``features`` (as ``compile_corpus``
    compiles it), with lam = 0 by default (the minimum-divergence start;
    maximum entropy under the uniform reference)."""
    if lam is None:
        lam = np.zeros(features.n_features)
    return LogLinearModel(
        lam=lam,
        registry=features.registry,
        universe=features.digest,
        universe_size=features.n_parses,
    )


@dataclass(frozen=True, eq=False)
class ParseDistribution:
    """Everything one score vector over the universe yields.

    ``scores`` holds the row log-scores, ``probs`` the model distribution
    p(x) and ``log_z`` its log normalizer.  ``log_masses`` (each sentence's
    ln p(X(y))) and ``conditional`` (each row's k(x|y)) are computed when
    first read; they shift each sentence by its own maximum, so they stay
    finite where a whole sentence's p(x) underflows.
    """

    scores: np.ndarray
    features: FeatureMatrix
    probs: np.ndarray = field(init=False)
    log_z: float = field(init=False)

    def __post_init__(self):
        shift = self.scores.max()
        expd = np.exp(self.scores - shift)
        total = expd.sum()
        object.__setattr__(self, "probs", expd / total)
        object.__setattr__(self, "log_z", float(shift + np.log(total)))

    @cached_property
    def _per_sentence(self) -> tuple[np.ndarray, np.ndarray]:
        offsets = self.features.offsets
        starts, counts = offsets[:-1], np.diff(offsets)
        shift = np.maximum.reduceat(self.scores, starts)
        expd = np.exp(self.scores - np.repeat(shift, counts))
        mass = np.add.reduceat(expd, starts)
        return (shift + np.log(mass) - self.log_z,
                expd / np.repeat(mass, counts))

    @property
    def log_masses(self) -> np.ndarray:
        return self._per_sentence[0]

    @property
    def conditional(self) -> np.ndarray:
        return self._per_sentence[1]


@dataclass(frozen=True)
class Decision:
    """Disambiguation outcome: a unique most probable parse, or a don't-know
    set of parses tied at the maximum."""

    kind: str                   # "unique" | "dont_know"
    parse_ids: tuple[str, ...]


# ---------------------------------------------------------------------------
# Scoring

def normalize(model: LogLinearModel,
              features: FeatureMatrix) -> ParseDistribution:
    """Distribution of ``model`` over its universe ``features``, as
    ``compile_corpus`` compiles it."""
    if (features.digest != model.universe
            or features.n_parses != model.universe_size):
        raise ConfigError(
            "feature matrix is not the model's universe (digest mismatch)")
    scores = features.dot(model.lam)
    scores -= np.log(features.n_parses)  # the uniform reference p0
    if not np.all(np.isfinite(scores)):
        raise DataError("non-finite parse score; parameters diverged")
    return ParseDistribution(scores, features)


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
        ids = features.parse_ids
        if self.unique[s]:
            return Decision(kind="unique", parse_ids=(ids[self.chosen[s]],))
        start = features.offsets[s]
        rows = np.flatnonzero(self.tied[start:features.offsets[s + 1]])
        return Decision(kind="dont_know",
                        parse_ids=tuple(ids[start + j] for j in rows))


def check_tie_epsilon(tie_epsilon: float) -> None:
    """ConfigError for a ``tie_epsilon`` that is negative or not finite,
    which would decide every tie."""
    if not 0 <= tie_epsilon < np.inf:
        raise ConfigError(f"tie_epsilon must be finite and >= 0, "
                          f"not {tie_epsilon}")


def decide(lam: np.ndarray, features: FeatureMatrix,
           tie_epsilon: float = DEFAULT_TIE_EPSILON) -> Decisions:
    """Disambiguate every sentence of ``features`` under parameters ``lam``.

    Ranks by the linear part lam . nu(x) alone: per-sentence constants (the
    normalizer and a uniform reference) do not affect ranking.  A
    non-finite score is a DataError; a bad ``tie_epsilon`` is a ConfigError
    (``check_tie_epsilon``).
    """
    check_tie_epsilon(tie_epsilon)
    scores = features.dot(lam)
    if not np.all(np.isfinite(scores)):
        raise DataError("non-finite parse score; cannot rank the parses")
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
    check_envelope(doc, MODEL_FORMAT, MODEL_VERSION, MODEL_KEYS)
    # Older models record "reference_kind"; only the uniform one is defined.
    kind = doc.get("reference_kind", "uniform")
    if kind != "uniform":
        raise DataError(f"unsupported reference kind {kind!r}; the reference "
                        "distribution is uniform")
    return LogLinearModel(
        lam=floats(doc["lambda"], "lambda"),
        registry=PropertyRegistry.from_json_dict(doc["registry"]),
        universe=typed(doc["universe"], str, "universe"),
        universe_size=typed(doc["universe_size"], int, "universe_size", low=0),
    )


def save_model(model: LogLinearModel, path) -> None:
    write_json(model_to_json_dict(model), path)


def load_model(path) -> LogLinearModel:
    return read_json(path, model_from_json_dict)
