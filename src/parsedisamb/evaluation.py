"""Exact-match and frame-match evaluation with precision/effectiveness.

Per sentence the model picks the most probable parse.  A unique pick is
correct when it names the gold parse (exact match) or when its frame string
equals the gold parse's frame (frame match).  Don't-know cases (several
parses tied at the top) count only against effectiveness:

    precision     = correct / (correct + incorrect)
    effectiveness = correct / (correct + incorrect + dont_know)

On the frame task a tie whose parses all share one frame is actually a
unique frame decision and is judged against the gold frame instead of being
counted as don't-know.  Precision with zero decided sentences is undefined
and reported as None, distinct from 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import Corpus, atomic_write, seeded_rng, write_json
from .errors import ConfigError, DataError
from .lexicalization import LexFrequencyTable
from .model import DEFAULT_TIE_EPSILON, Decisions, LogLinearModel, decide
from .properties import (FeatureMatrix, PropertyRegistry, compile_corpus,
                         same_columns)

TASKS = ("exact_match", "frame_match")


@dataclass(frozen=True)
class SentenceVerdict:
    sentence_id: str
    verdict: str                 # "correct" | "incorrect" | "dont_know"
    decision_kind: str           # "unique" | "dont_know"
    chosen_parse_ids: tuple[str, ...]


@dataclass(frozen=True)
class EvalOutcome:
    task: str
    n_correct: int
    n_incorrect: int
    n_dont_know: int
    precision: Optional[float]
    effectiveness: float
    verdicts: tuple[SentenceVerdict, ...]

    @property
    def n_sentences(self) -> int:
        return self.n_correct + self.n_incorrect + self.n_dont_know

    def to_json_dict(self) -> dict:
        return {
            "task": self.task,
            "counts": {"correct": self.n_correct,
                       "incorrect": self.n_incorrect,
                       "dont_know": self.n_dont_know},
            "precision": self.precision,
            "effectiveness": self.effectiveness,
            "per_sentence": [
                {"sentence_id": v.sentence_id, "verdict": v.verdict,
                 "decision": v.decision_kind,
                 "chosen": list(v.chosen_parse_ids)}
                for v in self.verdicts
            ],
        }


def _metrics(correct: int, incorrect: int, dont_know: int
             ) -> tuple[Optional[float], float]:
    decided = correct + incorrect
    precision = correct / decided if decided > 0 else None
    effectiveness = correct / (decided + dont_know)
    return precision, effectiveness


def outcome_from_verdicts(task: str, verdicts: Sequence[SentenceVerdict]
                          ) -> EvalOutcome:
    n_correct = sum(1 for v in verdicts if v.verdict == "correct")
    n_incorrect = sum(1 for v in verdicts if v.verdict == "incorrect")
    n_dont_know = sum(1 for v in verdicts if v.verdict == "dont_know")
    precision, effectiveness = _metrics(n_correct, n_incorrect, n_dont_know)
    return EvalOutcome(task=task, n_correct=n_correct, n_incorrect=n_incorrect,
                       n_dont_know=n_dont_know, precision=precision,
                       effectiveness=effectiveness, verdicts=tuple(verdicts))


VERDICTS = ("correct", "incorrect", "dont_know")


class _Judge:
    """Scores decisions against the gold annotation of one test corpus."""

    def __init__(self, task: str, features: FeatureMatrix):
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
        self.task = task
        self.features = features
        self.gold_rows = features.gold_rows()
        self.frames = features.frames

    def verdicts(self, decisions: Decisions) -> np.ndarray:
        """Index into VERDICTS of each sentence's verdict."""
        unique = decisions.unique
        if self.task == "exact_match":
            return np.where(unique,
                            np.where(decisions.chosen == self.gold_rows, 0, 1), 2)

        # Frame task: the chosen parse only has to agree on the main verb's
        # frame.  A decision touches its unique pick or every tied parse.
        features = self.features
        touched = decisions.tied & ~np.repeat(unique, np.diff(features.offsets))
        touched[decisions.chosen[unique]] = True
        needed = touched.copy()
        needed[self.gold_rows] = True
        lacking = np.flatnonzero(needed & (self.frames < 0))
        if lacking.size:
            r = int(lacking[0])
            s = int(np.searchsorted(features.offsets, r, side="right")) - 1
            raise DataError(
                f"sentence {features.sentence_ids[s]!r} parse "
                f"{features.parse_ids[r]!r} has no "
                "frame descriptor (required by the frame task)")
        starts = features.offsets[:-1]
        lowest = np.minimum.reduceat(
            np.where(touched, self.frames, np.iinfo(np.int64).max), starts)
        highest = np.maximum.reduceat(np.where(touched, self.frames, -1), starts)
        # A tie over parses sharing one frame is a unique frame decision.
        return np.where(lowest == highest,
                        np.where(lowest == self.frames[self.gold_rows], 0, 1), 2)

    def rates(self, decisions: Decisions) -> tuple[Optional[float], float]:
        """(precision, effectiveness) of the decisions."""
        counts = np.bincount(self.verdicts(decisions), minlength=3)
        return _metrics(*(int(c) for c in counts))


def evaluate(model: LogLinearModel, test_corpus: Corpus | FeatureMatrix,
             task: str = "exact_match",
             tie_epsilon: float = DEFAULT_TIE_EPSILON,
             lex_table: Optional[LexFrequencyTable] = None) -> EvalOutcome:
    """Disambiguate every test sentence and score it against the gold parse.

    Every entry needs a ``gold_index``; the frame task additionally requires
    frame descriptors on the gold parse and every candidate the decision
    touches.  Deterministic for fixed model, corpus, and tie_epsilon.
    ``test_corpus`` may be compiled already, as ``compile_corpus`` takes it;
    every sentence the matrix holds is scored.
    """
    features = compile_corpus(test_corpus, model.registry, lex_table)
    judge = _Judge(task, features)
    decisions = decide(model.lam, features, tie_epsilon)
    verdicts = []
    for s, code in enumerate(judge.verdicts(decisions)):
        decision = decisions.decision(features, s)
        verdicts.append(SentenceVerdict(
            features.sentence_ids[s], VERDICTS[code], decision.kind,
            decision.parse_ids))
    return outcome_from_verdicts(task, verdicts)


@dataclass(frozen=True)
class BaselineReport:
    mean_precision: float
    stdev_precision: float
    n_models: int
    n_undefined: int  # models whose precision was undefined (no decisions)

    def to_json_dict(self) -> dict:
        return {"mean_precision": self.mean_precision,
                "stdev_precision": self.stdev_precision,
                "n_models": self.n_models,
                "n_undefined": self.n_undefined}


def _check_baseline(n_models: Optional[int], lambda_range: float) -> None:
    """ConfigError for a baseline of fewer than one model (None runs none)
    or a ``lambda_range`` that is negative or not finite."""
    if n_models is not None and n_models < 1:
        raise ConfigError(f"n_models must be >= 1, not {n_models}")
    # numpy's uniform draw needs a finite width.
    if not 0 <= 2 * lambda_range < np.inf:
        raise ConfigError("lambda_range must be nonnegative and finite")


def random_baseline(test_corpus: Corpus | FeatureMatrix, task: str,
                    registry: PropertyRegistry,
                    n_models: int = 100, seed: int = 0,
                    lambda_range: float = 1.0,
                    tie_epsilon: float = DEFAULT_TIE_EPSILON,
                    lex_table: Optional[LexFrequencyTable] = None
                    ) -> BaselineReport:
    """Average precision of models with uniformly drawn parameter vectors.

    This measures the disambiguation power of the candidate sets themselves.
    Models with undefined precision (every sentence a tie) are excluded from
    the average and counted separately.  ``test_corpus`` as in ``evaluate``.
    """
    _check_baseline(n_models, lambda_range)
    features = compile_corpus(test_corpus, registry, lex_table)
    judge = _Judge(task, features)
    rng = seeded_rng(seed)
    # abs() turns -0.0 into 0.0: numpy reads the sign of a zero width.
    width = abs(lambda_range)
    precisions = []
    n_undefined = 0
    for _ in range(n_models):
        lam = rng.uniform(-width, width, size=registry.size)
        precision, _ = judge.rates(decide(lam, features, tie_epsilon))
        if precision is None:
            n_undefined += 1
        else:
            precisions.append(precision)
    if not precisions:
        raise DataError("every random model left precision undefined")
    return BaselineReport(
        mean_precision=float(np.mean(precisions)),
        stdev_precision=float(np.std(precisions)),
        n_models=n_models,
        n_undefined=n_undefined,
    )


@dataclass(frozen=True)
class SweepRow:
    iteration: int
    precision: Optional[float]
    effectiveness: float


def sweep_checkpoints(checkpoint_models: Sequence[tuple[int, LogLinearModel]],
                      test_corpus: Corpus | FeatureMatrix,
                      task: str = "exact_match",
                      tie_epsilon: float = DEFAULT_TIE_EPSILON,
                      lex_table: Optional[LexFrequencyTable] = None
                      ) -> list[SweepRow]:
    """Evaluate each training checkpoint; rows are ordered by iteration.

    The resulting precision curve exposes overtraining: a peak before the
    final iteration.  ``test_corpus`` as in ``evaluate``; checkpoints with
    the same columns share one compiled test corpus.
    """
    if not checkpoint_models:
        raise ConfigError("no checkpoint models to sweep")
    rows = []
    features = judge = None
    for iteration, model in sorted(checkpoint_models, key=lambda p: p[0]):
        if features is None or not same_columns(features.registry,
                                                model.registry):
            features = compile_corpus(test_corpus, model.registry, lex_table)
        judge = judge or _Judge(task, features)
        precision, effectiveness = judge.rates(
            decide(model.lam, features, tie_epsilon))
        rows.append(SweepRow(iteration=iteration, precision=precision,
                             effectiveness=effectiveness))
    return rows


# ---------------------------------------------------------------------------
# Report output

def format_report_table(outcome: EvalOutcome) -> str:
    precision = "undefined" if outcome.precision is None else f"{outcome.precision:.4f}"
    lines = [
        f"task           {outcome.task}",
        f"sentences      {outcome.n_sentences}",
        f"correct        {outcome.n_correct}",
        f"incorrect      {outcome.n_incorrect}",
        f"dont_know      {outcome.n_dont_know}",
        f"precision      {precision}",
        f"effectiveness  {outcome.effectiveness:.4f}",
    ]
    return "\n".join(lines)


def write_report_json(outcome: EvalOutcome, path) -> None:
    write_json(outcome.to_json_dict(), path, indent=1)


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    with atomic_write(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "precision", "effectiveness"])
        for row in rows:
            precision = "" if row.precision is None else repr(row.precision)
            writer.writerow([row.iteration, precision, repr(row.effectiveness)])
