"""Parameter estimation from incomplete or complete data.

The estimator interleaves the E-step of EM with a generalized
iterative-scaling update, giving a closed-form parameter step.  With the
correction property in place the total feature mass of every universe parse
is a constant K, and one iteration updates every parameter by

    gamma_i = (1/K) * ln(numerator_i / denominator_i)
    lam_i  += gamma_i

where the denominator is the model expectation of feature i over the
universe and the numerator is the expectation of feature i under the
empirical sentence distribution combined with the current conditional
k(x|y) over each sentence's candidate set (incomplete data), or under the
gold parses (complete data).  For a parsebank, where every candidate set is
a singleton, both coincide with the empirical expectation and the loop is
plain iterative scaling.

The per-step likelihood is non-decreasing; the loop converges on the
likelihood delta.  Zero expected counts are floored, and features whose
numerator falls below the floor are frozen for the step, keeping the
logarithm defined without smoothing away exact moment matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .corpus import Corpus, seeded_rng
from .errors import ConfigError, DataError, InternalConsistencyError
from .lexicalization import LexFrequencyTable
from .model import LogLinearModel, ParseDistribution, new_model, normalize
from .properties import FeatureMatrix, PropertyRegistry, build_feature_matrix

EXPECTATION_FLOOR = 1e-12
GAMMA_CLAMP_NUMERATOR = 20.0  # gamma is clamped to [-20/K, 20/K]


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs of the estimation loop.

    ``init`` is "uniform_zero" (lam = 0, the minimum-divergence start) or
    "random" (i.i.d. uniform on [-init_range, +init_range], seeded).
    ``checkpoint_every`` controls how often the parameter vector is
    snapshotted into the trace.  A setting out of range is a ConfigError.
    """

    init: str = "uniform_zero"
    init_range: float = 0.5
    seed: Optional[int] = None
    max_iterations: int = 100
    likelihood_tolerance: float = 1e-8
    checkpoint_every: int = 5

    def __post_init__(self):
        if self.init not in ("uniform_zero", "random"):
            raise ConfigError(f"unknown init strategy {self.init!r}")
        # numpy's uniform draw needs a finite width.
        if self.init == "random" and not 0 < 2 * self.init_range < math.inf:
            raise ConfigError("random init needs a positive, finite init_range")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not self.likelihood_tolerance > 0:  # NaN included
            raise ConfigError("likelihood_tolerance must be positive")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")


@dataclass(frozen=True, eq=False)
class IterationRecord:
    iteration: int
    log_likelihood: float
    max_abs_gamma: float
    lam: Optional[np.ndarray] = None  # snapshot, present at checkpoints


@dataclass
class TrainingTrace:
    """Per-iteration log of the estimation run."""

    records: list[IterationRecord] = field(default_factory=list)
    converged: bool = False

    @property
    def final_log_likelihood(self) -> float:
        return self.records[-1].log_likelihood

    @property
    def n_iterations(self) -> int:
        return self.records[-1].iteration

    def checkpoints(self) -> list[tuple[int, np.ndarray]]:
        return [(r.iteration, r.lam) for r in self.records if r.lam is not None]

    def likelihoods(self) -> list[float]:
        return [r.log_likelihood for r in self.records]


# ---------------------------------------------------------------------------
# Likelihood and expectations

def _likelihood(dist: ParseDistribution, complete_data: bool) -> float:
    """sum_y w(y) ln p(X(y)), or sum_y w(y) ln p(x_gold(y)) on complete
    data.  Summed by numpy's pairwise reduction, not a BLAS dot product,
    whose order of summation depends on the BLAS thread count."""
    features = dist.features
    if complete_data:
        terms = features.weights * (dist.scores[features.gold_rows()]
                                    - dist.log_z)
    else:
        terms = features.weights * dist.log_masses
    return float(np.add.reduce(terms))


def _expectations(dist: ParseDistribution, complete_data: bool
                  ) -> tuple[np.ndarray, np.ndarray]:
    features = dist.features
    if complete_data:
        row_weights = np.zeros(features.n_parses)
        row_weights[features.gold_rows()] = features.weights
    else:
        row_weights = dist.conditional * features.parse_weights
    return (features.weighted_sum(row_weights),
            features.weighted_sum(dist.probs))


def incomplete_log_likelihood(model: LogLinearModel,
                              features: FeatureMatrix) -> float:
    """L = sum_y w(y) ln sum over X(y) of p(x); at most 0 for a normalized
    model."""
    return _likelihood(normalize(model, features), complete_data=False)


def expectations(model: LogLinearModel, features: FeatureMatrix,
                 complete_data: bool = False
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(numerator, denominator) expectation vectors of one update.

    The denominator is the model expectation over the universe.  The
    numerator weights each sentence by w(y) and each of its parses by the
    conditional k(x|y) (incomplete data) or by the gold indicator (complete
    data).  The difference numerator - denominator is the exact gradient of
    the corresponding log-likelihood.
    """
    return _expectations(normalize(model, features), complete_data)


# ---------------------------------------------------------------------------
# The update

def _step(model: LogLinearModel, dist: ParseDistribution,
          complete_data: bool) -> tuple[LogLinearModel, np.ndarray]:
    """(updated model, gamma) of one closed-form step from ``dist``, the
    distribution of ``model``."""
    K = float(model.registry.correction_K)
    numerator, denominator = _expectations(dist, complete_data)
    frozen = numerator < EXPECTATION_FLOOR
    num = np.maximum(numerator, EXPECTATION_FLOOR)
    den = np.maximum(denominator, EXPECTATION_FLOOR)
    gamma = np.log(num / den) / K
    clamp = GAMMA_CLAMP_NUMERATOR / K
    np.clip(gamma, -clamp, clamp, out=gamma)
    gamma[frozen] = 0.0
    return model.with_lam(model.lam + gamma), gamma


def im_step(model: LogLinearModel, features: FeatureMatrix, *,
            complete_data: bool = False
            ) -> tuple[LogLinearModel, np.ndarray]:
    """One closed-form update, from one scoring of the universe; returns
    (new model, gamma).

    Requires a registry with the correction property (constant total
    feature mass K); feature values are nonnegative by construction of the
    feature matrix.  Numerator and denominator are floored at
    ``EXPECTATION_FLOOR``; features whose (raw) numerator falls below the
    floor are frozen for this step; gamma is clamped to [-20/K, 20/K].
    """
    if model.registry.correction_K is None:
        raise ConfigError(
            "the update requires a registry with the correction property")
    return _step(model, normalize(model, features), complete_data)


def _initial_lam(config: TrainingConfig, n: int) -> np.ndarray:
    if config.init == "uniform_zero":
        return np.zeros(n)
    rng = seeded_rng(config.seed)
    return rng.uniform(-config.init_range, config.init_range, size=n)


def train(corpus: Corpus | FeatureMatrix, registry: PropertyRegistry,
          config: Optional[TrainingConfig] = None, *,
          complete_data: bool = False,
          lex_table: Optional[LexFrequencyTable] = None
          ) -> tuple[LogLinearModel, TrainingTrace]:
    """Run the estimation loop to convergence or the iteration cap.

    The trace records the likelihood and the largest update magnitude of
    every iteration (iteration 0 holds the starting likelihood) and snapshots
    the parameter vector every ``checkpoint_every`` iterations plus at the
    final one.  A likelihood decrease beyond 1e-10 aborts: the update's
    monotonicity guarantee was violated, which signals an internal bug or
    corrupted inputs.  ``corpus`` may be compiled already, as
    ``build_feature_matrix`` takes it; the model records the digest of the
    universe matrix as its universe.  A universe parse whose feature mass
    exceeds K means the registry is stale for the corpus, which is a
    DataError.

    Each iteration scores the universe once: the distribution of the updated
    model gives both its likelihood and the next update's expectations.

    One symmetry to know about: on incomplete data where every sentence has
    the same number of parses and weights are uniform, the conditional and
    model expectations coincide at lam = 0, so the uniform-zero start is a
    stationary point and training stops immediately.  When that happens,
    random starts are the way to probe whether better optima exist.
    """
    config = config or TrainingConfig()
    if registry.correction_K is None:
        raise ConfigError("training requires a registry with the correction "
                          "property (run add_correction first)")
    features = build_feature_matrix(corpus, registry, lex_table=lex_table)
    if not features.sentence_ids:
        raise DataError("cannot train on an empty corpus")
    if features.clamped_corrections:
        raise DataError(
            f"{features.clamped_corrections} parse(s) have feature mass above "
            f"the correction constant {registry.correction_K}; the registry is "
            "stale for this corpus")

    model = new_model(features, lam=_initial_lam(config, registry.size))
    dist = normalize(model, features)
    # On complete data, gold_rows() names any sentence without gold_index.
    likelihood = _likelihood(dist, complete_data)

    trace = TrainingTrace()
    trace.records.append(IterationRecord(
        iteration=0, log_likelihood=likelihood, max_abs_gamma=0.0,
        lam=model.lam.copy()))

    for iteration in range(1, config.max_iterations + 1):
        model, gamma = _step(model, dist, complete_data)
        dist = normalize(model, features)
        new_likelihood = _likelihood(dist, complete_data)
        if new_likelihood < likelihood - 1e-10:
            raise InternalConsistencyError(
                f"log-likelihood decreased at iteration {iteration}: "
                f"{likelihood} -> {new_likelihood}")
        delta = new_likelihood - likelihood
        likelihood = new_likelihood
        at_checkpoint = (iteration % config.checkpoint_every == 0
                         or iteration == config.max_iterations)
        converged = abs(delta) < config.likelihood_tolerance
        trace.records.append(IterationRecord(
            iteration=iteration,
            log_likelihood=likelihood,
            max_abs_gamma=float(np.abs(gamma).max()),
            lam=model.lam.copy() if (at_checkpoint or converged) else None))
        if converged:
            trace.converged = True
            break
    return model, trace


@dataclass(frozen=True)
class InitComparison:
    uniform_final_L: float
    random_final_Ls: tuple[float, ...]
    win_rate: float  # fraction of random runs strictly below the uniform run


def compare_inits(features: FeatureMatrix,
                  config: Optional[TrainingConfig] = None,
                  n_random_seeds: int = 10, *,
                  complete_data: bool = False) -> InitComparison:
    """Train on ``features``, a universe as ``build_feature_matrix`` returns
    it, once from lam = 0 and ``n_random_seeds`` times from random starts;
    report the final likelihoods and how often random ends lower."""
    config = config or TrainingConfig()
    if n_random_seeds < 0:
        raise ConfigError("n_random_seeds must be nonnegative")

    base = replace(config, init="uniform_zero")
    _, trace = train(features, features.registry, base,
                     complete_data=complete_data)
    uniform_final = trace.final_log_likelihood

    seed0 = 0 if config.seed is None else config.seed
    random_finals = []
    for i in range(n_random_seeds):
        rnd = replace(config, init="random", seed=seed0 + i)
        _, rnd_trace = train(features, features.registry, rnd,
                             complete_data=complete_data)
        random_finals.append(rnd_trace.final_log_likelihood)

    wins = sum(1 for L in random_finals if L < uniform_final)
    rate = wins / n_random_seeds if n_random_seeds else math.nan
    return InitComparison(uniform_final_L=uniform_final,
                          random_final_Ls=tuple(random_finals),
                          win_rate=rate)
