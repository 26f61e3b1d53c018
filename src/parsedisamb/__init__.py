"""Log-linear disambiguation models over finite candidate parse sets.

The package trains log-linear models from disambiguated (complete) or
unannotated (incomplete) corpora with a closed-form iterative update,
builds configurational and class-based lexicalized property vectors, and
evaluates models on exact-match and frame-match tasks.
"""

__version__ = "0.1.0"

from .corpus import (Corpus, CorpusStats, FStructure, ParseRecord, Relation,
                     SentenceEntry, SyntheticConfig, build_corpus,
                     corpus_stats, generate_synthetic, load_corpus,
                     save_corpus)
from .errors import (ConfigError, DataError, InternalConsistencyError,
                     ParseDisambError)
from .evaluation import (BaselineReport, EvalOutcome, SentenceVerdict,
                         SweepRow, evaluate, format_report_table,
                         random_baseline, sweep_checkpoints,
                         write_report_json, write_sweep_csv)
from .lexicalization import (SLOTS, ClusterModel, LexFrequencyTable,
                             PairCounts, build_freq_table, class_membership,
                             lexicalized_properties, load_pair_counts,
                             pair_counts_from_corpus, save_pair_counts,
                             slot_key, train_clusters)
from .model import (Decision, LogLinearModel, ParseDistribution, disambiguate,
                    load_model, new_model, normalize, save_model)
from .properties import (FeatureMatrix, PropertyDescriptor, PropertyRegistry,
                         add_correction, build_feature_matrix, build_registry,
                         compile_corpus, compile_templates, save_registry,
                         select_properties)
from .trainer import (InitComparison, IterationRecord, TrainingConfig,
                      TrainingTrace, compare_inits, expectations, im_step,
                      incomplete_log_likelihood, train)

__all__ = [name for name in dir() if not name.startswith("_")]
