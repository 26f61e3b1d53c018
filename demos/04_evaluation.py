"""Evaluation: exact and frame match, random baselines, overtraining sweeps.

Run:  python demos/04_evaluation.py
"""

import numpy as np

from parsedisamb import (SyntheticConfig, TrainingConfig, add_correction,
                         compile_corpus, compile_templates, evaluate,
                         format_report_table, generate_synthetic,
                         random_baseline, sweep_checkpoints, train)

print("=" * 70)
print("1. Train on unannotated data, evaluate on held-out gold data")
print("=" * 70)

n_features = 20
rng = np.random.default_rng(3)
theta = rng.uniform(-0.9, 0.9, n_features)
train_corpus, _ = generate_synthetic(
    SyntheticConfig(n_sentences=800, ambiguity_range=(2, 7),
                    n_features=n_features, seed=21), true_params=theta)
test_corpus, _ = generate_synthetic(
    SyntheticConfig(n_sentences=300, ambiguity_range=(2, 7),
                    n_features=n_features, seed=22), true_params=theta)

# Each corpus is compiled once, as the CLI does: the training corpus over
# every template it observes, the test corpus over the model's registry.
# Every function below takes the compiled matrix where a corpus goes.
templates = compile_templates(train_corpus)
registry = add_correction(templates.registry, templates)
model, trace = train(templates, registry,
                     TrainingConfig(max_iterations=100,
                                    likelihood_tolerance=1e-9,
                                    checkpoint_every=5))
test = compile_corpus(test_corpus, registry)

exact = evaluate(model, test, task="exact_match")
print(format_report_table(exact))
print()
frame = evaluate(model, test, task="frame_match")
print(format_report_table(frame))
print("\nframe match is the easier task: a wrong parse with the right "
      "subcategorization frame still counts, and ties sharing one frame "
      "become decisions")

print()
print("=" * 70)
print("2. Random-parameter baseline: the candidate sets' own difficulty")
print("=" * 70)

baseline = random_baseline(test, "exact_match", registry,
                           n_models=100, seed=5)
print(f"mean random precision {baseline.mean_precision:.3f} "
      f"+- {baseline.stdev_precision:.3f} over {baseline.n_models} models")
print(f"trained model beats it by "
      f"{exact.precision - baseline.mean_precision:+.3f}")

print()
print("=" * 70)
print("3. Checkpoint sweep: precision across training iterations")
print("=" * 70)

models = [(iteration, model.with_lam(lam))
          for iteration, lam in trace.checkpoints()]
rows = sweep_checkpoints(models, test, task="exact_match")
print("iteration  precision  effectiveness")
for row in rows:
    # Iteration 0 is the all-ties uniform start: precision is undefined.
    precision = "undefined" if row.precision is None else f"{row.precision:9.4f}"
    print(f"{row.iteration:9d}  {precision:>9}  {row.effectiveness:13.4f}")
decided = [r for r in rows if r.precision is not None]
best = max(decided, key=lambda r: r.precision)
last = decided[-1]
print(f"\npeak precision {best.precision:.4f} at iteration {best.iteration}; "
      f"final iteration gives {last.precision:.4f}")
if best.iteration < last.iteration and best.precision > last.precision:
    print("the gap between peak and final is the overtraining effect")
