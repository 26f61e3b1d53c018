"""Training: property registry, correction, the closed-form update loop.

Shows the full estimation pipeline on incomplete data (no gold parses seen
by the trainer), the likelihood trace, and why the uniform-zero start is
preferable to random starts.

Run:  python demos/02_training_workflow.py
"""

import numpy as np

from parsedisamb import (SyntheticConfig, TrainingConfig, add_correction,
                         build_feature_matrix, compare_inits,
                         compile_templates, generate_synthetic, expectations,
                         incomplete_log_likelihood, normalize, new_model,
                         train)

print("=" * 70)
print("1. Build the property registry and append the correction")
print("=" * 70)

corpus, hidden = generate_synthetic(
    SyntheticConfig(n_sentences=300, ambiguity_range=(2, 6),
                    n_features=15, seed=7))
# One walk over the corpus compiles every template it observes; the
# registry, the correction and training all read that matrix.
templates = compile_templates(corpus)
registry = templates.registry
print(f"registry: {registry.size} properties, kinds {sorted(registry.kinds())}")

registry = add_correction(registry, templates)
print(f"correction appended: K = {registry.correction_K} "
      f"(every training parse's feature total is now exactly K)")
# A model is tied to the compiled parse universe it normalizes over.
features = build_feature_matrix(templates, registry)

print()
print("=" * 70)
print("2. Train from incomplete data (gold indices ignored)")
print("=" * 70)

config = TrainingConfig(init="uniform_zero", max_iterations=200,
                        likelihood_tolerance=1e-10, checkpoint_every=5)
model, trace = train(features, registry, config)
print(f"converged: {trace.converged} after {trace.n_iterations} iterations")
print("likelihood trace (every 20th iteration):")
for record in trace.records[::20]:
    print(f"  iter {record.iteration:4d}  L = {record.log_likelihood:.8f}  "
          f"max|gamma| = {record.max_abs_gamma:.2e}")
print(f"  final     L = {trace.final_log_likelihood:.8f}")

likelihoods = trace.likelihoods()
print(f"monotone non-decreasing: "
      f"{all(b >= a - 1e-10 for a, b in zip(likelihoods, likelihoods[1:]))}")

print()
print("=" * 70)
print("3. The update drives the two expectation vectors together")
print("=" * 70)

numerator, denominator = expectations(model, features)
gap = np.abs(numerator - denominator)
print(f"max |conditional expectation - model expectation| = {gap.max():.2e}")
print("(the update is log(numerator/denominator)/K per feature, so this gap")
print(" shrinking toward zero is exactly the approach to a fixed point)")
dist = normalize(model, features)
print(f"model distribution sums to 1 within {abs(dist.probs.sum() - 1):.1e}")

print()
print("=" * 70)
print("4. Uniform-zero start versus random starts")
print("=" * 70)

report = compare_inits(features,
                       TrainingConfig(init_range=1.0, seed=0,
                                      max_iterations=150,
                                      likelihood_tolerance=1e-9),
                       n_random_seeds=10)
print(f"uniform start final L : {report.uniform_final_L:.6f}")
print(f"random start final L  : best {max(report.random_final_Ls):.6f}, "
      f"worst {min(report.random_final_Ls):.6f}")
print(f"random runs ending below the uniform run: "
      f"{report.win_rate:.0%} of 10")

random_start = new_model(features,
                         lam=np.random.default_rng(0).uniform(
                             -1.0, 1.0, registry.size))
L_random_start = incomplete_log_likelihood(random_start, features)
print(f"\nstarting likelihoods tell the story: the zero start opens at "
      f"{trace.records[0].log_likelihood:.4f},\nalready close to the final "
      f"{trace.final_log_likelihood:.4f}, while a random start opens down "
      f"at {L_random_start:.4f}\nand must climb back, risking a worse basin.")
