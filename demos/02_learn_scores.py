"""
Learning word and adverb scores from labeled mentions
=====================================================

Starting from coarse seed polarities (+1 / -1 for words, 1.0 for
adverbs), alternate two box-constrained least squares solves until the
scores reproduce each mention's target value. On a clean synthetic
corpus the learned scores recover the generator's ground truth.
"""
from sentiscore.learner import LearningConfig, train_iterative
from sentiscore.lexicon import prepare_mentions
from sentiscore.synthetic import CorpusConfig, coarse_seed_lexicon, generate_corpus

config = CorpusConfig(size=400, word_count=12, adverb_count=3, noise_rate=0.0, rng_seed=1)
records, truth = generate_corpus(config)
print(f"corpus: {len(records)} mentions, {config.word_count} words, {config.adverb_count} adverbs")

seeds = coarse_seed_lexicon(truth)
mentions = prepare_mentions(records, seeds)

trace = train_iterative(
    mentions, seeds, LearningConfig(max_outer_iterations=20, lam=1e-6, solver_tol=1e-6)
)
print(f"stopped after {len(trace.iterations)} iterations, converged={trace.converged}")
for i, (adverb_obj, word_obj) in enumerate(trace.iterations[:5], start=1):
    print(f"  iter {i}: adverb objective {adverb_obj:.6f}, word objective {word_obj:.6f}")

print()
print(f"{'word':8s} {'seed':>6s} {'learned':>9s} {'truth':>9s}")
for word in sorted(truth.word_terms()):
    print(
        f"{word:8s} {seeds.word_score(word):6.1f}"
        f" {trace.lexicon.word_score(word):9.4f} {truth.word_score(word):9.4f}"
    )

errors = [
    abs(trace.lexicon.word_score(w) - truth.word_score(w)) for w in truth.word_terms()
]
print(f"\nmax word error: {max(errors):.2e}")

adverb_errors = [
    abs(trace.lexicon.adverb_score(a) - truth.adverb_score(a)) for a in truth.adverb_terms()
]
print(f"max adverb error: {max(adverb_errors):.2e}")
