"""Sentiment lexicon learning and classification toolkit.

The package provides:

* a sentiment lexicon with signed word scores and non-negative modifier
  scores, plus mention parsing and scoring (:mod:`sentiscore.lexicon`),
* a box-constrained regularized least-squares solver used to learn those
  scores from labeled mentions (:mod:`sentiscore.boxlsq`,
  :mod:`sentiscore.learner`),
* score-similarity data augmentation with label flipping
  (:mod:`sentiscore.augment`),
* cross entropy and penalty-weighted cross entropy losses
  (:mod:`sentiscore.losses`),
* a small from-scratch CNN text classifier with word embeddings
  (:mod:`sentiscore.vocab`, :mod:`sentiscore.cnn`),
* a cross-validation evaluation harness and synthetic corpus generator
  (:mod:`sentiscore.evaluate`, :mod:`sentiscore.synthetic`).
"""

__version__ = "0.1.0"
