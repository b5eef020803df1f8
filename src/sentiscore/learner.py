"""Learning lexicon scores from labeled mentions.

Two box-constrained least-squares problems are built from a mention
corpus and solved in alternation. The modifier problem fixes the word
scores and fits one non-negative score per observed modifier; the word
problem fixes the modifier scores and fits one sign-constrained score
per observed word, where each occurrence contributes its modifier's
score (or 1 when unmodified) as the design coefficient. Alternating the
two solves refines both score sets against the mentions' supervision
values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from sentiscore.boxlsq import ConstrainedLsqProblem, solve
from sentiscore.lexicon import Lexicon, Mention


class LearnerError(ValueError):
    """Raised when a problem cannot be built from the given corpus."""


@dataclass(frozen=True)
class LearningConfig:
    """Knobs for the alternating score learning loop.

    ``epsilon_margin`` relaxes the strict sign constraints on word
    scores to closed bounds (positive words >= margin, negative words
    <= -margin) so the constrained problems have attained minimizers.
    """

    max_outer_iterations: int = 20
    lam: float = 0.1
    epsilon_margin: float = 1e-6
    solver_tol: float = 1e-8
    solver_max_iter: int = 10_000

    def __post_init__(self) -> None:
        if self.max_outer_iterations < 1:
            raise LearnerError("max_outer_iterations must be >= 1")
        if not self.lam >= 0:
            raise LearnerError("lam must be >= 0")
        if not self.epsilon_margin > 0:
            raise LearnerError("epsilon_margin must be > 0")


@dataclass
class LearningTrace:
    """Per-iteration objectives plus the final learned lexicon."""

    iterations: list[tuple[float, float]]
    lexicon: Lexicon
    converged: bool = True

    def trace_lines(self) -> list[str]:
        return [
            f"{i}\t{adv_obj!r}\t{word_obj!r}"
            for i, (adv_obj, word_obj) in enumerate(self.iterations, start=1)
        ]


def observed_adverbs(mentions: Sequence[Mention]) -> list[str]:
    """Modifiers that occur in at least one extracted pair, sorted."""
    seen = {adv for m in mentions for adv, _ in m.pairs if adv is not None}
    return sorted(seen)


def observed_words(mentions: Sequence[Mention]) -> list[str]:
    """Sentiment words that occur in at least one extracted pair, sorted."""
    seen = {word for m in mentions for _, word in m.pairs}
    return sorted(seen)


def _accumulate(index: list[int], values: list[float], size: int) -> np.ndarray:
    """Sum ``values`` into a zero vector of ``size`` at ``index``, in input order."""
    return np.bincount(
        np.asarray(index, dtype=np.intp), weights=np.asarray(values, dtype=float), minlength=size
    )


def build_adverb_problem(
    mentions: Sequence[Mention],
    lexicon: Lexicon,
    config: LearningConfig,
) -> ConstrainedLsqProblem:
    """Design the modifier-score problem with word scores held fixed.

    One row per mention; the column for modifier ``j`` accumulates the
    current scores of words it modifies in that mention. Words without a
    modifier contribute their score to the row's bias. All coordinates
    are bounded below by zero. Columns cover the observed modifiers in
    sorted order; modifiers never seen in the corpus are excluded so
    regularization cannot drag their scores.
    """
    if not mentions:
        raise LearnerError("mention list is empty")
    adverbs = observed_adverbs(mentions)
    if not adverbs:
        raise LearnerError("no modifier occurrences in the corpus")
    col = {term: j for j, term in enumerate(adverbs)}
    m_count, d = len(mentions), len(adverbs)
    cells, values, bias_rows, bias_values = [], [], [], []
    for i, mention in enumerate(mentions):
        for adverb, word in mention.pairs:
            if adverb is None:
                bias_rows.append(i)
                bias_values.append(lexicon.word_score(word))
            else:
                cells.append(i * d + col[adverb])
                values.append(lexicon.word_score(word))
    design = _accumulate(cells, values, m_count * d).reshape(m_count, d)
    bias = _accumulate(bias_rows, bias_values, m_count)
    targets = np.array([mention.target_score for mention in mentions], dtype=float)
    return ConstrainedLsqProblem(
        design=design,
        bias=bias,
        targets=targets,
        lam=config.lam,
        lower=np.zeros(d),
        upper=np.full(d, np.inf),
    )


def build_word_problem(
    mentions: Sequence[Mention],
    lexicon: Lexicon,
    config: LearningConfig,
) -> ConstrainedLsqProblem:
    """Design the word-score problem with modifier scores held fixed.

    One row per mention; the column for word ``i`` accumulates, over
    that word's occurrences in the mention, the score of its modifier
    (or 1 when unmodified). Bias is zero. Bounds keep each word on its
    polarity's side of zero with an epsilon margin. Columns cover the
    observed words in sorted order; unseen words keep their current
    scores.
    """
    if not mentions:
        raise LearnerError("mention list is empty")
    words = observed_words(mentions)
    if not words:
        raise LearnerError("no sentiment word occurrences in the corpus")
    col = {term: j for j, term in enumerate(words)}
    m_count, d = len(mentions), len(words)
    cells, values = [], []
    for i, mention in enumerate(mentions):
        for adverb, word in mention.pairs:
            cells.append(i * d + col[word])
            values.append(1.0 if adverb is None else lexicon.adverb_score(adverb))
    design = _accumulate(cells, values, m_count * d).reshape(m_count, d)
    targets = np.array([mention.target_score for mention in mentions], dtype=float)
    positive = np.array([lexicon.word_score(term) > 0 for term in words])
    eps = config.epsilon_margin
    lower = np.where(positive, eps, -np.inf)
    upper = np.where(positive, np.inf, -eps)
    return ConstrainedLsqProblem(
        design=design,
        bias=np.zeros(m_count),
        targets=targets,
        lam=config.lam,
        lower=lower,
        upper=upper,
    )


def train_iterative(
    mentions: Sequence[Mention],
    seed_lexicon: Lexicon,
    config: LearningConfig,
) -> LearningTrace:
    """Alternate the modifier and word solves to learn the lexicon.

    Each outer iteration solves the modifier problem against the current
    word scores, installs the result, then solves the word problem
    against the new modifier scores and installs that. The loop runs for
    at most ``max_outer_iterations`` and stops early once the combined
    objective decrease per iteration falls below the solver tolerance.
    Terms never observed in the corpus keep their seed scores.
    """
    if not mentions:
        raise LearnerError("mention list is empty")
    adverbs = observed_adverbs(mentions)
    words = observed_words(mentions)
    if not words:
        raise LearnerError("no sentiment word occurrences in the corpus")

    lexicon = seed_lexicon
    iterations: list[tuple[float, float]] = []
    converged = True
    prev_combined: float | None = None
    tol, max_iter = config.solver_tol, config.solver_max_iter
    for _ in range(config.max_outer_iterations):
        # Each problem is built inside the solve call, so its dense
        # design is freed before the next one is allocated.
        if adverbs:
            start = np.array([lexicon.adverb_score(t) for t in adverbs])
            report = solve(build_adverb_problem(mentions, lexicon, config), tol, max_iter, start)
            converged = converged and report.converged
            lexicon = lexicon.replace_scores(
                adverb_scores=dict(zip(adverbs, report.solution))
            )
            adverb_objective = report.objective
        else:
            # No modifiers observed: the modifier half-step is a no-op
            # and its objective is the plain residual of the bias terms.
            bias = np.array(
                [sum(lexicon.word_score(w) for a, w in m.pairs if a is None) for m in mentions]
            )
            targets = np.array([m.target_score for m in mentions])
            adverb_objective = float(np.sum((bias - targets) ** 2))

        start = np.array([lexicon.word_score(t) for t in words])
        report = solve(build_word_problem(mentions, lexicon, config), tol, max_iter, start)
        converged = converged and report.converged
        lexicon = lexicon.replace_scores(word_scores=dict(zip(words, report.solution)))
        word_objective = report.objective

        iterations.append((adverb_objective, word_objective))
        combined = adverb_objective + word_objective
        if prev_combined is not None and (prev_combined - combined) < config.solver_tol:
            break
        prev_combined = combined

    return LearningTrace(iterations=iterations, lexicon=lexicon, converged=converged)
