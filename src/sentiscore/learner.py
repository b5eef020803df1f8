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
        if not 0 <= self.lam < np.inf:
            raise LearnerError("lam must be finite and >= 0")
        if not 0 < self.epsilon_margin < np.inf:
            raise LearnerError("epsilon_margin must be finite and > 0")
        if not 0 < self.solver_tol < np.inf:
            raise LearnerError("solver_tol must be finite and > 0")
        if self.solver_max_iter < 1:
            raise LearnerError("solver_max_iter must be >= 1")


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


@dataclass(frozen=True)
class OccurrenceIndex:
    """A corpus's (modifier, word) occurrences as integer columns.

    Occurrence ``k`` lies in mention row ``rows[k]``; its word is
    ``words[word_cols[k]]`` and its modifier ``adverbs[adverb_cols[k]]``,
    or none when ``adverb_cols[k]`` is -1. Occurrences run in mention
    order, then token order. ``adverbs`` and ``words`` are the observed
    terms, sorted: the columns of the modifier and word problems.
    """

    rows: np.ndarray
    adverb_cols: np.ndarray
    word_cols: np.ndarray
    adverbs: list[str]
    words: list[str]
    targets: np.ndarray

    def scores(self, lexicon: Lexicon) -> tuple[np.ndarray, np.ndarray]:
        """The lexicon's scores of the observed modifiers and words, by column."""
        return (
            np.array([lexicon.adverb_score(term) for term in self.adverbs], dtype=float),
            np.array([lexicon.word_score(term) for term in self.words], dtype=float),
        )


def index_occurrences(mentions: Sequence[Mention]) -> OccurrenceIndex:
    """Index every occurrence of ``mentions`` once."""
    if not mentions:
        raise LearnerError("mention list is empty")
    pairs = [(row, adverb, word) for row, m in enumerate(mentions) for adverb, word in m.pairs]
    if not pairs:
        raise LearnerError("no sentiment word occurrences in the corpus")
    adverbs = sorted({adverb for _, adverb, _ in pairs if adverb is not None})
    words = sorted({word for _, _, word in pairs})
    adverb_col = {None: -1, **{term: j for j, term in enumerate(adverbs)}}
    word_col = {term: j for j, term in enumerate(words)}
    rows, adverb_cols, word_cols = np.array(
        [(row, adverb_col[adverb], word_col[word]) for row, adverb, word in pairs], dtype=np.intp
    ).T
    targets = np.array([m.target_score for m in mentions], dtype=float)
    return OccurrenceIndex(rows, adverb_cols, word_cols, adverbs, words, targets)


def build_adverb_problem(
    index: OccurrenceIndex, word_scores: np.ndarray, config: LearningConfig
) -> ConstrainedLsqProblem:
    """Design the modifier-score problem with word scores held fixed.

    One row per mention; the column for modifier ``j`` accumulates the
    current scores (``word_scores``, by word column) of words it
    modifies in that mention. Words without a modifier contribute their
    score to the row's bias. All coordinates are bounded below by zero.
    Columns cover the observed modifiers in sorted order; modifiers
    never seen in the corpus are excluded so regularization cannot drag
    their scores. A corpus with no modifiers gives an (M, 0) problem.
    """
    m_count, d = len(index.targets), len(index.adverbs)
    modified, bare = index.adverb_cols >= 0, index.adverb_cols < 0
    cells = index.rows[modified] * d + index.adverb_cols[modified]
    values = word_scores[index.word_cols[modified]]
    design = np.bincount(cells, weights=values, minlength=m_count * d).reshape(m_count, d)
    bias = np.bincount(
        index.rows[bare], weights=word_scores[index.word_cols[bare]], minlength=m_count
    )
    return ConstrainedLsqProblem(
        design=design,
        bias=bias,
        targets=index.targets,
        lam=config.lam,
        lower=np.zeros(d),
        upper=np.full(d, np.inf),
    )


def build_word_problem(
    index: OccurrenceIndex, adverb_scores: np.ndarray, word_scores: np.ndarray, config: LearningConfig
) -> ConstrainedLsqProblem:
    """Design the word-score problem with modifier scores held fixed.

    One row per mention; the column for word ``i`` accumulates, over
    that word's occurrences in the mention, the score of its modifier
    (``adverb_scores``, by modifier column) or 1 when unmodified. Bias
    is zero. Bounds keep each word on the side of zero its current
    score (``word_scores``) is on, with an epsilon margin. Columns cover
    the observed words in sorted order; unseen words keep their current
    scores.
    """
    m_count, d = len(index.targets), len(index.words)
    # Column -1 of the extended scores is the 1 that scales an unmodified word.
    scales = np.append(adverb_scores, 1.0)[index.adverb_cols]
    cells = index.rows * d + index.word_cols
    design = np.bincount(cells, weights=scales, minlength=m_count * d).reshape(m_count, d)
    positive, eps = word_scores > 0, config.epsilon_margin
    return ConstrainedLsqProblem(
        design=design,
        bias=np.zeros(m_count),
        targets=index.targets,
        lam=config.lam,
        lower=np.where(positive, eps, -np.inf),
        upper=np.where(positive, np.inf, -eps),
    )


def train_iterative(
    mentions: Sequence[Mention],
    seed_lexicon: Lexicon,
    config: LearningConfig,
) -> LearningTrace:
    """Alternate the modifier and word solves to learn the lexicon.

    The corpus is indexed once. Each outer iteration solves the modifier
    problem against the current word scores, then the word problem
    against the new modifier scores. The loop runs for at most
    ``max_outer_iterations`` and stops early once the combined objective
    decrease per iteration falls below the solver tolerance. Terms never
    observed in the corpus keep their seed scores.
    """
    index = index_occurrences(mentions)
    adverb_scores, word_scores = index.scores(seed_lexicon)
    iterations: list[tuple[float, float]] = []
    converged = True
    prev_combined: float | None = None
    tol, max_iter = config.solver_tol, config.solver_max_iter
    for _ in range(config.max_outer_iterations):
        # Each problem is built inside the solve call, so its dense
        # design is freed before the next one is allocated.
        report = solve(
            build_adverb_problem(index, word_scores, config), tol, max_iter, adverb_scores
        )
        converged = converged and report.converged
        adverb_scores, adverb_objective = report.solution, report.objective

        report = solve(
            build_word_problem(index, adverb_scores, word_scores, config), tol, max_iter, word_scores
        )
        converged = converged and report.converged
        word_scores, word_objective = report.solution, report.objective

        iterations.append((adverb_objective, word_objective))
        combined = adverb_objective + word_objective
        if prev_combined is not None and (prev_combined - combined) < config.solver_tol:
            break
        prev_combined = combined

    lexicon = seed_lexicon.replace_scores(
        word_scores=dict(zip(index.words, word_scores)),
        adverb_scores=dict(zip(index.adverbs, adverb_scores)),
    )
    return LearningTrace(iterations=iterations, lexicon=lexicon, converged=converged)
