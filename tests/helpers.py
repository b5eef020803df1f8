"""Shared test oracles, independent of the library's own solvers, batched
CNN, sample-before-splice augmenter and vectorized learner problems."""
from __future__ import annotations

import random
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from sentiscore.augment import derive_seed, flip_label, splice_variants
from sentiscore.lexicon import NEUTRAL, extract_pair_indices, tokenize, tokenize_with_spans

from sentiscore.boxlsq import (
    BoxLsqError,
    ConstrainedLsqProblem,
    SolverReport,
    kkt_residual,
    objective,
)
from sentiscore.vocab import PAD_INDEX


def from_dense(design, bias, targets, lam, lower, upper) -> ConstrainedLsqProblem:
    """The problem whose design is the dense matrix ``design``."""
    design = np.asarray(design, dtype=float)
    if design.ndim != 2:
        raise BoxLsqError("design must be a 2-D matrix")
    rows, cols = np.nonzero(design)
    return ConstrainedLsqProblem(
        rows, cols, design[rows, cols], design.shape, bias, targets, lam, lower, upper
    )


def ls_center(problem: ConstrainedLsqProblem) -> np.ndarray:
    """Unconstrained ridge solution via the normal equations."""
    X = problem.design
    d = problem.n_coords
    gram = X.T @ X + problem.lam * np.eye(d)
    rhs = X.T @ (problem.targets - problem.bias)
    solution, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    return solution


def residual_form_solve(
    problem: ConstrainedLsqProblem,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    start: np.ndarray | None = None,
) -> SolverReport:
    """Cyclic coordinate descent that keeps the residual ``Xv + b - t``.

    Every coordinate update is an O(M) pass over its design column, and
    the objective and KKT residual are recomputed from the residual
    after each sweep. It takes the same exact clipped steps as
    ``boxlsq.solve`` in a different arithmetic, so it is the reference
    the Gram-form solver is checked against. It stalls when two
    successive objective sums stop differing, which can happen while
    the KKT residual is still above ``tol``.
    """
    X = problem.design
    v = np.clip(np.zeros(problem.n_coords) if start is None else np.array(start, dtype=float),
                problem.lower, problem.upper)
    denom = np.einsum("md,md->d", X, X) + problem.lam
    residual = X @ v + problem.bias - problem.targets
    obj = float(residual @ residual + problem.lam * (v @ v))
    trace = [obj]
    stop_reason = "max_iter"
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        for j in range(problem.n_coords):
            if denom[j] > 0.0:
                col = X[:, j]
                partial = residual - col * v[j]
                v[j] = min(max(-(col @ partial) / denom[j], problem.lower[j]), problem.upper[j])
                residual = partial + col * v[j]
        prev_obj = obj
        obj = float(residual @ residual + problem.lam * (v @ v))
        trace.append(obj)
        if kkt_residual(problem, v) <= tol:
            stop_reason = "kkt"
            break
        if prev_obj - obj <= 0.0:
            stop_reason = "stalled"
            break
    kkt = kkt_residual(problem, v)
    return SolverReport(v, obj, sweeps, kkt, kkt <= tol, stop_reason, trace)


def grid_oracle(
    problem: ConstrainedLsqProblem,
    final_step: float = 1e-3,
    points: int = 11,
) -> tuple[np.ndarray, float]:
    """Best feasible point by staged grid refinement.

    Evaluates the objective on a coarse feasible grid around the
    unconstrained ridge solution, then repeatedly re-grids around the
    winner with shrinking spacing until the spacing is at most
    ``final_step`` in every dimension. On a convex objective this
    reaches the same neighborhood as a dense grid at the final spacing
    while staying tractable in three dimensions.
    """
    d = problem.n_coords
    center = ls_center(problem)
    radius = np.maximum(2.0, 2.0 * np.abs(center))
    lo = np.clip(center - radius, problem.lower, problem.upper)
    hi = np.clip(center + radius, problem.lower, problem.upper)

    best = None
    best_val = np.inf
    # The floor in the shrink step can leave the spacing a rounding error
    # above final_step, so the stop check needs slack and a stage cap.
    for _ in range(64):
        axes = [np.linspace(lo[j], hi[j], points) for j in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.reshape(-1) for m in mesh], axis=1)
        residual = grid @ problem.design.T + problem.bias - problem.targets
        values = np.einsum("nd,nd->n", residual, residual)
        values = values + problem.lam * np.einsum("nd,nd->n", grid, grid)
        winner = int(np.argmin(values))
        if values[winner] < best_val:
            best_val = float(values[winner])
            best = grid[winner].copy()
        spacing = (hi - lo) / (points - 1)
        if np.all(spacing <= final_step * (1.0 + 1e-9)):
            break
        half = np.maximum(spacing, final_step * (points - 1) / 2.0)
        lo = np.clip(best - half, problem.lower, problem.upper)
        hi = np.clip(best + half, problem.lower, problem.upper)
    else:
        raise AssertionError("grid oracle failed to reach final spacing")
    assert best is not None
    # Exact recompute guards against accumulated vectorization error.
    return best, objective(problem, best)


def _reference_pool(column: np.ndarray, p: int) -> np.ndarray:
    """Winning row per pooled cell, one chunk of up to p rows at a time."""
    n, f = column.shape
    q = -(-n // p)
    rows = np.empty((q, f), dtype=np.int64)
    for c in range(q):
        rows[c] = c * p + np.argmax(column[c * p : (c + 1) * p], axis=0)
    return rows


def reference_step(model, batch, config, penalty, gen):
    """The per-example training step: one forward, loss and backward per item.

    Returns the updated parameter tensors (a ``type(model)`` instance)
    and the batch mean loss. Each example draws its own ``q*f`` dropout
    mask from ``gen`` in batch order.
    """
    n, d, f, p = config.sequence_length, config.window, config.filter_count, config.pool_window
    rate = config.dropout_rate
    tensors = (model.filters, model.filter_bias, model.dense_w, model.dense_b)
    grads = [np.zeros_like(t) for t in tensors]
    d_embedding = np.zeros_like(model.embedding)
    total = 0.0
    for indices, label in batch:
        x = model.embedding[indices]
        positions = n - d + 1
        windows = np.stack([x[pos : pos + d] for pos in range(positions)])
        pre = np.einsum("pdk,fdk->pf", windows, model.filters) + model.filter_bias
        act = np.maximum(pre, 0.0) if config.activation == "relu" else np.tanh(pre)
        column = np.zeros((n, f))
        column[:positions] = act
        rows = _reference_pool(column, p)
        pooled = column[rows, np.arange(f)].reshape(-1)
        mask = gen.random(pooled.shape) >= rate if rate > 0.0 else np.ones(pooled.shape, bool)
        kept = pooled * mask / (1.0 - rate)
        logits = kept @ model.dense_w + model.dense_b

        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        weight = 1.0 if penalty is None else penalty.weights[int(np.argmax(probs)), label]
        total += weight * -np.log(max(probs[label], 1e-12))
        dlogits = probs.copy()
        dlogits[label] -= 1.0
        dlogits *= weight

        d_pooled = (model.dense_w @ dlogits) * mask / (1.0 - rate)
        d_column = np.zeros((n, f))
        for (c, j), row in np.ndenumerate(rows):
            d_column[row, j] += d_pooled[c * f + j]
        if config.activation == "relu":
            d_pre = d_column[:positions] * (pre > 0.0)
        else:
            d_pre = d_column[:positions] * (1.0 - np.tanh(pre) ** 2)
        grads[0] += np.einsum("pf,pdk->fdk", d_pre, windows)
        grads[1] += d_pre.sum(axis=0)
        grads[2] += np.outer(kept, dlogits)
        grads[3] += dlogits
        d_windows = np.einsum("pf,fdk->pdk", d_pre, model.filters)
        for pos in range(positions):
            for offset in range(d):
                d_embedding[indices[pos + offset]] += d_windows[pos, offset]

    count, lr = len(batch), config.learning_rate
    embedding = model.embedding
    if config.finetune_embeddings:
        d_embedding[0] = 0.0
        embedding = embedding - lr * (d_embedding / count)
    updated = [t - lr * (g / count) for t, g in zip(tensors, grads)]
    return type(model)(embedding, *updated), total / count


def reference_sequence_indices(tokens, vocab, length):
    """One row of ``vocab.encode``, built token by token."""
    idx = np.full(length, PAD_INDEX, dtype=np.int64)
    for i, tok in enumerate(tokens[:length]):
        idx[i] = vocab.lookup(tok)
    return idx


def reference_fit(model, dataset, config, penalty=None):
    """``cnn.fit`` with :func:`reference_step`: same shuffles, same draws."""
    gen = np.random.default_rng(config.rng_seed)
    history = []
    for _ in range(config.epochs):
        order = gen.permutation(len(dataset))
        losses = []
        for start in range(0, len(dataset), config.batch_size):
            batch = [dataset[i] for i in order[start : start + config.batch_size]]
            model, loss = reference_step(model, batch, config, penalty, gen)
            losses.append(loss)
        history.append(sum(losses) / len(losses))
    return model, history


def reference_peers(word, lexicon, delta):
    """``(same_sign, opposite_sign)`` by a scan of the whole lexicon."""
    score = lexicon.word_score(word)
    polarity = lexicon.polarity(word)
    same_sign, opposite_sign = [], []
    for term in lexicon.word_terms():
        if term == word:
            continue
        other = lexicon.word_score(term)
        if lexicon.polarity(term) == polarity:
            if abs(other - score) <= delta:
                same_sign.append(term)
        elif abs(abs(other) - abs(score)) <= delta:
            opposite_sign.append(term)
    return same_sign, opposite_sign


class WrittenSample(NamedTuple):
    """A variant as the ``augment`` command writes it: its text, label,
    source index and substitution."""

    text: str
    label: str
    source_index: int
    substitution: str


def written_samples(mentions, samples):
    """``augment_corpus`` samples with the texts :func:`splice_variants` gives them."""
    texts = splice_variants(mentions, samples)
    return [
        WrittenSample(text, sample.label, sample.source_index, sample.substitution)
        for text, sample in zip(texts, samples)
    ]


def _reference_splice(text, replacements):
    for start, end, new in sorted(replacements, reverse=True):
        text = text[:start] + new + text[end:]
    return text


def reference_variants(mention, lexicon, config, index):
    """Enumerate every candidate text of the mention at ``index``, drop
    repeated (text, label) pairs, then keep a sample seeded with
    ``derive_seed``: the augmenter before it sampled first."""
    spans = tokenize_with_spans(mention.raw_text)
    tokens = [tok for tok, _, _ in spans]
    comparatives = config.comparative_terms()
    candidates, seen = [], set()

    def emit(text, label, substitution):
        if (text, label) not in seen:
            seen.add((text, label))
            candidates.append(WrittenSample(text, label, index, substitution))

    for _, word_idx in extract_pair_indices(tokens, lexicon):
        word = tokens[word_idx]
        _, start, end = spans[word_idx]
        same_sign, opposite_sign = reference_peers(word, lexicon, config.score_tolerance)
        for replacement in same_sign:
            emit(
                _reference_splice(mention.raw_text, [(start, end, replacement)]),
                mention.label,
                f"{word}@{word_idx}->{replacement}",
            )
        if not config.include_flips or mention.label == NEUTRAL:
            continue
        for replacement in opposite_sign:
            replacements = [(start, end, replacement)]
            suppressed = False
            for idx, (tok, tok_start, tok_end) in enumerate(spans):
                if idx == word_idx or tok not in comparatives:
                    continue
                antonym = config.antonyms.get(tok)
                if antonym is None:
                    suppressed = True
                    break
                replacements.append((tok_start, tok_end, antonym))
            if not suppressed:
                emit(
                    _reference_splice(mention.raw_text, replacements),
                    flip_label(mention.label),
                    f"{word}@{word_idx}->{replacement} (flip)",
                )

    if len(candidates) > config.max_variants_per_sample:
        rng = random.Random(derive_seed(config.rng_seed, index))
        keep = sorted(rng.sample(range(len(candidates)), config.max_variants_per_sample))
        candidates = [candidates[i] for i in keep]
    return candidates


def reference_augment_corpus(mentions, lexicon, config):
    """:func:`reference_variants` over a corpus, in mention order."""
    return [
        sample
        for index, mention in enumerate(mentions)
        for sample in reference_variants(mention, lexicon, config, index)
    ]


def explicit_learner_problems(mentions, lexicon):
    """The learner's designs, bias and targets, added up one pair at a time.

    Each mention's text is tokenized again here, and a word takes the
    token just before it as its modifier when that token is one. Every
    occurrence then adds its term's score, in token order, to one cell.
    """
    occurrences = []
    for row, mention in enumerate(mentions):
        tokens = tokenize(mention.raw_text)
        for i, token in enumerate(tokens):
            if token in lexicon.words:
                before = tokens[i - 1] if i > 0 else None
                occurrences.append((row, before if before in lexicon.adverbs else None, token))
    adverbs = sorted({adverb for _, adverb, _ in occurrences if adverb is not None})
    words = sorted({word for _, _, word in occurrences})
    adverb_design = np.zeros((len(mentions), len(adverbs)))
    word_design = np.zeros((len(mentions), len(words)))
    bias = np.zeros(len(mentions))
    for row, adverb, word in occurrences:
        if adverb is None:
            bias[row] += lexicon.word_score(word)
            word_design[row, words.index(word)] += 1.0
        else:
            adverb_design[row, adverbs.index(adverb)] += lexicon.word_score(word)
            word_design[row, words.index(word)] += lexicon.adverb_score(adverb)
    return SimpleNamespace(
        adverbs=adverbs,
        words=words,
        adverb_design=adverb_design,
        word_design=word_design,
        bias=bias,
        targets=np.array([mention.target_score for mention in mentions]),
    )
