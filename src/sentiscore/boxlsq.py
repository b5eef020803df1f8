"""Box-constrained regularized least squares via coordinate descent.

Solves problems of the form

    minimize  ||X v + b - t||^2 + lam * ||v||^2
    subject to  lo_d <= v_d <= hi_d  for every coordinate d,

where each interval endpoint may be infinite. The objective is smooth
and convex (strongly convex for lam > 0), and the feasible set is a box,
so cyclic coordinate descent with exact per-coordinate minimization
clipped to the interval converges to the global minimum.

The descent runs in Gram (covariance-update) form, as in glmnet
(Friedman, Hastie & Tibshirani 2010): the objective equals
``v^T (X^T X + lam I) v - 2 c^T v + ||t - b||^2`` with ``c = X^T (t - b)``,
so once ``X^T X`` and ``c`` are formed a coordinate update costs one
pass over a row of the sparse Gram rather than O(M). Optimality is
certified through the first-order (KKT) residual for box constraints,
evaluated in residual form at the returned point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class BoxLsqError(ValueError):
    """Raised on dimension mismatches or invalid problem data."""


def coalesce(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]):
    """The distinct cells of entries ``(rows, cols)`` in row-major order, as
    ``(cell_rows, cell_cols, cell)`` with entry ``k`` in cell ``cell[k]``.
    An entry outside ``shape`` raises :class:`BoxLsqError`."""
    m, d = shape
    if rows.size and (min(rows.min(), cols.min()) < 0 or rows.max() >= m or cols.max() >= d):
        raise BoxLsqError(f"design entries must lie within the shape {shape}")
    keys = rows * d + cols
    ordered = np.sort(keys)
    distinct = ordered[np.diff(ordered, prepend=-1) != 0]
    return distinct // d, distinct % d, np.searchsorted(distinct, keys)


@dataclass(frozen=True)
class ConstrainedLsqProblem:
    """Problem data for the box-constrained least-squares objective.

    The design ``X`` of ``shape`` (a row per observation, a column per
    unknown) is held as COO triplets, entry ``k`` adding ``values[k]`` to
    cell ``(rows[k], cols[k])``; construction leaves one entry per cell in
    row-major order, summing repeated cells in input order and dropping
    exact zeros. ``bias`` and ``targets`` are per-observation vectors;
    ``lower`` and ``upper`` are per-coordinate interval endpoints (may be
    ``-inf`` / ``inf``).
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]
    bias: np.ndarray
    targets: np.ndarray
    lam: float
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        for name in ("values", "bias", "targets", "lower", "upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        rows, cols = np.asarray(self.rows, dtype=np.intp), np.asarray(self.cols, dtype=np.intp)
        m, d = self.shape
        if rows.ndim != 1 or not rows.shape == cols.shape == self.values.shape:
            raise BoxLsqError("rows, cols and values must be 1-D and of one length")
        if self.bias.shape != (m,) or self.targets.shape != (m,):
            raise BoxLsqError("bias and targets must match the design row count")
        if self.lower.shape != (d,) or self.upper.shape != (d,):
            raise BoxLsqError("bounds must match the design column count")
        if not 0 <= self.lam < np.inf:
            raise BoxLsqError("lam must be finite and >= 0")
        if np.any(self.lower > self.upper):
            raise BoxLsqError("every lower bound must be <= its upper bound")
        rows, cols, cell = coalesce(rows, cols, (m, d))
        values = np.bincount(cell, self.values, rows.size)
        kept = values != 0
        object.__setattr__(self, "rows", rows[kept])
        object.__setattr__(self, "cols", cols[kept])
        object.__setattr__(self, "values", values[kept])
        object.__setattr__(self, "shape", (m, d))

    @property
    def design(self) -> np.ndarray:
        """The dense design matrix, for inspection; the solver never forms it."""
        dense = np.zeros(self.shape)
        dense[self.rows, self.cols] = self.values
        return dense

    @property
    def n_coords(self) -> int:
        return self.shape[1]


@dataclass
class SolverReport:
    """Result of a solve: the point found plus optimality evidence.

    ``stop_reason`` is ``"kkt"`` (the KKT residual reached the
    tolerance), ``"stalled"`` (a sweep moved no coordinate beyond
    rounding) or ``"max_iter"`` (the sweep budget ran out).
    """

    solution: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float
    converged: bool
    stop_reason: str
    objective_trace: list[float] = field(default_factory=list)


def _residual(problem: ConstrainedLsqProblem, v: np.ndarray) -> np.ndarray:
    """``X v + b - t``, one pass over the design's entries."""
    if v.shape != (problem.n_coords,):
        raise BoxLsqError(f"v must have shape ({problem.n_coords},), got {v.shape}")
    xv = np.bincount(problem.rows, problem.values * v[problem.cols], problem.shape[0])
    return xv + problem.bias - problem.targets


def objective(problem: ConstrainedLsqProblem, v: np.ndarray) -> float:
    """Exact objective value ``||Xv + b - t||^2 + lam ||v||^2``."""
    v = np.asarray(v, dtype=float)
    residual = _residual(problem, v)
    return float(residual @ residual + problem.lam * (v @ v))


def _kkt_from_gradient(problem: ConstrainedLsqProblem, v: np.ndarray, grad: np.ndarray) -> float:
    # A positive gradient asks v_j down, which its lower bound may block, and
    # a negative one up; so a coordinate pinned on both sides is optimal.
    down = np.where(v <= problem.lower, 0.0, grad)
    up = np.where(v >= problem.upper, 0.0, -grad)
    return float(np.maximum(down, up).max(initial=0.0))


def kkt_residual(problem: ConstrainedLsqProblem, v: np.ndarray) -> float:
    """First-order optimality violation of a feasible point.

    Per coordinate: the absolute gradient when strictly interior, the
    negative part of the gradient at the lower bound, and the positive
    part at the upper bound. Zero exactly at the constrained optimum.
    The gradient is taken in residual form, ``2 X^T (Xv + b - t) + 2 lam v``.
    """
    v = np.asarray(v, dtype=float)
    residual = _residual(problem, v)
    if np.any(v < problem.lower - 1e-12) or np.any(v > problem.upper + 1e-12):
        raise BoxLsqError("v is infeasible for the box constraints")
    xt_r = np.bincount(problem.cols, problem.values * residual[problem.rows], problem.n_coords)
    return _kkt_from_gradient(problem, v, 2.0 * xt_r + 2.0 * problem.lam * v)


def _gram(problem: ConstrainedLsqProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``X^T X`` as row-major triplets, summed over each row's pairs of entries.

    The learner's designs hold a few entries per row, so this costs about
    one pass over them (``M D^2`` for a fully dense design). Each Gram
    cell sums its pairs in design row order.
    """
    rows, cols, values = problem.rows, problem.cols, problem.values
    m, d = problem.shape
    counts = np.bincount(rows, minlength=m)
    # Entries are in row-major order, so each row's entries are adjacent:
    # pair every entry with each entry of its own row, itself included.
    per_entry = counts[rows]
    left = np.repeat(np.arange(rows.size), per_entry)
    within = np.arange(left.size) - np.repeat(np.cumsum(per_entry) - per_entry, per_entry)
    right = (np.cumsum(counts) - counts)[rows[left]] + within
    gram_rows, gram_cols, cell = coalesce(cols[left], cols[right], (d, d))
    return gram_rows, gram_cols, np.bincount(cell, values[left] * values[right], gram_rows.size)


# Relative size of the dead zone of h_j within which a coordinate does not move.
_ROUNDING = 4.0 * np.finfo(float).eps


def solve(
    problem: ConstrainedLsqProblem,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    start: np.ndarray | None = None,
) -> SolverReport:
    """Minimize the objective over the box with cyclic coordinate descent.

    ``G = X^T X`` and ``c = X^T (t - b)`` are formed once from the
    design's entries, ``G`` as triplets. Coordinate ``j`` then takes
    ``h_j = G_j . v - c_j + lam v_j`` (half the partial derivative) over
    the nonzeros of row ``j`` of ``G`` and steps to
    ``clip(v_j - h_j / (G_jj + lam))``, its exact minimizer within its
    interval. That step lowers the objective by exactly
    ``-(2 step h_j + step^2 (G_jj + lam))``; ``objective_trace`` is the
    starting objective less these decreases, sweep by sweep.
    A coordinate whose ``|h_j|`` is within the dead zone
    ``4 eps ((||G_j|| + lam) ||v|| + |c_j|)`` stays put: near the
    optimum such an ``h_j`` is rounding noise, and following it would
    move ``v_j`` back and forth by an ulp or two for ever. The zone is
    not a worst-case bound on the rounding of ``G_j . v``, which grows
    with the nonzeros of row ``j``; on the learner's 6,000 x 1,000 word
    problems it lets an unreachable ``tol`` stall in about 20 sweeps.

    After each sweep the KKT residual of the Gram gradient
    ``2 (G v + lam v - c)`` is checked; once it is within ``tol`` the
    residual-form :func:`kkt_residual` confirms it, and the solve stops
    with ``stop_reason="kkt"``. A sweep whose summed decrease is not
    positive (no coordinate moved) stops it as ``"stalled"``, and
    running out of ``max_iter`` sweeps as ``"max_iter"``. ``converged``
    is the residual-form ``kkt_residual <= tol`` at the returned point,
    whatever the stop reason.

    A coordinate whose design column is entirely zero has a lam-driven
    update: for lam > 0 it moves to the feasible point nearest zero, and
    for lam == 0 it is left at its projected starting value.
    """
    if not tol > 0:
        raise BoxLsqError("tol must be > 0")
    lam, d = problem.lam, problem.n_coords
    v = np.zeros(d) if start is None else np.asarray(start, dtype=float)
    v = np.clip(v, problem.lower, problem.upper)
    gram_rows, gram_cols, gram_values = _gram(problem)
    gap = problem.targets - problem.bias
    c = np.bincount(problem.cols, problem.values * gap[problem.rows], d)
    denom = np.bincount(gram_rows, np.where(gram_rows == gram_cols, gram_values, 0.0), d) + lam
    row_norms = np.sqrt(np.bincount(gram_rows, gram_values * gram_values, d)) + lam
    # A coordinate with denom == 0 (zero column, lam == 0) cannot move
    # the objective; it stays where projection put it.
    active = np.flatnonzero(denom > 0.0).tolist()
    coupled: list[list[tuple[int, float]]] = [[] for _ in range(d)]
    for j, k, g in zip(gram_rows.tolist(), gram_cols.tolist(), gram_values.tolist()):
        coupled[j].append((k, g))
    lower, upper = problem.lower.tolist(), problem.upper.tolist()
    c_list, denom_list, abs_c = c.tolist(), denom.tolist(), np.abs(c)

    obj = objective(problem, v)
    trace = [obj]
    stop_reason = "max_iter"
    sweeps = 0
    x = v.tolist()
    for sweeps in range(1, max_iter + 1):
        decrease = 0.0
        noise = (_ROUNDING * (row_norms * math.sqrt(v @ v) + abs_c)).tolist()
        for j in active:
            x_j = x[j]
            h = lam * x_j - c_list[j]
            for k, g in coupled[j]:
                h += g * x[k]
            if abs(h) <= noise[j]:
                continue
            x_new = min(max(x_j - h / denom_list[j], lower[j]), upper[j])
            if x_new != x_j:
                x[j] = x_new
                step = x_new - x_j
                decrease -= step * (2.0 * h + step * denom_list[j])
        v = np.array(x)
        obj -= decrease
        trace.append(obj)
        grad = 2.0 * (np.bincount(gram_rows, gram_values * v[gram_cols], d) + lam * v - c)
        if _kkt_from_gradient(problem, v, grad) <= tol and (kkt := kkt_residual(problem, v)) <= tol:
            stop_reason = "kkt"
            break
        if decrease <= 0.0:
            stop_reason = "stalled"
            break
    if stop_reason != "kkt":
        kkt = kkt_residual(problem, v)
    return SolverReport(v, objective(problem, v), sweeps, kkt, kkt <= tol, stop_reason, trace)
