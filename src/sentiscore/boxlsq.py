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
so once ``X^T X`` and ``c`` are formed a coordinate update costs O(D)
rather than O(M). Optimality is certified through the first-order (KKT)
residual for box constraints, evaluated in residual form at the
returned point.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class BoxLsqError(ValueError):
    """Raised on dimension mismatches or invalid problem data."""


@dataclass(frozen=True)
class ConstrainedLsqProblem:
    """Problem data for the box-constrained least-squares objective.

    ``design`` has one row per observation and one column per unknown;
    ``bias`` and ``targets`` are per-observation vectors; ``lower`` and
    ``upper`` are per-coordinate interval endpoints (may be ``-inf`` /
    ``inf``).
    """

    design: np.ndarray
    bias: np.ndarray
    targets: np.ndarray
    lam: float
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        design = np.asarray(self.design, dtype=float)
        bias = np.asarray(self.bias, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if design.ndim != 2:
            raise BoxLsqError("design must be a 2-D matrix")
        m, d = design.shape
        if bias.shape != (m,) or targets.shape != (m,):
            raise BoxLsqError("bias and targets must match the design row count")
        if lower.shape != (d,) or upper.shape != (d,):
            raise BoxLsqError("bounds must match the design column count")
        if not self.lam >= 0:
            raise BoxLsqError("lam must be >= 0")
        if np.any(lower > upper):
            raise BoxLsqError("every lower bound must be <= its upper bound")
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_coords(self) -> int:
        return self.design.shape[1]


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


def objective(problem: ConstrainedLsqProblem, v: np.ndarray) -> float:
    """Exact objective value ``||Xv + b - t||^2 + lam ||v||^2``."""
    v = np.asarray(v, dtype=float)
    if v.shape != (problem.n_coords,):
        raise BoxLsqError(f"v must have shape ({problem.n_coords},), got {v.shape}")
    residual = problem.design @ v + problem.bias - problem.targets
    return float(residual @ residual + problem.lam * (v @ v))


def _kkt_from_gradient(problem: ConstrainedLsqProblem, v: np.ndarray, grad: np.ndarray) -> float:
    at_lower = v <= problem.lower
    at_upper = v >= problem.upper
    per_coord = np.abs(grad)
    per_coord = np.where(at_lower, np.maximum(0.0, -grad), per_coord)
    per_coord = np.where(at_upper, np.maximum(0.0, grad), per_coord)
    # A coordinate pinned on both sides is trivially optimal.
    per_coord = np.where(at_lower & at_upper, 0.0, per_coord)
    if per_coord.size == 0:
        return 0.0
    return float(np.max(per_coord))


def kkt_residual(problem: ConstrainedLsqProblem, v: np.ndarray) -> float:
    """First-order optimality violation of a feasible point.

    Per coordinate: the absolute gradient when strictly interior, the
    negative part of the gradient at the lower bound, and the positive
    part at the upper bound. Zero exactly at the constrained optimum.
    The gradient is taken in residual form, ``2 X^T (Xv + b - t) + 2 lam v``.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (problem.n_coords,):
        raise BoxLsqError(f"v must have shape ({problem.n_coords},), got {v.shape}")
    feas_tol = 1e-12
    if np.any(v < problem.lower - feas_tol) or np.any(v > problem.upper + feas_tol):
        raise BoxLsqError("v is infeasible for the box constraints")
    residual = problem.design @ v + problem.bias - problem.targets
    grad = 2.0 * (problem.design.T @ residual) + 2.0 * problem.lam * v
    return _kkt_from_gradient(problem, v, grad)


def _gram(X: np.ndarray) -> np.ndarray:
    """``X^T X``, summed over each row's pairs of nonzeros.

    The learner's designs hold a few nonzeros per row, so the pair sum
    costs about one pass over ``X``, where a dense product costs
    ``M D^2 / 2`` multiplies. Its work and memory grow with the sum of
    squared per-row nonzero counts, ``M D^2`` for a fully dense design.
    """
    m, d = X.shape
    flat = np.flatnonzero(X != 0)
    rows, cols = np.divmod(flat, d)
    counts = np.bincount(rows, minlength=m)
    values = X[rows, cols]
    # Entries are in row-major order, so each row's entries are adjacent:
    # pair every entry with each entry of its own row, itself included.
    per_entry = counts[rows]
    left = np.repeat(np.arange(flat.size), per_entry)
    within = np.arange(left.size) - np.repeat(np.cumsum(per_entry) - per_entry, per_entry)
    right = (np.cumsum(counts) - counts)[rows[left]] + within
    return np.bincount(
        cols[left] * d + cols[right], weights=values[left] * values[right], minlength=d * d
    ).reshape(d, d)


# Relative size of the dead zone of h_j within which a coordinate does not move.
_ROUNDING = 4.0 * np.finfo(float).eps


def _project(v: np.ndarray, problem: ConstrainedLsqProblem) -> np.ndarray:
    return np.clip(v, problem.lower, problem.upper)


def solve(
    problem: ConstrainedLsqProblem,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    start: np.ndarray | None = None,
) -> SolverReport:
    """Minimize the objective over the box with cyclic coordinate descent.

    ``G = X^T X`` and ``c = X^T (t - b)`` are formed once. Coordinate
    ``j`` then takes ``h_j = G_j . v - c_j + lam v_j`` (half the partial
    derivative) and steps to ``clip(v_j - h_j / (G_jj + lam))``, its exact
    minimizer within its interval. That step lowers the objective by
    exactly ``-(2 step h_j + step^2 (G_jj + lam))``; ``objective_trace``
    is the starting objective less these decreases, sweep by sweep.
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
    X = problem.design
    lam = problem.lam
    if start is None:
        v = _project(np.zeros(problem.n_coords), problem)
    else:
        v = _project(np.asarray(start, dtype=float).copy(), problem)
    gram = _gram(X)
    c = X.T @ (problem.targets - problem.bias)
    denom = np.diagonal(gram) + lam
    row_norms = np.linalg.norm(gram, axis=1) + lam
    # A coordinate with denom == 0 (zero column, lam == 0) cannot move
    # the objective; it stays where projection put it.
    active = np.flatnonzero(denom > 0.0).tolist()
    rows = list(gram)
    lower, upper = problem.lower.tolist(), problem.upper.tolist()
    c_list, denom_list = c.tolist(), denom.tolist()

    obj = objective(problem, v)
    trace = [obj]
    stop_reason = "max_iter"
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        decrease = 0.0
        noise = (_ROUNDING * (row_norms * np.linalg.norm(v) + np.abs(c))).tolist()
        for j in active:
            v_j = v.item(j)
            h = float(rows[j] @ v) - c_list[j] + lam * v_j
            if abs(h) <= noise[j]:
                continue
            v_new = min(max(v_j - h / denom_list[j], lower[j]), upper[j])
            if v_new != v_j:
                v[j] = v_new
                step = v_new - v_j
                decrease -= step * (2.0 * h + step * denom_list[j])
        obj -= decrease
        trace.append(obj)
        grad = 2.0 * (gram @ v + lam * v - c)
        if _kkt_from_gradient(problem, v, grad) <= tol and (kkt := kkt_residual(problem, v)) <= tol:
            stop_reason = "kkt"
            break
        if decrease <= 0.0:
            stop_reason = "stalled"
            break
    if stop_reason != "kkt":
        kkt = kkt_residual(problem, v)
    return SolverReport(
        solution=v,
        objective=objective(problem, v),
        iterations=sweeps,
        kkt_residual=kkt,
        converged=kkt <= tol,
        stop_reason=stop_reason,
        objective_trace=trace,
    )
