"""Box-constrained regularized least squares via coordinate descent.

Solves problems of the form

    minimize  ||X v + b - t||^2 + lam * ||v||^2
    subject to  lo_d <= v_d <= hi_d  for every coordinate d,

where each interval endpoint may be infinite. The objective is smooth
and convex (strongly convex for lam > 0), and the feasible set is a box,
so cyclic coordinate descent with exact per-coordinate minimization
clipped to the interval converges to the global minimum. Optimality is
certified through the first-order (KKT) residual for box constraints.
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
    """Result of a solve: the point found plus optimality evidence."""

    solution: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float
    converged: bool
    objective_trace: list[float] = field(default_factory=list)


def objective(problem: ConstrainedLsqProblem, v: np.ndarray) -> float:
    """Exact objective value ``||Xv + b - t||^2 + lam ||v||^2``."""
    v = np.asarray(v, dtype=float)
    if v.shape != (problem.n_coords,):
        raise BoxLsqError(f"v must have shape ({problem.n_coords},), got {v.shape}")
    residual = problem.design @ v + problem.bias - problem.targets
    return float(residual @ residual + problem.lam * (v @ v))


def _gradient(problem: ConstrainedLsqProblem, v: np.ndarray) -> np.ndarray:
    residual = problem.design @ v + problem.bias - problem.targets
    return 2.0 * (problem.design.T @ residual) + 2.0 * problem.lam * v


def kkt_residual(problem: ConstrainedLsqProblem, v: np.ndarray) -> float:
    """First-order optimality violation of a feasible point.

    Per coordinate: the absolute gradient when strictly interior, the
    negative part of the gradient at the lower bound, and the positive
    part at the upper bound. Zero exactly at the constrained optimum.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (problem.n_coords,):
        raise BoxLsqError(f"v must have shape ({problem.n_coords},), got {v.shape}")
    feas_tol = 1e-12
    if np.any(v < problem.lower - feas_tol) or np.any(v > problem.upper + feas_tol):
        raise BoxLsqError("v is infeasible for the box constraints")
    grad = _gradient(problem, v)
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


def _project(v: np.ndarray, problem: ConstrainedLsqProblem) -> np.ndarray:
    return np.clip(v, problem.lower, problem.upper)


def solve(
    problem: ConstrainedLsqProblem,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    start: np.ndarray | None = None,
) -> SolverReport:
    """Minimize the objective over the box with cyclic coordinate descent.

    Each sweep minimizes the objective exactly along every coordinate in
    a fixed order and clips the update to its interval, so the objective
    never increases between sweeps. Convergence is declared when the KKT
    residual drops to ``tol``. A sweep that fails to decrease the
    objective at all ends the loop early without claiming convergence,
    as does exhausting ``max_iter`` sweeps.

    A coordinate whose design column is entirely zero has a lam-driven
    update: for lam > 0 it moves to the feasible point nearest zero, and
    for lam == 0 it is left at its projected starting value.
    """
    if not tol > 0:
        raise BoxLsqError("tol must be > 0")
    X = problem.design
    d = problem.n_coords
    if start is None:
        v = _project(np.zeros(d), problem)
    else:
        v = _project(np.asarray(start, dtype=float).copy(), problem)
    col_sq = np.einsum("md,md->d", X, X)
    denom = col_sq + problem.lam
    residual = X @ v + problem.bias - problem.targets

    obj = float(residual @ residual + problem.lam * (v @ v))
    trace = [obj]
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        for j in range(d):
            col = X[:, j]
            if denom[j] > 0.0:
                partial = residual - col * v[j]
                v_new = -(col @ partial) / denom[j]
                v_new = min(max(v_new, problem.lower[j]), problem.upper[j])
                residual = partial + col * v_new
                v[j] = v_new
            else:
                # col_sq == 0 and lam == 0: the coordinate cannot move
                # the objective, keep it where projection put it.
                pass
        prev_obj = obj
        obj = float(residual @ residual + problem.lam * (v @ v))
        trace.append(obj)
        kkt = kkt_residual(problem, v)
        if kkt <= tol:
            converged = True
            break
        if prev_obj - obj <= 0.0:
            # Numerically stalled below the KKT target; stop honestly.
            break
    kkt = kkt_residual(problem, v)
    return SolverReport(
        solution=v,
        objective=obj,
        iterations=sweeps,
        kkt_residual=kkt,
        converged=converged,
        objective_trace=trace,
    )

