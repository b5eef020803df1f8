from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from helpers import from_dense, grid_oracle, ls_center, residual_form_solve
from sentiscore.boxlsq import (
    BoxLsqError,
    ConstrainedLsqProblem,
    _gram,
    kkt_residual,
    objective,
    solve,
)
from sentiscore.learner import LearningConfig, build_word_problem, index_occurrences
from sentiscore.lexicon import prepare_mentions
from sentiscore.synthetic import CorpusConfig, coarse_seed_lexicon, generate_corpus


def random_problem(rng: np.random.Generator, d: int | None = None) -> ConstrainedLsqProblem:
    d = d if d is not None else int(rng.integers(1, 4))
    m = int(rng.integers(d, d + 6))
    design = rng.normal(size=(m, d))
    bias = rng.normal(size=m)
    targets = rng.normal(size=m, scale=2.0)
    lam = float(rng.choice([0.0, 0.1, 1.0]))
    lower = np.full(d, -np.inf)
    upper = np.full(d, np.inf)
    for j in range(d):
        kind = rng.integers(4)
        if kind == 1:
            lower[j] = 0.0
        elif kind == 2:
            upper[j] = 0.0
        elif kind == 3:
            lo = float(rng.normal())
            lower[j], upper[j] = lo, lo + float(rng.uniform(0.1, 2.0))
    return from_dense(design, bias, targets, lam, lower, upper)


def random_sparse_problem(rng: np.random.Generator) -> ConstrainedLsqProblem:
    """COO triplets in no particular order, with repeated cells and some
    columns that no entry reaches; bounds and lam as in random_problem."""
    d = int(rng.integers(2, 7))
    m = int(rng.integers(d, 3 * d))
    dense = random_problem(rng, d)
    count = int(rng.integers(1, 4 * m))
    reached = rng.choice(d, size=max(1, d - int(rng.integers(0, 3))), replace=False)
    rows = rng.integers(0, m, size=count)
    cols = rng.choice(reached, size=count)
    values = rng.normal(size=count)
    return ConstrainedLsqProblem(
        rows, cols, values, (m, d), rng.normal(size=m), rng.normal(size=m, scale=2.0),
        dense.lam, dense.lower, dense.upper,
    )


class TestGolden:
    def test_identity_design_with_ridge_and_nonnegativity(self):
        # minimize (v1-1)^2 + (v2+1)^2 + 0.5 ||v||^2 over v >= 0:
        # the first coordinate settles at 2/3, the second pins at 0,
        # for an objective of 4/3.
        problem = from_dense(
            design=np.eye(2),
            bias=np.zeros(2),
            targets=np.array([1.0, -1.0]),
            lam=0.5,
            lower=np.zeros(2),
            upper=np.full(2, np.inf),
        )
        report = solve(problem)
        npt.assert_allclose(report.solution, [2.0 / 3.0, 0.0], atol=1e-10)
        assert report.objective == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert report.converged

    def test_unconstrained_matches_normal_equations(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            d = int(rng.integers(1, 5))
            m = d + int(rng.integers(1, 6))
            problem = from_dense(
                design=rng.normal(size=(m, d)),
                bias=rng.normal(size=m),
                targets=rng.normal(size=m),
                lam=float(rng.uniform(0.01, 1.0)),
                lower=np.full(d, -np.inf),
                upper=np.full(d, np.inf),
            )
            report = solve(problem)
            npt.assert_allclose(report.solution, ls_center(problem), atol=1e-6)


class TestSolveProperties:
    def test_kkt_residual_small_on_random_problems(self):
        # Double precision cannot always push the residual to the 1e-8
        # default on ill-conditioned designs, so solve at the tolerance
        # being asserted.
        rng = np.random.default_rng(0)
        for _ in range(50):
            problem = random_problem(rng)
            report = solve(problem, tol=1e-6)
            assert report.kkt_residual <= 1e-6
            assert report.converged

    def test_solution_always_feasible(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            problem = random_problem(rng)
            report = solve(problem)
            assert np.all(report.solution >= problem.lower - 1e-12)
            assert np.all(report.solution <= problem.upper + 1e-12)

    def test_objective_trace_never_increases(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            problem = random_problem(rng)
            trace = solve(problem).objective_trace
            diffs = np.diff(np.array(trace))
            assert np.all(diffs <= 1e-12)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            problem = random_problem(rng)
            report = solve(problem)
            _, oracle_val = grid_oracle(problem)
            assert report.objective <= oracle_val + 1e-4

    def test_warm_start_at_optimum_stops_fast(self):
        rng = np.random.default_rng(4)
        problem = random_problem(rng, d=3)
        first = solve(problem)
        again = solve(problem, start=first.solution)
        assert again.iterations <= 2
        assert again.objective == pytest.approx(first.objective, rel=1e-9)

    def test_infeasible_start_is_projected(self):
        problem = from_dense(
            design=np.array([[1.0]]),
            bias=np.zeros(1),
            targets=np.array([5.0]),
            lam=0.0,
            lower=np.array([0.0]),
            upper=np.array([1.0]),
        )
        report = solve(problem, start=np.array([99.0]))
        assert report.solution[0] == pytest.approx(1.0)

    def test_binding_upper_bound(self):
        # Unconstrained optimum is 5; the box caps it at 1.
        problem = from_dense(
            design=np.array([[1.0]]),
            bias=np.zeros(1),
            targets=np.array([5.0]),
            lam=0.0,
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
        )
        report = solve(problem)
        assert report.solution[0] == pytest.approx(1.0)
        assert report.kkt_residual <= 1e-8

    def test_zero_column_with_ridge_goes_to_nearest_feasible_zero(self):
        problem = from_dense(
            design=np.array([[1.0, 0.0], [0.0, 0.0]]),
            bias=np.zeros(2),
            targets=np.array([2.0, 0.0]),
            lam=0.1,
            lower=np.array([-np.inf, 0.5]),
            upper=np.array([np.inf, 4.0]),
        )
        report = solve(problem)
        assert report.solution[1] == pytest.approx(0.5)

    def test_both_bounds_equal_pins_coordinate(self):
        problem = from_dense(
            design=np.array([[1.0, 1.0]]),
            bias=np.zeros(1),
            targets=np.array([3.0]),
            lam=0.0,
            lower=np.array([2.0, -np.inf]),
            upper=np.array([2.0, np.inf]),
        )
        report = solve(problem)
        assert report.solution[0] == pytest.approx(2.0)
        assert report.solution[1] == pytest.approx(1.0)
        assert report.kkt_residual <= 1e-8


def word_problem(seed: int, size: int = 400, words: int = 30) -> ConstrainedLsqProblem:
    """A learner word problem: ``size`` mentions coupling ``words`` words."""
    records, truth = generate_corpus(
        CorpusConfig(size=size, word_count=words, adverb_count=4, rng_seed=seed)
    )
    lexicon = coarse_seed_lexicon(truth)
    index = index_occurrences(prepare_mentions(records, lexicon))
    return build_word_problem(index, *index.scores(lexicon), LearningConfig(lam=0.01))


class TestGramForm:
    """The Gram-form solve against the residual-form loop it replaced."""

    @staticmethod
    def check_sweeps_match(problem: ConstrainedLsqProblem) -> None:
        # Both take the same exact clipped coordinate steps, so their
        # iterates agree sweep by sweep up to rounding.
        for sweeps in (1, 2, 3):
            gram = solve(problem, tol=1e-300, max_iter=sweeps)
            oracle = residual_form_solve(problem, tol=1e-300, max_iter=sweeps)
            npt.assert_allclose(gram.solution, oracle.solution, rtol=0.0, atol=1e-9)
            assert gram.stop_reason in ("kkt", "stalled", "max_iter")

    @staticmethod
    def check_report(problem: ConstrainedLsqProblem, tol: float) -> None:
        report = solve(problem, tol=tol)
        assert report.stop_reason in ("kkt", "stalled", "max_iter")
        assert np.all(np.diff(report.objective_trace) <= 1e-12)
        assert len(report.objective_trace) == report.iterations + 1
        # The trace sums exact per-coordinate decreases, so it ends at
        # the exact objective of the returned point.
        assert report.objective_trace[-1] == pytest.approx(report.objective, rel=1e-9, abs=1e-12)
        assert report.objective == objective(problem, report.solution)
        assert report.kkt_residual == kkt_residual(problem, report.solution)
        assert report.converged == (report.kkt_residual <= tol)

    def test_random_problems_match_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            problem = random_problem(rng, d=int(rng.integers(1, 6)))
            self.check_sweeps_match(problem)
            self.check_report(problem, tol=1e-8)

    def test_random_sparse_problems_match_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            problem = random_sparse_problem(rng)
            self.check_sweeps_match(problem)
            self.check_report(problem, tol=1e-8)

    def test_word_problem_matches_oracle(self):
        problem = word_problem(seed=0)
        self.check_sweeps_match(problem)
        self.check_report(problem, tol=1e-8)
        report = solve(problem)
        assert report.stop_reason == "kkt" and report.converged

    def test_converges_where_the_objective_stall_rule_gave_up(self):
        # The residual-form loop stops once two O(M) objective sums stop
        # differing, which happens above the KKT target on some
        # problems. The Gram solve keeps going while its exact sweep
        # decrease is positive and certifies every one of them.
        rng = np.random.default_rng(8)
        oracle_gave_up = 0
        for _ in range(40):
            problem = random_problem(rng, d=int(rng.integers(1, 6)))
            assert solve(problem).converged
            oracle = residual_form_solve(problem)
            oracle_gave_up += oracle.stop_reason == "stalled" and not oracle.converged
        assert oracle_gave_up > 0

    def test_stop_reasons(self):
        problem = word_problem(seed=1)
        capped = solve(problem, max_iter=1)
        assert (capped.stop_reason, capped.iterations, capped.converged) == ("max_iter", 1, False)
        unreachable = solve(problem, tol=1e-300)
        assert unreachable.stop_reason == "stalled"
        assert not unreachable.converged
        assert unreachable.iterations < 10_000
        certified = solve(problem)
        assert certified.stop_reason == "kkt" and certified.converged

    def test_unreachable_tol_stalls_at_lexicon_scale(self):
        # h_j's rounding error grows with the nonzeros of row j of G, so
        # check the rounding dead zone still lets a 6,000 x 1,000 word
        # problem stall rather than run out its sweep budget.
        problem = word_problem(seed=5, size=6000, words=1000)
        assert problem.shape == (6000, 1000)
        report = solve(problem, tol=1e-300)
        assert report.stop_reason == "stalled"
        assert report.iterations < 100
        assert report.kkt_residual < 1e-10


class TestSparseDesign:
    def test_repeated_cells_are_summed_in_input_order(self):
        # 0.1 + 0.2 + 0.3 is 0.6000000000000001 in this order and 0.6 in
        # the reverse one; 1.0, 1e16, -1e16 sum to an exact zero in order.
        rows = np.array([2, 0, 2, 1, 2, 1, 1, 0])
        cols = np.array([1, 2, 1, 0, 1, 0, 0, 0])
        values = np.array([0.1, 5.0, 0.2, 1.0, 0.3, 1e16, -1e16, 0.0])
        problem = ConstrainedLsqProblem(
            rows, cols, values, (3, 3), np.zeros(3), np.zeros(3), 0.0, np.zeros(3), np.ones(3)
        )
        assert problem.rows.tolist() == [0, 2]
        assert problem.cols.tolist() == [2, 1]
        assert problem.values.tolist() == [5.0, 0.1 + 0.2 + 0.3]
        dense = np.bincount(rows * 3 + cols, weights=values, minlength=9).reshape(3, 3)
        assert np.array_equal(problem.design, dense)

    def test_entries_come_out_row_major(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            problem = random_sparse_problem(rng)
            keys = problem.rows * problem.shape[1] + problem.cols
            assert np.all(np.diff(keys) > 0)
            assert np.all(problem.values != 0)

    @pytest.mark.parametrize("row, col", [(-1, 0), (2, 0), (0, -1), (0, 3)])
    def test_entry_outside_the_shape_rejected(self, row, col):
        with pytest.raises(BoxLsqError, match="within the shape"):
            ConstrainedLsqProblem(
                [0, row], [0, col], [1.0, 1.0], (2, 3), np.zeros(2), np.zeros(2), 0.0,
                np.zeros(3), np.ones(3),
            )

    def test_triplets_of_unequal_length_rejected(self):
        with pytest.raises(BoxLsqError, match="one length"):
            ConstrainedLsqProblem(
                [0, 1], [0], [1.0, 1.0], (2, 1), np.zeros(2), np.zeros(2), 0.0, np.zeros(1), np.ones(1)
            )

    def test_problem_without_columns(self):
        # Nothing can move: one sweep certifies the objective ||b - t||^2.
        problem = ConstrainedLsqProblem(
            [], [], [], (2, 0), np.array([1.0, 0.0]), np.array([0.5, 2.0]), 0.1, [], []
        )
        assert problem.design.shape == (2, 0)
        report = solve(problem)
        assert (report.stop_reason, report.iterations, report.objective) == ("kkt", 1, 4.25)
        assert report.solution.shape == (0,)

    def test_from_dense_round_trips(self):
        rng = np.random.default_rng(11)
        design = rng.normal(size=(5, 4)) * (rng.random((5, 4)) < 0.4)
        problem = from_dense(
            design, np.zeros(5), np.zeros(5), 0.0, np.zeros(4), np.ones(4)
        )
        assert problem.shape == (5, 4)
        assert problem.values.size == np.count_nonzero(design)
        assert np.array_equal(problem.design, design)

    def test_gram_matches_dense_product(self):
        rng = np.random.default_rng(12)
        for problem in [random_sparse_problem(rng) for _ in range(30)] + [word_problem(seed=2)]:
            rows, cols, values = _gram(problem)
            d = problem.n_coords
            keys = rows * d + cols
            assert np.all(np.diff(keys) > 0)
            gram = np.zeros((d, d))
            gram[rows, cols] = values
            X = problem.design
            npt.assert_allclose(gram, X.T @ X, rtol=1e-12, atol=1e-12)
            assert np.array_equal(gram != 0, (X != 0).T.astype(int) @ (X != 0) > 0)


class TestKktResidual:
    def test_zero_at_unconstrained_optimum(self):
        rng = np.random.default_rng(5)
        d, m = 3, 6
        problem = from_dense(
            design=rng.normal(size=(m, d)),
            bias=rng.normal(size=m),
            targets=rng.normal(size=m),
            lam=0.3,
            lower=np.full(d, -np.inf),
            upper=np.full(d, np.inf),
        )
        assert kkt_residual(problem, ls_center(problem)) <= 1e-8

    def test_positive_away_from_optimum(self):
        problem = from_dense(
            design=np.eye(2),
            bias=np.zeros(2),
            targets=np.array([1.0, 1.0]),
            lam=0.0,
            lower=np.full(2, -np.inf),
            upper=np.full(2, np.inf),
        )
        assert kkt_residual(problem, np.zeros(2)) == pytest.approx(2.0)

    def test_bound_with_inward_gradient_is_optimal(self):
        # Gradient pushes below the lower bound, so sitting on the bound
        # is first-order optimal.
        problem = from_dense(
            design=np.array([[1.0]]),
            bias=np.zeros(1),
            targets=np.array([-3.0]),
            lam=0.0,
            lower=np.array([0.0]),
            upper=np.array([np.inf]),
        )
        assert kkt_residual(problem, np.array([0.0])) == 0.0

    def test_infeasible_point_rejected(self):
        problem = from_dense(
            design=np.eye(1),
            bias=np.zeros(1),
            targets=np.zeros(1),
            lam=0.0,
            lower=np.array([0.0]),
            upper=np.array([1.0]),
        )
        with pytest.raises(BoxLsqError, match="infeasible"):
            kkt_residual(problem, np.array([2.0]))


class TestValidation:
    def test_design_must_be_2d(self):
        with pytest.raises(BoxLsqError):
            from_dense(
                design=np.zeros(3),
                bias=np.zeros(3),
                targets=np.zeros(3),
                lam=0.0,
                lower=np.zeros(1),
                upper=np.ones(1),
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(BoxLsqError):
            from_dense(
                design=np.zeros((3, 2)),
                bias=np.zeros(2),
                targets=np.zeros(3),
                lam=0.0,
                lower=np.zeros(2),
                upper=np.ones(2),
            )

    def test_crossed_bounds_rejected(self):
        with pytest.raises(BoxLsqError):
            from_dense(
                design=np.zeros((1, 1)),
                bias=np.zeros(1),
                targets=np.zeros(1),
                lam=0.0,
                lower=np.array([1.0]),
                upper=np.array([0.0]),
            )

    def test_negative_lam_rejected(self):
        with pytest.raises(BoxLsqError):
            from_dense(
                design=np.zeros((1, 1)),
                bias=np.zeros(1),
                targets=np.zeros(1),
                lam=-0.1,
                lower=np.zeros(1),
                upper=np.ones(1),
            )

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lam_rejected(self, lam):
        with pytest.raises(BoxLsqError, match="lam must be finite"):
            from_dense(
                design=np.zeros((1, 1)),
                bias=np.zeros(1),
                targets=np.zeros(1),
                lam=lam,
                lower=np.zeros(1),
                upper=np.ones(1),
            )

    def test_objective_on_wrong_shape_rejected(self):
        problem = from_dense(
            design=np.eye(2),
            bias=np.zeros(2),
            targets=np.zeros(2),
            lam=0.0,
            lower=np.full(2, -np.inf),
            upper=np.full(2, np.inf),
        )
        with pytest.raises(BoxLsqError):
            objective(problem, np.zeros(3))
