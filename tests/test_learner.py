from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import explicit_learner_problems
from sentiscore.boxlsq import solve
from sentiscore.learner import (
    LearnerError,
    LearningConfig,
    build_adverb_problem,
    build_word_problem,
    index_occurrences,
    train_iterative,
)
from sentiscore.lexicon import LABELS, Lexicon, make_mention
from sentiscore.synthetic import CorpusConfig, coarse_seed_lexicon, generate_corpus
from sentiscore.lexicon import prepare_mentions


def mention(text, label, lexicon, target):
    return make_mention(text, label, lexicon, target_score=target)


def adverb_problem(mentions, lexicon, config=LearningConfig()):
    index = index_occurrences(mentions)
    _, word_scores = index.scores(lexicon)
    return index, build_adverb_problem(index, word_scores, config)


def word_problem(mentions, lexicon, config=LearningConfig()):
    index = index_occurrences(mentions)
    return index, build_word_problem(index, *index.scores(lexicon), config)


@pytest.fixture
def tiny_lexicon():
    return Lexicon({"good": 1.0, "awful": -1.0}, {"very": 1.0})


class TestProblemBuilders:
    def test_adverb_problem_coefficients_and_bias(self, tiny_lexicon):
        mentions = [
            mention("good and very good", "positive", tiny_lexicon, 2.5),
        ]
        _, problem = adverb_problem(mentions, tiny_lexicon)
        # one column for "very": coefficient is the paired word's score,
        # bias collects the unpaired occurrence.
        assert problem.design.shape == (1, 1)
        assert problem.design[0, 0] == 1.0
        assert problem.bias[0] == 1.0
        assert problem.targets[0] == 2.5
        assert problem.lower[0] == 0.0
        assert problem.upper[0] == np.inf

    def test_word_problem_scales_by_adverb_score(self, tiny_lexicon):
        lex = tiny_lexicon.replace_scores(adverb_scores={"very": 1.5})
        mentions = [mention("very good", "positive", lex, 1.5)]
        index, problem = word_problem(mentions, lex)
        assert index.words == ["good"]
        assert problem.design[0, 0] == 1.5
        assert problem.bias[0] == 0.0

    def test_word_problem_sign_bounds(self, tiny_lexicon):
        config = LearningConfig(epsilon_margin=1e-6)
        mentions = [
            mention("good and awful", "neutral", tiny_lexicon, 0.0),
        ]
        index, problem = word_problem(mentions, tiny_lexicon, config)
        lower = dict(zip(index.words, problem.lower))
        upper = dict(zip(index.words, problem.upper))
        assert lower["good"] == config.epsilon_margin
        assert upper["good"] == np.inf
        assert lower["awful"] == -np.inf
        assert upper["awful"] == -config.epsilon_margin

    def test_adverb_problem_without_modifiers_has_no_columns(self, tiny_lexicon):
        # Its solve leaves nothing to move: the objective is ||b - t||^2.
        mentions = [mention("good", "positive", tiny_lexicon, 1.5)]
        _, problem = adverb_problem(mentions, tiny_lexicon)
        assert problem.design.shape == (1, 0)
        assert problem.bias.tolist() == [1.0]
        report = solve(problem)
        assert (report.stop_reason, report.iterations, report.objective) == ("kkt", 1, 0.25)


class TestTrainIterative:
    def test_recovers_exact_scores_on_consistent_data(self, tiny_lexicon):
        # "good" appears bare with target 1 and modified with target 1.5,
        # so the modifier must land at 1.5 and the word at 1.
        mentions = [
            mention("it is good", "positive", tiny_lexicon, 1.0),
            mention("it is very good", "positive", tiny_lexicon, 1.5),
        ]
        config = LearningConfig(max_outer_iterations=10, lam=1e-9)
        trace = train_iterative(mentions, tiny_lexicon, config)
        assert trace.lexicon.adverb_score("very") == pytest.approx(1.5, abs=1e-6)
        assert trace.lexicon.word_score("good") == pytest.approx(1.0, abs=1e-6)
        assert trace.converged

    def test_positive_word_cannot_cross_zero(self, tiny_lexicon):
        # Targets push "good" negative; the sign constraint pins it at
        # the epsilon margin instead.
        mentions = [
            mention("good", "negative", tiny_lexicon, -1.0),
            mention("good stuff", "negative", tiny_lexicon, -1.0),
        ]
        config = LearningConfig(max_outer_iterations=5, lam=1e-9)
        trace = train_iterative(mentions, tiny_lexicon, config)
        score = trace.lexicon.word_score("good")
        assert score == pytest.approx(config.epsilon_margin)
        assert trace.lexicon.polarity("good") == "positive"

    def test_adverb_cannot_go_negative(self, tiny_lexicon):
        # The pair target has opposite sign to the word, which would
        # want a negative modifier; the bound pins it at zero.
        mentions = [
            mention("good", "positive", tiny_lexicon, 1.0),
            mention("very good", "negative", tiny_lexicon, -2.0),
        ]
        trace = train_iterative(
            mentions, tiny_lexicon, LearningConfig(max_outer_iterations=5, lam=1e-9)
        )
        assert trace.lexicon.adverb_score("very") == 0.0

    def test_unobserved_terms_keep_seed_scores(self):
        lexicon = Lexicon(
            {"good": 0.5, "spare": 1.0, "awful": -0.5},
            {"very": 1.0, "unused": 0.7},
        )
        mentions = [
            mention("very good", "positive", lexicon, 0.9),
            mention("awful", "negative", lexicon, -0.4),
        ]
        trace = train_iterative(
            mentions, lexicon, LearningConfig(max_outer_iterations=3)
        )
        assert trace.lexicon.word_score("spare") == 1.0
        assert trace.lexicon.adverb_score("unused") == 0.7

    def test_corpus_without_adverbs_still_learns_words(self):
        lexicon = Lexicon({"good": 1.0, "awful": -1.0}, {})
        mentions = [
            mention("good", "positive", lexicon, 0.7),
            mention("good good", "positive", lexicon, 1.4),
            mention("awful", "negative", lexicon, -1.2),
        ]
        trace = train_iterative(
            mentions, lexicon, LearningConfig(max_outer_iterations=5, lam=1e-9)
        )
        assert trace.lexicon.word_score("good") == pytest.approx(0.7, abs=1e-4)
        assert trace.lexicon.word_score("awful") == pytest.approx(-1.2, abs=1e-4)

    def test_combined_objective_non_increasing(self):
        config = CorpusConfig(size=160, word_count=8, adverb_count=3, rng_seed=11)
        records, truth = generate_corpus(config)
        seed = coarse_seed_lexicon(truth)
        mentions = prepare_mentions(records, seed)
        trace = train_iterative(
            mentions, seed, LearningConfig(max_outer_iterations=12, lam=0.01)
        )
        combined = [a + w for a, w in trace.iterations]
        assert all(b <= a + 1e-9 for a, b in zip(combined, combined[1:]))

    def test_joint_objective_non_increasing(self):
        # Each half-step minimizes ||r||^2 + lam (||a||^2 + ||w||^2) over
        # its own block exactly, so the joint objective cannot rise from
        # one outer iteration to the next. A run capped at k iterations
        # ends where iteration k of a longer run does.
        config = CorpusConfig(size=300, word_count=12, adverb_count=4, noise_rate=0.2, rng_seed=3)
        records, truth = generate_corpus(config)
        seed = coarse_seed_lexicon(truth)
        mentions = prepare_mentions(records, seed)
        index = index_occurrences(mentions)
        adverbs, words = index.adverbs, index.words
        lam = 0.01

        def joint(lexicon):
            r = np.array([m.score(lexicon) - m.target_score for m in mentions])
            a = np.array([lexicon.adverb_score(t) for t in adverbs])
            w = np.array([lexicon.word_score(t) for t in words])
            return float(r @ r + lam * (a @ a + w @ w))

        values = [
            joint(train_iterative(mentions, seed, LearningConfig(max_outer_iterations=k, lam=lam)).lexicon)
            for k in range(1, 9)
        ]
        assert values[-1] < values[0]
        assert all(b <= a + 1e-9 * a for a, b in zip(values, values[1:]))

    def test_learned_scores_respect_polarity_on_noisy_data(self):
        config = CorpusConfig(
            size=200, word_count=10, adverb_count=3, noise_rate=0.2, rng_seed=5
        )
        records, truth = generate_corpus(config)
        seed = coarse_seed_lexicon(truth)
        mentions = prepare_mentions(records, seed)
        trace = train_iterative(mentions, seed, LearningConfig(lam=0.1))
        learned = trace.lexicon
        for term in learned.word_terms():
            if learned.polarity(term) == "positive":
                assert learned.word_score(term) > 0
            else:
                assert learned.word_score(term) < 0
        for term in learned.adverb_terms():
            assert learned.adverb_score(term) >= 0

    def test_empty_corpus_rejected(self, tiny_lexicon):
        with pytest.raises(LearnerError):
            train_iterative([], tiny_lexicon, LearningConfig())

    def test_corpus_without_sentiment_words_rejected(self, tiny_lexicon):
        mentions = [mention("nothing to see", "neutral", tiny_lexicon, 0.0)]
        with pytest.raises(LearnerError):
            train_iterative(mentions, tiny_lexicon, LearningConfig())

    def test_trace_lines_format(self, tiny_lexicon):
        mentions = [
            mention("it is good", "positive", tiny_lexicon, 1.0),
            mention("it is very good", "positive", tiny_lexicon, 1.5),
        ]
        trace = train_iterative(
            mentions, tiny_lexicon, LearningConfig(max_outer_iterations=4)
        )
        lines = trace.trace_lines()
        assert len(lines) == len(trace.iterations)
        first = lines[0].split("\t")
        assert first[0] == "1"
        float(first[1])
        float(first[2])


class TestObserved:
    def test_observed_terms_sorted_and_deduplicated(self, tiny_lexicon):
        mentions = [
            mention("very good and very good", "positive", tiny_lexicon, 2.0),
            mention("awful", "negative", tiny_lexicon, -1.0),
        ]
        index = index_occurrences(mentions)
        assert index.adverbs == ["very"]
        assert index.words == ["awful", "good"]
        assert index.rows.tolist() == [0, 0, 1]
        assert index.adverb_cols.tolist() == [0, 0, -1]
        assert index.word_cols.tolist() == [1, 1, 0]


# Random corpora over a small vocabulary, checked against the one
# pair at a time construction kept in tests/helpers.py.
TOKENS = ("good", "fine", "bad", "awful", "very", "quite", "the", "TARGET", "not")
SCORES = st.floats(0.05, 3.0) | st.sampled_from([0.1, 0.2, 0.1 + 0.2, 1.0, 1e-300, 1e300])


@st.composite
def scored_corpora(draw):
    words = {
        term: draw(SCORES) * sign
        for term, sign in (("good", 1.0), ("fine", 1.0), ("bad", -1.0), ("awful", -1.0))
    }
    adverbs = {term: draw(SCORES | st.just(0.0)) for term in ("very", "quite")}
    lexicon = Lexicon(words, adverbs)
    mentions = [
        make_mention(
            " ".join(draw(st.lists(st.sampled_from(TOKENS), max_size=7))),
            draw(st.sampled_from(LABELS)),
            lexicon,
            target_score=draw(st.floats(-3.0, 3.0)),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    return mentions, lexicon


class TestAgainstExplicitConstruction:
    @settings(max_examples=200, deadline=None)
    @given(corpus=scored_corpora(), lam=st.sampled_from([0.0, 0.01, 0.1]))
    def test_designs_bias_and_targets_equal_pair_by_pair_sums(self, corpus, lam):
        mentions, lexicon = corpus
        config = LearningConfig(lam=lam)
        expected = explicit_learner_problems(mentions, lexicon)
        if not expected.words:
            with pytest.raises(LearnerError):
                index_occurrences(mentions)
            return
        index = index_occurrences(mentions)
        adverb_scores, word_scores = index.scores(lexicon)
        assert (index.adverbs, index.words) == (expected.adverbs, expected.words)
        assert np.array_equal(index.targets, expected.targets)
        problem = build_adverb_problem(index, word_scores, config)
        assert np.array_equal(problem.design, expected.adverb_design)
        assert np.array_equal(problem.bias, expected.bias)
        assert np.array_equal(problem.targets, expected.targets)
        problem = build_word_problem(index, adverb_scores, word_scores, config)
        assert np.array_equal(problem.design, expected.word_design)
        assert np.array_equal(problem.bias, np.zeros(len(mentions)))
        assert np.array_equal(problem.targets, expected.targets)
        assert np.array_equal(problem.lower > 0, word_scores > 0)
        assert np.array_equal(problem.upper < 0, word_scores < 0)


class TestConfigValidation:
    def test_bad_iterations(self):
        with pytest.raises(LearnerError):
            LearningConfig(max_outer_iterations=0)

    def test_bad_lam(self):
        with pytest.raises(LearnerError):
            LearningConfig(lam=-1.0)

    def test_bad_margin(self):
        with pytest.raises(LearnerError):
            LearningConfig(epsilon_margin=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lam", float("nan")),
            ("lam", float("inf")),
            ("solver_tol", 0.0),
            ("solver_tol", -1e-8),
            ("solver_tol", float("nan")),
            ("solver_tol", float("inf")),
            ("epsilon_margin", float("inf")),
            ("solver_max_iter", 0),
            ("solver_max_iter", -5),
        ],
    )
    def test_bad_fields_named(self, field, value):
        with pytest.raises(LearnerError, match=f"^{field} must be"):
            LearningConfig(**{field: value})
