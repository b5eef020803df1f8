"""End-to-end command-line behavior: pipelines, formats, exit codes."""
from __future__ import annotations

import configparser
import io
import re
import traceback
import warnings

import pytest

from sentiscore import cli
from sentiscore.augment import AugmentConfig
from sentiscore.cli import _build_parser, _config, _parse_mix, main
from sentiscore.cnn import CnnConfig
from sentiscore.evaluate import ExperimentConfig, config_to_text
from sentiscore.learner import LearningConfig
from sentiscore.lexicon import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    load_lexicon,
    load_mention_records,
    save_lexicon,
)
from sentiscore.synthetic import CorpusConfig, coarse_seed_lexicon


def gen_corpus(tmp_path, name="corpus.tsv", **flags):
    corpus = tmp_path / name
    lexicon = tmp_path / f"{name}.lexicon"
    args = [
        "gen-corpus",
        "--out",
        str(corpus),
        "--lexicon-out",
        str(lexicon),
        "--size",
        str(flags.pop("size", 80)),
        "--words",
        str(flags.pop("words", 6)),
        "--adverbs",
        str(flags.pop("adverbs", 2)),
        "--seed",
        str(flags.pop("seed", 3)),
    ]
    for key, value in flags.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    assert main(args) == 0
    return corpus, lexicon


def bytes_stdin(data: bytes) -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin`` whose ``buffer`` holds ``data``."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="latin-1")


def write_seed_lexicon(tmp_path, truth_path):
    seed_path = tmp_path / "seed.lexicon"
    save_lexicon(coarse_seed_lexicon(load_lexicon(truth_path)), seed_path)
    return seed_path


class TestGenCorpus:
    def test_writes_parseable_files(self, tmp_path):
        corpus, lexicon_path = gen_corpus(tmp_path)
        records = load_mention_records(corpus)
        assert len(records) == 80
        assert all(r.label in (POSITIVE, NEGATIVE, NEUTRAL) for r in records)
        lexicon = load_lexicon(lexicon_path)
        assert len(list(lexicon.word_terms())) == 6
        assert len(list(lexicon.adverb_terms())) == 2

    def test_identical_seeds_identical_bytes(self, tmp_path):
        corpus_a, lex_a = gen_corpus(tmp_path, name="a.tsv", seed=11)
        corpus_b, lex_b = gen_corpus(tmp_path, name="b.tsv", seed=11)
        assert corpus_a.read_bytes() == corpus_b.read_bytes()
        assert lex_a.read_bytes() == lex_b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        corpus_a, _ = gen_corpus(tmp_path, name="a.tsv", seed=1)
        corpus_b, _ = gen_corpus(tmp_path, name="b.tsv", seed=2)
        assert corpus_a.read_bytes() != corpus_b.read_bytes()

    def test_bad_mix_exits_1(self, tmp_path, capsys):
        code = main(
            [
                "gen-corpus",
                "--out",
                str(tmp_path / "x.tsv"),
                "--lexicon-out",
                str(tmp_path / "x.lex"),
                "--mix",
                "0.9,0.9,0.9",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_mix_exits_1_naming_flag(self, tmp_path, capsys):
        code = main(
            ["gen-corpus", "--out", str(tmp_path / "x.tsv"), "--lexicon-out",
             str(tmp_path / "x.lex"), "--mix", "nan,nan,nan"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --mix: class_mix fractions must sum to 1\n"

    @pytest.mark.parametrize(
        "mix, message",
        [
            ("a,b,c", "could not convert string to float: 'a'"),
            ("0.5,0.5", "class mix must be three comma-separated fractions"),
        ],
    )
    def test_malformed_mix_exits_1_naming_flag(self, tmp_path, capsys, mix, message):
        code = main(
            ["gen-corpus", "--out", str(tmp_path / "x.tsv"), "--lexicon-out",
             str(tmp_path / "x.lex"), "--mix", mix]
        )
        assert (code, capsys.readouterr().err) == (1, f"error: --mix: {message}\n")
        assert not (tmp_path / "x.tsv").exists()

    def test_negative_seed_exits_1_naming_flag(self, tmp_path, capsys):
        code = main(
            ["gen-corpus", "--out", str(tmp_path / "x.tsv"), "--lexicon-out",
             str(tmp_path / "x.lex"), "--seed", "-1"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --seed: rng_seed must be >= 0\n"
        assert not (tmp_path / "x.tsv").exists()

    @pytest.mark.parametrize(
        "flag, product",
        [("--min-occurrences", "1000000000 * 20"), ("--words", "3 * 1000000000")],
    )
    def test_impossible_coverage_exits_1_before_any_work(
        self, tmp_path, capsys, monkeypatch, flag, product
    ):
        calls = []
        monkeypatch.setattr(
            "sentiscore.synthetic.make_true_lexicon", lambda *args: calls.append(args)
        )
        code = main(
            ["gen-corpus", "--out", str(tmp_path / "x.tsv"), "--lexicon-out",
             str(tmp_path / "x.lex"), "--size", "100", flag, "1000000000"]
        )
        assert (code, capsys.readouterr().err) == (
            1,
            "error: --size: size must be >= min_occurrences * max(word_count, adverb_count)"
            f" = {product}, got 100\n",
        )
        assert calls == []
        assert not (tmp_path / "x.tsv").exists()


class TestLearnScores:
    def test_recovers_generator_truth(self, tmp_path):
        corpus, truth_path = gen_corpus(
            tmp_path, size=400, words=12, adverbs=3, seed=5
        )
        seed_path = write_seed_lexicon(tmp_path, truth_path)
        out = tmp_path / "learned.lexicon"
        code = main(
            [
                "learn-scores",
                "--mentions",
                str(corpus),
                "--lexicon",
                str(seed_path),
                "--out",
                str(out),
                "--lambda",
                "1e-6",
            ]
        )
        assert code == 0
        truth = load_lexicon(truth_path)
        learned = load_lexicon(out)
        word_errs = [
            abs(learned.word_score(w) - truth.word_score(w))
            for w in truth.word_terms()
        ]
        adverb_errs = [
            abs(learned.adverb_score(a) - truth.adverb_score(a))
            for a in truth.adverb_terms()
        ]
        assert max(word_errs) <= 1e-3
        assert max(adverb_errs) <= 1e-3

    def test_trace_file_format(self, tmp_path):
        corpus, truth_path = gen_corpus(tmp_path)
        seed_path = write_seed_lexicon(tmp_path, truth_path)
        out = tmp_path / "learned.lexicon"
        assert (
            main(
                [
                    "learn-scores",
                    "--mentions",
                    str(corpus),
                    "--lexicon",
                    str(seed_path),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        trace = (tmp_path / "learned.lexicon.trace").read_text(encoding="utf-8")
        lines = trace.splitlines()
        assert lines[0] == "# iteration\tadverb_objective\tword_objective"
        for line in lines[1:]:
            index, adverb_obj, word_obj = line.split("\t")
            assert int(index) >= 1
            assert float(adverb_obj) >= 0
            assert float(word_obj) >= 0

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--lambda", "inf"], "lam must be finite and >= 0"),
            (["--lambda", "nan"], "lam must be finite and >= 0"),
            (["--tol", "0"], "solver_tol must be finite and > 0"),
            (["--tol", "nan"], "solver_tol must be finite and > 0"),
            (["--tol", "inf"], "solver_tol must be finite and > 0"),
            (["--iters", "0"], "max_outer_iterations must be >= 1"),
        ],
    )
    def test_bad_solver_flag_exits_1_naming_field(self, tmp_path, capsys, flag, message):
        corpus, truth_path = gen_corpus(tmp_path)
        seed_path = write_seed_lexicon(tmp_path, truth_path)
        out = tmp_path / "learned.lexicon"
        code = main(
            ["learn-scores", "--mentions", str(corpus), "--lexicon", str(seed_path),
             "--out", str(out), *flag]
        )
        assert (code, capsys.readouterr().err) == (1, f"error: {flag[0]}: {message}\n")
        assert not out.exists()

    def test_nonconvergence_exits_2_but_writes(self, tmp_path, capsys):
        corpus, truth_path = gen_corpus(tmp_path, size=150, words=8)
        seed_path = write_seed_lexicon(tmp_path, truth_path)
        out = tmp_path / "learned.lexicon"
        trace = tmp_path / "trace.tsv"
        code = main(
            [
                "learn-scores",
                "--mentions",
                str(corpus),
                "--lexicon",
                str(seed_path),
                "--out",
                str(out),
                "--trace",
                str(trace),
                "--iters",
                "1",
                "--tol",
                "1e-30",
            ]
        )
        assert code == 2
        assert out.exists()
        assert load_lexicon(out) is not None
        assert "did not converge" in trace.read_text(encoding="utf-8")
        assert "did not converge" in capsys.readouterr().err

    def test_missing_file_exits_1_naming_path(self, tmp_path, capsys):
        code = main(
            [
                "learn-scores",
                "--mentions",
                str(tmp_path / "absent.tsv"),
                "--lexicon",
                str(tmp_path / "absent.lex"),
                "--out",
                str(tmp_path / "out.lex"),
            ]
        )
        assert code == 1
        assert "absent" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "good\tword\tnegative\t0.5",
            "good\tword\tpositive\t0.0",
            "good\tword\tn/a\t0.5",
            "very\tadverb\tn/a\t-0.5",
            "very\tadverb\tnegative\t1.5",
        ],
    )
    def test_bad_polarity_or_sign_exits_1_naming_file(self, tmp_path, capsys, line):
        corpus, _ = gen_corpus(tmp_path, size=40, words=6)
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"awful\tword\tnegative\t-1.0\n{line}\n", encoding="utf-8")
        out = tmp_path / "out.lex"
        args = ["--mentions", str(corpus), "--lexicon", str(bad), "--out", str(out)]
        code = main(["learn-scores", *args])
        assert code == 1
        assert re.search(r"^error: .*bad\.tsv:2: ", capsys.readouterr().err)
        assert not out.exists()

    def test_non_finite_target_score_exits_1_naming_file(self, tmp_path, capsys):
        _, truth_path = gen_corpus(tmp_path, size=40, words=6)
        seed_path = write_seed_lexicon(tmp_path, truth_path)
        bad = tmp_path / "nan_target.tsv"
        bad.write_text("TARGET is good\tpositive\tnan\n", encoding="utf-8")
        code = main(
            [
                "learn-scores",
                "--mentions",
                str(bad),
                "--lexicon",
                str(seed_path),
                "--out",
                str(tmp_path / "out.lex"),
            ]
        )
        assert code == 1
        assert "nan_target.tsv:1: non-finite target score" in capsys.readouterr().err
        assert not (tmp_path / "out.lex").exists()

    def test_byte_identical_reruns(self, tmp_path):
        corpus, truth_path = gen_corpus(tmp_path)
        seed_path = write_seed_lexicon(tmp_path, truth_path)
        outs = []
        for name in ("first", "second"):
            out = tmp_path / f"{name}.lexicon"
            trace = tmp_path / f"{name}.trace"
            assert (
                main(
                    [
                        "learn-scores",
                        "--mentions",
                        str(corpus),
                        "--lexicon",
                        str(seed_path),
                        "--out",
                        str(out),
                        "--trace",
                        str(trace),
                    ]
                )
                == 0
            )
            outs.append((out.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1]


class TestAugment:
    def corpus_with_lexicon(self, tmp_path):
        corpus, truth_path = gen_corpus(tmp_path, size=60, words=6, seed=9)
        return corpus, truth_path

    def test_output_format_and_inputs_untouched(self, tmp_path):
        corpus, lexicon_path = self.corpus_with_lexicon(tmp_path)
        before = (corpus.read_bytes(), lexicon_path.read_bytes())
        out = tmp_path / "augmented.tsv"
        code = main(
            [
                "augment",
                "--corpus",
                str(corpus),
                "--lexicon",
                str(lexicon_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (corpus.read_bytes(), lexicon_path.read_bytes()) == before
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            text, label, score, entity, provenance = line.split("\t")
            assert label in (POSITIVE, NEGATIVE, NEUTRAL)
            float(score)
            assert entity == ""
            assert re.match(r"src=\d+;\S+@\d+->\S+", provenance)

    def test_no_flips_flag(self, tmp_path):
        corpus, lexicon_path = self.corpus_with_lexicon(tmp_path)
        out = tmp_path / "augmented.tsv"
        assert (
            main(
                [
                    "augment",
                    "--corpus",
                    str(corpus),
                    "--lexicon",
                    str(lexicon_path),
                    "--out",
                    str(out),
                    "--no-flips",
                ]
            )
            == 0
        )
        assert "(flip)" not in out.read_text(encoding="utf-8")

    def test_augmented_corpus_reloadable(self, tmp_path):
        corpus, lexicon_path = self.corpus_with_lexicon(tmp_path)
        out = tmp_path / "augmented.tsv"
        main(
            [
                "augment",
                "--corpus",
                str(corpus),
                "--lexicon",
                str(lexicon_path),
                "--out",
                str(out),
            ]
        )
        records = load_mention_records(out)
        assert all("TARGET" in r.text for r in records)

    def test_malformed_corpus_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("TARGET is fine\tmaybe\t1.0\n", encoding="utf-8")
        _, lexicon_path = self.corpus_with_lexicon(tmp_path)
        code = main(
            [
                "augment",
                "--corpus",
                str(bad),
                "--lexicon",
                str(lexicon_path),
                "--out",
                str(tmp_path / "out.tsv"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**32)])
    def test_seed_outside_32_bits_exits_1_naming_field(self, tmp_path, capsys, seed):
        # Seeds are folded modulo 2**32, so -1 would write 2**32 - 1's bytes.
        corpus, lexicon_path = self.corpus_with_lexicon(tmp_path)
        out = tmp_path / "out.tsv"
        code = main(
            ["augment", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
             "--out", str(out), "--seed", seed]
        )
        assert (code, capsys.readouterr().err) == (
            1, "error: --seed: rng_seed must be in [0, 2**32)\n"
        )
        assert not out.exists()

    def test_nan_delta_exits_1_naming_flag(self, tmp_path, capsys):
        corpus, lexicon_path = self.corpus_with_lexicon(tmp_path)
        out = tmp_path / "out.tsv"
        code = main(
            ["augment", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
             "--out", str(out), "--delta", "nan"]
        )
        assert (code, capsys.readouterr().err) == (
            1, "error: --delta: score_tolerance must be >= 0\n"
        )
        assert not out.exists()

    def test_multi_token_lexicon_term_exits_1_naming_file(self, tmp_path, capsys):
        corpus, _ = self.corpus_with_lexicon(tmp_path)
        bad = tmp_path / "bad.lex"
        bad.write_text("Good\tword\tpositive\t1.0\n", encoding="utf-8")
        code = main(
            [
                "augment",
                "--corpus",
                str(corpus),
                "--lexicon",
                str(bad),
                "--out",
                str(tmp_path / "out.tsv"),
            ]
        )
        assert code == 1
        assert "bad.lex:1: term 'Good' is not a single lowercase token" in capsys.readouterr().err


TRAIN_FLAGS = [
    "--filters",
    "4",
    "--window",
    "2",
    "--embedding-dim",
    "12",
    "--sequence-length",
    "10",
    "--epochs",
    "30",
    "--learning-rate",
    "0.3",
    "--dropout",
    "0.1",
    "--batch-size",
    "8",
]


class TestTrainPredict:
    def train(self, tmp_path, corpus, extra=()):
        checkpoint = tmp_path / "model.ckpt"
        code = main(
            ["train", "--corpus", str(corpus), "--out", str(checkpoint)]
            + TRAIN_FLAGS
            + list(extra)
        )
        assert code == 0
        return checkpoint

    def test_train_then_predict_reproduces_training_labels(self, tmp_path, capsys):
        corpus, _ = gen_corpus(tmp_path, size=90, words=6, seed=4)
        checkpoint = self.train(tmp_path, corpus)
        records = load_mention_records(corpus)
        sample = [records[i] for i in (0, 7, 21)]
        inputs = tmp_path / "inputs.txt"
        inputs.write_text("".join(r.text + "\n" for r in sample), encoding="utf-8")
        code = main(
            ["predict", "--checkpoint", str(checkpoint), "--input", str(inputs)]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == len(sample)
        for line, record in zip(lines, sample):
            label, probs = line.split("\t")
            values = [float(p) for p in probs.split(" ")]
            assert len(values) == 3
            assert sum(values) == pytest.approx(1.0, abs=1e-6)
            assert re.fullmatch(r"\d\.\d{6} \d\.\d{6} \d\.\d{6}", probs)
            assert label == record.label

    def test_predict_reads_stdin(self, tmp_path, capsys, monkeypatch):
        corpus, _ = gen_corpus(tmp_path, size=60, words=6, seed=4)
        checkpoint = self.train(tmp_path, corpus)
        text = load_mention_records(corpus)[0].text
        monkeypatch.setattr("sys.stdin", bytes_stdin((text + "\n\n").encode("utf-8")))
        code = main(["predict", "--checkpoint", str(checkpoint)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].split("\t")[0] in (POSITIVE, NEGATIVE, NEUTRAL)

    def test_predict_reads_stdin_as_it_reads_input(self, tmp_path, capsys, monkeypatch):
        corpus, _ = gen_corpus(tmp_path, size=60, words=6, seed=4)
        checkpoint = self.train(tmp_path, corpus)
        texts = [r.text for r in load_mention_records(corpus)[:4]]
        data = f"{texts[0]}\r\n{texts[1]}\r{texts[2]}\n\r\n{texts[3]} caf\u00e9".encode("utf-8")
        inputs = tmp_path / "inputs.txt"
        inputs.write_bytes(data)
        assert main(["predict", "--checkpoint", str(checkpoint), "--input", str(inputs)]) == 0
        from_file = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", bytes_stdin(data))
        assert main(["predict", "--checkpoint", str(checkpoint)]) == 0
        assert capsys.readouterr().out == from_file
        assert len(from_file.splitlines()) == 4

    @pytest.mark.parametrize("entity", ["", " "])
    def test_blank_entity_exits_1_before_reading_input(self, tmp_path, capsys, entity):
        missing = tmp_path / "missing.ckpt"
        code = main(["predict", "--checkpoint", str(missing), "--entity", entity])
        assert (code, capsys.readouterr().err) == (
            1, "error: --entity must hold a non-space character\n"
        )

    def test_weighted_ce_and_static_embeddings_flags(self, tmp_path):
        corpus, _ = gen_corpus(tmp_path, size=60, words=6, seed=4)
        checkpoint = self.train(
            tmp_path,
            corpus,
            extra=["--weighted-ce", "--penalty", "1,4,3;4,1,3;2,2,1", "--static-embeddings"],
        )
        assert checkpoint.exists()

    @pytest.mark.parametrize(
        "penalty, message",
        [
            ("1,nan,3;4,1,3;2,2,1", "penalty weights must be finite"),
            ("1,inf,3;4,1,3;2,2,1", "penalty weights must be finite"),
            ("1,4,3;4,1;2,2,1", "each row must hold three comma-separated weights"),
            ("1,4,3;4,x,3;2,2,1", "could not convert string to float: 'x'"),
        ],
        ids=["nan", "inf", "ragged", "not-a-number"],
    )
    def test_bad_penalty_exits_1_naming_flag(self, tmp_path, capsys, penalty, message):
        corpus, _ = gen_corpus(tmp_path, size=30, words=6, seed=4)
        checkpoint = tmp_path / "model.ckpt"
        code = main(
            ["train", "--corpus", str(corpus), "--out", str(checkpoint), "--weighted-ce",
             "--penalty", penalty]
        )
        assert (code, capsys.readouterr().err) == (1, f"error: --penalty: {message}\n")
        assert not checkpoint.exists()

    def test_penalty_without_weighted_ce_exits_1(self, tmp_path, capsys):
        corpus, _ = gen_corpus(tmp_path, size=30, words=6, seed=4)
        checkpoint = tmp_path / "model.ckpt"
        code = main(
            ["train", "--corpus", str(corpus), "--out", str(checkpoint),
             "--penalty", "1,4,3;4,1,3;2,2,1"]
        )
        assert (code, capsys.readouterr().err) == (
            1, "error: --penalty applies only with --weighted-ce\n"
        )
        assert not checkpoint.exists()

    def test_train_byte_identical_reruns(self, tmp_path):
        corpus, _ = gen_corpus(tmp_path, size=60, words=6, seed=4)
        a = self.train(tmp_path, corpus)
        first = a.read_bytes()
        b = self.train(tmp_path, corpus)
        assert b.read_bytes() == first

    @pytest.mark.parametrize(
        "flag",
        [
            ["--epochs", "0"],
            ["--epochs", "-1"],
            ["--batch-size", "0"],
            ["--filters", "0"],
            ["--embedding-dim", "0"],
        ],
    )
    def test_non_positive_sizes_exit_1(self, tmp_path, capsys, flag):
        corpus, _ = gen_corpus(tmp_path, size=30, words=6, seed=4)
        checkpoint = tmp_path / "model.ckpt"
        code = main(["train", "--corpus", str(corpus), "--out", str(checkpoint)] + flag)
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not checkpoint.exists()

    @pytest.mark.parametrize(
        "flag, field",
        [
            (["--vocab-size", "-1"], "vocab_size"),
            (["--vocab-size", "0"], "vocab_size"),
            (["--seed", "-2"], "rng_seed"),
            (["--learning-rate", "inf"], "learning_rate"),
        ],
    )
    def test_bad_vocab_size_or_seed_exits_1_naming_field(self, tmp_path, capsys, flag, field):
        corpus, _ = gen_corpus(tmp_path, size=30, words=6, seed=4)
        checkpoint = tmp_path / "model.ckpt"
        code = main(["train", "--corpus", str(corpus), "--out", str(checkpoint)] + flag)
        assert code == 1
        assert f"error: {flag[0]}: {field} must be" in capsys.readouterr().err
        assert not checkpoint.exists()

    def test_divergence_reports_one_line_and_no_warning(self, tmp_path, capsys):
        corpus, _ = gen_corpus(tmp_path, size=60, words=6, seed=4)
        checkpoint = tmp_path / "model.ckpt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["train", "--corpus", str(corpus), "--out", str(checkpoint),
                 "--learning-rate", "1e300"]
            )
        err = capsys.readouterr().err
        assert (code, err) == (2, "error: non-finite logits; lower the learning rate\n")
        assert "Warning" not in err and [str(w.message) for w in caught] == []
        assert not checkpoint.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            # What numpy says for `train --filters 100000000`, which asks for 71.5 GiB.
            ("Unable to allocate 71.5 GiB for an array with shape (100000000, 3, 32) "
             "and data type float64", None),
            ("", "an allocation failed"),
        ],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory_exits_2_without_a_traceback(
        self, tmp_path, capsys, monkeypatch, text, message
    ):
        def exhausted(*args, **kwargs):
            raise MemoryError(text)

        monkeypatch.setattr(cli, "train_classifier", exhausted)
        corpus, _ = gen_corpus(tmp_path, size=30, words=6, seed=4)
        checkpoint = tmp_path / "model.ckpt"
        code = main(["train", "--corpus", str(corpus), "--out", str(checkpoint)])
        err = capsys.readouterr().err
        assert (code, err) == (2, f"error: out of memory: {message or text}\n")
        assert "Traceback" not in err
        assert not checkpoint.exists()

    def test_checkpoint_with_unknown_config_key_exits_1(self, tmp_path, capsys):
        corpus, _ = gen_corpus(tmp_path, size=60, words=6, seed=4)
        checkpoint = self.train(tmp_path, corpus)
        magic, header, payload = checkpoint.read_bytes().split(b"\n", 2)
        header = header.replace(b'"config": {', b'"config": {"bogus": 1, ', 1)
        checkpoint.write_bytes(magic + b"\n" + header + b"\n" + payload)
        inputs = tmp_path / "inputs.txt"
        inputs.write_text("TARGET is fine\n", encoding="utf-8")
        code = main(["predict", "--checkpoint", str(checkpoint), "--input", str(inputs)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(checkpoint) in err

    def test_corrupt_checkpoint_exits_1(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(b"junk")
        inputs = tmp_path / "inputs.txt"
        inputs.write_text("TARGET is fine\n", encoding="utf-8")
        code = main(
            ["predict", "--checkpoint", str(bogus), "--input", str(inputs)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


#: The prefix of every config error but those ExperimentConfig raises itself.
MALFORMED = "malformed experiment config: "


class TestEvaluate:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[penalty]\npositive = 1 nan 3\nnegative = 4 1 3\nneutral = 2 2 1\n",
             f"{MALFORMED}penalty weights must be finite"),
            ("[penalty]\npositive = 1 4 3\nnegative = 4 1 3\nneutral = 2 inf 1\n",
             f"{MALFORMED}penalty weights must be finite"),
            ("[learning]\nsolver_max_iter = 0\n", f"{MALFORMED}solver_max_iter must be >= 1"),
            ("[learning]\nsolver_max_iter = -5\n", f"{MALFORMED}solver_max_iter must be >= 1"),
            ("[learning]\nlam = inf\n", f"{MALFORMED}lam must be finite and >= 0"),
            ("[cnn]\nlearning_rate = inf\n", f"{MALFORMED}learning_rate must be finite and > 0"),
            ("[penalty]\npositive = 1 2\nnegative = 4 1 3\nneutral = 2 2 1\n",
             f"{MALFORMED}penalty positive row must hold three weights, got 2"),
            ("[penalty]\npositive = 1 4 3\nnegative = 4 1 3 4\nneutral = 2 2 1\n",
             f"{MALFORMED}penalty negative row must hold three weights, got 4"),
            ("[experiment]\nvocab_size = 0\n", "vocab_size must be >= 1, got 0"),
            # Each fold's seed derives from [experiment] rng_seed; no other seed is read.
            ("[cnn]\nrng_seed = 0\n", "unknown key 'rng_seed' in experiment config section [cnn]"),
            ("[augment]\nrng_seed = 0\n",
             "unknown key 'rng_seed' in experiment config section [augment]"),
        ],
        ids=[
            "penalty-nan", "penalty-inf", "max-iter-0", "max-iter-negative", "lam-inf",
            "learning-rate-inf", "penalty-row-short", "penalty-row-long", "vocab-size-0",
            "cnn-seed", "augment-seed",
        ],
    )
    def test_bad_config_value_exits_1_naming_it(self, tmp_path, capsys, text, message):
        corpus, truth_path = gen_corpus(tmp_path, size=30, words=6, seed=4)
        seed_path = write_seed_lexicon(tmp_path, truth_path)
        config_path = tmp_path / "experiment.ini"
        config_path.write_text(text, encoding="utf-8")
        report_path = tmp_path / "report.txt"
        code = main(
            ["evaluate", "--corpus", str(corpus), "--config", str(config_path), "--lexicon",
             str(seed_path), "--variant", "cnn-total", "--out", str(report_path)]
        )
        assert (code, capsys.readouterr().err) == (1, f"error: {config_path}: {message}\n")
        assert not report_path.exists()

    def test_config_run_writes_report(self, tmp_path):
        corpus, truth_path = gen_corpus(tmp_path, size=90, words=6, seed=4)
        seed_path = write_seed_lexicon(tmp_path, truth_path)
        config = ExperimentConfig(
            k=3,
            variant="cnn-total",
            learning=LearningConfig(lam=0.01),
            cnn=CnnConfig(
                window=2,
                filter_count=4,
                pool_window=2,
                sequence_length=10,
                embedding_dim=12,
                dropout_rate=0.1,
                learning_rate=0.3,
                epochs=10,
                batch_size=8,
            ),
        )
        config_path = tmp_path / "experiment.ini"
        config_path.write_text(config_to_text(config), encoding="utf-8")
        report_path = tmp_path / "report.txt"
        code = main(
            [
                "evaluate",
                "--corpus",
                str(corpus),
                "--config",
                str(config_path),
                "--lexicon",
                str(seed_path),
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        text = report_path.read_text(encoding="utf-8")
        assert "variant: cnn-total" in text
        # one 3-row matrix block per fold plus the pooled matrix
        assert text.count("confusion [predicted x expected]") == 4
        assert "macro f" in text

    def test_variant_and_seed_overrides(self, tmp_path):
        corpus, _ = gen_corpus(tmp_path, size=90, words=6, seed=4)
        config = ExperimentConfig(
            k=3,
            variant="cnn-total",
            cnn=CnnConfig(
                window=2,
                filter_count=4,
                pool_window=2,
                sequence_length=10,
                embedding_dim=12,
                dropout_rate=0.1,
                learning_rate=0.3,
                epochs=8,
                batch_size=8,
            ),
        )
        config_path = tmp_path / "experiment.ini"
        config_path.write_text(config_to_text(config), encoding="utf-8")
        report_path = tmp_path / "report.txt"
        code = main(
            [
                "evaluate",
                "--corpus",
                str(corpus),
                "--config",
                str(config_path),
                "--out",
                str(report_path),
                "--variant",
                "cnn",
                "--seed",
                "9",
            ]
        )
        assert code == 0
        text = report_path.read_text(encoding="utf-8")
        assert "variant: cnn" in text
        assert "rng_seed = 9" in text
        assert text.count("rng_seed") == 1  # the experiment's seed is the only one

    def test_missing_lexicon_for_total_exits_1(self, tmp_path, capsys):
        corpus, _ = gen_corpus(tmp_path, size=60, words=6, seed=4)
        code = main(
            [
                "evaluate",
                "--corpus",
                str(corpus),
                "--out",
                str(tmp_path / "r.txt"),
                "--variant",
                "cnn-total",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        corpus, _ = gen_corpus(tmp_path, size=60, words=6, seed=4)
        config_path = tmp_path / "experiment.ini"
        config_path.write_text("[cnn]\nepoch = 3\n", encoding="utf-8")
        report_path = tmp_path / "r.txt"
        code = main(
            ["evaluate", "--corpus", str(corpus), "--config", str(config_path),
             "--out", str(report_path)]
        )
        assert code == 1
        assert "unknown key 'epoch'" in capsys.readouterr().err
        assert not report_path.exists()

    def test_default_section_exits_1_naming_it(self, tmp_path, capsys):
        corpus, _ = gen_corpus(tmp_path, size=60, words=6, seed=4)
        config_path = tmp_path / "experiment.ini"
        config_path.write_text("[DEFAULT]\nepochs = 1\n[cnn]\n", encoding="utf-8")
        report_path = tmp_path / "r.txt"
        code = main(
            ["evaluate", "--corpus", str(corpus), "--config", str(config_path),
             "--out", str(report_path)]
        )
        assert code == 1
        assert "unknown experiment config section [DEFAULT]" in capsys.readouterr().err
        assert not report_path.exists()

    def test_percent_in_config_exits_1_naming_field(self, tmp_path, capsys):
        corpus, _ = gen_corpus(tmp_path, size=60, words=6, seed=4)
        config_path = tmp_path / "experiment.ini"
        config_path.write_text("[experiment]\nvariant = cnn%\n", encoding="utf-8")
        code = main(
            ["evaluate", "--corpus", str(corpus), "--config", str(config_path),
             "--out", str(tmp_path / "r.txt")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {config_path}: variant must be one of")

    def test_negative_seed_exits_1_naming_field(self, tmp_path, capsys):
        corpus, _ = gen_corpus(tmp_path, size=60, words=6, seed=4)
        report_path = tmp_path / "r.txt"
        code = main(
            ["evaluate", "--corpus", str(corpus), "--out", str(report_path), "--seed", "-3"]
        )
        assert (code, capsys.readouterr().err) == (1, "error: --seed: rng_seed must be >= 0\n")
        assert not report_path.exists()


class TestParserBehavior:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen-corpus", "--bogus"])
        assert excinfo.value.code == 2

    def test_help_lists_defaults(self, capsys):
        for command, needle in [
            ("learn-scores", "default: 0.1"),
            ("augment", "default: 0.1"),
            ("train", "default: 0.5"),
            ("evaluate", "1,4,3;4,1,3;2,2,1"),
        ]:
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            assert needle in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["learn-scores", "--mentions", "m", "--lexicon", "l", "--out", "o"], LearningConfig()),
            (["augment", "--corpus", "c", "--lexicon", "l", "--out", "o"], AugmentConfig()),
            (["train", "--corpus", "c", "--out", "o"], CnnConfig()),
            (["gen-corpus", "--out", "o", "--lexicon-out", "l"], CorpusConfig()),
        ],
        ids=["learn-scores", "augment", "train", "gen-corpus"],
    )
    def test_required_flags_alone_give_the_default_config(self, argv, expected):
        args = _build_parser().parse_args(argv)
        overrides = {}
        if isinstance(expected, CorpusConfig):
            overrides["class_mix"] = _parse_mix(args.class_mix)
        assert _config(type(expected), args, **overrides) == expected
        if isinstance(expected, CnnConfig):
            assert args.vocab_size == ExperimentConfig().vocab_size


class TestFlagBoundarySweep:
    """Every config flag given a boundary or malformed value exits 0, 1 or
    2 without a traceback or a warning; on exit 1 it names the flag and
    writes nothing."""

    VALUES = ("0", "-1", "nan", "inf", "1e300", "", "abc")

    def test_every_config_flag_exits_cleanly(self, tmp_path, capsys):
        corpus, truth_path = gen_corpus(tmp_path, size=60)
        seed_path = write_seed_lexicon(tmp_path, truth_path)
        train = ["train", "--corpus", str(corpus), "--epochs", "1"]
        commands = [
            (cli._LEARN_FLAGS, LearningConfig(),
             ["learn-scores", "--mentions", str(corpus), "--lexicon", str(seed_path)],
             ("--out", "--trace")),
            (cli._AUGMENT_FLAGS, AugmentConfig(),
             ["augment", "--corpus", str(corpus), "--lexicon", str(truth_path)], ("--out",)),
            (cli._TRAIN_FLAGS, CnnConfig(), train, ("--out",)),
            (cli._VOCAB_FLAGS, ExperimentConfig(), train, ("--out",)),
            (cli._CORPUS_FLAGS, CorpusConfig(),
             ["gen-corpus", "--size", "60", "--words", "6", "--adverbs", "2"],
             ("--out", "--lexicon-out")),
        ]
        faults, runs = [], 0
        for table, defaults, base, outputs in commands:
            for name, (flag, _, *overrides) in table.items():
                if (isinstance(getattr(defaults, name), bool) or flag == "--mix"
                        or any("choices" in spec for spec in overrides)):
                    continue
                for value in self.VALUES:
                    runs += 1
                    out_dir = tmp_path / f"run{runs}"
                    out_dir.mkdir()
                    argv = [*base, flag, value]
                    for output in outputs:
                        argv += [output, str(out_dir / output[2:])]
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        try:
                            code = main(argv)
                        except SystemExit as exc:
                            code = exc.code
                        except Exception:  # reported below with its traceback
                            code = traceback.format_exc()
                    err = capsys.readouterr().err
                    if (code not in (0, 1, 2) or caught or "Traceback" in err or "Warning" in err
                            or code == 1 and (not err.startswith(f"error: {flag}: ")
                                              or any(out_dir.iterdir()))):
                        faults.append((flag, value, code, [str(w.message) for w in caught], err))
        assert runs > 0
        assert faults == []


class TestConfigKeyBoundarySweep:
    """Every key of an ``evaluate --config`` file given a boundary or
    malformed value exits 0, 1 or 2 without a traceback or a warning; on
    exit 1 it names the config file and writes no report."""

    def test_every_config_key_exits_cleanly(self, tmp_path, capsys):
        corpus, truth_path = gen_corpus(tmp_path, size=60)
        seed_path = write_seed_lexicon(tmp_path, truth_path)
        base = ExperimentConfig(k=2, variant="cnn-total", cnn=CnnConfig(epochs=1))
        ini = configparser.ConfigParser(interpolation=None)
        ini.optionxform = str
        ini.read_string(config_to_text(base))
        faults, runs = [], 0
        for section in ini.sections():
            for key, default in ini[section].items():
                for value in TestFlagBoundarySweep.VALUES:
                    runs += 1
                    config_path, out_dir = tmp_path / f"run{runs}.ini", tmp_path / f"run{runs}"
                    out_dir.mkdir()
                    ini[section][key] = value
                    with open(config_path, "w", encoding="utf-8") as fh:
                        ini.write(fh)
                    ini[section][key] = default
                    argv = ["evaluate", "--corpus", str(corpus), "--lexicon", str(seed_path),
                            "--config", str(config_path), "--out", str(out_dir / "report")]
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        try:
                            code = main(argv)
                        except Exception:  # reported below with its traceback
                            code = traceback.format_exc()
                    err = capsys.readouterr().err
                    if (code not in (0, 1, 2) or caught or "Traceback" in err or "Warning" in err
                            or code == 1 and (not err.startswith(f"error: {config_path}: ")
                                              or any(out_dir.iterdir()))):
                        faults.append((section, key, value, code, len(caught), err))
        assert runs > 0
        assert faults == []


class TestOutputPaths:
    """A command whose output cannot be created exits 1 before it loads
    anything, naming the flag and the path."""

    @pytest.fixture
    def no_work(self, tmp_path, monkeypatch):
        """Run in ``tmp_path`` with every loader and the generator failing."""
        def forbidden(*args, **kwargs):
            raise AssertionError("the command started its work")

        for name in ("load_mention_records", "load_lexicon", "generate_corpus"):
            monkeypatch.setattr(f"sentiscore.cli.{name}", forbidden)
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize(
        "command, flag, inputs",
        [
            ("learn-scores", "--out", ["--mentions", "m.tsv", "--lexicon", "l.lex"]),
            ("learn-scores", "--trace", ["--mentions", "m.tsv", "--lexicon", "l.lex", "--out", "o"]),
            ("augment", "--out", ["--corpus", "c.tsv", "--lexicon", "l.lex"]),
            ("train", "--out", ["--corpus", "c.tsv"]),
            ("evaluate", "--out", ["--corpus", "c.tsv"]),
            ("gen-corpus", "--lexicon-out", ["--out", "c.tsv"]),
        ],
    )
    def test_missing_directory_exits_1_before_loading(
        self, tmp_path, capsys, no_work, command, flag, inputs
    ):
        path = str(tmp_path / "missing" / "output")
        assert main([command, *inputs, flag, path]) == 1
        assert capsys.readouterr().err == (
            f"error: {flag} {path}: not a file in an existing directory\n"
        )
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, inputs, flags",
        [
            ("learn-scores", ["--mentions", "m.tsv", "--lexicon", "l.lex"], ("--out", "--trace")),
            ("gen-corpus", [], ("--out", "--lexicon-out")),
        ],
    )
    def test_two_flags_naming_one_file_exit_1_before_loading(
        self, tmp_path, capsys, no_work, command, inputs, flags
    ):
        (tmp_path / "sub").mkdir()
        first, second = flags
        assert main([command, *inputs, first, "out", second, "sub/../out"]) == 1
        assert capsys.readouterr().err == f"error: {first} and {second} name one file: sub/../out\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    def test_default_trace_path_is_checked_before_learning(self, tmp_path, capsys):
        corpus, truth_path = gen_corpus(tmp_path)
        seed_path = write_seed_lexicon(tmp_path, truth_path)
        out = tmp_path / "learned.lexicon"
        (tmp_path / "learned.lexicon.trace").mkdir()
        code = main(["learn-scores", "--mentions", str(corpus), "--lexicon", str(seed_path),
                     "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            1, f"error: --trace {out}.trace: not a file in an existing directory\n"
        )
        assert not out.exists()

    def test_directory_as_output_exits_1(self, tmp_path, capsys):
        corpus, _ = gen_corpus(tmp_path, size=40, words=6)
        assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path), *TRAIN_FLAGS]) == 1
        assert f"--out {tmp_path}: not a file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, inputs, flag",
        [
            ("augment", ["--corpus", "in", "--lexicon", "l.lex"], "--corpus"),
            ("learn-scores", ["--mentions", "m.tsv", "--lexicon", "in"], "--lexicon"),
            ("train", ["--corpus", "in"], "--corpus"),
        ],
    )
    def test_output_naming_an_input_exits_1_before_loading(
        self, tmp_path, capsys, no_work, command, inputs, flag
    ):
        (tmp_path / "sub").mkdir()
        (tmp_path / "in").write_text("input\n")
        assert main([command, *inputs, "--out", "sub/../in"]) == 1
        assert capsys.readouterr().err == f"error: {flag} and --out name one file: sub/../in\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "sub"]
        assert (tmp_path / "in").read_text() == "input\n"


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("learn-scores", "--lexicon"),
            ("learn-scores", "--mentions"),
            ("train", "--corpus"),
            ("evaluate", "--config"),
            ("predict", "--input"),
            ("predict", "<stdin>"),
        ],
    )
    def test_non_utf8_file_exits_1_naming_it(self, tmp_path, capsys, monkeypatch, command, flag):
        corpus, truth = gen_corpus(tmp_path, size=40, words=6)
        checkpoint = tmp_path / "model.ckpt"
        if command == "predict":
            assert main(["train", "--corpus", str(corpus), "--out", str(checkpoint), *TRAIN_FLAGS]) == 0
        inputs = {
            "learn-scores": {"--mentions": corpus, "--lexicon": truth, "--out": tmp_path / "o"},
            "train": {"--corpus": corpus, "--out": tmp_path / "o"},
            "evaluate": {"--corpus": corpus, "--config": None, "--out": tmp_path / "o"},
            "predict": {"--checkpoint": checkpoint, "--input": None},
        }[command]
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"fine\tline\n\xff\xfe\n")
        if flag == "<stdin>":
            del inputs["--input"]
            monkeypatch.setattr("sys.stdin", bytes_stdin(bad.read_bytes()))
            bad = flag
        else:
            inputs[flag] = bad
        code = main([command, *(str(x) for item in inputs.items() for x in item)])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {bad}: not UTF-8 text\n")


class TestEmptyMentionFile:
    @pytest.mark.parametrize(
        "command, inputs",
        [
            ("learn-scores", ["--lexicon", "seed.lex", "--out", "out.lex", "--mentions"]),
            ("train", ["--out", "model.ckpt", "--corpus"]),
            ("evaluate", ["--out", "report.txt", "--corpus"]),
        ],
    )
    def test_exits_1_naming_the_file(self, tmp_path, capsys, monkeypatch, command, inputs):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "seed.lex").write_text("good\tword\tpositive\t0.5\n", encoding="utf-8")
        empty = tmp_path / "empty.tsv"
        empty.write_text("\n\n", encoding="utf-8")
        assert main([command, *inputs, str(empty)]) == 1
        assert capsys.readouterr() == ("", f"error: {empty}: no mention records\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.tsv", "seed.lex"]

    def test_learn_scores_without_a_lexicon_word_exits_1_naming_the_file(self, tmp_path, capsys):
        _, truth_path = gen_corpus(tmp_path)
        seed_path = write_seed_lexicon(tmp_path, truth_path)
        neutral, out = tmp_path / "neutral.tsv", tmp_path / "out.lex"
        neutral.write_text("TARGET is here\tneutral\nTARGET ships\tneutral\n", encoding="utf-8")
        args = ["learn-scores", "--mentions", str(neutral), "--lexicon", str(seed_path),
                "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {neutral}: no sentiment word occurrences\n"
        assert not out.exists()

    def test_augment_writes_an_empty_file(self, tmp_path):
        empty, lexicon, out = tmp_path / "empty.tsv", tmp_path / "seed.lex", tmp_path / "out.tsv"
        empty.write_text("", encoding="utf-8")
        lexicon.write_text("good\tword\tpositive\t0.5\n", encoding="utf-8")
        args = ["augment", "--corpus", str(empty), "--lexicon", str(lexicon), "--out", str(out)]
        assert main(args) == 0
        assert out.read_bytes() == b""
