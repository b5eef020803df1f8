"""Run every command on a small generated corpus and digest what it writes.

``python tests/digests.py WORKDIR`` runs the commands in this one
process, with BLAS pinned to one thread and help text 80 columns wide,
and prints a JSON object: the numpy version, the BLAS thread count and
a SHA-256 digest of every output, keyed ``"<command>: <output>"``. Exit
codes are recorded under ``"<command>: exit"``.

``python tests/digests.py --record`` writes that object to
``tests/output_digests.json``, the table ``test_output_digests``
compares against, and first prints to stderr each key whose digest
changed, was added or was removed. Re-recording the table changes test
data: only a change meant to alter output bytes (or a numpy upgrade)
does it, and says why.
"""
from __future__ import annotations

import os

BLAS_THREADS = 1
if __name__ == "__main__":  # pinned before numpy loads; importing the module pins nothing
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)
    os.environ["COLUMNS"] = "80"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "output_digests.json"

EXPERIMENT_INI = """\
[experiment]
k = 3
rng_seed = 1

[cnn]
window = 2
filter_count = 4
sequence_length = 12
embedding_dim = 8
epochs = 3
batch_size = 8
learning_rate = 0.2
dropout_rate = 0.1
"""

# Records whose splices land after an entity mask, around "İ" (which
# lowercases to two characters) and next to the comparatives augment
# swaps on a label flip; "better" and "worse" are lexicon words too.
SPLICE_LEXICON = """\
awful\tword\tnegative\t-0.85
bad\tword\tnegative\t-0.7
better\tword\tpositive\t0.6
good\tword\tpositive\t0.7
great\tword\tpositive\t0.9
nice\tword\tpositive\t0.65
poor\tword\tnegative\t-0.65
worse\tword\tnegative\t-0.6
very\tadverb\tn/a\t1.4
"""

SPLICE_CORPUS = """\
İstanbul fans say the Acme Phone is better and very good\tpositive\t\tacme phone
The ACME phone screen is awful, worse than İzmir's\tnegative\t\tAcme Phone
İ think TARGET is İnice but better ones exist\tpositive\t\t
TARGET is better\tpositive\t\t
İt is a TARGET; nothing bad, nothing great\tneutral\t\t
so poor, İİ worse\tnegative\t0.5\t
nothing to see at İkea\tneutral\t\t
"""

SMALL_CNN = [
    "--window", "2", "--filters", "4", "--sequence-length", "12",
    "--embedding-dim", "8", "--epochs", "3", "--batch-size", "8",
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(work: Path) -> dict[str, str]:
    """Every command's outputs under ``work``, as ``{"<command>: <output>": digest}``."""
    from sentiscore.cli import main
    from sentiscore.lexicon import (
        load_lexicon,
        load_mention_records,
        save_lexicon,
        save_mention_records,
    )
    from sentiscore.synthetic import coarse_seed_lexicon

    out: dict[str, str] = {}

    def run(name: str, argv: list[str], files: list[str] = (), stdin: bytes = b"") -> None:
        stdout = io.StringIO()
        saved_stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
        with contextlib.redirect_stdout(stdout):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
            finally:
                sys.stdin = saved_stdin
        out[f"{name}: exit"] = str(code)
        if stdout.getvalue():
            out[f"{name}: stdout"] = _sha256(stdout.getvalue().encode("utf-8"))
        for file in files:
            out[f"{name}: {file}"] = _sha256((work / file).read_bytes())

    def path(file: str) -> str:
        return str(work / file)

    run("gen-corpus", [
        "gen-corpus", "--out", path("corpus.tsv"), "--lexicon-out", path("truth.lexicon"),
        "--size", "120", "--words", "8", "--adverbs", "3", "--noise", "0.1", "--seed", "7",
    ], ["corpus.tsv", "truth.lexicon"])
    save_lexicon(coarse_seed_lexicon(load_lexicon(work / "truth.lexicon")), work / "seed.lexicon")
    run("learn-scores", [
        "learn-scores", "--mentions", path("corpus.tsv"), "--lexicon", path("seed.lexicon"),
        "--out", path("learned.lexicon"), "--lambda", "0.01",
    ], ["learned.lexicon", "learned.lexicon.trace"])
    augment = ["augment", "--corpus", path("corpus.tsv"), "--lexicon", path("learned.lexicon")]
    run("augment", [*augment, "--out", path("augmented.tsv"), "--seed", "3"], ["augmented.tsv"])
    run("augment --no-flips", [
        *augment, "--out", path("augmented_no_flips.tsv"), "--no-flips", "--max-variants", "2",
    ], ["augmented_no_flips.tsv"])
    (work / "splice.lexicon").write_text(SPLICE_LEXICON, encoding="utf-8")
    (work / "splice.tsv").write_text(SPLICE_CORPUS, encoding="utf-8")
    run("augment splice", [
        "augment", "--corpus", path("splice.tsv"), "--lexicon", path("splice.lexicon"),
        "--out", path("augmented_splice.tsv"), "--max-variants", "6", "--seed", "5",
    ], ["augmented_splice.tsv"])
    run("train", ["train", "--corpus", path("corpus.tsv"), "--out", path("plain.ckpt"), *SMALL_CNN],
        ["plain.ckpt"])
    run("train --weighted-ce", [
        "train", "--corpus", path("augmented.tsv"), "--out", path("weighted.ckpt"),
        *SMALL_CNN, "--weighted-ce",
    ], ["weighted.ckpt"])
    run("train --weighted-ce --penalty --static-embeddings", [
        "train", "--corpus", path("corpus.tsv"), "--out", path("static.ckpt"),
        *SMALL_CNN, "--weighted-ce", "--penalty", "1,5,3;5,1,3;2,2,1", "--static-embeddings",
        "--pool-window", "12", "--activation", "tanh",
    ], ["static.ckpt"])
    texts = (work / "corpus.tsv").read_text(encoding="utf-8").splitlines()[:20]
    (work / "texts.txt").write_text(
        "".join(line.split("\t")[0] + "\n" for line in texts) + "\nthe camera is good\n",
        encoding="utf-8",
    )
    run("predict", [
        "predict", "--checkpoint", path("plain.ckpt"), "--input", path("texts.txt"),
        "--entity", "camera",
    ])
    # A checkpoint written by `train --pooling max_over_time` (SMALL_CNN, on
    # this corpus) before max over time became a pool window of N.
    run("predict v1 max-over-time", [
        "predict", "--checkpoint", str(ROOT / "tests" / "data" / "max_over_time_v1.ckpt"),
        "--input", path("texts.txt"), "--entity", "camera",
    ])
    run("predict <stdin>", [
        "predict", "--checkpoint", path("weighted.ckpt"), "--entity", "camera",
    ], stdin=(work / "texts.txt").read_bytes())
    (work / "experiment.ini").write_text(EXPERIMENT_INI, encoding="utf-8")
    evaluate = ["evaluate", "--corpus", path("corpus.tsv"), "--config", path("experiment.ini")]
    run("evaluate cnn", [*evaluate, "--out", path("report_cnn.txt"), "--variant", "cnn"],
        ["report_cnn.txt"])
    run("evaluate cnn-total", [
        *evaluate, "--lexicon", path("seed.lexicon"), "--out", path("report_total.txt"),
        "--variant", "cnn-total",
    ], ["report_total.txt"])
    for variant in ("cnn-cross", "cnn-quad"):
        run(f"evaluate {variant}", [
            *evaluate, "--lexicon", path("seed.lexicon"), "--out", path(f"report_{variant}.txt"),
            "--variant", variant,
        ], [f"report_{variant}.txt"])
    save_mention_records(
        [
            replace(r, text=r.text.replace("TARGET", "Acme Phone"), entity="acme phone")
            for r in load_mention_records(work / "corpus.tsv")
        ],
        work / "entity.tsv",
    )
    (work / "no_rebalance.ini").write_text(
        EXPERIMENT_INI.replace("k = 3\n", "k = 3\nrebalance = false\n"), encoding="utf-8"
    )
    for name, ini in (("entity", "experiment.ini"), ("entity no-rebalance", "no_rebalance.ini")):
        report = f"report_{name.replace(' ', '_')}.txt"
        run(f"evaluate cnn-total {name}", [
            "evaluate", "--corpus", path("entity.tsv"), "--config", path(ini),
            "--lexicon", path("seed.lexicon"), "--out", path(report), "--variant", "cnn-total",
        ], [report])
    run("gen-corpus --adverbs 0", [
        "gen-corpus", "--out", path("bare.tsv"), "--lexicon-out", path("bare_truth.lexicon"),
        "--size", "120", "--words", "8", "--adverbs", "0", "--noise", "0.1", "--seed", "7",
    ], ["bare.tsv", "bare_truth.lexicon"])
    save_lexicon(
        coarse_seed_lexicon(load_lexicon(work / "bare_truth.lexicon")), work / "bare_seed.lexicon"
    )
    run("learn-scores --adverbs 0", [
        "learn-scores", "--mentions", path("bare.tsv"), "--lexicon", path("bare_seed.lexicon"),
        "--out", path("bare_learned.lexicon"), "--lambda", "0.01",
    ], ["bare_learned.lexicon", "bare_learned.lexicon.trace"])
    for command in ("", "gen-corpus", "learn-scores", "augment", "train", "predict", "evaluate"):
        argv = [command, "--help"] if command else ["--help"]
        run(" ".join(argv), argv)

    for demo in sorted((ROOT / "demos").glob("*.py")):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            runpy.run_path(str(demo), run_name="__main__")
        out[f"demo {demo.stem}: stdout"] = _sha256(stdout.getvalue().encode("utf-8"))
    return out


def digest_table(work: Path) -> dict:
    return {"numpy": np.__version__, "blas_threads": BLAS_THREADS, "outputs": run_all(work)}


def table_changes(old: dict, new: dict) -> list[str]:
    """One line per key whose entry differs between two digest tables, in
    key order: ``changed KEY: OLD -> NEW``, ``added KEY: NEW`` or
    ``removed KEY: OLD``. The numpy version and BLAS thread count count as
    keys beside the outputs."""
    def flat(table: dict) -> dict:
        return {k: v for k, v in table.items() if k != "outputs"} | table.get("outputs", {})

    before, after = flat(old), flat(new)
    lines = []
    for key in sorted(before.keys() | after.keys()):
        if key not in after:
            lines.append(f"removed {key}: {before[key]}")
        elif key not in before:
            lines.append(f"added {key}: {after[key]}")
        elif before[key] != after[key]:
            lines.append(f"changed {key}: {before[key]} -> {after[key]}")
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if argv == ["--record"]:
        with tempfile.TemporaryDirectory() as work:
            table = digest_table(Path(work))
        old = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
        changes = table_changes(old, table)
        for line in changes:
            print(line, file=sys.stderr)
        print(f"{len(changes)} entries changed", file=sys.stderr)
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    if len(argv) != 1:
        print("usage: digests.py WORKDIR | --record", file=sys.stderr)
        return 2
    print(json.dumps(digest_table(Path(argv[0])), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
