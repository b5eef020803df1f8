"""Run one benchmark workload against the sentiscore sources of this checkout.

    python3 perfbench/run.py --workload kfold-total --seed 1 --seconds 36 --trace 0

Makes the workload's inputs from ``--seed``, sets them up several times,
then repeats the workload's cycle of commands for about ``--seconds``
seconds, checking every cycle's outputs and that they are byte-identical
across cycles. ``--trace 0`` reports the end-to-end metrics (medians
over set-ups and cycles); ``--trace 1`` alternates untraced and traced
cycles, and reports per-layer metrics and the tracing overhead. The
last line of standard output is the JSON result; the line before it
holds the workload's named metrics, the environment and any problems.
See README.md next to this file.
"""
from __future__ import annotations

import os

# One process, BLAS single-threaded unless the caller says otherwise;
# set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: The end-to-end metrics, in BENCHMARK.json's order.
END_TO_END = ("setup_s", "fit_per_s", "apply_per_s", "peak_rss_mb")
#: Set-up samples before the first cycle; one more follows each cycle,
#: so the reported median samples the whole run.
SETUP_REPEATS = 3
#: A set-up sample repeats the set-up back to back until it has lasted
#: this long and keeps the mean, so short set-ups are not lost in timer
#: and scheduler noise.
SETUP_SAMPLE_S = 0.25


def import_package():
    """Import sentiscore from this checkout's src/, or exit with an error."""
    package_dir = SRC / "sentiscore"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no sentiscore sources at {package_dir}")
    sys.path.insert(0, str(SRC))
    import sentiscore

    if Path(sentiscore.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"error: imported sentiscore from {sentiscore.__file__}")
    return sentiscore


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, when it can be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "sentiscore").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Ledger:
    """Operations attempted and the problems found with each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems[:5])


class Runner:
    """Runs a workload's cycles on fixed inputs and checks each one.

    Every command of every cycle is one operation. It fails when its
    output checks fail or its output bytes differ from the first cycle's.
    """

    def __init__(self, workload, inputs, workdir: Path, ledger: Ledger) -> None:
        self.workload, self.inputs, self.workdir, self.ledger = workload, inputs, workdir, ledger
        self.reference = None
        self.quality: dict = {}

    def cycle(self, on_span=None):
        """One checked cycle; returns its outcome and wall seconds."""
        began = time.perf_counter()
        outcome = self.workload.cycle(self.inputs, self.workdir, on_span)
        wall = time.perf_counter() - began
        checks = self.workload.check(self.inputs, outcome)
        if self.reference is None:
            self.reference = outcome
            if not any(checks.values()):
                self.quality = self.workload.quality(self.inputs, outcome)
        for command in self.workload.commands:
            problems = list(checks[command])
            if outcome.outputs[command] != self.reference.outputs[command]:
                problems.append("output differs from the first cycle")
            self.ledger.add(command, problems)
        return outcome, wall


def repeat(step, seconds: float) -> list:
    """Call ``step`` for about ``seconds``, at least once; return its results.

    Stops when one more call would end further past the deadline than
    the last call ended before it.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) / 2 >= seconds:
            return results


def measure(workload, seed, seconds, workdir, ledger) -> tuple[dict, dict]:
    setup_times = []

    def set_up() -> dict:
        count, start = 0, time.perf_counter()
        while True:
            inputs = workload.setup(seed, workdir)
            count += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SETUP_SAMPLE_S:
                setup_times.append(elapsed / count)
                return inputs

    for _ in range(SETUP_REPEATS):
        inputs = set_up()
    runner = Runner(workload, inputs, workdir, ledger)

    def step() -> dict:
        # Only the first outcome is kept, so memory does not grow with cycles.
        row = workload.named(inputs, runner.cycle()[0])
        set_up()
        return row

    rows = repeat(step, seconds)
    named = {
        name: {"value": statistics.median(row[name][0] for row in rows), "unit": unit}
        for name, (_, unit) in rows[0].items()
    }
    named.update((k, {"value": v, "unit": u}) for k, (v, u) in runner.quality.items())
    named["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    named["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB",
    }
    return {name: named[name] for name in END_TO_END}, {
        "named": named,
        "cycles": len(rows),
        "per_cycle": {name: [row[name][0] for row in rows] for name in END_TO_END if name in rows[0]},
        "setup_samples": len(setup_times),
    }


def measure_traced(workload, seed, seconds, workdir, ledger) -> tuple[dict, dict]:
    """Untraced and traced cycles in turn; per-layer metrics come from the
    traced ones, the overhead from the difference of their medians."""
    before = spans.package_bindings()
    setup_tracer = spans.Tracer()
    setup_tracer.install()
    try:
        inputs = workload.setup(seed, workdir)
    finally:
        setup_tracer.uninstall()
    runner = Runner(workload, inputs, workdir, ledger)
    tracer = spans.Tracer()

    def pair() -> tuple[float, float, int]:
        untraced = runner.cycle()[1]
        wrapped = tracer.install()
        try:
            traced = runner.cycle(tracer.record)[1]
        finally:
            tracer.uninstall()
        return untraced, traced, wrapped

    untraced, traced, wrapped = zip(*repeat(pair, seconds))
    after = spans.package_bindings()
    left = [key for key, value in before.items() if after.get(key) is not value]
    ledger.add("restore", [f"{module}.{attr} was not restored" for module, attr in left])

    totals = spans.summarize(tracer.spans)
    metrics = spans.layer_metrics(totals, tracer.counts, per=len(traced))
    setup_totals = spans.summarize(setup_tracer.spans)
    metrics["synthetic.generate_corpus.s"]["value"] = setup_totals.get(
        "synthetic.generate_corpus", {}
    ).get("incl", 0.0)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": overhead / statistics.median(untraced),
        "unit": "ratio",
    }
    return metrics, {
        "cycles": len(traced),
        "untraced_cycle_s": untraced,
        "traced_cycle_s": traced,
        "wrapped_bindings": wrapped[0],
        "spans": len(tracer.spans),
        "observer_errors": tracer.observer_errors,
        "top_self_s": sorted(
            ((name, t["self"] / len(traced)) for name, t in totals.items()),
            key=lambda item: -item[1],
        )[:12],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)

    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload, smoke=args.smoke)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        measure_fn = measure_traced if args.trace else measure
        metrics, detail = measure_fn(workload, args.seed, args.seconds, workdir, ledger)
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    detail.update(
        workload=args.workload,
        trace=args.trace,
        error_rate=ledger.failed / ledger.attempted,
        problems=ledger.problems[:20],
        env=environment(args.seed),
    )
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # Turn SIGTERM into an exit, so the work directory is still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
