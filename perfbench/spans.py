"""Span tracing of sentiscore's public functions, from outside the package.

:class:`Tracer` rebinds every public function of the traced modules, in
every ``sentiscore`` module that refers to it, to a wrapper that records
one span per call: name, start, end and the index of the enclosing span.
Spans stay in memory until the run ends. :meth:`Tracer.uninstall` puts
every original object back.

Observers add counts at the same boundaries (solver sweeps, augmentation
candidates, computed convolution work) from a call's arguments and
result. A function that no longer exists is simply not wrapped, so its
metrics read zero.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

PACKAGE = "sentiscore"
TRACED_MODULES = (
    "lexicon",
    "vocab",
    "embeddings",
    "cnn",
    "losses",
    "boxlsq",
    "learner",
    "augment",
    "evaluate",
    "synthetic",
    "cli",
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def _forward_name(args, kwargs) -> str:
    active = kwargs.get("dropout_active", args[3] if len(args) > 3 else False)
    return "cnn.forward.train" if active else "cnn.forward.infer"


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _observe_forward(counts, args, kwargs, result) -> None:
    model, config = args[0], _arg(args, kwargs, 2, "config")
    _, d, k = model.filters.shape
    positions = config.sequence_length - d + 1
    counts["cnn.conv.macs"] += positions * config.filter_count * d * k


def _observe_fit(counts, args, kwargs, result) -> None:
    dataset, config = _arg(args, kwargs, 1, "dataset"), _arg(args, kwargs, 2, "config")
    counts["cnn.fit.sample_epochs"] += len(dataset) * config.epochs


def _observe_solve(counts, args, kwargs, result) -> None:
    design = _arg(args, kwargs, 0, "problem").design
    counts["boxlsq.solve.sweeps"] += result.iterations
    counts["boxlsq.solve.converged"] += bool(result.converged)
    counts["boxlsq.solve.kkt_max"] = max(counts["boxlsq.solve.kkt_max"], result.kkt_residual)
    counts["boxlsq.design.nonzero_share_sum"] += (design != 0).sum() / max(design.size, 1)


def _observe_train_iterative(counts, args, kwargs, result) -> None:
    counts["learner.outer_iterations"] += len(result.iterations)


def _observe_similar_terms(counts, args, kwargs, result) -> None:
    same_sign, opposite_sign = result
    counts["augment.candidates"] += len(same_sign) + len(opposite_sign)


def _observe_augment_corpus(counts, args, kwargs, result) -> None:
    counts["augment.variants"] += len(result)
    counts["augment.flips"] += sum(s.provenance.endswith("(flip)") for s in result)


OBSERVERS: dict[str, Callable] = {
    "cnn.forward": _observe_forward,
    "cnn.fit": _observe_fit,
    "boxlsq.solve": _observe_solve,
    "learner.train_iterative": _observe_train_iterative,
    "augment.similar_terms": _observe_similar_terms,
    "augment.augment_corpus": _observe_augment_corpus,
}


def _package_modules() -> list:
    return [
        module
        for key, module in list(sys.modules.items())
        if module is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def package_bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded module of the package."""
    return {
        (module.__name__, attr): value
        for module in _package_modules()
        for attr, value in vars(module).items()
    }


class Tracer:
    """Records spans and counts around the package's public functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.observer_errors = 0
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def targets(self) -> dict[str, object]:
        """Public functions defined in the traced modules, by span name."""
        found = {}
        for short in TRACED_MODULES:
            module = sys.modules.get(f"{PACKAGE}.{short}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    found[f"{short}.{name}"] = obj
        return found

    def install(self) -> int:
        """Rebind every target wherever the package refers to it; return
        the number of names rebound."""
        modules = _package_modules()
        for span_name, original in self.targets().items():
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebound.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return len(self._rebound)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller, under the current open span."""
        self.spans.append(Span(name, start, end, self._stack[-1] if self._stack else None))

    def _wrap(self, span_name: str, fn):
        namer = _forward_name if span_name == "cnn.forward" else None
        observer = OBSERVERS.get(span_name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if namer else span_name
            index = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observer is not None:
                try:
                    observer(self.counts, args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    self.observer_errors += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper


# Per-layer metrics: (metric, unit, rule). A rule is the name of a count,
# or ("self" | "incl" | "calls", span names...) for the summed self time,
# duration or number of those spans, or ("ratio", rule, rule), or
# ("max", count name) for a count that holds a maximum.
PER_LAYER = (
    ("cnn.forward.train.self_s", "s", ("self", "cnn.forward.train")),
    ("cnn.forward.train.calls", "count", ("calls", "cnn.forward.train")),
    ("cnn.backward.self_s", "s", ("self", "cnn.backward")),
    ("cnn.backward.calls", "count", ("calls", "cnn.backward")),
    ("cnn.train_step.self_s", "s", ("self", "cnn.train_step")),
    ("cnn.train_step.calls", "count", ("calls", "cnn.train_step")),
    ("cnn.fit.s", "s", ("incl", "cnn.fit")),
    ("cnn.fit.sample_epochs_per_s", "1/s", ("ratio", "cnn.fit.sample_epochs", ("incl", "cnn.fit"))),
    ("cnn.conv.macs", "MAC_computed", "cnn.conv.macs"),
    ("cnn.forward.infer.self_s", "s", ("self", "cnn.forward.infer")),
    ("cnn.forward.infer.calls", "count", ("calls", "cnn.forward.infer")),
    ("cnn.predict.self_s", "s", ("self", "cnn.predict")),
    ("cnn.predict.calls", "count", ("calls", "cnn.predict")),
    ("cnn.load_checkpoint.s", "s", ("incl", "cnn.load_checkpoint")),
    ("cnn.save_checkpoint.s", "s", ("incl", "cnn.save_checkpoint")),
    ("cnn.init_model.s", "s", ("incl", "cnn.init_model")),
    ("losses.label_loss.self_s", "s", ("self", "losses.label_loss")),
    ("losses.label_loss.calls", "count", ("calls", "losses.label_loss")),
    ("losses.weighted_ce_grad_logits.self_s", "s", ("self", "losses.weighted_ce_grad_logits")),
    ("losses.weighted_ce_grad_logits.calls", "count", ("calls", "losses.weighted_ce_grad_logits")),
    ("losses.softmax.self_s", "s", ("self", "losses.softmax")),
    ("losses.softmax.calls", "count", ("calls", "losses.softmax")),
    ("boxlsq.solve.calls", "count", ("calls", "boxlsq.solve")),
    ("boxlsq.solve.self_s", "s", ("self", "boxlsq.solve")),
    ("boxlsq.solve.sweeps", "count", "boxlsq.solve.sweeps"),
    ("boxlsq.solve.s_per_sweep", "s", ("ratio", ("incl", "boxlsq.solve"), "boxlsq.solve.sweeps")),
    ("boxlsq.solve.converged_ratio", "ratio", ("ratio", "boxlsq.solve.converged", ("calls", "boxlsq.solve"))),
    ("boxlsq.solve.kkt_max", "gradient", ("max", "boxlsq.solve.kkt_max")),
    ("boxlsq.design.density", "ratio", ("ratio", "boxlsq.design.nonzero_share_sum", ("calls", "boxlsq.solve"))),
    ("learner.train_iterative.s", "s", ("incl", "learner.train_iterative")),
    ("learner.outer_iterations", "count", "learner.outer_iterations"),
    ("learner.build_problem.self_s", "s", ("self", "learner.build_adverb_problem", "learner.build_word_problem")),
    ("augment.augment_corpus.s", "s", ("incl", "augment.augment_corpus")),
    ("augment.similar_terms.calls", "count", ("calls", "augment.similar_terms")),
    ("augment.similar_terms.self_s", "s", ("self", "augment.similar_terms")),
    ("augment.candidates", "count", "augment.candidates"),
    ("augment.variants", "count", "augment.variants"),
    ("augment.kept_ratio", "ratio", ("ratio", "augment.variants", "augment.candidates")),
    ("augment.flips", "count", "augment.flips"),
    ("lexicon.tokenize.self_s", "s", ("self", "lexicon.tokenize")),
    ("lexicon.tokenize.calls", "count", ("calls", "lexicon.tokenize")),
    ("lexicon.mask_target.self_s", "s", ("self", "lexicon.mask_target")),
    ("lexicon.mask_target.calls", "count", ("calls", "lexicon.mask_target")),
    ("lexicon.prepare_mentions.s", "s", ("incl", "lexicon.prepare_mentions")),
    ("lexicon.save_lexicon.s", "s", ("incl", "lexicon.save_lexicon")),
    ("lexicon.load_lexicon.s", "s", ("incl", "lexicon.load_lexicon")),
    ("lexicon.load_mention_records.s", "s", ("incl", "lexicon.load_mention_records")),
    ("vocab.build_vocab.s", "s", ("incl", "vocab.build_vocab")),
    ("embeddings.sequence_indices.self_s", "s", ("self", "embeddings.sequence_indices")),
    ("embeddings.sequence_indices.calls", "count", ("calls", "embeddings.sequence_indices")),
    ("evaluate.fold.s", "s", ("incl", "evaluate.fold")),
    ("evaluate.kfold_split.s", "s", ("incl", "evaluate.kfold_split")),
    ("evaluate.rebalance.s", "s", ("incl", "evaluate.rebalance")),
    ("synthetic.generate_corpus.s", "s", ("incl", "synthetic.generate_corpus")),
    ("cli.main.s", "s", ("incl", "cli.main")),
    ("cli.main.calls", "count", ("calls", "cli.main")),
)


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Totals per span name: calls, inclusive seconds and self seconds."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, {"calls": 0, "incl": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["incl"] += span.end - span.start
        entry["self"] += own
    return totals


def layer_metrics(totals: dict, counts: dict, per: float = 1.0) -> dict[str, dict]:
    """Every per-layer metric; sums are divided by ``per``, the cycles run."""

    def value(rule) -> float:
        if isinstance(rule, str):
            return counts.get(rule, 0)
        kind, *names = rule
        if kind == "ratio":
            den = value(names[1])
            return value(names[0]) / den if den else 0.0
        if kind == "max":
            return counts.get(names[0], 0)
        return sum(totals.get(name, {}).get(kind, 0) for name in names)

    def per_cycle(rule) -> bool:
        return isinstance(rule, str) or rule[0] not in ("ratio", "max")

    return {
        metric: {"value": value(rule) / (per if per_cycle(rule) else 1), "unit": unit}
        for metric, unit, rule in PER_LAYER
    }
