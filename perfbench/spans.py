"""Spans around the vcseval layers, recorded from outside the package.

The traced run replaces each public function below, at every vcseval
module attribute bound to it, with a wrapper that records one span per
call: name, parent span, start and end. Replacing every binding matters
because the CLI resolves most functions through ``from .x import f``
names (``report_cli.vcs``, ``toy_trainer.weighted_soft_t``), so wrapping
only the defining module would miss those calls. ``vcseval.vcs`` is the
function, which shadows the module of the same name, so defining
modules are always looked up in ``sys.modules``.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import pathlib
import statistics
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager


def _count_parse(counts, result, *args, **kwargs):
    counts["event_stream.records_parsed"] += len(result)


def _count_vcs(counts, result, *args, **kwargs):
    counts["vcs.trials"] += len(result.trials)
    counts["vcs.subsample_k"] += result.config.subsample_size(result.k_total)


def _count_soft_t(counts, result, timestamps, weights, random_times, beta):
    n, r = len(timestamps), len(random_times)
    counts["soft_vca.weighted_soft_t.events"] += n
    # Cells of the dense n x n and r x n distance matrices, computed from
    # the call's sizes rather than observed inside the function.
    counts["soft_vca.dense_cells"] += n * (n + r)


def _count_loss(counts, result, *args, **kwargs):
    counts["toy_trainer.penalty_skipped"] += int(result.penalty_skipped)


# (defining module, function, span name, counter or None)
TARGETS = (
    ("vcseval.event_stream", "parse_records", "event_stream.parse_records", _count_parse),
    ("vcseval.event_stream", "disagreement_set", "event_stream.disagreement_set", None),
    ("vcseval.event_stream", "serialize_records", "event_stream.serialize_records", None),
    ("vcseval.vcs", "vcs", "vcs.vcs", _count_vcs),
    ("vcseval.instance_metrics", "average_precision", "instance_metrics.average_precision", None),
    ("vcseval.instance_metrics", "auroc", "instance_metrics.auroc", None),
    ("vcseval.report_cli", "build_eval_report", "report_cli.build_eval_report", None),
    ("vcseval.report_cli", "emit_density_svg", "report_cli.write", None),
    ("vcseval.report_cli", "density_csv", "report_cli.write", None),
    ("vcseval.soft_vca", "weighted_soft_t", "soft_vca.weighted_soft_t", _count_soft_t),
    ("vcseval.soft_vca", "soft_nn_distance", "soft_vca.soft_nn", None),
    ("vcseval.soft_vca", "soft_nn_gradient", "soft_vca.soft_nn", None),
    ("vcseval.soft_vca", "finite_difference_check", "soft_vca.finite_difference_check", None),
    ("vcseval.toy_trainer", "train", "toy_trainer.train", None),
    ("vcseval.toy_trainer", "combined_loss", "toy_trainer.combined_loss", _count_loss),
    ("vcseval.toy_trainer", "evaluate_model", "toy_trainer.evaluate_model", None),
    ("vcseval.pattern_gen", "generate_drift_dataset", "pattern_gen.generate_drift_dataset", None),
    ("vcseval.pattern_gen", "generate_pattern", "pattern_gen.generate_pattern", None),
)

ROOT_SPAN = "report_cli.main"


class Tracer:
    """Spans and counters of one traced CLI invocation, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end]
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, count=None):
        """fn with one span per call and, if given, count(counts, result, *args)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, self._stack[-1] if self._stack else None, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        return traced

    def metrics(self):
        """Per-name ``.s`` (outermost spans), ``.self_s`` and ``.calls``, plus counters."""
        child_s = Counter()
        for _, parent, start, end in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = Counter(self.counts)
        for index, (name, parent, start, end) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_s[index]
            if not self._has_ancestor(parent, name):
                out[f"{name}.s"] += end - start
        calls = out["soft_vca.weighted_soft_t.calls"]
        out["soft_vca.weighted_soft_t.events_mean"] = (
            out["soft_vca.weighted_soft_t.events"] / calls if calls else 0.0
        )
        return out

    def _has_ancestor(self, index, name):
        while index is not None:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][1]
        return False

    def self_total(self):
        """Sum of all spans' self times: the traced wall time they account for."""
        return sum(v for k, v in self.metrics().items() if k.endswith(".self_s"))


@contextmanager
def installed(tracer):
    """Wrap every target at each vcseval binding; yield the names not found.

    Every binding is restored on exit, also when the traced code raises.
    """
    cli = sys.modules["vcseval.report_cli"]
    modules = [m for n, m in list(sys.modules.items()) if n == "vcseval" or n.startswith("vcseval.")]
    undo, missing = [], []
    try:
        for module_name, func_name, span_name, count in TARGETS:
            original = getattr(sys.modules.get(module_name), func_name, None)
            if original is None:
                missing.append(f"{module_name}.{func_name}")
                continue
            traced = tracer.wrap(span_name, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, traced)
        # Report output: json.dumps of the report and every Path.write_text.
        if getattr(cli, "json", None) is json:
            proxy = types.ModuleType("json")
            proxy.__dict__.update(vars(json))
            proxy.dumps = tracer.wrap("report_cli.write", json.dumps)
            undo.append((cli, "json", json))
            cli.json = proxy
        undo.append((pathlib.Path, "write_text", pathlib.Path.write_text))
        pathlib.Path.write_text = tracer.wrap("report_cli.write", pathlib.Path.write_text)
        yield missing
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def median_metrics(dicts):
    """Per-key median over metric dicts; a key absent from one counts as 0."""
    keys = set().union(*dicts) if dicts else set()
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}
