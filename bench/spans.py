"""Span tracing of signopt's layers, installed from outside the package.

``install(tracer)`` replaces the public entry points of each signopt module
with wrappers that record one span per call: module attributes where the
importing module looks them up (``signopt.harness.bz_learner``,
``signopt.optimizer.line_label_oracle``, ...) and methods on the classes
that define them (``LabelOracle.label_sample``, ``Box.contains``, ...).
Spans are kept in memory; ``self_times`` turns them into self time, the
span's duration minus the part of it that its child spans cover.

Tracing is single-process: spans made in pool workers are never collected,
so pool workloads are traced with one job.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

NO_PARENT = -1
NO_CELL = -1


class Span(NamedTuple):
    name: str       # "<layer>.<entry point>"
    start: float    # perf_counter seconds
    end: float
    parent: int     # index of the enclosing span in the same list, or NO_PARENT
    cell: int       # sweep cell being run, or NO_CELL
    n: int          # work items of the call: queries for oracles, samples for erm_cut


LEARNERS = ("learners.bz_learner", "learners.adaptive_learner",
            "learners.passive_erm", "learners.bisect_noiseless")
QUERY_SPANS = ("oracles.label_sample", "oracles.label_sample_many",
               "oracles.sign_sample", "oracles.sign_sample_line")
LAYERS = ("bench", "harness", "metrics", "optimizer", "learners", "oracles",
          "problems")


class Tracer:
    """Records spans of the calls made through the installed wrappers."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack = [NO_PARENT]
        self.cell = NO_CELL
        self.n_cells = 0

    def reset(self) -> None:
        self.spans.clear()  # the wrappers hold this list; keep its identity

    def wrap(self, fn, name: str, count=None):
        """Wrap ``fn`` to record a span per call; ``count(args, kwargs)`` gives n."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            n = count(args, kwargs) if count else 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.cell, n)

        return traced

    def wrap_cell(self, fn, name: str):
        """Like ``wrap``, and every span made inside the call carries a new cell id."""
        traced = self.wrap(fn, name)

        @functools.wraps(fn)
        def cell(*args, **kwargs):
            self.cell, self.n_cells = self.n_cells, self.n_cells + 1
            try:
                return traced(*args, **kwargs)
            finally:
                self.cell = NO_CELL

        return cell

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)


def _n_arg(position: int, name: str):
    """Length of the argument passed at ``position`` or by ``name``."""
    return lambda args, kwargs: len(args[position] if len(args) > position
                                    else kwargs[name])


def _targets():
    """(span name, owners, attribute, work count) of every traced entry point."""
    from signopt import harness, learners, optimizer, oracles, problems

    everywhere = (learners, harness, optimizer)
    functions = (problems.Quadratic, problems.Ridge, problems.SeparablePower)
    return [
        ("harness.run_experiment", (harness,), "run_experiment", None),
        ("harness.run_cell", (harness,), "run_cell", None),
        ("metrics.error_record", (harness,), "error_record", None),
        ("optimizer.rssgd", (harness,), "rssgd", None),
        ("optimizer.line_label_oracle", (optimizer,), "line_label_oracle", None),
        ("optimizer.line_label_sample", (optimizer.LineLabelOracle,),
         "label_sample", None),
        ("optimizer.line_label_sample_many", (optimizer.LineLabelOracle,),
         "label_sample_many", None),
        ("learners.bz_learner", everywhere, "bz_learner", None),
        ("learners.adaptive_learner", everywhere, "adaptive_learner", None),
        ("learners.passive_erm", everywhere, "passive_erm", None),
        ("learners.bisect_noiseless", everywhere, "bisect_noiseless", None),
        ("learners.erm_cut", (learners,), "erm_cut", _n_arg(0, "positions")),
        ("oracles.seeded_rng", (oracles, harness, optimizer), "seeded_rng", None),
        ("oracles.label_sample", (oracles.LabelOracle,), "label_sample", None),
        ("oracles.label_sample_many", (oracles.LabelOracle,),
         "label_sample_many", _n_arg(1, "xs")),
        ("oracles.sign_sample", (oracles.SignOracle,), "sign_sample", None),
        ("oracles.sign_sample_line", (oracles.SignOracle,),
         "sign_sample_line", _n_arg(3, "alphas")),
        ("problems.eta_at", (problems.TncProblem,), "eta_at", None),
        ("problems.box_contains", (problems.Box,), "contains", None),
        ("problems.grad_coord", functions, "grad_coord", None),
        ("problems.grad_coord_line", functions, "grad_coord_line", None),
        ("problems.value", functions, "value", None),
    ]


@contextmanager
def install(tracer: Tracer):
    """Route signopt's entry points through ``tracer`` inside the block."""
    saved = []
    try:
        for name, owners, attr, count in _targets():
            for owner in owners:
                original = vars(owner).get(attr)
                if original is None:  # this owner no longer looks it up
                    continue
                if name == "harness.run_cell":
                    wrapped = tracer.wrap_cell(original, name)
                else:
                    wrapped = tracer.wrap(original, name, count)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals within it."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent != NO_PARENT:
            children[sp.parent].append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, sp.start), min(end, sp.end)
            if end <= start:
                continue
            if run_end is not None and start <= run_end:
                run_end = max(run_end, end)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        if run_end is not None:
            covered += run_end - run_start
        out.append(sp.end - sp.start - covered)
    return out


class Summary:
    """Per-name totals over the spans of several traced rounds."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.work = Counter()
        self.learner_queries = Counter()  # queries issued beneath each learner
        self.child_calls = Counter()      # (parent name, child name) -> calls
        self.span_self_sum_s = 0.0

    def add(self, spans) -> None:
        selfs = self_times(spans)
        owner = [NO_PARENT] * len(spans)  # nearest learner span, self included
        for i, (sp, own) in enumerate(zip(spans, selfs)):
            self.calls[sp.name] += 1
            self.total_s[sp.name] += sp.end - sp.start
            self.self_s[sp.name] += own
            self.work[sp.name] += sp.n
            self.span_self_sum_s += own
            if sp.name in LEARNERS:
                owner[i] = i
            elif sp.parent != NO_PARENT:
                owner[i] = owner[sp.parent]
            if sp.name in QUERY_SPANS and owner[i] != NO_PARENT:
                self.learner_queries[spans[owner[i]].name] += sp.n
            if sp.parent != NO_PARENT:
                self.child_calls[spans[sp.parent].name, sp.name] += 1

    def per_call_us(self, name: str, self_only: bool = False) -> float:
        total = (self.self_s if self_only else self.total_s)[name]
        return 1e6 * total / self.calls[name] if self.calls[name] else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    @property
    def queries(self) -> int:
        return sum(self.work[name] for name in QUERY_SPANS)


def span_records(spans):
    """JSON-ready span dicts (times in microseconds from the first span)."""
    if not spans:
        return []
    t0 = spans[0].start
    return [{"id": i, "name": sp.name, "cell": sp.cell, "parent": sp.parent,
             "start_us": round(1e6 * (sp.start - t0), 3),
             "end_us": round(1e6 * (sp.end - t0), 3),
             "self_us": round(1e6 * own, 3), "n": sp.n}
            for i, (sp, own) in enumerate(zip(spans, self_times(spans)))]
