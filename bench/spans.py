"""Span tracing of semilevy from outside the program.

During a traced pass, the functions and methods through which one semilevy
module calls another are replaced by wrappers that record a span: name,
start, end, parent span and thread.  Layers are named after the modules
(`cli`, `classify`, `schedule`, `skeleton`, `lln`, `models`, `util`).  No
file of the program changes.  Spans stay in memory and are written out at
exit.

Tasks that `util.map_indexed` hands to pool threads carry the id of the
`map_indexed` span in thread-local state, so spans opened in a pool thread
find their parent.  A boundary missing from the program (renamed or removed
by a refactor) is skipped and listed; its metrics then read 0.
"""

from __future__ import annotations

import functools
import gzip
import math
import pathlib
import threading
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans in parallel arrays indexed by span id; a span's parent is -1 at the root."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.threads = array("Q")
        self.starts = array("d")
        self.ends = array("d")
        self.work: dict[int, dict] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def current(self) -> int:
        return getattr(self._local, "span", -1)

    def set_current(self, span: int):
        self._local.span = span

    def open(self, name: str) -> int:
        parent = self.current()
        with self._lock:
            span = len(self.names)
            self.names.append(name)
            self.parents.append(parent)
            self.threads.append(threading.get_ident())
            self.starts.append(time.perf_counter())
            self.ends.append(math.nan)
        self._local.span = span
        return span

    def close(self, span: int):
        self.ends[span] = time.perf_counter()
        self._local.span = self.parents[span]

    def write(self, path: pathlib.Path):
        """All spans as gzip CSV: id,name,parent,thread,start,end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,parent,thread,start,end\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.parents[i]},{self.threads[i]},{self.starts[i]!r},{self.ends[i]!r}\n")


def _rows(z) -> int:
    z = np.asarray(z)
    return int(z.shape[0]) if z.ndim >= 2 else 1


def _wrap(tracer: Tracer, fn, name, work=None):
    """fn with a span around each call; `name` may be a function of the arguments."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if work is not None:
            tracer.work[span] = work(args, kwargs, result)
        return result

    return traced


def _wrap_map_indexed(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(task, n, *args, **kwargs):
        span = tracer.open("util.map_indexed")

        def in_span(i):
            # pool threads start with no current span; adopt this one
            outer = tracer.current()
            tracer.set_current(span)
            try:
                return task(i)
            finally:
                tracer.set_current(outer)

        try:
            return fn(in_span, n, *args, **kwargs)
        finally:
            tracer.close(span)
            tracer.work[span] = {"tasks": int(n)}

    return traced


def _verdict_name(args) -> str:
    return f"classify.chung_fuchs_verdict.d{min(args[0].dim, 3)}"


def _csv_bytes(args, kwargs, result):
    return {"bytes": len(result)}


# (module, attribute, span name, work counter); attributes are module-level
# functions, replaced in every semilevy module that imported them by name
FUNCTIONS = (
    ("cli", "parse_config", "cli.parse_config", None),
    ("classify", "chung_fuchs_verdict", _verdict_name, None),
    ("classify", "chung_fuchs_integral", "classify.chung_fuchs_integral", None),
    ("classify", "radius_sweep", "classify.radius_sweep", None),
    ("classify", "empirical_diagnostic", "classify.empirical_diagnostic", None),
    ("schedule", "period_exponent", "schedule.period_exponent",
     lambda a, k, r: {"points": _rows(k["z"] if "z" in k else a[1])}),
    ("schedule", "sample_paths", "schedule.sample_paths",
     lambda a, k, r: {"paths": len(r), "cells": sum(len(p.grid) - 1 for p in r)}),
    ("schedule", "_sample_cells", "schedule._sample_cells", None),
    ("schedule", "sample_interval_increment", "schedule.sample_interval_increment", None),
    ("skeleton", "sample_walks", "skeleton.sample_walks",
     lambda a, k, r: {"walks": len(r), "steps": sum(w.steps.shape[0] - 1 for w in r)}),
    ("skeleton", "ball_visit_curve", "skeleton.ball_visit_curve", None),
    ("skeleton", "occupations_csv", "cli.csv", _csv_bytes),
    ("lln", "slln_check", "lln.slln_check", None),
    ("lln", "divergence_check", "lln.divergence_check", None),
    ("lln", "wlln_conditions", "lln.wlln_conditions", None),
    ("util", "split_seed", "util.split_seed", None),
)

# (module, class, method, span name, work counter)
METHODS = (
    ("models", "LevyModel", "char_exponent", "models.char_exponent", None),
    ("schedule", "PathSample", "to_csv", "cli.csv", _csv_bytes),
    ("skeleton", "BallVisitCurve", "to_csv", "cli.csv", _csv_bytes),
    ("lln", "LLNReport", "deviations_csv", "cli.csv", _csv_bytes),
    ("lln", "LLNReport", "conditions_csv", "cli.csv", _csv_bytes),
) + tuple(
    ("models", cls, "_sample_batch", f"models.sample_batch.{kind}",
     lambda a, k, r: {"cells": len(a[1])})
    for cls, kind in (
        ("BrownianDrift", "brownian"),
        ("SymmetricStable", "stable"),
        ("CompoundPoisson", "cpoisson"),
        ("PureDrift", "drift"),
    )
)


class Patches:
    """Wrappers for every boundary in FUNCTIONS and METHODS.

    `apply(True)` swaps the wrappers in, `apply(False)` restores the
    originals, so untraced passes of a traced run pay nothing.  `missing`
    lists the boundaries not found in the program.
    """

    def __init__(self, tracer: Tracer):
        import semilevy
        from semilevy import classify, cli, lln, models, schedule, skeleton, util

        found = (classify, cli, lln, models, schedule, skeleton, util)
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in found}
        self.swaps: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []

        def everywhere(original, wrapper):
            for module in (semilevy, *found):
                for attr, value in vars(module).items():
                    if value is original:
                        self.swaps.append((module, attr, original, wrapper))

        for module, attr, name, work in FUNCTIONS:
            original = getattr(modules[module], attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
            else:
                everywhere(original, _wrap(tracer, original, name, work))
        original = getattr(util, "map_indexed", None)
        if original is None:
            self.missing.append("util.map_indexed")
        else:
            everywhere(original, _wrap_map_indexed(tracer, original))
        for module, cls_name, method, name, work in METHODS:
            cls = getattr(modules[module], cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                self.missing.append(f"{module}.{cls_name}.{method}")
            else:
                self.swaps.append((cls, method, original, _wrap(tracer, original, name, work)))

        # CSV files the CLI writes count as CSV writing, so file writes stay
        # out of cli.main's self time
        write_text = pathlib.Path.write_text
        csv_write = _wrap(tracer, write_text, "cli.csv")

        def write(path, *args, **kwargs):
            writer = csv_write if path.suffix == ".csv" else write_text
            return writer(path, *args, **kwargs)

        self.swaps.append((pathlib.Path, "write_text", write_text, write))

    def apply(self, on: bool):
        for target, attr, original, wrapper in self.swaps:
            setattr(target, attr, wrapper if on else original)


# Per-layer metrics of the traced run: (metric, span name, field, unit).
# field is "calls", "s" (inclusive seconds), "self_s" (seconds not covered
# by child spans) or a work counter recorded on the span.
LAYER_METRICS = (
    ("schedule.period_exponent.calls", "schedule.period_exponent", "calls", "count"),
    ("schedule.period_exponent.points", "schedule.period_exponent", "points", "count"),
    ("schedule.period_exponent.s", "schedule.period_exponent", "s", "s"),
    *(
        (f"classify.chung_fuchs_verdict.{d}.{f}", f"classify.chung_fuchs_verdict.{d}", f, "s")
        for d in ("d1", "d2", "d3")
        for f in ("s", "self_s")
    ),
    ("classify.chung_fuchs_integral.calls", "classify.chung_fuchs_integral", "calls", "count"),
    ("classify.radius_sweep.s", "classify.radius_sweep", "s", "s"),
    ("models.char_exponent.calls", "models.char_exponent", "calls", "count"),
    ("models.char_exponent.s", "models.char_exponent", "s", "s"),
    ("util.split_seed.calls", "util.split_seed", "calls", "count"),
    ("util.split_seed.s", "util.split_seed", "s", "s"),
    ("util.map_indexed.tasks", "util.map_indexed", "tasks", "count"),
    ("util.map_indexed.s", "util.map_indexed", "s", "s"),
    ("util.map_indexed.self_s", "util.map_indexed", "self_s", "s"),
    ("schedule.sample_paths.paths", "schedule.sample_paths", "paths", "count"),
    ("schedule.sample_paths.cells", "schedule.sample_paths", "cells", "count"),
    ("schedule.sample_paths.s", "schedule.sample_paths", "s", "s"),
    ("schedule.sample_paths.self_s", "schedule.sample_paths", "self_s", "s"),
    ("schedule._sample_cells.calls", "schedule._sample_cells", "calls", "count"),
    ("schedule._sample_cells.s", "schedule._sample_cells", "s", "s"),
    ("skeleton.sample_walks.walks", "skeleton.sample_walks", "walks", "count"),
    ("skeleton.sample_walks.steps", "skeleton.sample_walks", "steps", "count"),
    ("skeleton.sample_walks.s", "skeleton.sample_walks", "s", "s"),
    ("skeleton.sample_walks.self_s", "skeleton.sample_walks", "self_s", "s"),
    ("schedule.sample_interval_increment.calls", "schedule.sample_interval_increment", "calls", "count"),
    ("schedule.sample_interval_increment.s", "schedule.sample_interval_increment", "s", "s"),
    *(
        (f"lln.{fn}.{f}", f"lln.{fn}", f, "s")
        for fn in ("slln_check", "divergence_check", "wlln_conditions")
        for f in ("s", "self_s")
    ),
    *(
        (f"models.sample_batch.{kind}.{f}", f"models.sample_batch.{kind}", f, unit)
        for kind in ("brownian", "stable", "cpoisson", "drift")
        for f, unit in (("calls", "count"), ("cells", "count"), ("s", "s"))
    ),
    ("cli.csv.s", "cli.csv", "s", "s"),
    ("cli.csv.bytes", "cli.csv", "bytes", "bytes"),
    ("classify.empirical_diagnostic.s", "classify.empirical_diagnostic", "s", "s"),
    ("classify.empirical_diagnostic.self_s", "classify.empirical_diagnostic", "self_s", "s"),
    ("skeleton.ball_visit_curve.s", "skeleton.ball_visit_curve", "s", "s"),
    ("cli.parse_config.s", "cli.parse_config", "s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
)

_SELF_SPANS = {span for _, span, field, _ in LAYER_METRICS if field == "self_s"}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= max(lo, end):
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def aggregate(tracer: Tracer, first: int, last: int) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive s, self_s and summed work counters.

    Covers spans first..last-1.  A span's self time is its duration minus
    the union of its children's intervals clipped to it; children may run
    on other threads.
    """
    stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    children: dict[int, list[int]] = defaultdict(list)
    names, parents, starts, ends = tracer.names, tracer.parents, tracer.starts, tracer.ends
    for span in range(first, last):
        name = names[span]
        entry = stats[name]
        entry["calls"] += 1
        entry["s"] += ends[span] - starts[span]
        for key, value in tracer.work.get(span, {}).items():
            entry[key] += value
        parent = parents[span]
        if parent >= first and names[parent] in _SELF_SPANS:
            children[parent].append(span)
    for span in range(first, last):
        name = names[span]
        if name not in _SELF_SPANS:
            continue
        lo, hi = starts[span], ends[span]
        covered = _union_length(
            [(max(starts[c], lo), min(ends[c], hi)) for c in children.get(span, ())]
        )
        stats[name]["self_s"] += (hi - lo) - covered
    return stats


def layer_values(stats: dict) -> dict[str, float]:
    return {metric: float(stats.get(span, {}).get(field, 0.0)) for metric, span, field, _ in LAYER_METRICS}
