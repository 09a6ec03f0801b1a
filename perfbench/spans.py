"""Per-layer tracing for the benchmark, from outside the program.

While a ``Tracer`` is active, each layer's public functions are replaced,
at the module attribute their callers look them up on, by wrappers that
record a span: name, start, end, parent span and job. Spans stay in memory;
``layer_metrics`` turns one pass of them into self times and work counts.
A span's self time is its duration minus that of its direct children; job
time not covered by any span is the CLI's own (parsing, int -> str, printing).
"""
from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

SUITE_NAMES = ("table1", "table2", "thm21", "crux", "thm32", "tauraso", "recurrences")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the pass's span list, -1 for a root span
    job: int
    args: tuple
    result: object

    @property
    def duration(self) -> float:
        return self.end - self.start


def _hooks(tc) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every hooked function."""
    regions2d, count2d, solid3d = tc.regions2d, tc.count2d, tc.solid3d
    sequences, identities = tc.sequences, tc.identities
    hooks = [
        (count2d, "count_tilings", "count2d.count_tilings"),  # CLI
        (identities, "count_tilings", "count2d.count_tilings"),  # suites
        (solid3d, "count_tilings", "count2d.count_tilings"),  # flat layer counts
        (count2d, "transpose", "regions2d.transpose"),
        (solid3d, "count_bricks", "solid3d.count_bricks"),
        (identities, "count_bricks", "solid3d.count_bricks"),
        (sequences, "rec_eval_matpow", "sequences.matpow"),
        (sequences, "rec_eval_iter", "sequences.iter"),
        (sequences, "closed_eval", "sequences.closed"),
        (identities, "closed_eval", "sequences.closed"),
        (sequences, "rec_values", "sequences.values"),
        (identities, "rec_values", "sequences.values"),
        (sequences, "fibonacci", "sequences.helper"),
        (identities, "l2", "sequences.helper"),
        (identities, "l3", "sequences.helper"),
    ]
    for name in ("rect", "a_grid", "b_grid", "c_grid", "l2_region", "l3_region", "from_ascii"):
        hooks.append((regions2d, name, "regions2d.build"))
    for name in ("a_grid", "b_grid", "c_grid", "l2_region", "l3_region"):
        hooks.append((identities, name, "regions2d.build"))
    return hooks


class Tracer:
    """Context manager that hooks tilecount's layers and collects spans.

    Set ``job`` before each job; read and clear ``spans`` after each pass.
    A hook whose attribute no longer exists is skipped, so the benchmark
    keeps running on a program whose internals moved.
    """

    def __init__(self, tc) -> None:
        self.tc = tc
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.job, args, result)

        return traced

    def __enter__(self) -> Tracer:
        for owner, attr, name in _hooks(self.tc):
            fn = getattr(owner, attr, None)
            if fn is not None:
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
        suites = self.tc.identities.SUITES
        for key, fn in list(suites.items()):
            self._saved.append((suites, key, fn))
            suites[key] = self._wrap(f"identities.{key}", fn)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._saved.clear()


def _bits(value) -> int:
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, list):
        return sum(v.bit_length() for v in value)
    return 0


def layer_metrics(spans: list[Span], job_times: list[float], out_chars: int) -> dict[str, float]:
    """Self times and work counts of one traced pass.

    ``job_times`` are the pass's job durations (job i owns spans with
    ``job == i``). The ``_s`` entries sum to ``sum(job_times)``.
    """
    m: dict[str, float] = {
        "count2d.count_tilings_s": 0.0,
        "count2d.calls": 0,
        "count2d.box_cells": 0,
        "count2d.max_width": 0,
        "solid3d.count_bricks_s": 0.0,
        "solid3d.calls": 0,
        "solid3d.layers": 0,
        "solid3d.flat_calls": 0,
        "solid3d.flat_s": 0.0,
        "sequences.matpow_s": 0.0,
        "sequences.matpow_calls": 0,
        "sequences.closed_s": 0.0,
        "sequences.closed_calls": 0,
        "sequences.iter_s": 0.0,
        "sequences.iter_calls": 0,
        "sequences.iter_steps": 0,
        "sequences.values_s": 0.0,
        "sequences.values_terms": 0,
        "sequences.helpers_s": 0.0,
        "sequences.helper_calls": 0,
        "sequences.result_bits": 0,
        "cli.self_s": 0.0,
        "cli.out_chars": out_chars,
        **{f"identities.{s}_s": 0.0 for s in SUITE_NAMES},
        "identities.checks": 0,
        "regions2d.build_s": 0.0,
        "regions2d.build_calls": 0,
        "regions2d.transpose_s": 0.0,
        "regions2d.transpose_calls": 0,
    }
    child_time = [0.0] * len(spans)
    root_time = [0.0] * len(job_times)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
        else:
            root_time[span.job] += span.duration
    for i, span in enumerate(spans):
        self_s = span.duration - child_time[i]
        parent = spans[span.parent].name if span.parent >= 0 else ""
        name, args = span.name, span.args
        if name == "count2d.count_tilings":
            region = args[0]
            m["count2d.count_tilings_s"] += self_s
            m["count2d.calls"] += 1
            m["count2d.box_cells"] += region.width * region.height
            m["count2d.max_width"] = max(m["count2d.max_width"], min(region.width, region.height))
            if parent == "solid3d.count_bricks":
                m["solid3d.flat_calls"] += 1
                m["solid3d.flat_s"] += span.duration
        elif name == "solid3d.count_bricks":
            m["solid3d.count_bricks_s"] += self_s
            m["solid3d.calls"] += 1
            m["solid3d.layers"] += args[0].layers
        elif name == "sequences.helper":
            m["sequences.helpers_s"] += self_s
            m["sequences.helper_calls"] += 1
        elif name.startswith("sequences."):
            kind = name.split(".")[1]
            m[f"sequences.{kind}_s"] += self_s
            m["sequences.result_bits"] += _bits(span.result)
            if kind == "values":
                rec, _, hi = args
                m["sequences.values_terms"] += max(0, hi - rec.start + 1)
            else:
                m[f"sequences.{kind}_calls"] += 1
            if kind == "iter":
                rec, n = args
                m["sequences.iter_steps"] += max(0, n - rec.start - rec.order + 1)
        elif name.startswith("identities."):
            m[f"{name}_s"] += self_s
            m["identities.checks"] += len(span.result.checks)
        elif name == "regions2d.build":
            m["regions2d.build_s"] += self_s
            m["regions2d.build_calls"] += parent != "regions2d.build"
        elif name == "regions2d.transpose":
            m["regions2d.transpose_s"] += self_s
            m["regions2d.transpose_calls"] += 1
    m["cli.self_s"] = sum(t - r for t, r in zip(job_times, root_time))
    return m
