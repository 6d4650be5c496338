"""Trace analysis: span trees, per-stage attribution, schema validation.

The tracer records flat ``ph="X"`` complete events; this module rebuilds
the per-thread span trees from timestamp containment (the same model the
Chrome viewer renders), computes **self time** per span (duration minus
the duration of its direct children) and aggregates by span name into the
per-stage attribution report (:func:`attribution`; perfbench's traced runs
publish their rungs from it).

Within one thread's tree the self times of a root and its descendants sum
*exactly* to the root's duration, so the interesting number is the root's
own self time — the **unattributed** remainder no named stage covers.
``tests/test_obs.py`` asserts the named stages of an instrumented autotune
cover >= 90% of the run's wall time (and that the reconstructed tree's
self-time sum matches the wall clock, which catches containment bugs).

:func:`validate_chrome_trace` checks an exported trace object against the
Chrome trace-event schema (the subset every viewer requires), so CI fails
if an instrumentation change ever produces a trace a viewer cannot open.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "SpanNode",
    "span_trees",
    "attribution",
    "validate_chrome_trace",
]


@dataclass
class SpanNode:
    """One reconstructed span with its nested children."""

    event: dict
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.event.get("name", "")

    @property
    def start(self) -> float:
        return float(self.event.get("ts", 0.0))

    @property
    def duration(self) -> float:
        return float(self.event.get("dur", 0.0))

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def self_time(self) -> float:
        """Duration not spent inside direct children (clamped at zero)."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def span_trees(events: list[dict]) -> dict[tuple, list[SpanNode]]:
    """Rebuild nesting per ``(pid, tid)`` from timestamp containment.

    Events are sorted by start time (longer span first on ties, so a parent
    precedes a child that began the same microsecond); a stack of open
    spans assigns each event to the innermost span containing it.  Returns
    the top-level spans of each thread.
    """
    by_thread: dict[tuple, list[dict]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        by_thread.setdefault((event.get("pid"), event.get("tid")), []).append(event)

    trees: dict[tuple, list[SpanNode]] = {}
    for thread_key, thread_events in by_thread.items():
        thread_events.sort(key=lambda e: (float(e.get("ts", 0.0)), -float(e.get("dur", 0.0))))
        roots: list[SpanNode] = []
        stack: list[SpanNode] = []
        for event in thread_events:
            node = SpanNode(event)
            # pop spans that ended before this one starts (tiny tolerance:
            # perf_counter is monotonic but float µs round-trips may touch)
            while stack and node.start >= stack[-1].end - 1e-3:
                stack.pop()
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)
        trees[thread_key] = roots
    return trees


def _find_root(trees: dict[tuple, list[SpanNode]], root_name: str | None) -> SpanNode | None:
    candidates = [root for roots in trees.values() for root in roots]
    if root_name is not None:
        candidates = [c for c in candidates if c.name == root_name]
    if not candidates:
        return None
    return max(candidates, key=lambda c: c.duration)


def attribution(events: list[dict], root_name: str | None = None) -> dict:
    """Per-stage self-time attribution of one traced run.

    ``root_name`` selects the run's root span (e.g. ``"tune.autotune"``);
    by default the longest top-level span wins.  Stage rows aggregate by
    span name over the *root's* tree — the tree whose self times are
    guaranteed to sum to the wall time — while ``other_threads`` summarises
    spans recorded on other threads (service workers), whose time overlaps
    the root wall clock and must not be double-counted into coverage.
    """
    trees = span_trees(events)
    root = _find_root(trees, root_name)
    if root is None:
        return {
            "root": root_name or "",
            "wall_ms": 0.0,
            "stages": {},
            "unattributed_ms": 0.0,
            "self_sum_ms": 0.0,
            "coverage": 0.0,
            "other_threads": {},
            "spans": 0,
        }

    stages: dict[str, dict] = {}
    self_sum = 0.0
    for node in root.walk():
        row = stages.setdefault(node.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += node.duration / 1e3
        row["self_ms"] += node.self_time / 1e3
        self_sum += node.self_time / 1e3

    wall_ms = root.duration / 1e3
    unattributed_ms = stages.get(root.name, {}).get("self_ms", 0.0)
    for row in stages.values():
        row["share"] = (row["self_ms"] / wall_ms) if wall_ms > 0 else 0.0

    other: dict[str, dict] = {}
    root_ids = {id(node.event) for node in root.walk()}
    for roots in trees.values():
        for top in roots:
            for node in top.walk():
                if id(node.event) in root_ids:
                    continue
                row = other.setdefault(node.name, {"count": 0, "self_ms": 0.0})
                row["count"] += 1
                row["self_ms"] += node.self_time / 1e3

    return {
        "root": root.name,
        "wall_ms": wall_ms,
        "stages": dict(sorted(stages.items(), key=lambda kv: -kv[1]["self_ms"])),
        "unattributed_ms": unattributed_ms,
        "self_sum_ms": self_sum,
        #: fraction of the root's wall time inside *named child* spans
        "coverage": ((wall_ms - unattributed_ms) / wall_ms) if wall_ms > 0 else 0.0,
        "other_threads": dict(sorted(other.items(), key=lambda kv: -kv[1]["self_ms"])),
        "spans": len(root_ids),
    }


#: event phases the exporter may legally produce
_VALID_PHASES = {"X", "i", "I", "M", "B", "E", "C"}


def validate_chrome_trace(trace: dict) -> list[str]:
    """Check a trace object against the Chrome trace-event schema.

    Returns a list of problems (empty means the trace is viewer-loadable):
    the container must be an object with a ``traceEvents`` array, and every
    event needs a string ``name``, a known ``ph``, integer ``pid``/``tid``
    and a non-negative numeric ``ts``; complete events (``ph="X"``) also
    need a non-negative ``dur``.  Problems carry the event index so a CI
    failure points at the offending emitter.
    """
    problems: list[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace object has no 'traceEvents' array"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: event must be an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing or empty 'name'")
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for id_field in ("pid", "tid"):
            if not isinstance(event.get(id_field), int):
                problems.append(f"{where}: '{id_field}' must be an integer")
        if ph == "M":
            continue  # metadata events carry no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: 'ts' must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs a non-negative 'dur'")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where}: 'args' must be an object when present")
    return problems
