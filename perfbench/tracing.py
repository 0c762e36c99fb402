"""Outside-in span tracing of the complim layers.

The benchmark's child process replaces public functions on the module
attributes where their callers look them up (``complim.limits.simulate_compressible``,
``scipy.linalg.lu_solve``, ...) with wrappers.  Each wrapper records one span:
an id, the id of the span open on the same thread when it started (its
parent, from a thread-local stack), a name, start and end times, the thread
and whether the call raised.  Spans stay in memory and are written out when
the workload ends; the parent process turns them into per-layer metrics.

Nothing in ``src/`` knows about this module, so its numbers are what a caller
sees at each boundary.  Work between boundaries (the body of the step loop,
the node-by-node recovery loop) shows up as self time of the enclosing span.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a span opened with an empty stack
    name: str
    start: float
    end: float
    thread: int
    failed: bool


class Tracer:
    """Collects spans from wrapped callables; one instance per traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.observations: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def observe(self, key: str, value) -> None:
        self.observations[key].append(value)

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so that every call records a span named ``name``.

        ``hook(tracer, args, kwargs, result)`` runs after a successful call,
        outside the span, to record observations such as step counts.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            failed = True
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = self.clock()
                stack.pop()
                self.spans.append(
                    Span(span_id, parent, name, start, end, threading.get_ident(), failed)
                )
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, patches) -> None:
        """Apply ``(module, attribute, span name, hook)`` patches.

        A patch point that no longer exists is recorded in ``missing`` rather
        than raised, so a renamed function reads as zero calls and is listed.
        """
        for module_name, attr, name, hook in patches:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, hook))

    def dump(self, path: str) -> None:
        payload = {
            "main_thread": threading.main_thread().ident,
            "spans": [list(s) for s in self.spans],
            "observations": dict(self.observations),
            "missing": self.missing,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def load(path: str) -> tuple[list[Span], dict, list, int]:
    with open(path) as handle:
        payload = json.load(handle)
    spans = [Span(*row) for row in payload["spans"]]
    return spans, payload["observations"], payload["missing"], payload["main_thread"]


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def adopt_orphans(spans: list[Span], main_thread: int) -> list[Span]:
    """Give parentless spans of worker threads the main-thread span that caused them.

    A thread pool starts its workers with an empty stack, so a sweep row's
    spans arrive without a parent.  The cause is taken to be the innermost
    main-thread span whose interval contains the orphan's interval.
    """
    main = sorted(
        (s for s in spans if s.thread == main_thread), key=lambda s: (s.start, -s.end)
    )
    starts = [s.start for s in main]
    out = []
    for s in spans:
        if s.parent == 0 and s.thread != main_thread:
            best = None
            # candidates start at or before the orphan; the innermost starts last
            for cand in reversed(main[: bisect.bisect_right(starts, s.start)]):
                if cand.end >= s.end:
                    best = cand
                    break
            if best is not None:
                s = s._replace(parent=best.id)
        out.append(s)
    return out


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part its children cover.

    Children on worker threads may overlap each other, hence the union.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def _ancestors(by_id: dict[int, Span], span: Span):
    while span.parent and span.parent in by_id:
        span = by_id[span.parent]
        yield span


# Spans whose children are renamed after them: the same scipy call is a
# different layer inside the compressible and the incompressible stepper.
STEPPERS = ("compressible.simulate", "incompressible.simulate")


def classify(spans: list[Span]) -> list[Span]:
    """Rename ``scipy.*`` spans after the stepper they ran under."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name.startswith("scipy."):
            owner = next((a.name for a in _ancestors(by_id, s) if a.name in STEPPERS), None)
            if owner is not None:
                s = s._replace(name=owner.split(".")[0] + s.name[len("scipy"):])
        out.append(s)
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Calls, inclusive seconds and self seconds per span name."""
    selfs = self_times(spans)
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += selfs[s.id]
    return dict(table)


def _descendants(kids: dict[int, list[Span]], root: Span, name: str) -> list[Span]:
    found, todo = [], [root.id]
    while todo:
        for child in kids.get(todo.pop(), []):
            if child.name == name:
                found.append(child)
            todo.append(child.id)
    return found


def _children_index(spans: list[Span]) -> dict[int, list[Span]]:
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)
    return kids


def sweep_rows(spans: list[Span]) -> list[tuple[float, float, int]]:
    """(start, end, thread) of every sweep row.

    A row is one compressible run and the x_alpha and weak-probe reductions
    that follow it on the same thread, inside a ``limits.sweep`` span.
    """
    kids = _children_index(spans)
    rows = []
    for sweep in (s for s in spans if s.name == "limits.sweep"):
        per_thread = defaultdict(list)
        for name in ("compressible.simulate", "limits.x_alpha", "limits.weak_probe"):
            for s in _descendants(kids, sweep, name):
                per_thread[s.thread].append(s)
        for thread, items in per_thread.items():
            current = None
            for s in sorted(items, key=lambda s: s.start):
                if s.name == "compressible.simulate":
                    if current is not None:
                        rows.append(tuple(current))
                    current = [s.start, s.end, thread]
                elif current is not None:
                    current[1] = max(current[1], s.end)
            if current is not None:
                rows.append(tuple(current))
    return rows


# dense m x m float64 matrices one CN step reads: the right-side matrix, the
# LU factors and the left-side matrix of the residual check
STEP_MATRICES = 3


def layer_metrics(spans: list[Span], observations: dict, main_thread: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced workload run (names as in BENCHMARK.json),
    and the per-span-name table of calls, inclusive and self seconds."""
    spans = classify(adopt_orphans(spans, main_thread))
    table = summarize(spans)
    kids = _children_index(spans)
    by_id = {s.id: s for s in spans}

    def total(name: str) -> float:
        return table.get(name, {}).get("s", 0.0)

    def calls(name: str) -> int:
        return table.get(name, {}).get("calls", 0)

    # node-by-node pressure recovery: the window its grad_inverse calls span
    recovery = 0.0
    for sim in (s for s in spans if s.name == "incompressible.simulate"):
        inner = _descendants(kids, sim, "operators.grad_inverse")
        if inner:
            recovery += max(s.end for s in inner) - min(s.start for s in inner)

    trajectories = observations.get("compressible.trajectory", [])  # [steps, m]
    steps = sum(n for n, _ in trajectories)
    m = max((m for _, m in trajectories), default=0)
    step_flops = 2 * STEP_MATRICES * m * m
    sim_s = total("compressible.simulate")

    rows = sweep_rows(spans)
    durations = sorted(b - a for a, b, _ in rows)
    row_wall = (max(r[1] for r in rows) - min(r[0] for r in rows)) if rows else 0.0
    sweeps = observations.get("limits.rows", [])  # [attempted, failed]

    metrics = {
        "operators.assemble.s": total("operators.assemble"),
        "operators.coupling_matrix.calls": calls("operators.coupling_matrix"),
        "operators.coupling_matrix.s": total("operators.coupling_matrix"),
        "operators.grad_inverse.calls": calls("operators.grad_inverse"),
        "operators.grad_inverse.s": total("operators.grad_inverse"),
        "incompressible.pressure_recovery.s": recovery,
        "compressible.simulate.s": sim_s,
        "compressible.steps": steps,
        "compressible.step_us": 1e6 * sim_s / steps if steps else 0.0,
        "compressible.lu_factor.s": total("compressible.lu_factor"),
        "compressible.lu_solve.calls": calls("compressible.lu_solve"),
        "compressible.lu_solve.s": total("compressible.lu_solve"),
        "compressible.step_flops": step_flops,
        "compressible.step_bytes": STEP_MATRICES * 8 * m * m,
        "compressible.gflops": steps * step_flops / sim_s / 1e9 if sim_s else 0.0,
        "compressible.energy_ledger.s": total("compressible.energy_ledger"),
        "compressible.apriori_check.s": total("compressible.apriori_check"),
        "inequalities.verify_mixed.s": total("inequalities.verify_mixed"),
        "incompressible.simulate.s": total("incompressible.simulate"),
        "incompressible.lu_solve.calls": calls("incompressible.lu_solve"),
        "compressible.state_mb": max((8 * (n + 1) * k / 1e6 for n, k in trajectories), default=0.0),
        "limits.sweep.s": total("limits.sweep"),
        "limits.row.s.p50": statistics.median(durations) if durations else 0.0,
        "limits.row.s.max": durations[-1] if durations else 0.0,
        "limits.rows.attempted": sum(a for a, _ in sweeps),
        "limits.rows.failed": sum(f for _, f in sweeps),
        "limits.threads": len({thread for _, _, thread in rows}),
        "limits.row_busy_over_wall": sum(durations) / row_wall if row_wall else 0.0,
        "limits.x_alpha.s": total("limits.x_alpha"),
        "limits.weak_probe.s": total("limits.weak_probe"),
        "config.parse_config.s": total("config.parse_config"),
        # outermost writer calls only: write_trajectory_csv calls write_csv
        "csvio.write.s": sum(
            s.end - s.start
            for s in spans
            if s.name == "csvio.write"
            and not any(a.name == "csvio.write" for a in _ancestors(by_id, s))
        ),
        "csvio.bytes": sum(observations.get("csvio.bytes", [])),
    }
    return metrics, table
