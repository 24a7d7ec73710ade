"""In-memory span tracing installed from outside mayacal.

``Tracer.install`` replaces every cross-module function binding inside the
mayacal package (for example ``mayacal.cli.parse``, which is
``notation.parse``, or ``mayacal.lunar.lcm_many``) with a wrapper that
records a span, plus ``cli.main``, ``cli.build_parser`` and the two
``OutputEnvelope`` renderers.  Calls inside one module are not spans.  A span
is named after the module that defines the function (``notation.parse``); the
first component is its layer.

Spans carry name, start, end, parent and the operation id shared by every
span of one operation.  Aggregates (calls, total and self time, errors) are
kept per name; self time is a span's duration minus its direct children's.
Only the first ``SAMPLE`` spans of each operation, and ``LIMIT`` in all, are
kept verbatim, so a scan that makes millions of calls stays bounded in
memory.  A span still open when the harness cap (``CapHit``) unwinds it did
not finish and is dropped; the spans it finished before that are kept.
"""

from __future__ import annotations

import inspect
import time


class CapHit(BaseException):
    """Raised by the harness when an operation exceeds its time cap."""


class Tracer:
    SAMPLE = 2000
    LIMIT = 100_000

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns, errors, bytes]
        self.counts = {"resolution_cycle_date": 0, "resolution_hits": 0,
                       "candidates_built": 0, "search_built": 0, "search_kept": 0}
        self.spans: list[tuple] = []  # (op, id, parent, name, start_ns, end_ns, status)
        self._stack: list[list] = []  # [id, name, start_ns, child_ns, cycle_date children]
        self._op = 0
        self._op_spans = 0
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        self._op += 1
        self._op_spans = 0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self._next_id += 1
            entry = [self._next_id, name, time.perf_counter_ns(), 0, 0]
            self._stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            except CapHit:
                self._stack.pop()
                raise
            except BaseException as exc:
                self._close(entry, type(exc).__name__, None)
                raise
            self._close(entry, "ok", result)
            return result

        return traced

    def _close(self, entry: list, status: str, result) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, name, start, child_ns, cycle_dates = entry
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
            if name == "cycles.cycle_date":
                parent[4] += 1
            if name == "arith.lcm_many" and parent[1] == "lunar.search":
                self.counts["candidates_built"] += 1
        stat = self.stats.setdefault(name, [0, 0, 0, 0, 0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_ns
        if status != "ok":
            stat[3] += 1
        elif name == "notation.resolution":
            self.counts["resolution_cycle_date"] += cycle_dates
            self.counts["resolution_hits"] += len(result.days)
        elif name == "lunar.search":
            self.counts["search_built"] += len(result.candidates)
            self.counts["search_kept"] += len(result.filtered)
        elif name.startswith("cli.OutputEnvelope.to_"):
            stat[4] += len(result.encode())
        if self._op_spans < self.SAMPLE and len(self.spans) < self.LIMIT:
            self._op_spans += 1
            self.spans.append((self._op, span_id, parent[0] if parent else None, name, start, end, status))

    def _patch(self, owner, attr: str, fn) -> None:
        name = f"{fn.__module__.removeprefix('mayacal.')}.{fn.__qualname__}"
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, self.wrap(name, fn))

    def install(self, package, modules) -> None:
        """Wrap cross-module bindings in ``package`` and each of ``modules``."""
        for module in (package, *modules):
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__.startswith("mayacal.")
                        and obj.__module__ != module.__name__):
                    self._patch(module, attr, obj)
        cli = next(m for m in modules if m.__name__ == "mayacal.cli")
        self._patch(cli, "main", cli.main)
        self._patch(cli, "build_parser", cli.build_parser)
        self._patch(cli.OutputEnvelope, "to_json", cli.OutputEnvelope.to_json)
        self._patch(cli.OutputEnvelope, "to_text", cli.OutputEnvelope.to_text)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
