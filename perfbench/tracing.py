"""Spans recorded from the benchmark's side of each layer boundary.

A span has a name, a start, an end, the span that was open when it began
(its parent) and the id of the request it belongs to.  Spans are kept in
memory and written out once, at the end of a run.  With tracing off,
``Tracer.span`` hands back one shared no-op context manager, so the
untraced run pays for a method call per boundary and nothing else.

Span names are ``<layer>.<call>``; a layer's self time is the time inside
its spans that no child span covers.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "idx")

    def __init__(self, tracer: "Tracer", idx: int):
        self.tracer = tracer
        self.idx = idx

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx][3] = time.perf_counter()
        t._stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        # [name, req, start, end, parent] — lists so __exit__ can fill end
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, req: int | None = None):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, req, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return _Span(self, idx)

    def record(self, name: str, start: float, end: float, req: int | None = None) -> None:
        """A span measured elsewhere, such as a phase time the engine
        returns, placed under the currently open span."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, req, start, end, parent])

    def breakdown(self, root_prefixes: tuple[str, ...]) -> tuple[float, dict[str, float]]:
        """Total time of the top-level spans whose name starts with one of
        ``root_prefixes``, and the self time of each layer beneath them."""
        child = [0.0] * len(self.spans)
        root = [-1] * len(self.spans)
        for i, (_name, _req, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        total, layers = 0.0, {}
        for i, (name, _req, start, end, parent) in enumerate(self.spans):
            if not self.spans[root[i]][0].startswith(root_prefixes):
                continue
            if parent < 0:
                total += end - start
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (end - start) - child[i]
        return total, layers

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, req, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "req": req, "start": start,
                     "end": end, "parent": parent}
                ) + "\n")


def span_cost_s(n: int = 20_000) -> float:
    """Measured cost of one traced span, for the tracing-overhead estimate."""
    t = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(n):
        with t.span("x.y"):
            pass
    return (time.perf_counter() - t0) / n
