"""In-memory spans, the stamping iterator, and the host calibration job.

Spans are recorded by the harness around calls into streampart's public
functions; nothing inside the package is instrumented.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from statistics import median
from time import perf_counter


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `write` dumps them once the run is over."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def add(self, name: str, op: int, start: float, end: float,
            parent: int | None = None) -> int:
        self.spans.append(Span(name, op, parent, start, end))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, op: int, parent: int | None = None):
        index = self.add(name, op, perf_counter(), 0.0, parent)
        try:
            yield index
        finally:
            self.spans[index].end = perf_counter()

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the part of it covered by its children."""
        children: dict[int, list[tuple[float, float]]] = {}
        for child in self.spans:
            if child.parent is not None:
                children.setdefault(child.parent, []).append((child.start, child.end))
        result = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            reach = span.start
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            result.append(span.seconds - covered)
        return result

    def write(self, path) -> None:
        rows = [dict(asdict(s), index=i, seconds=s.seconds, self_seconds=own)
                for i, (s, own) in enumerate(zip(self.spans, self.self_seconds()))]
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(rows, fp, indent=1)


class Stamps:
    """Times of the first pull from a stamped stream and of its exhaustion."""

    __slots__ = ("first", "last")

    def __init__(self) -> None:
        self.first: float | None = None
        self.last: float | None = None


def stamped(items, stamps: Stamps):
    """Yield `items` unchanged, stamping the first pull and the exhaustion."""
    stamps.first = perf_counter()
    yield from items
    stamps.last = perf_counter()


class _Counter:
    __slots__ = ("total", "opened")

    def __init__(self) -> None:
        self.total = 0
        self.opened = 0

    def feed(self, value: int) -> None:
        if self.total + value <= 50_000:
            self.total += value
        else:
            self.opened += 1
            self.total = value


class _Instance:
    __slots__ = ("total", "opened", "limit", "marks")

    def __init__(self, limit: int) -> None:
        self.total = 0
        self.opened = 0
        self.limit = limit
        self.marks = [1000 + limit + j for j in range(64)]

    def feed(self, value: int) -> None:
        if self.total + value <= self.limit:
            self.total += value
        else:
            self.opened += 1
            self.total = value + self.marks[self.opened & 63] - self.marks[0]


class Calibrator:
    """A fixed pure-Python job, timed between ops to follow the host's speed.

    A slow phase of the host slows jobs by different factors depending on
    their mix, so there are two jobs and each workload uses the one closest
    to its dominant work:

    * ``parse``: parse 6000 decimal tokens and feed them to one small object
      (text parsing, allocation, a tiny working set);
    * ``grid``: feed 16 values to each of 1200 slotted objects holding a
      64-entry list, as the solvers feed a grid of probe instances.

    Neither runs streampart code, so their times move only with the host.
    """

    TEXT = " ".join(str((k * 7919) % 1001) for k in range(6000))
    VALUES = (5, 900, 17, 400, 999, 3, 650, 250, 800, 120, 77, 990, 300, 450, 12, 600)

    def __init__(self, job: str) -> None:
        self.run = {"parse": self._parse, "grid": self._grid}[job]
        self.instances = [_Instance(700 * (k + 1)) for k in range(1200)] if job == "grid" else []

    def _parse(self) -> float:
        started = perf_counter()
        counter = _Counter()
        for value in [int(token) for token in self.TEXT.split()]:
            counter.feed(value)
        return perf_counter() - started

    def _grid(self) -> float:
        started = perf_counter()
        for value in self.VALUES:
            for instance in self.instances:
                instance.feed(value)
        return perf_counter() - started

    def median(self, repeats: int = 3) -> float:
        return median(self.run() for _ in range(repeats))
