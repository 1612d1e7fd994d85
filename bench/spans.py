"""Spans recorded around the benchmark's calls into the program.

Nothing inside ``src/`` is instrumented.  A workload reaches each
public function of the program through an :class:`Api`; in an
untraced run the attributes are the functions themselves, in a traced
run they are wrappers that record a span per call.

A span is ``(name, start, end, parent, op)``: ``parent`` is the id of
the operation span that caused it (``None`` during set-up) and ``op``
the operation id.  Every span is also folded into per-name call counts
and busy time, kept apart for the set-up and the operation phases.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        self.totals: dict[tuple[str, str], list] = {}
        self.raw: list[tuple] = []
        self.keep_raw = True
        self._op = None

    def _record(self, name: str, start: float, end: float, parent, op) -> None:
        slot = self.totals.setdefault((self.phase, name), [0, 0.0])
        slot[0] += 1
        slot[1] += end - start
        if self.keep_raw:
            self.raw.append((name, start, end, parent, op))

    def wrap(self, name: str, fn, tag=None):
        """``fn`` recording a span named ``name`` (plus ``.tag(args)``)."""

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                full = name if tag is None else f"{name}.{tag(*args)}"
                self._record(full, start, perf_counter(), self._op, self._op)

        return traced

    def begin_op(self, op_id: int) -> float:
        self._op = op_id
        return perf_counter()

    def end_op(self, kind: str, start: float) -> None:
        self._record(f"op.{kind}", start, perf_counter(), None, self._op)
        self._op = None

    def phase_totals(self, phase: str, rounds: int = 1) -> dict[str, list]:
        """Calls and seconds per name in ``phase``, divided by ``rounds``."""
        return {
            name: [calls / rounds, secs / rounds]
            for (ph, name), (calls, secs) in self.totals.items()
            if ph == phase
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.raw:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


class Api:
    """Named access to the program's functions, traced or not.

    ``entries`` are ``(layer, function)`` or ``(layer, function, tag)``
    where ``tag(*args)`` names the span variant, such as the dimension.
    """

    def __init__(self, entries, tracer: Tracer | None = None) -> None:
        for layer, fn, *tag in entries:
            name = fn.__name__
            if tracer is not None:
                fn = tracer.wrap(f"{layer}.{name}", fn, tag[0] if tag else None)
            setattr(self, name, fn)
