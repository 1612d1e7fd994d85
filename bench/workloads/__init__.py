"""The four workloads.

Each module defines a ``Workload`` class with:

* ``entries``: the program functions it calls, as ``(layer, fn[, tag])``
  for :class:`spans.Api`;
* ``setup(api)``: builds the seeded inputs and ``ops``, the list of
  operations one round runs, in order;
* ``call(op, api)``: runs one operation and returns its output;
* ``check(i, op, out)``: compares the output of operation ``i`` with the
  independent oracles and returns a list of problems;
* ``probe()``: extra measurements for the traced run (only ``cli`` has any);
* ``extras``: figures for the traced run, recorded by set-up or ``probe``.
"""

from __future__ import annotations

import importlib
from collections import namedtuple

NAMES = ("strings", "sources", "catalog", "cli")

Op = namedtuple("Op", "kind args")


def load(name: str):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return importlib.import_module(f"workloads.{name}").Workload


class Base:
    entries: tuple = ()
    #: Whether the work runs in child processes, whose peak RSS counts.
    rss_of_children = False

    def __init__(self, seed: int, workdir: str, small: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.small = small
        self.ops: list[Op] = []
        self.extras: dict[str, float] = {}

    def probe(self) -> None:
        pass
