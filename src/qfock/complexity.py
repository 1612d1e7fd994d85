"""Describer machines and catalog-relative description complexity.

A describer machine is a finite dictionary from classical programs
(bitstrings) to orthonormal output states.  Feeding it a superposition
of programs produces the matching superposition of outputs, so any
state in the span of the outputs has exactly one program-side
preimage: the amplitude on program p is the overlap of output p with
the state.  The average-length complexity of a state relative to one
machine is therefore forced:

    value = sum_p |<v_p|state>|**2 * len(p)

:class:`IdentityMachine` needs no table: each term of length <= L is its
own program, so the value is the average length (``2 * avg + 1`` once
self-delimited); ``.programs`` materializes the table on request.

A machine catalog plays the role of a finite universal table.  Machine
i is addressed by the self-delimiting index ``1^len(bin(i)) 0 bin(i)``,
which costs ``2 * len(bin(i)) + 1`` extra bits; the catalog complexity
of a state is the cheapest total over machines that span it, ties going
to the lowest index.

Machine text format: a ``prefix: true|false`` header line, then one
``<program> -> <state>`` line per program, where ``<state>`` is either
a path to a ``.qstr`` file (resolved next to the machine file) or an
inline ``{ bits:re,im ; ... }`` block.  ``eps`` names the empty string.
Lines, program tokens and states are read with the shared text rules of
``fock`` (``text_lines``, ``parse_bits``, ``load_state_ref``).
"""

from __future__ import annotations

import itertools
import math
import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .codes import ceil_neg_log2, check_prefix_free
from .errors import (
    CapExceededError,
    DuplicateKeyError,
    FormatError,
    NoDescriberError,
    NoOverlapError,
    NotOrthonormalError,
    OutOfSpanError,
)
from .fock import (
    QString,
    check_bitstring,
    delimit_bits,
    format_bits,
    format_inline_state,
    inner_product,
    length_lex,
    load_state_ref,
    parse_bits,
    text_lines,
)

if TYPE_CHECKING:  # qcode loads numpy; only machine_from_code's annotation needs it
    from .qcode import CondensableCode

SPAN_TOL = 1e-8
AMP_FLOOR = 1e-12
OVERLAP_FLOOR = 1e-8
IDENTITY_MAX_LEN = 20


def index_cost(i: int) -> int:
    """Bits needed to address catalog machine ``i`` self-delimitingly."""
    if i < 1:
        raise ValueError(f"catalog indices start at 1, got {i}")
    return 2 * len(format(i, "b")) + 1


class DescriberMachine:
    """Finite program table with pairwise orthonormal outputs."""

    __slots__ = ("_programs", "_prefix_flag", "_key_index")

    def __init__(
        self,
        programs: Mapping[str, QString] | Iterable[tuple[str, QString]],
        *,
        prefix_flag: bool,
    ) -> None:
        pairs = programs.items() if isinstance(programs, Mapping) else programs
        table: dict[str, QString] = {}
        key_index: dict[str, list[str]] = {}
        for prog, out in pairs:
            check_bitstring(prog)
            if prog in table:
                raise DuplicateKeyError(f"duplicate program {prog!r}")
            if not isinstance(out, QString):
                raise TypeError("machine outputs must be QString instances")
            table[prog] = out
            for bits in out.keys():
                key_index.setdefault(bits, []).append(prog)
        if not table:
            raise ValueError("machine has no programs")
        if prefix_flag:
            check_prefix_free(table)
        self._check_outputs_orthonormal(table)
        self._programs = table
        self._prefix_flag = bool(prefix_flag)
        self._key_index = key_index

    @staticmethod
    def _check_outputs_orthonormal(table: dict[str, QString]) -> None:
        # Fast path: single-term outputs with unit amplitude and distinct
        # labels are orthonormal by construction.  Machine files can list
        # many basis-string outputs, so the quadratic Gram check is
        # reserved for outputs with genuine superpositions.
        simple_keys: set[str] = set()
        general: list[tuple[str, QString]] = []
        for prog, out in table.items():
            if len(out) == 1:
                ((bits, amp),) = out.items()
                if abs(abs(amp) - 1.0) <= 1e-8:
                    if bits in simple_keys:
                        raise NotOrthonormalError(
                            f"two programs output the basis string {bits!r}"
                        )
                    simple_keys.add(bits)
                    continue
            general.append((prog, out))
        for i, (prog_a, a) in enumerate(general):
            norm = inner_product(a, a).real
            if abs(norm - 1.0) > 1e-8:
                raise NotOrthonormalError(
                    f"output of program {format_bits(prog_a)!r} has norm {norm!r}"
                )
            for bits, amp in a.items():
                if bits in simple_keys and abs(amp) > 1e-8:
                    raise NotOrthonormalError(
                        f"output of {format_bits(prog_a)!r} overlaps a "
                        f"basis-string output on {bits!r}"
                    )
            for prog_b, b in general[i + 1 :]:
                ov = inner_product(a, b)
                if abs(ov) > 1e-8:
                    raise NotOrthonormalError(
                        f"outputs of {format_bits(prog_a)!r} and "
                        f"{format_bits(prog_b)!r} overlap by {abs(ov):.3e}"
                    )

    @property
    def programs(self) -> dict[str, QString]:
        return dict(self._programs)

    @property
    def prefix_flag(self) -> bool:
        return self._prefix_flag

    def output(self, program: str) -> QString:
        return self._programs[program]

    def describe(self, state: QString) -> ComplexityEstimate:
        """Average description length of ``state`` on this machine."""
        candidates: set[str] = set()
        for bits in state.keys():
            candidates.update(self._key_index.get(bits, ()))
        return _estimate(
            (prog, abs(inner_product(self._programs[prog], state)) ** 2)
            for prog in sorted(candidates, key=length_lex)
        )


@dataclass(frozen=True, slots=True)
class IdentityMachine:
    """Every string of length <= ``max_len`` describes itself, in closed form.

    With ``prefix_flag`` the program for ``x`` is ``1^len(x) 0 x``.
    """

    max_len: int
    prefix_flag: bool

    def __post_init__(self) -> None:
        if not 0 <= self.max_len <= IDENTITY_MAX_LEN:
            raise CapExceededError(
                f"identity machine max_len must be in 0..{IDENTITY_MAX_LEN}, "
                f"got {self.max_len}"
            )

    @property
    def programs(self) -> dict[str, QString]:
        """The program table, materialized on every read."""
        return {self._program(b): QString({b: 1.0}) for b in all_bitstrings(self.max_len)}

    def _program(self, bits: str) -> str:
        return delimit_bits(bits) if self.prefix_flag else bits

    def describe(self, state: QString) -> ComplexityEstimate:
        """Average description length of ``state`` on this machine."""
        short = sorted((b for b in state.keys() if len(b) <= self.max_len), key=length_lex)
        return _estimate((self._program(b), abs(state.amplitude(b)) ** 2) for b in short)


Describer = DescriberMachine | IdentityMachine


@dataclass(frozen=True)
class ComplexityEstimate:
    """A description-length value with its forced decomposition.

    ``machine_index`` is the 1-based catalog position of the witnessing
    machine for catalog-level estimates and ``None`` for single-machine
    estimates.  ``decomposition`` maps each contributing program to its
    squared-amplitude weight.
    """

    value: float
    machine_index: int | None = None
    decomposition: dict[str, float] = field(default_factory=dict)


def _estimate(weighted: Iterable[tuple[str, float]]) -> ComplexityEstimate:
    """The estimate from ``(program, weight)`` pairs in ``length_lex``
    program order, the one order in which every machine sums."""
    weights: dict[str, float] = {}
    captured = 0.0
    value = 0.0
    for prog, w in weighted:
        captured += w
        if w > AMP_FLOOR:
            weights[prog] = w
            value += w * len(prog)
    if 1.0 - captured > SPAN_TOL:
        raise OutOfSpanError(
            f"state leaves the machine span; residual {1.0 - captured:.3e}"
        )
    return ComplexityEstimate(value=float(value), machine_index=None, decomposition=weights)


def machine_complexity(machine: Describer, state: QString) -> ComplexityEstimate:
    """Average description length of ``state`` on one machine."""
    return machine.describe(state)


def base_length_complexity(machine: Describer, state: QString) -> int:
    """Longest program contributing to the forced decomposition."""
    est = machine_complexity(machine, state)
    lengths = [
        len(p) for p, w in est.decomposition.items() if math.sqrt(w) > OVERLAP_FLOOR
    ]
    if not lengths:
        raise OutOfSpanError("no program carries weight above the floor")
    return max(lengths)


class MachineCatalog:
    """An ordered, 1-indexed sequence of describer machines."""

    __slots__ = ("_machines",)

    def __init__(self, machines: Iterable[Describer]) -> None:
        ms = tuple(machines)
        if not ms:
            raise ValueError("catalog is empty")
        if not all(isinstance(m, Describer) for m in ms):
            raise TypeError("catalog entries must be describer machines")
        self._machines = ms

    @property
    def machines(self) -> tuple[Describer, ...]:
        return self._machines

    def all_prefix(self) -> bool:
        return all(m.prefix_flag for m in self._machines)

    def __len__(self) -> int:
        return len(self._machines)

    def __iter__(self):
        return iter(self._machines)


def _spanning(cat: MachineCatalog, state: QString) -> list[tuple[int, ComplexityEstimate]]:
    """``(index, estimate)`` for every catalog machine that spans ``state``."""
    found = []
    for i, machine in enumerate(cat, start=1):
        try:
            found.append((i, machine_complexity(machine, state)))
        except OutOfSpanError:
            continue
    if not found:
        raise NoDescriberError("no machine in the catalog spans the state")
    return found


def _cheapest(spanning: list[tuple[int, ComplexityEstimate]]) -> ComplexityEstimate:
    """The lowest index-cost-plus-value total; ``min`` keeps the first tie."""
    i, est = min(spanning, key=lambda pair: index_cost(pair[0]) + pair[1].value)
    return ComplexityEstimate(float(index_cost(i) + est.value), i, est.decomposition)


def universal_complexity(cat: MachineCatalog, state: QString) -> ComplexityEstimate:
    """Cheapest index-cost-plus-description total over the catalog.

    Ties go to the lowest machine index; a state no machine spans
    raises :class:`NoDescriberError`.
    """
    return _cheapest(_spanning(cat, state))


def min_description_length(cat: MachineCatalog, state: QString) -> float:
    """Best machine-level value over the catalog, without index costs."""
    return min(est.value for _, est in _spanning(cat, state))


def fidelity_penalized_complexity(
    programs: Mapping[str, QString] | Describer, state: QString
) -> int:
    """Cheapest ``len(p) + ceil(-log2 |<state|v_p>|**2)`` over programs.

    The program table here is unconstrained: outputs may overlap, and
    the penalty term charges for the imperfect fidelity of the output
    against the target.  Raises :class:`NoOverlapError` when every
    output is orthogonal to the target.
    """
    table = programs.programs if isinstance(programs, Describer) else dict(programs)
    best: int | None = None
    for prog in sorted(table, key=length_lex):
        f = abs(inner_product(state, table[prog])) ** 2
        if f <= 0.0:
            continue
        val = len(prog) + ceil_neg_log2(min(f, 1.0))
        if best is None or val < best:
            best = val
    if best is None:
        raise NoOverlapError("no program output overlaps the state")
    return best


def all_bitstrings(max_len: int) -> Iterable[str]:
    """Every bitstring of length 0..max_len in canonical order."""
    for n in range(max_len + 1):
        for tup in itertools.product("01", repeat=n):
            yield "".join(tup)


def identity_machine(max_len: int) -> IdentityMachine:
    """The machine mapping every string of length <= max_len to itself."""
    return IdentityMachine(max_len, False)


def self_delimit_machine(machine: Describer) -> Describer:
    """Recode every program self-delimitingly: ``p -> 1^len(p) 0 p``.

    The recoded table is always prefix-free and its description lengths
    transform as ``2 * len(p) + 1``.  A plain identity machine stays in
    closed form.
    """
    if isinstance(machine, IdentityMachine) and not machine.prefix_flag:
        return IdentityMachine(machine.max_len, True)
    programs = {delimit_bits(p): out for p, out in machine.programs.items()}
    return DescriberMachine(programs, prefix_flag=True)


def machine_from_code(code: CondensableCode) -> DescriberMachine:
    """View a condensable code as the machine decoding its codewords."""
    programs = {
        code.words.codeword(k): code.source_basis[k] for k in range(len(code))
    }
    return DescriberMachine(programs, prefix_flag=True)


# --- machine text format ----------------------------------------------------

def load_program_table(
    text: str, *, base_dir: str | None = None
) -> tuple[dict[str, QString], bool]:
    """Parse the machine text format into ``(programs, prefix_flag)``."""
    prefix_flag: bool | None = None
    programs: dict[str, QString] = {}
    for lineno, line in text_lines(text):
        if line.startswith("prefix:"):
            value = line.split(":", 1)[1].strip().lower()
            if value not in ("true", "false"):
                raise FormatError(f"line {lineno}: prefix must be true or false")
            if prefix_flag is not None:
                raise FormatError(f"line {lineno}: duplicate prefix header")
            prefix_flag = value == "true"
            continue
        if "->" not in line:
            raise FormatError(f"line {lineno}: expected '<program> -> <state>'")
        lhs, rhs = line.split("->", 1)
        token = lhs.strip()
        try:
            prog = parse_bits(token)
        except FormatError:
            raise FormatError(f"line {lineno}: bad program token {token!r}") from None
        if prog in programs:
            raise FormatError(f"line {lineno}: duplicate program {token!r}")
        programs[prog] = load_state_ref(rhs.strip(), base_dir, lineno)
    if prefix_flag is None:
        raise FormatError("missing 'prefix: true|false' header")
    if not programs:
        raise FormatError("machine has no programs")
    return programs, prefix_flag


def read_program_table(path: str) -> tuple[dict[str, QString], bool]:
    """:func:`load_program_table` on a file, its state paths resolved next to it."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_program_table(fh.read(), base_dir=os.path.dirname(path) or ".")


def load_machine(text: str, *, base_dir: str | None = None) -> DescriberMachine:
    programs, prefix_flag = load_program_table(text, base_dir=base_dir)
    return DescriberMachine(programs, prefix_flag=prefix_flag)


def read_machine_file(path: str) -> DescriberMachine:
    programs, prefix_flag = read_program_table(path)
    return DescriberMachine(programs, prefix_flag=prefix_flag)


def dump_machine(machine: Describer) -> str:
    lines = [f"prefix: {'true' if machine.prefix_flag else 'false'}"]
    for prog, out in sorted(machine.programs.items(), key=lambda kv: length_lex(kv[0])):
        lines.append(f"{format_bits(prog)} -> {format_inline_state(out)}")
    return "\n".join(lines) + "\n"


def write_machine_file(path: str, machine: Describer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_machine(machine))
