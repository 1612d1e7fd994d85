"""Describer machines and catalog-relative description complexity.

A describer machine is a finite dictionary from classical programs
(bitstrings) to orthonormal output states.  Feeding it a superposition
of programs produces the matching superposition of outputs, so any
state in the span of the outputs has exactly one program-side
preimage: the amplitude on program p is the overlap of output p with
the state.  The average-length complexity of a state relative to one
machine is therefore forced:

    value = sum_p |<v_p|state>|**2 * len(p)

A table machine indexes its programs by their outputs' basis strings.
Two outputs overlap only on strings they share, so one pass over that
index checks orthogonality (each output, a ``QString``, checked its own
unit norm), and a query reads only the programs under the state's strings.

Those checks run once, where a table enters: ``DescriberMachine`` and
the machine file readers check every program, prefix-freeness when the
machine is flagged prefix, and orthogonality.  :func:`machine_from_code`
runs none of them again, because the condensable code it views already
did, and neither does :func:`self_delimit_machine`, which recodes a
machine that did; they are the two trusted paths.

:class:`IdentityMachine` needs no table: each term of length <= L is its
own program, so the value is the average length (``2 * avg + 1`` once
self-delimited); ``.programs`` materializes the table on request.

A machine catalog plays the role of a finite universal table.  Machine
i is addressed by the self-delimiting index ``1^len(bin(i)) 0 bin(i)``,
which costs ``2 * len(bin(i)) + 1`` extra bits; the catalog complexity
of a state is the cheapest total over machines that span it, ties going
to the lowest index.  A query walks the catalog once, in index order:
each machine returns a private tally (captured weight, value, weights)
and raises nothing, so a machine whose span misses the state costs one
comparison, and the walk stops at the first machine whose index cost
alone reaches the best total so far, since no later machine can beat it.

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
    AMP_FLOOR,
    ORTHO_TOL,
    SPAN_TOL,
    QString,
    _delimit,
    check_bitstring,
    delimit_bits,
    format_bits,
    format_inline_state,
    inner_product,
    length_lex,
    load_state_ref,
    parse_bits,
    read_text,
    text_lines,
    write_text,
)

if TYPE_CHECKING:  # qcode loads numpy; only machine_from_code's annotation needs it
    from .qcode import CondensableCode

IDENTITY_MAX_LEN = 20

#: How far the weights of a decomposition may sum from 1 in the CLI's
#: ``weights_sum_to_one`` check.  They sum to the squared norm the
#: machine captures, which ``SPAN_TOL`` bounds, less the weights at or
#: below ``AMP_FLOOR`` that a tally drops.
WEIGHT_SUM_TOL = 1e-6


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
        for prog, out in pairs:
            check_bitstring(prog)
            if prog in table:
                raise DuplicateKeyError(f"duplicate program {prog!r}")
            if not isinstance(out, QString):
                raise TypeError("machine outputs must be QString instances")
            table[prog] = out
        if not table:
            raise ValueError("machine has no programs")
        if prefix_flag:
            check_prefix_free(table)
        key_index = _label_index(table)
        self._check_outputs_orthonormal(table, key_index)
        self._programs = table
        self._prefix_flag = bool(prefix_flag)
        self._key_index = key_index

    @classmethod
    def _from_checked(cls, table: dict[str, QString]) -> DescriberMachine:
        """The prefix machine of a table whose parts are already checked.

        For two callers only.  In :func:`machine_from_code` a ``PrefixCode``
        checked the programs and that they are prefix-free, and a
        ``CondensableCode`` checked that the outputs are orthonormal.  In
        :func:`self_delimit_machine` the source machine checked its
        programs and outputs, and delimiting makes the programs
        prefix-free.  None of that runs again.
        """
        machine = cls.__new__(cls)
        machine._programs = table
        machine._prefix_flag = True
        machine._key_index = _label_index(table)
        return machine

    @staticmethod
    def _check_outputs_orthonormal(
        table: dict[str, QString], key_index: dict[str, list[str]]
    ) -> None:
        # Each output is a QString, so a unit vector already: only the
        # overlaps <v_p|v_q>, p before q in table order, are summed, over
        # the labels two or more outputs share.  The first failing pair
        # row by row is reported, as in qcode._gram_failure.
        gram: dict[tuple[str, str], complex] = {}
        for bits, listed in key_index.items():
            if len(listed) > 1:
                terms = [(p, table[p].amplitude(bits)) for p in listed]
                for k, (p, a) in enumerate(terms):
                    for q, b in terms[k + 1:]:
                        gram[p, q] = gram.get((p, q), 0j) + a.conjugate() * b
        bad = [pair for pair, g in gram.items() if abs(g) > ORTHO_TOL]
        if bad:
            rank = {prog: i for i, prog in enumerate(table)}
            p, q = min(bad, key=lambda pair: (rank[pair[0]], rank[pair[1]]))
            raise NotOrthonormalError(
                f"outputs of {format_bits(p)!r} and {format_bits(q)!r} "
                f"overlap by {abs(gram[p, q]):.3e}"
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
        return _estimate(self._tally(state))

    def _tally(self, state: QString) -> _Tally:
        # Only programs listed under the state's strings can overlap it.
        candidates: set[str] = set()
        for bits in state.keys():
            candidates.update(self._key_index.get(bits, ()))
        if not candidates:
            return 0.0, 0.0, {}
        return _weigh(
            (prog, abs(inner_product(self._programs[prog], state)) ** 2)
            for prog in sorted(candidates, key=length_lex)
        )


def _label_index(table: dict[str, QString]) -> dict[str, list[str]]:
    """Each output basis string -> the programs whose outputs hold it, in
    table order."""
    key_index: dict[str, list[str]] = {}
    for prog, out in table.items():
        for bits in out.keys():
            key_index.setdefault(bits, []).append(prog)
    return key_index


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
        return _estimate(self._tally(state))

    def _tally(self, state: QString) -> _Tally:
        # The labels are distinct, so the sort never compares amplitudes;
        # a QString's labels are checked, so delimiting skips the check.
        short = sorted((len(b), b, a) for b, a in state.items() if len(b) <= self.max_len)
        if self.prefix_flag:
            return _weigh((_delimit(b), abs(a) ** 2) for _, b, a in short)
        return _weigh((b, abs(a) ** 2) for _, b, a in short)


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


#: ``(captured, value, weights)``: the squared norm of the state inside a
#: machine's span, the average program length, and each contributing
#: program's weight.
_Tally = tuple[float, float, dict[str, float]]


def _weigh(weighted: Iterable[tuple[str, float]]) -> _Tally:
    """The tally of ``(program, weight)`` pairs in ``length_lex`` program
    order, the one order in which every machine sums."""
    weights: dict[str, float] = {}
    captured = 0.0
    value = 0.0
    for prog, w in weighted:
        captured += w
        if w > AMP_FLOOR:
            weights[prog] = w
            value += w * len(prog)
    return captured, value, weights


def _estimate(tally: _Tally) -> ComplexityEstimate:
    """The single-machine estimate of a tally; raises
    :class:`OutOfSpanError` when the state leaves the span."""
    captured, value, weights = tally
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
    return max(len(p) for p in machine_complexity(machine, state).decomposition)


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


def _query(
    cat: MachineCatalog, state: QString, *, prune: bool
) -> tuple[ComplexityEstimate, float]:
    """The cheapest catalog estimate of ``state`` and its least bare value.

    Machines are tallied once each, in index order; one whose span misses
    the state is passed over with one comparison.  With ``prune`` the walk
    stops at the first machine whose index cost alone reaches the best
    total so far.  That is exact: values are >= 0, index costs never fall
    with the index, and ties go to the lowest index.  The least bare value
    is then over the machines tallied only.
    """
    best_total, best_index, best_weights = math.inf, 0, {}
    least = math.inf
    for i, machine in enumerate(cat, start=1):
        cost = index_cost(i)
        if prune and cost >= best_total:
            break
        captured, value, weights = machine._tally(state)
        if 1.0 - captured > SPAN_TOL:
            continue
        if value < least:
            least = value
        total = cost + value
        if total < best_total:
            best_total, best_index, best_weights = total, i, weights
    if not best_index:
        raise NoDescriberError("no machine in the catalog spans the state")
    return ComplexityEstimate(float(best_total), best_index, best_weights), least


def universal_complexity(cat: MachineCatalog, state: QString) -> ComplexityEstimate:
    """Cheapest index-cost-plus-description total over the catalog.

    Ties go to the lowest machine index; a state no machine spans
    raises :class:`NoDescriberError`.  The query walks the catalog in
    index order and stops once a machine's index cost alone reaches the
    best total; a machine whose span misses the state costs one
    comparison, not a raised error.
    """
    return _query(cat, state, prune=True)[0]


def min_description_length(cat: MachineCatalog, state: QString) -> float:
    """Best machine-level value over the catalog, without index costs."""
    return _query(cat, state, prune=False)[1]


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
    # The machine checked its programs and outputs, and delimiting distinct
    # programs gives a prefix-free set, so nothing is checked again.
    return DescriberMachine._from_checked(
        {_delimit(p): out for p, out in machine.programs.items()}
    )


def machine_from_code(code: CondensableCode) -> DescriberMachine:
    """View a condensable code as the machine decoding its codewords.

    The code has already checked everything the machine needs, so the
    machine is built without a second check.  Its orthogonality test is
    the code's numpy Gram product; a machine built from the same table by
    ``DescriberMachine`` sums the entries in another order, and for an
    overlap within round-off of ``ORTHO_TOL`` the two may disagree.  The
    code's verdict is the one that holds here.
    """
    programs = {
        code.words.codeword(k): code.source_basis[k] for k in range(len(code))
    }
    return DescriberMachine._from_checked(programs)


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
    return load_program_table(read_text(path), base_dir=os.path.dirname(path) or ".")


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
    write_text(path, dump_machine(machine))
