"""Classical prefix-free codes, Kraft arithmetic and Shannon entropy.

Kraft sums are evaluated exactly, as one integer numerator over a power
of two, so feasibility checks at the ``<= 1`` boundary never wobble.
Codeword assignment is canonical: symbols are processed shortest length
first (ties broken by source index) and each receives the
lexicographically smallest codeword that keeps the table prefix-free.

A :class:`PrefixCode` built from a table checks every codeword, that the
table is prefix-free, and its Kraft sum.  :func:`canonical_prefix_code`
checks each length instead; its construction then proves all three, so
it returns its table through the trusted :meth:`PrefixCode._canonical`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import (
    InvalidDistributionError,
    LengthCapExceededError,
    MissingCodewordError,
    NotPrefixFreeError,
)
from .fock import LENGTH_CAP, check_bitstring, format_bits

#: Probabilities below this would demand absurd codeword lengths.
PROB_FLOOR = 1e-15

#: Tolerance on the sum of a probability vector (and of ensemble weights).
PROB_TOL = 1e-9


#: A bit count within this of an integer is rounded to it before a ceiling.
CEIL_SNAP = 1e-9


def ceil_bits(bits: float) -> int:
    """Smallest nonnegative integer >= ``bits``.

    A bit count within ``CEIL_SNAP`` of an integer is rounded to it first
    so that exactly dyadic probabilities (0.5, 0.25, ...) are not pushed
    up a bit by floating point noise.
    """
    r = round(bits)
    if abs(bits - r) <= CEIL_SNAP:
        bits = float(r)
    return max(0, math.ceil(bits))


def ceil_neg_log2(x: float) -> int:
    """Smallest nonnegative integer >= -log2(x), snapped as in ``ceil_bits``."""
    if x <= 0.0:
        raise ValueError("argument must be positive")
    return ceil_bits(-math.log2(x))


def check_prefix_free(words: Iterable[str]) -> None:
    """Raise :class:`NotPrefixFreeError` if one word is a prefix of another."""
    ordered = sorted(words)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            raise NotPrefixFreeError(
                f"codeword {format_bits(a)!r} is a prefix of {b!r}"
            )


class PrefixCode:
    """An injective, prefix-free codeword table keyed by source index."""

    __slots__ = ("_table",)

    def __init__(self, table: Mapping[int, str]) -> None:
        clean: dict[int, str] = {}
        for idx, word in table.items():
            idx = int(idx)
            if idx < 0:
                raise ValueError(f"source index must be nonnegative, got {idx}")
            clean[idx] = check_bitstring(word)
        if not clean:
            raise ValueError("codeword table is empty")
        check_prefix_free(clean.values())
        # Prefix-freeness already implies the Kraft inequality; the exact
        # recheck guards against future edits breaking that argument.
        if kraft_sum_exact(len(w) for w in clean.values()) > 1:
            raise NotPrefixFreeError("Kraft sum exceeds 1")
        self._table = clean

    @classmethod
    def _canonical(cls, table: dict[int, str]) -> PrefixCode:
        """The code of a table built by :func:`canonical_prefix_code`.

        Its codewords are bitstrings, prefix-free and Kraft-feasible by
        construction, so only an empty table is rejected.
        """
        if not table:
            raise ValueError("codeword table is empty")
        code = cls.__new__(cls)
        code._table = table
        return code

    @property
    def table(self) -> dict[int, str]:
        return dict(self._table)

    def codeword(self, index: int) -> str:
        try:
            return self._table[index]
        except KeyError:
            raise MissingCodewordError(f"no codeword for source index {index}") from None

    def lengths(self) -> dict[int, int]:
        return {i: len(w) for i, w in self._table.items()}

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, index: int) -> bool:
        return index in self._table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrefixCode):
            return NotImplemented
        return self._table == other._table

    def __repr__(self) -> str:
        return f"PrefixCode({self._table!r})"


def _checked_length(l) -> int:
    """A codeword length as an int: nonnegative and at most ``LENGTH_CAP``."""
    l = int(l)
    if l < 0:
        raise ValueError("codeword lengths must be nonnegative")
    if l > LENGTH_CAP:
        raise LengthCapExceededError(
            f"codeword length {l} exceeds cap {LENGTH_CAP}"
        )
    return l


def kraft_sum_exact(lengths) -> Fraction:
    """Sum of 2**-l over the given codeword lengths, as an exact fraction.

    With ``L = max(lengths)`` the sum is ``(sum of 2**(L - l)) / 2**L``:
    one integer numerator over one power of two, which ``Fraction``
    reduces to lowest terms.  Each length is checked in input order
    before any shift; a negative one raises ``ValueError``, and one
    above ``LENGTH_CAP`` (no codeword can be longer) raises
    :class:`LengthCapExceededError`.  An empty input raises
    ``ValueError``.
    """
    checked = [_checked_length(l) for l in lengths]
    if not checked:
        raise ValueError("no lengths given")
    top = max(checked)
    return Fraction(sum(1 << (top - l) for l in checked), 1 << top)


def kraft_sum(lengths) -> float:
    """Sum of 2**-l over the given codeword lengths, exactly, as a float."""
    return float(kraft_sum_exact(lengths))


def canonical_prefix_code(lengths: Sequence[int]) -> PrefixCode:
    """Build the canonical prefix code realizing the given lengths.

    Raises :class:`NotPrefixFreeError` if the lengths are Kraft-infeasible.
    Each codeword is the previous one plus one, shifted left to its
    length, and fits that length, so no codeword extends an earlier one.
    """
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    table: dict[int, str] = {}
    value = 0
    prev_len: int | None = None
    for i in order:
        l = _checked_length(lengths[i])
        if prev_len is not None and l > prev_len:
            value <<= l - prev_len
        if value >= (1 << l):
            raise NotPrefixFreeError("lengths are Kraft-infeasible")
        table[i] = format(value, "b").zfill(l) if l else ""
        value += 1
        prev_len = l
    return PrefixCode._canonical(table)


def _check_distribution(p: Sequence[float], *, floor: float = 0.0) -> list[float]:
    probs = [float(x) for x in p]
    if not probs:
        raise InvalidDistributionError("empty probability vector")
    for x in probs:
        if not math.isfinite(x):
            raise InvalidDistributionError(f"probability {x!r} is not finite")
        if x < 0.0:
            raise InvalidDistributionError(f"negative probability {x!r}")
        if floor and x < floor:
            raise InvalidDistributionError(
                f"probability {x!r} below the supported floor {floor}"
            )
    if abs(sum(probs) - 1.0) > PROB_TOL:
        raise InvalidDistributionError(f"probabilities sum to {sum(probs)!r}, not 1")
    return probs


def shannon_entropy(p: Sequence[float]) -> float:
    """H(p) in bits; zero entries contribute zero."""
    probs = _check_distribution(p)
    return -sum(x * math.log2(x) for x in probs if x > 0.0)


def shannon_code(p: Sequence[float]) -> PrefixCode:
    """Canonical prefix code with lengths ``ceil(-log2 p_i)``.

    Every entry must be strictly positive (drop zeros before calling)
    and at least ``PROB_FLOOR``.  The expected length always lands in
    the ``[H(p), H(p) + 1)`` window.
    """
    probs = _check_distribution(p, floor=PROB_FLOOR)
    lengths = [ceil_neg_log2(x) for x in probs]
    return canonical_prefix_code(lengths)


def expected_length(code: PrefixCode, p: Sequence[float]) -> float:
    """Mean codeword length of ``code`` under the distribution ``p``.

    Symbols with zero probability may lack codewords; symbols with
    positive probability may not.
    """
    probs = _check_distribution(p)
    total = 0.0
    for i, x in enumerate(probs):
        if x > 0.0:
            total += x * len(code.codeword(i))
    return total


def code_table_text(code: PrefixCode) -> str:
    """Export as ``<index> <codeword>`` lines in ascending index order."""
    lines = [f"{i} {format_bits(w)}" for i, w in sorted(code.table.items())]
    return "\n".join(lines) + "\n"
