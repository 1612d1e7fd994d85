"""Classical prefix-free codes, Kraft arithmetic and Shannon entropy.

Kraft sums are evaluated with exact dyadic arithmetic (``fractions``),
so feasibility checks at the ``<= 1`` boundary never wobble.  Codeword
assignment is canonical: symbols are processed shortest length first
(ties broken by source index) and each receives the lexicographically
smallest codeword that keeps the table prefix-free.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import (
    InvalidDistributionError,
    MissingCodewordError,
    NotPrefixFreeError,
)
from .fock import check_bitstring, format_bits

#: Probabilities below this would demand absurd codeword lengths.
PROB_FLOOR = 1e-15

#: Tolerance on the sum of a probability vector (and of ensemble weights).
PROB_TOL = 1e-9


def ceil_bits(bits: float, *, snap: float = 1e-9) -> int:
    """Smallest nonnegative integer >= ``bits``.

    A bit count within ``snap`` of an integer is rounded to it first so
    that exactly dyadic probabilities (0.5, 0.25, ...) are not pushed up
    a bit by floating point noise.
    """
    r = round(bits)
    if abs(bits - r) <= snap:
        bits = float(r)
    return max(0, math.ceil(bits))


def ceil_neg_log2(x: float, *, snap: float = 1e-9) -> int:
    """Smallest nonnegative integer >= -log2(x), snapped as in ``ceil_bits``."""
    if x <= 0.0:
        raise ValueError("argument must be positive")
    return ceil_bits(-math.log2(x), snap=snap)


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


def kraft_sum_exact(lengths) -> Fraction:
    total = Fraction(0)
    count = 0
    for l in lengths:
        l = int(l)
        if l < 0:
            raise ValueError("codeword lengths must be nonnegative")
        total += Fraction(1, 1 << l)
        count += 1
    if count == 0:
        raise ValueError("no lengths given")
    return total


def kraft_sum(lengths) -> float:
    """Sum of 2**-l over the given codeword lengths, exactly, as a float."""
    return float(kraft_sum_exact(lengths))


def canonical_prefix_code(lengths: Sequence[int]) -> PrefixCode:
    """Build the canonical prefix code realizing the given lengths.

    Raises :class:`NotPrefixFreeError` if the lengths are Kraft-infeasible.
    """
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    table: dict[int, str] = {}
    value = 0
    prev_len: int | None = None
    for i in order:
        l = int(lengths[i])
        if l < 0:
            raise ValueError("codeword lengths must be nonnegative")
        if prev_len is not None and l > prev_len:
            value <<= l - prev_len
        if value >= (1 << l):
            raise NotPrefixFreeError("lengths are Kraft-infeasible")
        table[i] = format(value, "b").zfill(l) if l else ""
        value += 1
        prev_len = l
    return PrefixCode(table)


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
