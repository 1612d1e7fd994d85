"""Classical prefix-free codes, Kraft arithmetic and Shannon entropy.

Kraft sums are evaluated exactly, as one integer numerator over a power
of two, so feasibility checks at the ``<= 1`` boundary never wobble.
The two bounds that prefix codes meet each have one predicate here, and
every report reads its check from it: :func:`kraft_feasible`, Kraft's
inequality decided on the exact sum, and :func:`in_entropy_window`, the
source-coding window ``H - CEIL_SNAP <= E < H + 1`` of a code whose
lengths are ``ceil_bits(-log2 p)``.
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


#: A subtree is cut only when its least possible codeword length exceeds
#: the budget by more than this many bits; see ``_type_classes``.
PRUNE_SLACK = 1e-6


def _type_classes(lams: Sequence[float], n: int, budget: int | None = None):
    """Yield ``(multiplicity, log2 p)`` for the n-copy type classes of ``lams``.

    A type class fixes how many of the n copies take each entry of the
    descending spectrum ``lams``; ``p`` is the probability of one string
    in it and ``multiplicity`` the number of such strings.  Its codeword
    length is ``ceil_bits(-log2 p)``.  Classes come in lexicographic
    order of their counts (ascending count of ``lams[0]``, then of
    ``lams[1]``, ...), with ``log2 p`` summed left to right over the
    parts, ``k * log2 lams[j]`` for part j.  A zero count adds a signed
    zero, which leaves the sum unchanged bit for bit (it starts at +0.0
    and so never reads -0.0).  Without a budget every class is yielded;
    with an integer budget ``>= 0``, exactly those whose codeword length
    fits it.  The entries must be at least 1e-12 (``qcode.EIG_FLOOR``)
    and ``n <= 64``.  Memory stays O(d * n): a stack of at most n + 1
    children per part.

    The walk keeps a stack of partial classes, one per fixed prefix of
    counts.  Three things keep it lean:

    * **Two tables.**  The fold (below) runs once per class, so the
      terms it adds, ``k * log2 lams[j]`` for the last two parts and
      every k <= n, are built once per call and looked up.  They are
      the same products, so every sum has the same bits.  An internal
      child, which is pushed, keeps its one multiply: a table for every
      part would grow memory to O(d * n) and save little.  A
      multiplicity is a product of ``math.comb`` factors, taken only for
      a child that is pushed or a class that fits; binomial rows would
      cost O(n^2) per call, more than the few kept classes of a budgeted
      walk use.
    * **The fold.**  The children of a prefix that fixes all but the last
      two counts are classes: the last part takes what is left.  Their
      ``log2 p`` is summed inside the parent's loop, with ascending
      count of the second-to-last part, and nothing is pushed.  A child
      that leaves no copies to place is one class too; it is pushed as
      finished, and popped with a fit test alone.
    * **The fit test.**  A class fits when ``-logp - budget <= CEIL_SNAP``.
      For an integer ``B = budget >= 0`` and ``x = -logp`` this is
      exactly ``ceil_bits(x) <= B``, with no ``ceil_bits`` call.  A
      negative x has length 0 and fits, and ``x - B < 0``.  For x >= 0
      write ``r = round(x)``.  Sterbenz's lemma makes ``x - r`` exact (r
      is 0, or x lies in ``[r - 1/2, r + 1/2]``, inside ``[r/2, 2r]``),
      and ``x - B`` exact when B is 0 or x lies in ``[B/2, 2B]``.  Below
      that range ``x - B < -1/2`` and above it ``x - B > 1``, and
      rounding keeps the computed difference on the same side of
      ``CEIL_SNAP``.  So both tests compare exact differences.  If x is
      snapped (``|x - r| <= CEIL_SNAP``), ``ceil_bits(x) = r``: for
      ``r <= B`` then ``x - B <= CEIL_SNAP``, and for ``r >= B + 1`` then
      ``x - B >= 1 - CEIL_SNAP``.  Otherwise x is more than ``CEIL_SNAP``
      from every integer, ``ceil_bits(x) <= B`` iff ``x <= B``, and
      ``x - B`` is either at most 0 or above ``CEIL_SNAP``.  Without a
      budget the test runs against ``math.inf`` and always passes.

    **The cut.**  Once the first j+1 counts are fixed with r copies left,
    each of them costs at least ``cut_j = max(-log2 lams[j+1], 0)`` bits,
    so the prefix's partial length plus ``r * cut_j`` is a floor on every
    class below it, and a child whose floor exceeds ``budget +
    PRUNE_SLACK`` is cut.  The slack is safe: with n <= 64 copies and
    entries of at least 1e-12, every sum has at most 64 nonzero terms
    totalling at most 64 * 40 bits, so round-off moves the floor and the
    final sum by under 1e-10 bits, and a class fits only if its sum is
    at most ``budget + CEIL_SNAP`` (1e-9).  The floor is clamped at 0;
    that overstates it only for an entry that rounds above 1, by at most
    64 * log2(that entry), far below the slack for a trace-one operator.

    **The break.**  Each internal child loop runs the count k of part j
    from ``rem`` (the copies left) down and stops at the first cut.  In
    exact arithmetic the floor of child k is ``rem * cut_j - L - k *
    (cut_j + log2 lams[j])`` for the prefix's ``log2 p`` L, and ``cut_j +
    log2 lams[j] >= log2 lams[j] - log2 lams[j+1] >= 0`` for a descending
    spectrum, so the floor only grows as k falls.  A k skipped by the
    break therefore has an exact floor above ``budget + PRUNE_SLACK``
    minus round-off, and by the argument above no class below it fits.
    The fold tests every class instead: with equal entries, ``log2 p``
    is not monotone in k in floating point.
    """
    logs = [math.log2(lam) for lam in lams]
    last = len(logs) - 1
    top = math.inf if budget is None else budget
    if not last:  # one part: a single class
        logp = 0.0 + n * logs[0]
        if -logp - top <= CEIL_SNAP:
            yield 1, logp
        return
    limit = top + PRUNE_SLACK
    counts = range(n + 1)
    fold = last - 1
    # head[k] = k * log2 lams[fold] and tail[n - r] = r * log2 lams[last],
    # so the fold's k-th class adds head[k] and then tail[n - rem + k].
    head = [k * logs[fold] for k in counts]
    cuts = [max(-x, 0.0) for x in logs[1:last]]
    tail = [r * logs[last] for r in reversed(counts)]
    comb = math.comb
    stack = [(0, n, 0.0, 1)]  # (part, copies left, log2 p so far, multiplicity)
    push, pop = stack.append, stack.pop
    while stack:
        j, rem, logp, mult = pop()
        if j == last:  # a class whose last counts are all zero
            if -logp - top <= CEIL_SNAP:
                yield mult, logp
        elif j == fold:  # the children are classes; k ascends, so nothing is pushed
            k = 0
            for step, rest in zip(head, tail[n - rem:]):
                lp = logp + step + rest
                if -lp - top <= CEIL_SNAP:
                    yield mult * comb(rem, k), lp
                k += 1
        else:
            x, cut = logs[j], cuts[j]
            part = logp + rem * x  # k = rem leaves nothing: one class
            if -part > limit:  # every other child's floor is higher still
                continue
            push((last, 0, part, mult))
            for k in range(rem - 1, -1, -1):  # pushed high to low, so popped k = 0 first
                part = logp + k * x
                if (rem - k) * cut - part > limit:
                    break
                push((j + 1, rem - k, part, mult * comb(rem, k)))


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


def kraft_feasible(lengths) -> bool:
    """Kraft's inequality ``sum 2**-l <= 1``, decided on
    :func:`kraft_sum_exact` with no slack.

    A float sum rounds ``1 + 2**-L`` to 1 for L > 52, so it would pass
    lengths that no prefix code realizes.
    """
    return kraft_sum_exact(lengths) <= 1


def in_entropy_window(expected: float, entropy: float) -> bool:
    """The source-coding window ``H - CEIL_SNAP <= E < H + 1``.

    ``E`` is the expected length of a code whose codeword for a symbol
    of probability p has length ``ceil_bits(-log2 p)``, and ``H`` the
    entropy of those probabilities, which sum to 1.  With ``x = -log2 p``, a length is
    below x only where ``ceil_bits`` snaps x down to an integer, and
    then by at most ``CEIL_SNAP``; so ``E >= H - CEIL_SNAP``, which is
    the lower slack.  A length above x is one that did not snap, so
    ``ceil_bits(x) - x < 1 - CEIL_SNAP`` and ``E < H + 1`` holds with
    that margin to spare: the upper bound is strict.  Both margins are
    far above the round-off of the float sums ``E`` and ``H``.
    """
    return entropy - CEIL_SNAP <= expected < entropy + 1.0


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
