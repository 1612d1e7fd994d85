"""Indeterminate-length quantum strings.

A :class:`QString` is a normalized superposition of classical bitstrings
that may have different lengths, i.e. a unit vector in the direct sum of
the n-bit spaces for every n >= 0.  The basis label of a term is a plain
Python string of ``'0'``/``'1'`` characters; the empty string is a valid
label in its own right.

Because superpositions mix lengths, "the" length of a state is replaced
by two functionals: the average length (squared-amplitude weighted) and
the base length (longest contributing string).  Deterministic classical
strings are the special case of a single term, for which both agree.

The module also provides the self-delimiting transforms used everywhere
else in the package: ``x -> 1^len(x) 0 x`` on single strings (extended
linearly to superpositions) and the pair encoding
``(x, y) -> 1^len(x) 0 x y``, which is decodable without external
markers and composes into sequence encodings by right-nested folding.

Text format (``.qstr``): one term per line, ``<bits> <re> <im>``, where
the empty string is written as the token ``eps``.  Serialization is
canonical: terms sorted by length, then lexicographically.

This module also holds the rules every text format shares, so ``.ens``
(``linalg``) and ``.qm`` (``complexity``) files read the same way:
:func:`text_lines` skips blank and ``#`` lines and numbers the rest,
:func:`parse_bits` / :func:`format_bits` read and write bitstring tokens
(``eps`` for the empty string), and :func:`load_state_ref` reads a state
given inline or as a ``.qstr`` path next to the referencing file.

Every file the package reads goes through :func:`read_text`, and every
file it writes through :func:`write_text`.

Each label is checked once, where it enters: by :class:`QString`, the
public encoders and decoders, and the text readers.  The label test is
one ``str.translate`` deletion, so it runs at C speed.  Objects the
package builds from labels it has already checked skip a second check:
:meth:`QString._from_checked` serves :func:`self_delimit` here and
``qcode``'s eigen-ensembles and encoded states, and a sequence is
checked item by item once, not once per nesting level.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator, Mapping
from contextvars import ContextVar

from .errors import (
    DuplicateKeyError,
    EmptyStateError,
    FormatError,
    LengthCapExceededError,
    NotNormalizedError,
)

#: Hard cap on the length of any single bitstring.
LENGTH_CAP = 1 << 20

#: Tolerance on the squared norm of a state.
NORM_TOL = 1e-9

#: Tolerance on the norms and overlaps of states that must be orthonormal,
#: the largest squared norm a state may leave outside a span, and the
#: amplitude (or weight) at or below which a term counts as zero.
ORTHO_TOL = 1e-8
SPAN_TOL = 1e-8
AMP_FLOOR = 1e-12


#: ``str.translate`` table deleting ``'0'`` and ``'1'``: a bitstring
#: translates to the empty string.
_NOT_BITS = str.maketrans("", "", "01")


def is_bitstring(bits: str) -> bool:
    """Whether the string holds only ``'0'``/``'1'`` (the empty string does)."""
    return not bits.translate(_NOT_BITS)


def check_bitstring(bits: str) -> str:
    """Validate a classical bitstring label and return it unchanged."""
    if not isinstance(bits, str):
        raise TypeError(f"bitstring must be str, got {type(bits).__name__}")
    if not is_bitstring(bits):
        raise ValueError(f"bitstring may contain only '0'/'1': {bits!r}")
    if len(bits) > LENGTH_CAP:
        raise LengthCapExceededError(
            f"bitstring of length {len(bits)} exceeds cap {LENGTH_CAP}"
        )
    return bits


def length_lex(bits: str) -> tuple[int, str]:
    """Sort key for the canonical (length, then lexicographic) order."""
    return (len(bits), bits)


class QString:
    """A normalized superposition of bitstrings of possibly different lengths.

    ``terms`` maps each contributing bitstring to its complex amplitude.
    Zero amplitudes are dropped; what remains must be non-empty and have
    squared norm 1 within ``NORM_TOL`` unless ``normalize=True`` is passed,
    in which case the amplitudes are rescaled once, explicitly.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[str, complex] | Iterable[tuple[str, complex]],
        *,
        normalize: bool = False,
    ) -> None:
        self._terms = _unit_terms(terms, normalize, check=True)

    @classmethod
    def _from_checked(
        cls,
        terms: Mapping[str, complex] | Iterable[tuple[str, complex]],
        *,
        normalize: bool = False,
    ) -> QString:
        """A state over labels that are already checked bitstrings.

        The same as ``QString(terms, normalize=normalize)``, amplitude
        bits included, without the label checks.  Only for labels taken
        from a checked object: another state, a density operator's basis
        or a prefix code's codewords.
        """
        state = cls.__new__(cls)
        state._terms = _unit_terms(terms, normalize, check=False)
        return state

    @property
    def terms(self) -> dict[str, complex]:
        """The term mapping (a defensive copy)."""
        return dict(self._terms)

    def amplitude(self, bits: str) -> complex:
        return self._terms.get(bits, 0j)

    def keys(self):
        return self._terms.keys()

    def items(self):
        return self._terms.items()

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, bits: str) -> bool:
        return bits in self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QString):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{format_bits(b)}: {a:.6g}"
            for b, a in sorted(self._terms.items(), key=lambda kv: length_lex(kv[0]))
        )
        return f"QString({{{parts}}})"


def _unit_terms(
    terms: Mapping[str, complex] | Iterable[tuple[str, complex]],
    normalize: bool,
    *,
    check: bool,
) -> dict[str, complex]:
    """The nonzero terms of ``terms``, checked for unit norm or rescaled to it.

    With ``check`` each label is checked as a bitstring first.  Raises on a
    repeated label, on no nonzero term, and on a squared norm off 1 by
    more than ``NORM_TOL`` (or, with ``normalize``, not positive and
    finite).
    """
    pairs = terms.items() if isinstance(terms, Mapping) else terms
    clean: dict[str, complex] = {}
    for bits, amp in pairs:
        if check:
            check_bitstring(bits)
        if bits in clean:
            raise DuplicateKeyError(f"duplicate term for bitstring {bits!r}")
        a = complex(amp)
        if a != 0:
            clean[bits] = a
    if not clean:
        raise EmptyStateError("state has no nonzero terms")
    norm2 = sum(abs(a) ** 2 for a in clean.values())
    # Negated tests, so a NaN norm fails them instead of passing.
    if normalize:
        if not 0.0 < norm2 < math.inf:
            raise NotNormalizedError(f"cannot normalize squared norm {norm2!r}")
        scale = 1.0 / math.sqrt(norm2)
        clean = {b: a * scale for b, a in clean.items()}
    elif not abs(norm2 - 1.0) <= NORM_TOL:
        raise NotNormalizedError(
            f"squared norm is {norm2!r}, off by more than {NORM_TOL}"
        )
    return clean


def make_qstring(
    terms: Mapping[str, complex] | Iterable[tuple[str, complex]],
    *,
    normalize: bool = False,
) -> QString:
    """Functional constructor for :class:`QString`."""
    return QString(terms, normalize=normalize)


def basis_state(bits: str) -> QString:
    """The deterministic string ``bits`` as a quantum string."""
    return QString({bits: 1.0})


def average_length(state: QString) -> float:
    """Squared-amplitude weighted mean of the term lengths."""
    return float(sum(abs(a) ** 2 * len(b) for b, a in state.items()))


def base_length(state: QString) -> int:
    """Length of the longest string with nonzero amplitude."""
    return max(len(b) for b in state.keys())


def inner_product(a: QString, b: QString) -> complex:
    """The inner product <a|b> over the shared bitstring basis."""
    if len(b) < len(a):
        return complex(inner_product(b, a)).conjugate()
    return sum(
        (amp.conjugate() * b.amplitude(bits) for bits, amp in a.items()),
        start=0j,
    )


def delimit_bits(bits: str) -> str:
    """The self-delimiting form ``1^len(bits) 0 bits`` of one string."""
    return _delimit(check_bitstring(bits))


def _delimit(bits: str) -> str:
    """:func:`delimit_bits` on a string already checked as a bitstring."""
    if 2 * len(bits) + 1 > LENGTH_CAP:
        raise LengthCapExceededError(
            f"self-delimited length {2 * len(bits) + 1} exceeds cap {LENGTH_CAP}"
        )
    return "1" * len(bits) + "0" + bits


def self_delimit(state: QString) -> QString:
    """Apply ``x -> 1^len(x) 0 x`` to every term, keeping amplitudes.

    The map sends distinct strings to distinct strings, so it extends to
    an isometry on superpositions; the average length transforms exactly
    as ``2 * average_length(state) + 1``.
    """
    return QString._from_checked({_delimit(b): a for b, a in state.items()})


def pair_encode(x: str, y: str) -> str:
    """Encode the ordered pair ``(x, y)`` as ``1^len(x) 0 x y``.

    The leading unary run announces ``len(x)``, so the boundary between
    ``x`` and ``y`` needs no marker: ``pair_encode('110', '1000')`` is
    ``'11101101000'``.
    """
    # Hot path: one translate per argument.  Anything it does not accept
    # (non-str, stray characters, over the cap) gets the full checks.
    try:
        if (
            not x.translate(_NOT_BITS)
            and not y.translate(_NOT_BITS)
            and 2 * len(x) + 1 + len(y) <= LENGTH_CAP
        ):
            return "1" * len(x) + "0" + x + y
    except (AttributeError, TypeError):
        pass
    check_bitstring(x)
    check_bitstring(y)
    if 2 * len(x) + 1 + len(y) > LENGTH_CAP:
        raise LengthCapExceededError("encoded pair exceeds the length cap")
    return "1" * len(x) + "0" + x + y


def pair_decode(z: str) -> tuple[str, str]:
    """Invert :func:`pair_encode`, recovering ``(x, y)`` exactly."""
    try:
        plain = not z.translate(_NOT_BITS) and len(z) <= LENGTH_CAP
    except (AttributeError, TypeError):
        plain = False
    if not plain:
        check_bitstring(z)
    run = z.find("0")
    if run < 0:
        raise ValueError("missing delimiter: input is all ones")
    if len(z) < 2 * run + 1:
        raise ValueError("input too short for its announced first component")
    return z[run + 1 : 2 * run + 1], z[2 * run + 1 :]


def sequence_encode(strings: Iterable[str]) -> str:
    """Right-nested fold of :func:`pair_encode` over a sequence.

    ``[x1, x2, x3]`` becomes ``pair_encode(x1, pair_encode(x2, x3))``;
    a single-element sequence encodes as the element itself.  Items are
    checked once each, last to first, with the length cap checked on the
    encoding so far after each, as the fold would meet them.
    """
    items = list(strings)
    if not items:
        raise ValueError("cannot encode an empty sequence")
    size = len(check_bitstring(items[-1]))
    for s in reversed(items[:-1]):
        size += 2 * len(check_bitstring(s)) + 1
        if size > LENGTH_CAP:
            raise LengthCapExceededError("encoded pair exceeds the length cap")
    return "".join(["1" * len(s) + "0" + s for s in items[:-1]] + [items[-1]])


def sequence_decode(z: str, count: int) -> list[str]:
    """Invert :func:`sequence_encode` given the element count.

    ``z`` is checked once; each step then splits one pair off the rest.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    check_bitstring(z)
    out: list[str] = []
    start = 0
    for _ in range(count - 1):
        mark = z.find("0", start)
        if mark < 0:
            raise ValueError("missing delimiter: input is all ones")
        end = 2 * mark + 1 - start
        if len(z) < end:
            raise ValueError("input too short for its announced first component")
        out.append(z[mark + 1 : end])
        start = end
    out.append(z[start:])
    return out


# --- text format ------------------------------------------------------------

EPS_TOKEN = "eps"


def text_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(lineno, line)`` for every line that is not blank or a ``#`` comment.

    Lines are numbered from 1 and stripped of surrounding whitespace.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def format_bits(bits: str) -> str:
    """The text token for a bitstring: ``eps`` for the empty string."""
    return bits if bits else EPS_TOKEN


def parse_bits(token: str) -> str:
    """The bitstring a text token names; the empty string must be ``eps``."""
    if token == EPS_TOKEN:
        return ""
    if not token or not is_bitstring(token):
        raise FormatError(f"bad bitstring token {token!r}")
    return token


def dump_qstring(state: QString) -> str:
    """Serialize to the canonical ``.qstr`` text form."""
    lines = [
        f"{format_bits(b)} {a.real!r} {a.imag!r}"
        for b, a in sorted(state.items(), key=lambda kv: length_lex(kv[0]))
    ]
    return "\n".join(lines) + "\n"


def load_qstring(text: str) -> QString:
    """Parse the ``.qstr`` text form produced by :func:`dump_qstring`."""
    pairs: list[tuple[str, complex]] = []
    for lineno, line in text_lines(text):
        fields = line.split()
        if len(fields) != 3:
            raise FormatError(f"line {lineno}: expected '<bits> <re> <im>'")
        try:
            bits = parse_bits(fields[0])
            re_part = float(fields[1])
            im_part = float(fields[2])
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad amplitude: {exc}") from exc
        pairs.append((bits, complex(re_part, im_part)))
    if not pairs:
        raise FormatError("no terms found")
    try:
        return QString(pairs)
    except DuplicateKeyError as exc:
        raise FormatError(str(exc)) from exc


def parse_inline_state(body: str) -> QString:
    """Parse the brace-delimited inline form ``{ bits:re,im ; ... }``."""
    inner = body.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise FormatError(f"inline state must be brace-delimited: {body!r}")
    inner = inner[1:-1].strip()
    pairs: list[tuple[str, complex]] = []
    for chunk in inner.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise FormatError(f"bad inline term {chunk!r}")
        token, amp = chunk.split(":", 1)
        bits = parse_bits(token.strip())
        parts = amp.split(",")
        if len(parts) != 2:
            raise FormatError(f"amplitude must be 're,im': {amp!r}")
        try:
            pairs.append((bits, complex(float(parts[0]), float(parts[1]))))
        except ValueError as exc:
            raise FormatError(f"bad amplitude in {chunk!r}: {exc}") from exc
    if not pairs:
        raise FormatError("inline state is empty")
    try:
        return QString(pairs)
    except DuplicateKeyError as exc:
        raise FormatError(str(exc)) from exc


def format_inline_state(state: QString) -> str:
    """Serialize to the canonical inline form ``{ bits:re,im ; ... }``."""
    parts = " ; ".join(
        f"{format_bits(b)}:{a.real!r},{a.imag!r}"
        for b, a in sorted(state.items(), key=lambda kv: length_lex(kv[0]))
    )
    return "{ " + parts + " }"


# path -> bytes of every file read_text reads, while the command line asks.
_READS: ContextVar[dict[str, bytes] | None] = ContextVar("_READS", default=None)


def read_text(path: str) -> str:
    """The file's bytes, read once, as UTF-8; other bytes are a FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    reads = _READS.get()
    if reads is not None:
        reads[path] = data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8: byte {exc.start}: {exc.reason}") from None


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, line endings untranslated."""
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def read_qstring_file(path: str) -> QString:
    return load_qstring(read_text(path))


def load_state_ref(ref: str, base_dir: str | None, lineno: int) -> QString:
    """The state on line ``lineno`` of an ensemble or machine file.

    ``ref`` is an inline ``{ ... }`` block or a ``.qstr`` path, resolved
    against ``base_dir`` (the referencing file's directory) when given.
    Format errors name the line and, for a path, the referenced file.
    """
    where = f"line {lineno}"
    try:
        if ref.startswith("{"):
            return parse_inline_state(ref)
        path = ref if base_dir is None else os.path.join(base_dir, ref)
        text = read_text(path)  # a decoding error names the path itself
        where += f": {path}"
        return load_qstring(text)
    except FormatError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def write_qstring_file(path: str, state: QString) -> None:
    write_text(path, dump_qstring(state))
