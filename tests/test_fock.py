import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfock import (
    DuplicateKeyError,
    EmptyStateError,
    FormatError,
    LengthCapExceededError,
    NotNormalizedError,
    QString,
    average_length,
    base_length,
    basis_state,
    delimit_bits,
    dump_qstring,
    inner_product,
    load_qstring,
    make_qstring,
    pair_decode,
    pair_encode,
    read_qstring_file,
    self_delimit,
    sequence_decode,
    sequence_encode,
    write_qstring_file,
)
from qfock.fock import LENGTH_CAP, format_inline_state, is_bitstring, parse_inline_state

from helpers import (
    amplitude_bits,
    outcome,
    random_qstring,
    sequence_decode_by_pairs,
    sequence_encode_by_pairs,
)

bitstrings = st.text(alphabet="01", min_size=0, max_size=24)


class TestQString:
    def test_basic_terms(self):
        s = QString({"0": 0.6, "11": 0.8})
        assert s.amplitude("0") == 0.6
        assert s.amplitude("11") == 0.8
        assert s.amplitude("1") == 0
        assert len(s) == 2 and "11" in s

    def test_empty_state_rejected(self):
        with pytest.raises(EmptyStateError):
            QString({})
        with pytest.raises(EmptyStateError):
            QString({"0": 0.0})  # exact zeros are dropped first

    def test_norm_enforced(self):
        with pytest.raises(NotNormalizedError):
            QString({"0": 0.5})
        # normalize=True rescales instead
        s = QString({"0": 0.5}, normalize=True)
        assert s.amplitude("0") == pytest.approx(1.0)
        # a NaN or infinite norm is rejected, not rescaled
        for amp in (math.nan, complex(0.5, math.nan), math.inf):
            with pytest.raises(NotNormalizedError):
                QString({"0": amp})
            with pytest.raises(NotNormalizedError):
                QString({"0": amp}, normalize=True)

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(DuplicateKeyError):
            QString([("0", 0.6), ("0", 0.8)])

    def test_bad_alphabet(self):
        with pytest.raises(ValueError):
            QString({"01a": 1.0})

    def test_length_cap(self):
        with pytest.raises(LengthCapExceededError):
            QString({"0" * (LENGTH_CAP + 1): 1.0})

    def test_equality_and_repr(self):
        a = QString({"0": 0.6, "11": 0.8})
        b = make_qstring([("11", 0.8), ("0", 0.6)])
        assert a == b
        assert "QString" in repr(a)


def test_average_length_worked_example():
    s = QString({"0": 0.6, "11": 0.8})
    assert average_length(s) == pytest.approx(1.64)
    assert base_length(s) == 2


def test_average_length_empty_string_term():
    s = QString({"": 1.0})
    assert average_length(s) == 0.0
    assert base_length(s) == 0


def test_inner_product_orthogonal_basis():
    assert inner_product(basis_state("0"), basis_state("1")) == 0
    assert inner_product(basis_state("0"), basis_state("00")) == 0  # lengths differ
    s = QString({"0": 0.6, "11": 0.8})
    assert inner_product(s, s) == pytest.approx(1.0)


def test_inner_product_conjugation():
    a = QString({"0": 0.6j, "11": 0.8})
    b = QString({"0": 1.0})
    assert inner_product(a, b) == pytest.approx(-0.6j)
    assert inner_product(b, a) == pytest.approx(0.6j)


# --- self-delimiting transform ------------------------------------------------

def test_delimit_bits_examples():
    assert delimit_bits("") == "0"
    assert delimit_bits("0") == "100"
    assert delimit_bits("110") == "1110110"


def test_delimit_bits_prefix_free():
    words = [delimit_bits(format(v, f"0{l}b") if l else "") for l in range(5) for v in range(1 << l)]
    for a in words:
        for b in words:
            assert a == b or not b.startswith(a)


def test_self_delimit_length_law():
    s = QString({"0": 0.6, "11": 0.8})
    out = self_delimit(s)
    assert average_length(out) == pytest.approx(2 * average_length(s) + 1)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_self_delimit_is_isometric(seed):
    rng = np.random.default_rng(seed)
    a = random_qstring(rng)
    b = random_qstring(rng)
    lhs = inner_product(self_delimit(a), self_delimit(b))
    rhs = inner_product(a, b)
    assert lhs == pytest.approx(rhs, abs=1e-12)


# --- pair and sequence encodings ----------------------------------------------

def test_pair_encode_worked_example():
    assert pair_encode("110", "1000") == "11101101000"


def test_pair_decode_worked_example():
    assert pair_decode("11101101000") == ("110", "1000")


def test_pair_empty_components():
    assert pair_encode("", "") == "0"
    assert pair_decode("0") == ("", "")
    assert pair_decode(pair_encode("", "101")) == ("", "101")


def test_pair_decode_rejects_garbage():
    with pytest.raises(ValueError):
        pair_decode("1111")  # no terminating zero
    with pytest.raises(ValueError):
        pair_decode("110")  # header says 2 bits of x, only 0 remain
    with pytest.raises(ValueError):
        pair_decode("")


@given(bitstrings, bitstrings)
def test_pair_roundtrip(x, y):
    assert pair_decode(pair_encode(x, y)) == (x, y)


@given(st.lists(bitstrings, min_size=1, max_size=5))
def test_sequence_roundtrip(strings):
    z = sequence_encode(strings)
    assert sequence_decode(z, len(strings)) == strings


def test_sequence_encode_rejects_empty():
    with pytest.raises(ValueError):
        sequence_encode([])


# Items the checks must reject: stray characters, look-alike digits, other
# types, and strings at and past the length cap.
BAD_ITEMS = ["2", "\u0660", "\uff11", "0 1", "01\n", None, 7, b"01"]
CAP_LENGTHS = (LENGTH_CAP // 2 - 1, LENGTH_CAP // 2, LENGTH_CAP, LENGTH_CAP + 1)
CAP_ITEMS = ["1" * n for n in CAP_LENGTHS]
sequence_items = st.one_of(bitstrings, st.sampled_from(BAD_ITEMS), st.sampled_from(CAP_ITEMS))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(bitstrings, sequence_items), max_size=6))
def test_sequence_encode_matches_the_pairwise_fold(items):
    # Same value, or the same error type and message, as one checked
    # pair_encode per step, over-cap encodings included.
    assert outcome(sequence_encode, items) == outcome(sequence_encode_by_pairs, items)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="01", max_size=40),
        st.lists(bitstrings, min_size=1, max_size=5).map(sequence_encode),
        st.sampled_from(BAD_ITEMS + CAP_ITEMS),
    ),
    st.integers(-1, 7),
)
def test_sequence_decode_matches_the_pairwise_loop(z, count):
    assert outcome(sequence_decode, z, count) == outcome(sequence_decode_by_pairs, z, count)


# --- the label test and the trusted constructor --------------------------------

@settings(max_examples=300)
@given(st.text() | st.text(alphabet="01\u0660\uff11\n 2", max_size=12))
@example("\u0660")  # ARABIC-INDIC DIGIT ZERO
@example("\uff11")  # FULLWIDTH DIGIT ONE
@example("\n")
@example("0 1")
@example("")
def test_is_bitstring_is_a_set_test(s):
    assert is_bitstring(s) == (set(s) <= {"0", "1"})


amplitudes = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=200)
@given(
    st.lists(st.tuples(st.text(alphabet="01", max_size=3), amplitudes), max_size=6),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_from_checked_matches_the_checked_constructor(pairs, as_dict, unit, normalize):
    # Labels drawn short so that lists repeat them; `unit` rescales the
    # amplitudes so that normalize=False has states to accept.
    norm = math.sqrt(sum(abs(a) ** 2 for _, a in pairs))
    if unit and norm > 0:
        pairs = [(b, a / norm) for b, a in pairs]
    terms = dict(pairs) if as_dict else pairs
    want = outcome(QString, terms, normalize=normalize)
    got = outcome(QString._from_checked, terms, normalize=normalize)
    if want[0] == "ok" and got[0] == "ok":
        assert amplitude_bits(got[1]) == amplitude_bits(want[1])
    else:
        assert got == want


def test_self_delimit_keeps_the_length_cap():
    # 2 * len + 1 is one past the cap for the first, one below it for the second.
    long = "0" * (LENGTH_CAP // 2)
    with pytest.raises(LengthCapExceededError):
        self_delimit(QString({long: 1.0}))
    fits = long[1:]
    assert self_delimit(QString({fits: 1.0})).keys() == {delimit_bits(fits)}


def test_pigeonhole_count():
    # there are only 2^n - 1 strings strictly shorter than n
    n = 7
    shorter = [format(v, f"0{l}b") if l else "" for l in range(n) for v in range(1 << l)]
    assert len(set(shorter)) == 2**n - 1


# --- text format ----------------------------------------------------------------

def test_dump_is_canonically_ordered():
    s = QString({"11": 0.8, "0": 0.6})
    text = dump_qstring(s)
    assert text.splitlines() == ["0 0.6 0.0", "11 0.8 0.0"]


def test_dump_eps_token():
    s = QString({"": 1.0})
    assert dump_qstring(s).strip() == "eps 1.0 0.0"
    assert load_qstring("eps 1 0") == s


def test_load_skips_comments_and_blanks():
    text = "# header\n\n0 0.6 0\n11 0.8 0\n"
    assert load_qstring(text) == QString({"0": 0.6, "11": 0.8})


@pytest.mark.parametrize(
    "text",
    [
        "0 0.6",  # missing imaginary part
        "0 a b",
        "2 1 0",  # bad alphabet
        "- 1 0",  # the empty string is 'eps', not '-'
        "01a0 1 0",
        "0b1 1 0",
        "0 0.6 0\n0 0.8 0",  # duplicate key
    ],
)
def test_load_rejects_malformed(text):
    with pytest.raises(FormatError):
        load_qstring(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("zz 1 0", "line 1: bad bitstring token 'zz'"),
        ("# c\n\n0 0.6 0\n- 0.8 0", "line 4: bad bitstring token '-'"),
        ("0 a 0", "line 1: bad amplitude: could not convert string to float: 'a'"),
    ],
)
def test_load_errors_name_the_line(text, message):
    with pytest.raises(FormatError) as exc:
        load_qstring(text)
    assert str(exc.value) == message


def test_load_unnormalized_raises_domain_error():
    with pytest.raises(NotNormalizedError):
        load_qstring("0 0.5 0")
    with pytest.raises(NotNormalizedError):
        load_qstring("0 nan 0.0\n1 0.5 0.0")


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_dump_load_roundtrip(seed):
    rng = np.random.default_rng(seed)
    s = random_qstring(rng)
    t = load_qstring(dump_qstring(s))
    assert set(t.keys()) == set(s.keys())
    for bits in s.keys():
        assert t.amplitude(bits) == pytest.approx(s.amplitude(bits), abs=1e-12)


def test_file_roundtrip(tmp_path):
    s = QString({"0": 0.6, "11": 0.8j})
    path = tmp_path / "s.qstr"
    write_qstring_file(str(path), s)
    assert read_qstring_file(str(path)) == s


def test_inline_state_roundtrip():
    s = QString({"": 1 / math.sqrt(2), "101": 1j / math.sqrt(2)})
    body = format_inline_state(s)
    assert body.startswith("{") and body.endswith("}")
    t = parse_inline_state(body)
    assert set(t.keys()) == {"", "101"}
    assert t.amplitude("101") == pytest.approx(1j / math.sqrt(2))


def test_inline_state_rejects_bad_brace():
    with pytest.raises(FormatError):
        parse_inline_state("0:1,0")
