from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import (
    InvalidDistributionError,
    LengthCapExceededError,
    MissingCodewordError,
    NotPrefixFreeError,
    PrefixCode,
    canonical_prefix_code,
    ceil_neg_log2,
    code_table_text,
    expected_length,
    kraft_sum,
    kraft_sum_exact,
    shannon_code,
    shannon_entropy,
)
from qfock.codes import CEIL_SNAP, in_entropy_window, kraft_feasible
from qfock.fock import LENGTH_CAP

from helpers import kraft_by_fractions


def test_ceil_neg_log2_exact_powers():
    for k in range(0, 40):
        assert ceil_neg_log2(2.0**-k) == k


def test_ceil_neg_log2_snaps_near_integers():
    # floating noise just above an exact power must not bump the ceiling
    assert ceil_neg_log2(0.25 * (1 - 1e-12)) == 2
    assert ceil_neg_log2(0.2499) == 3
    assert ceil_neg_log2(0.3) == 2


def test_ceil_neg_log2_never_negative():
    assert ceil_neg_log2(1.0) == 0
    assert ceil_neg_log2(2.0) == 0


class TestPrefixCode:
    def test_table_and_lookup(self):
        code = PrefixCode({0: "0", 1: "10", 2: "11"})
        assert code.codeword(1) == "10"
        assert code.table == {0: "0", 1: "10", 2: "11"}

    def test_missing_codeword(self):
        code = PrefixCode({0: "0"})
        with pytest.raises(MissingCodewordError):
            code.codeword(3)

    def test_prefix_violation(self):
        with pytest.raises(NotPrefixFreeError):
            PrefixCode({0: "1", 1: "10"})

    def test_empty_word_only_alone(self):
        PrefixCode({0: ""})  # fine on its own
        with pytest.raises(NotPrefixFreeError):
            PrefixCode({0: "", 1: "0"})

    def test_kraft_overflow_rejected(self):
        with pytest.raises(NotPrefixFreeError):
            PrefixCode({0: "0", 1: "1", 2: "00"})  # not prefix-free either
        # lengths alone can't overflow if the words check out, so force a
        # duplicate-word table, which the prefix check also catches
        with pytest.raises(NotPrefixFreeError):
            PrefixCode({0: "01", 1: "01"})


def test_kraft_sum_exact_is_rational():
    total = kraft_sum_exact([1, 2, 2])
    assert total == Fraction(1)
    assert kraft_sum_exact([1, 2, 3]) == Fraction(7, 8)


def test_kraft_sum_float_matches_exact():
    lengths = [3, 1, 4, 1, 5]
    assert kraft_sum(lengths) == pytest.approx(float(kraft_sum_exact(lengths)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 80), min_size=1, max_size=70))
def test_kraft_sum_exact_matches_per_term_fractions(lengths):
    want = kraft_by_fractions(lengths)
    assert kraft_sum_exact(lengths) == want
    assert kraft_sum_exact(l for l in lengths) == want
    assert kraft_sum_exact(tuple(lengths)) == want


def _kraft_outcome(kraft, lengths):
    try:
        return kraft(iter(lengths))
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(0, 80),
            st.integers(-5, -1),
            st.sampled_from(["7", " 2 ", "x", "-3", 3.9, -0.5, True]),
        ),
        max_size=12,
    )
)
def test_kraft_sum_exact_rejects_as_the_per_term_loop(lengths):
    # same value, or the same error class and message for the same
    # first bad entry (int() failures, negatives, the empty input)
    got = _kraft_outcome(kraft_sum_exact, lengths)
    assert got == _kraft_outcome(kraft_by_fractions, lengths)


def test_kraft_sum_exact_length_cap():
    assert kraft_sum_exact([LENGTH_CAP]) == Fraction(1, 1 << LENGTH_CAP)
    with pytest.raises(LengthCapExceededError, match="exceeds cap"):
        kraft_sum_exact([1, LENGTH_CAP + 1])
    # lengths are checked in input order
    with pytest.raises(LengthCapExceededError):
        kraft_sum_exact([LENGTH_CAP + 1, -1])
    with pytest.raises(ValueError, match="nonnegative"):
        kraft_sum_exact([-1, LENGTH_CAP + 1])
    with pytest.raises(LengthCapExceededError):
        canonical_prefix_code([1, LENGTH_CAP + 1])


@pytest.mark.parametrize("top", [53, 60, 1000])
def test_kraft_feasible_is_exact_at_the_boundary(top):
    # 1/2 + 1/4 + ... + 2**-top + 2**-top is exactly 1; one more codeword
    # of length top (or 1, 1, top) is 1 + 2**-top, which a float sum
    # rounds back to 1.
    exact_one = [*range(1, top + 1), top]
    assert kraft_sum_exact(exact_one) == 1 and kraft_feasible(exact_one)
    for over in ([*exact_one, top], [1, 1, top]):
        assert kraft_sum_exact(over) == 1 + Fraction(1, 1 << top)
        assert kraft_sum(over) == 1.0
        assert not kraft_feasible(over)
    assert kraft_feasible([1, 1]) and kraft_feasible([1, 2, 2])
    assert kraft_feasible(iter([1, 2, 2]))


@pytest.mark.parametrize("h", [0.0, 1.5, 7.25])
def test_entropy_window_flips_at_its_bounds(h):
    # lower bound h - CEIL_SNAP: true half a slack below h, false two
    # slacks below; upper bound h + 1 is strict, with no slack
    assert in_entropy_window(h, h)
    assert in_entropy_window(h - CEIL_SNAP / 2, h)
    assert not in_entropy_window(h - 2 * CEIL_SNAP, h)
    assert in_entropy_window(h + 1.0 - 2 * CEIL_SNAP, h)
    assert not in_entropy_window(h + 1.0, h)
    assert not in_entropy_window(h + 1.0 + 2 * CEIL_SNAP, h)


def test_canonical_assignment_dyadic():
    code = canonical_prefix_code([1, 2, 2])
    assert code.table == {0: "0", 1: "10", 2: "11"}


def test_canonical_assignment_order_insensitive_lengths():
    # index 1 has the shorter word even though it comes later
    code = canonical_prefix_code([2, 1])
    assert code.table == {1: "0", 0: "10"}


def test_canonical_assignment_infeasible():
    with pytest.raises(NotPrefixFreeError):
        canonical_prefix_code([1, 1, 1])


def test_canonical_assignment_zero_length():
    assert canonical_prefix_code([0]).table == {0: ""}
    with pytest.raises(NotPrefixFreeError):
        canonical_prefix_code([0, 5])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 12), max_size=20))
def test_canonical_code_passes_the_full_check(lengths):
    # The construction skips PrefixCode's checks; the full constructor is
    # the oracle, and Kraft-infeasible lengths still raise.
    if not lengths:
        with pytest.raises(ValueError, match="codeword table is empty"):
            canonical_prefix_code(lengths)
    elif kraft_sum_exact(lengths) > 1:
        with pytest.raises(NotPrefixFreeError, match="Kraft-infeasible"):
            canonical_prefix_code(lengths)
    else:
        code = canonical_prefix_code(lengths)
        checked = PrefixCode(code.table)
        assert code == checked
        assert list(code.table.items()) == list(checked.table.items())
        assert code.lengths() == dict(enumerate(lengths))


def test_shannon_code_dyadic():
    code = shannon_code([0.5, 0.25, 0.25])
    assert code.table == {0: "0", 1: "10", 2: "11"}
    assert expected_length(code, [0.5, 0.25, 0.25]) == pytest.approx(1.5)


def test_shannon_code_skewed():
    code = shannon_code([0.9, 0.1])
    assert code.table == {0: "0", 1: "1000"}
    assert expected_length(code, [0.9, 0.1]) == pytest.approx(1.3)


@pytest.mark.parametrize(
    "p",
    [
        [0.5, 0.5, 0.1],  # does not sum to 1
        [0.5, -0.5, 1.0],  # negative
        [1.0 - 1e-16, 1e-16],  # below the probability floor
    ],
)
def test_shannon_code_rejects_bad_distribution(p):
    with pytest.raises(InvalidDistributionError):
        shannon_code(p)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=24,
    )
)
def test_shannon_sandwich(weights):
    total = sum(weights)
    p = [w / total for w in weights]
    # renormalization noise: nudge the last entry so the sum is exact enough
    p[-1] += 1.0 - sum(p)
    code = shannon_code(p)
    h = shannon_entropy(p)
    e = expected_length(code, p)
    assert h - 1e-9 <= e < h + 1.0
    assert kraft_sum_exact(len(w) for w in code.table.values()) <= 1


def test_code_table_text_golden():
    text = code_table_text(shannon_code([0.5, 0.25, 0.25]))
    assert text.splitlines() == ["0 0", "1 10", "2 11"]


def test_code_table_text_eps():
    text = code_table_text(canonical_prefix_code([0]))
    assert text.strip() == "0 eps"


def test_random_lengths_canonical_words_are_minimal(seed=123):
    # canonical assignment: each word is the lexicographically smallest
    # continuation after sorting by (length, index)
    rng = np.random.default_rng(seed)
    for _ in range(50):
        lengths = sorted(int(x) for x in rng.integers(1, 8, size=6))
        if float(kraft_sum(lengths)) > 1:
            continue
        code = canonical_prefix_code(lengths)
        words = [code.codeword(i) for i in range(len(lengths))]
        assert [len(w) for w in sorted(words, key=len)] == lengths
        ordered = sorted(words, key=lambda w: (len(w), w))
        for a, b in zip(ordered, ordered[1:]):
            assert not b.startswith(a)
