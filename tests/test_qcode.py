import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qfock.fock
import qfock.qcode
from qfock import (
    ArityMismatchError,
    CapExceededError,
    DensityOperator,
    Ensemble,
    InvalidDeltaError,
    MachineCatalog,
    NotOrthogonalError,
    NotOrthonormalError,
    OutOfSpanError,
    PrefixCode,
    QString,
    average_length,
    basis_state,
    build_condensable_code,
    canonical_prefix_code,
    density_from_ensemble,
    encode_qstring,
    entropy_of_spectrum,
    entropy_sandwich_report,
    inner_product,
    kraft_condensable_check,
    lossy_typical_projection,
    machine_from_code,
    random_density,
    sw_lossless_code,
    sw_report,
    von_neumann_entropy,
)
from qfock.linalg import eig_hermitian
from qfock.codes import CEIL_SNAP, _type_classes, ceil_bits
from qfock.fock import NORM_TOL, ORTHO_TOL
from qfock.qcode import EIG_FLOOR, _gram, eigen_ensemble

from helpers import (
    LABEL_POOL,
    binomial_tail_success,
    count_eigh,
    lossy_by_compositions,
    pairwise_gram_failure,
    random_orthonormal_family,
    random_states_on,
    random_unitary,
    tilted_columns,
    type_classes_by_stack,
)

RT2 = math.sqrt(2.0)


def diag_density(probs):
    d = len(probs)
    w = max(1, (d - 1).bit_length())
    labels = [format(i, f"0{w}b") for i in range(d)]
    return DensityOperator(labels, np.diag(probs).astype(complex))


class TestCondensableCode:
    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            build_condensable_code([basis_state("0")], {0: "0", 1: "1"})
        with pytest.raises(ArityMismatchError):
            build_condensable_code([], PrefixCode({0: "0"}))

    def test_source_basis_must_be_orthonormal(self):
        tilted = QString({"0": 0.8, "1": 0.6})
        with pytest.raises(NotOrthonormalError):
            build_condensable_code([basis_state("0"), tilted], {0: "0", 1: "1"})

    def test_encode_basis_vectors(self):
        code = build_condensable_code(
            [basis_state("0"), basis_state("10"), basis_state("11")],
            {0: "0", 1: "10", 2: "11"},
        )
        assert encode_qstring(code, basis_state("10")) == basis_state("10")
        assert encode_qstring(code, basis_state("0")) == basis_state("0")

    def test_encode_superposition_preserves_amplitudes(self):
        code = build_condensable_code(
            [basis_state("00"), basis_state("01")], {0: "0", 1: "10"}
        )
        s = QString({"00": 0.6, "01": 0.8j})
        out = encode_qstring(code, s)
        assert out.amplitude("0") == pytest.approx(0.6)
        assert out.amplitude("10") == pytest.approx(0.8j)

    def test_encode_out_of_span(self):
        code = build_condensable_code([basis_state("00")], {0: "0"})
        with pytest.raises(OutOfSpanError):
            encode_qstring(code, basis_state("11"))
        with pytest.raises(OutOfSpanError):
            encode_qstring(code, QString({"00": 1 / RT2, "11": 1 / RT2}))

    def test_encode_is_isometric_on_span(self):
        rng = np.random.default_rng(17)
        basis = random_orthonormal_family(rng, 3, length=2)
        code = build_condensable_code(basis, {0: "0", 1: "10", 2: "11"})
        u = random_unitary(rng, 3)
        imgs = []
        for k in range(3):
            vec = sum_states(basis, u[:, k])
            imgs.append(encode_qstring(code, vec))
        for i in range(3):
            for j in range(3):
                want = np.vdot(u[:, i], u[:, j])
                got = inner_product(imgs[i], imgs[j])
                assert got == pytest.approx(want, abs=1e-9)


def sum_states(basis, coeffs):
    acc = {}
    for b, c in zip(basis, coeffs):
        for bits, a in b.items():
            acc[bits] = acc.get(bits, 0j) + complex(c) * a
    return QString(acc, normalize=True)


# --- lossless coding of a density operator ---------------------------------------

def test_sw_dyadic_golden():
    rho = diag_density([0.5, 0.25, 0.25])
    code, report = sw_report(rho)
    assert code.words.table == {0: "0", 1: "10", 2: "11"}
    assert report.expected_avg_length == pytest.approx(1.5)
    assert report.entropy == pytest.approx(1.5)
    assert report.kraft == pytest.approx(1.0)


def test_sw_orders_by_eigenvalue():
    rho = diag_density([0.1, 0.9])
    code = sw_lossless_code(rho)
    # the likeliest eigenvector (index 0 after sorting) gets the short word
    top = code.source_basis[0]
    assert top.amplitude("1") == pytest.approx(1.0)
    assert code.words.codeword(0) == "0"


def test_sw_drops_null_eigenvalues():
    rho = diag_density([0.5, 0.5, 0.0, 0.0])
    code, report = sw_report(rho)
    assert len(code) == 2
    assert report.expected_avg_length == pytest.approx(1.0)
    assert report.entropy == pytest.approx(1.0)


def test_sw_rotated_qubit_sandwich():
    rng = np.random.default_rng(29)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        w = max(1, (dim - 1).bit_length())
        labels = [format(i, f"0{w}b") for i in range(dim)]
        _, report = sw_report(DensityOperator(labels, rho))
        assert report.entropy - 1e-7 <= report.expected_avg_length
        assert report.expected_avg_length <= report.entropy + 1.0
        assert report.kraft <= 1.0 + 1e-12


# --- Kraft over orthogonal condensable strings ------------------------------------

def test_condensable_kraft_golden_triple():
    plus = QString({"0": 1 / RT2, "10": 1 / RT2})
    minus = QString({"0": 1 / RT2, "10": -1 / RT2})
    family = [plus, minus, basis_state("11")]
    total = kraft_condensable_check(family)
    # both superpositions have average length 3/2, the basis state has 2
    assert total == pytest.approx(2 * 2.0**-1.5 + 0.25, abs=1e-12)
    assert total == pytest.approx(0.957106781, abs=1e-8)


def test_condensable_kraft_requires_orthogonality():
    with pytest.raises(NotOrthogonalError):
        kraft_condensable_check([basis_state("0"), QString({"0": 0.6, "1": 0.8})])


def test_condensable_kraft_rotated_complete_sets():
    # rotate the complete dyadic codeword set {0, 10, 11} by random unitaries;
    # the average-length Kraft sum must stay at or below 1
    words = [basis_state("0"), basis_state("10"), basis_state("11")]
    rng = np.random.default_rng(41)
    for _ in range(40):
        u = random_unitary(rng, 3)
        family = [sum_states(words, u[:, k]) for k in range(3)]
        total = kraft_condensable_check(family)
        assert total <= 1.0 + 1e-9


def test_condensable_kraft_identity_rotation_is_tight():
    words = [basis_state("0"), basis_state("10"), basis_state("11")]
    assert kraft_condensable_check(words) == pytest.approx(1.0)


# --- Gram-matrix checks against the pairwise loop ----------------------------------

def _check_against_oracle(states):
    words = canonical_prefix_code([(len(states) - 1).bit_length()] * len(states))
    want = pairwise_gram_failure(states)
    if want is None:
        build_condensable_code(states, words)
        kraft_condensable_check(states)
        return
    i, j, _ = want
    with pytest.raises(NotOrthonormalError, match=f"^members {i} and {j} overlap by "):
        build_condensable_code(states, words)
    with pytest.raises(NotOrthogonalError, match=f"^states {i} and {j} overlap by "):
        kraft_condensable_check(states)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, len(LABEL_POOL)),
    tilts=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.booleans()), max_size=3
    ),
)
def test_gram_checks_match_the_pairwise_loop(seed, dim, tilts):
    # columns of a random unitary over mixed-length labels, then members
    # tilted toward each other by clearly more or clearly less than the
    # 1e-8 tolerance
    _check_against_oracle(tilted_columns(np.random.default_rng(seed), dim, tilts))


@settings(max_examples=200, deadline=None)
@given(
    supports=st.lists(
        st.sets(st.sampled_from(LABEL_POOL), min_size=1), min_size=1, max_size=14
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_matches_pairwise_inner_products(supports, seed):
    states = random_states_on(np.random.default_rng(seed), [sorted(s) for s in supports])
    want = np.array([[inner_product(a, b) for b in states] for a in states])
    assert np.max(np.abs(_gram(states) - want)) <= 1e-15


def test_ortho_tol_leaves_room_for_gram_round_off():
    # The Gram checks compare overlaps only.  A QString's squared norm, as
    # its constructor summed it, is within NORM_TOL of 1; its Gram diagonal
    # sums the same d squared amplitudes in another order.  Each sum is off
    # the exact one by at most gamma = n * u / (1 - n * u) relative, with
    # u = 2**-53 and n = d + 2 (d - 1 additions, and up to three roundings
    # for each |a|**2).  So a diagonal lies within NORM_TOL + 2 * gamma *
    # (1 + NORM_TOL) / (1 - gamma) of 1.  While that is below ORTHO_TOL a
    # check on it could never fail: here for states of ten million terms.
    n = 10**7 + 2
    gamma = n * 2.0**-53 / (1 - n * 2.0**-53)
    assert NORM_TOL + 2 * gamma * (1 + NORM_TOL) / (1 - gamma) < ORTHO_TOL


@settings(max_examples=200, deadline=None)
@given(
    supports=st.lists(
        st.sets(st.sampled_from(LABEL_POOL), min_size=1), min_size=1, max_size=14
    ),
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, len(LABEL_POOL)),
    tilts=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.booleans()), max_size=3
    ),
)
def test_gram_diagonal_is_within_norm_tol_of_one(supports, seed, dim, tilts):
    rng = np.random.default_rng(seed)
    for states in (
        random_states_on(rng, [sorted(s) for s in supports]),
        tilted_columns(rng, dim, tilts),
    ):
        diagonal = _gram(states).diagonal()
        assert np.max(np.abs(diagonal - 1.0)) <= NORM_TOL + 1e-12


def test_gram_checks_report_the_first_failure_row_by_row():
    # Pairs (0, 3) and (1, 2) overlap by 1e-6 and no other pair does:
    # row by row, (0, 3) comes first.
    states = [
        basis_state("00"),
        basis_state("1"),
        QString({"10": 1.0, "1": 1e-6}, normalize=True),
        QString({"01": 1.0, "00": 1e-6}, normalize=True),
    ]
    with pytest.raises(NotOrthonormalError, match="^members 0 and 3 overlap by 1.000e-06$"):
        build_condensable_code(states, {0: "00", 1: "01", 2: "10", 3: "11"})
    with pytest.raises(NotOrthogonalError, match="^states 0 and 3 overlap by 1.000e-06$"):
        kraft_condensable_check(states)


def test_sw_report_takes_no_pairwise_inner_products(monkeypatch):
    def refuse(a, b):
        raise AssertionError("inner_product called")

    monkeypatch.setattr(qfock.fock, "inner_product", refuse)
    monkeypatch.setattr(qfock.qcode, "inner_product", refuse)
    code, report = sw_report(random_density(32, seed=5))
    assert len(code) == 32
    assert report.kraft <= 1.0


@pytest.mark.parametrize("dim", [2, 5])
def test_one_eigh_per_operator_across_the_library(dim, monkeypatch):
    # Every spectral caller reads the decomposition the operator keeps,
    # and the report reads the operator its ensemble keeps.
    e = Ensemble(eigen_ensemble(random_density(dim, seed=dim)))
    eigh = count_eigh(monkeypatch)
    rho = density_from_ensemble(e)
    dec = eig_hermitian(rho)
    entropy = von_neumann_entropy(rho)
    members = eigen_ensemble(rho)
    code = sw_lossless_code(rho)
    _, report = sw_report(rho)
    sweep = [lossy_typical_projection(rho, n, 0.1) for n in (1, 4, 9, 12)]
    sandwich = entropy_sandwich_report(e, MachineCatalog([machine_from_code(code)]))
    assert eigh == [(dim, dim)]
    assert eig_hermitian(rho) is dec
    assert len(members) == len(code) == len(report.per_member)
    assert {entropy, sandwich.entropy} | {r.entropy for r in sweep} == {
        entropy_of_spectrum(dec.eigenvalues)
    }
    # an equal operator is another object, with a decomposition of its own
    assert eig_hermitian(DensityOperator(rho.basis, rho.matrix)) is not dec
    assert len(eigh) == 2


# --- lossy typical projection ------------------------------------------------------

def test_lossy_worked_example():
    rho = diag_density([0.9, 0.1])
    rep = lossy_typical_projection(rho, 10, 0.1)
    assert rep.budget == 6
    assert rep.success == pytest.approx(0.7360989291, abs=1e-8)
    assert rep.kept_classes == 2
    assert rep.total_classes == 11
    assert not rep.trivial


@pytest.mark.parametrize(
    "n,expected",
    [
        (10, 0.7360989291),
        (20, 0.6769268052),
        (40, 0.7937273313),
        (60, 0.8583643952),
    ],
)
def test_lossy_frozen_oracle_values(n, expected):
    rho = diag_density([0.9, 0.1])
    rep = lossy_typical_projection(rho, n, 0.1)
    assert rep.success == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 16])
def test_lossy_matches_binomial_enumeration(n):
    rho = diag_density([0.9, 0.1])
    rep = lossy_typical_projection(rho, n, 0.1)
    if rep.trivial:
        # budget >= n qubits: the raw input fits, nothing is projected away
        assert rep.budget >= n
        assert rep.success == 1.0
    else:
        assert rep.success == pytest.approx(
            binomial_tail_success(0.9, n, rep.budget), abs=1e-12
        )


def test_lossy_budget_formula():
    rho = diag_density([0.9, 0.1])
    s = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    for n in (10, 33, 60):
        rep = lossy_typical_projection(rho, n, 0.1)
        assert rep.budget == math.ceil(n * (s + 0.1) - 1e-12)


def test_lossy_trivial_budget_swallows_everything():
    rho = diag_density([0.5, 0.5])
    rep = lossy_typical_projection(rho, 4, 0.5)  # budget 6 >= 4 qubits
    assert rep.trivial
    assert rep.success == 1.0


def test_lossy_qutrit_against_direct_enumeration():
    probs = [0.6, 0.3, 0.1]
    rho = diag_density(probs)
    n = 6
    rep = lossy_typical_projection(rho, n, 0.2)
    total = 0.0
    import itertools

    for assign in itertools.product(range(3), repeat=n):
        p = math.prod(probs[i] for i in assign)
        v = -math.log2(p)
        r = round(v)
        if abs(v - r) <= 1e-9:
            v = float(r)
        if max(0, math.ceil(v)) <= rep.budget:
            total += p
    assert rep.success == pytest.approx(min(total, 1.0), abs=1e-12)


def test_lossy_input_validation():
    rho = diag_density([0.9, 0.1])
    with pytest.raises(InvalidDeltaError):
        lossy_typical_projection(rho, 10, 0.0)
    with pytest.raises(InvalidDeltaError):
        lossy_typical_projection(rho, 10, -0.5)
    for delta in (math.nan, math.inf, 1e308):  # 1e308: finite, but 10 copies overflow
        with pytest.raises(InvalidDeltaError):
            lossy_typical_projection(rho, 10, delta)
    with pytest.raises(ValueError):
        lossy_typical_projection(rho, 0, 0.1)
    with pytest.raises(ValueError):
        lossy_typical_projection(rho, 65, 0.1)


@pytest.mark.parametrize("n", [10.7, 7.9, 12.0, "12"])
def test_lossy_copy_count_must_be_an_integer(n):
    with pytest.raises(TypeError):
        lossy_typical_projection(diag_density([0.9, 0.1]), n, 0.1)


def test_lossy_takes_a_numpy_integer_copy_count():
    rho = diag_density([0.9, 0.1])
    rep = lossy_typical_projection(rho, np.int64(12), 0.1)
    assert type(rep.n) is int
    assert rep == lossy_typical_projection(rho, 12, 0.1)


def test_lossy_rejects_sources_over_the_class_cap():
    # d=8, n=64 has C(71, 7) = 1,329,890,705 type classes
    rho = diag_density([0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05])
    with pytest.raises(CapExceededError, match="1329890705 type classes"):
        lossy_typical_projection(rho, 64, 0.1)


def test_lossy_success_is_a_probability():
    rng = np.random.default_rng(61)
    for _ in range(25):
        p = float(rng.uniform(0.05, 0.95))
        rho = diag_density([p, 1.0 - p])
        n = int(rng.integers(1, 40))
        delta = float(rng.uniform(0.01, 1.0))
        rep = lossy_typical_projection(rho, n, delta)
        assert 0.0 <= rep.success <= 1.0
        assert rep.kept_classes <= rep.total_classes == n + 1


# --- the type-class engine against the composition oracle --------------------------

@st.composite
def spectra(draw):
    """Descending spectra of 1..6 eigenvalues: generic, degenerate, dyadic or pure."""
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["generic", "degenerate", "dyadic", "pure"]))
    if kind == "pure":
        return [1.0]
    if kind == "dyadic":  # split a random leaf of a binary tree d-1 times
        lams = [1.0]
        for _ in range(d - 1):
            half = lams.pop(draw(st.integers(0, len(lams) - 1))) / 2
            lams += [half, half]
        return sorted(lams, reverse=True)
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d))
    if kind == "degenerate":
        weights = [weights[draw(st.integers(0, (d - 1) // 2))] for _ in range(d)]
    total = sum(weights)
    return sorted((w / total for w in weights), reverse=True)


@settings(max_examples=150, deadline=None)
@given(lams=spectra(), n=st.integers(1, 14), delta=st.floats(0.01, 1.0))
@example(lams=[1.0], n=9, delta=0.01)
@example(lams=[0.5, 0.25, 0.25], n=14, delta=0.01)
@example(lams=[0.25, 0.25, 0.25, 0.25], n=7, delta=0.3)
def test_lossy_matches_the_composition_oracle_bit_for_bit(lams, n, delta):
    rho = diag_density(lams)
    rep = lossy_typical_projection(rho, n, delta)
    eig = [float(lam) for lam in eig_hermitian(rho).eigenvalues if lam >= EIG_FLOOR]
    classes, dimension, success = lossy_by_compositions(eig, n, rep.budget)
    assert (rep.kept_classes, rep.kept_dimension) == (classes, dimension)
    want = 1.0 if rep.trivial else min(success, 1.0)
    assert rep.success.hex() == want.hex()


@settings(max_examples=150, deadline=None)
@given(lams=spectra(), n=st.integers(1, 14), budget=st.integers(0, 80))
def test_type_classes_without_a_budget_cover_every_string(lams, n, budget):
    d = len(lams)
    every = list(_type_classes(lams, n))
    assert len(every) == math.comb(n + d - 1, d - 1)
    assert sum(mult for mult, _ in every) == d**n
    fitting = [c for c in every if ceil_bits(-c[1]) <= budget]
    assert list(_type_classes(lams, n, budget)) == fitting


@st.composite
def engine_cases(draw):
    """A spectrum, up to 64 copies for d <= 2 (14 otherwise), and a budget
    that is absent or at most one bit above the longest codeword."""
    lams = draw(spectra())
    n = draw(st.integers(0, 64 if len(lams) <= 2 else 14))
    longest = math.ceil(n * -math.log2(lams[-1]))
    return lams, n, draw(st.none() | st.integers(0, longest + 1))


@settings(max_examples=300, deadline=None)
@given(case=engine_cases())
@example(case=([1.0], 64, None))
@example(case=([0.5, 0.5], 64, 32))
@example(case=([0.4, 0.3, 0.3], 14, 24))
@example(case=([0.25, 0.25, 0.25, 0.25], 14, 28))
@example(case=([0.5, 0.25, 0.125, 0.0625, 0.0625], 12, 21))
def test_type_class_engine_matches_the_stack_walk(case):
    lams, n, budget = case
    old = list(type_classes_by_stack(lams, n, budget))
    new = list(_type_classes(lams, n, budget))
    assert [(mult, logp.hex()) for mult, logp in new] == [
        (mult, logp.hex()) for mult, logp, _ in old
    ]
    assert [ceil_bits(-logp) for _, logp in new] == [length for _, _, length in old]


def _entries_near(x, count=4):
    """Entries whose ``-log2`` are the ``count`` values nearest ``x`` on
    each side that ``math.log2`` of a float can give, keyed by that value.

    Above about 3 bits every float is such a value, so these are x and its
    ``math.nextafter`` neighbours; nearer 0 they lie a few ulps apart.
    """
    found = {}
    for toward in (0.0, 1.0):  # a smaller entry gives a larger -log2
        lam = 2.0**-x
        seen = set()
        while len(seen) < count:
            value = -math.log2(lam)
            seen.add(value)
            found.setdefault(value, lam)
            lam = math.nextafter(lam, toward)
    return found


@pytest.mark.parametrize("budget", [0, 1, 3, 7, 30])
def test_the_fit_rule_is_ceil_bits_at_its_edges(budget):
    # x = -log2 p next to the snap edge B + CEIL_SNAP, then x = B + 1/2,
    # x = B exactly and x < 0.  One copy over d equal entries gives d
    # classes whose log2 p is log2 of the entry: d = 1, 2 and 3 reach the
    # single-part case, the fold and a class pushed as finished.
    near = _entries_near(budget + CEIL_SNAP)
    assert min(near) < budget + CEIL_SNAP < max(near)
    # the edge lies inside the window
    assert {ceil_bits(x) <= budget for x in near} == {True, False}
    entries = [*near.values(), 2.0 ** -(budget + 0.5), 2.0**-budget, 2.0**0.75]
    for entry in entries:
        logp = math.log2(entry)
        want = ceil_bits(-logp) <= budget
        for d in (1, 2, 3):
            got = list(_type_classes([entry] * d, 1, budget))
            assert got == ([(1, logp)] * d if want else []), (entry, d)
    assert ceil_bits(-math.log2(2.0 ** -(budget + 0.5))) == budget + 1
    assert ceil_bits(-math.log2(2.0**-budget)) == budget
    assert ceil_bits(-math.log2(2.0**0.75)) == 0
