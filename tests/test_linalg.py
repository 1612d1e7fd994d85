import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfock import (
    DensityOperator,
    DimensionCapExceededError,
    DimensionMismatchError,
    Ensemble,
    FormatError,
    InvalidDistributionError,
    NotHermitianError,
    ProbabilitiesDontSumError,
    QString,
    basis_state,
    density_from_ensemble,
    dump_ensemble,
    eig_hermitian,
    entropy_of_spectrum,
    load_ensemble,
    partial_trace,
    read_ensemble_file,
    shannon_entropy,
    subsystem_labels,
    tensor_product,
    von_neumann_entropy,
    write_ensemble_file,
)
from qfock.linalg import DIM_CAP, HERM_TOL, TRACE_TOL

from helpers import (
    LABEL_POOL,
    count_eigh,
    density_by_outer_products,
    jacobi_eigh,
    partial_trace_by_widths,
    random_states_on,
)

RT2 = math.sqrt(2.0)


def dm(matrix, labels=None):
    matrix = np.asarray(matrix, dtype=complex)
    if labels is None:
        d = matrix.shape[0]
        w = max(1, (d - 1).bit_length())
        labels = [format(i, f"0{w}b") for i in range(d)]
    return DensityOperator(labels, matrix)


class TestDensityOperator:
    def test_validation(self):
        with pytest.raises(NotHermitianError):
            dm([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError):
            dm([[0.7, 0.0], [0.0, 0.7]])  # trace != 1
        with pytest.raises(NotHermitianError):
            dm([[math.nan, 0.0], [0.0, 0.5]])
        with pytest.raises(NotHermitianError):
            eig_hermitian(np.array([[math.nan, 0.0], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            DensityOperator(["0", "0"], np.eye(2) / 2)  # duplicate labels

    def test_matrix_readonly(self):
        rho = dm(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    def test_matrix_cannot_be_made_writeable(self):
        # eig_hermitian trusts the checked matrix, so neither the array nor
        # its base may be switched back to writeable and edited.
        source = np.eye(2, dtype=complex) / 2
        rho = dm(source)
        for array in (rho.matrix, rho.matrix.base):
            with pytest.raises(ValueError):
                array.flags.writeable = True
        source[0, 1] = 0.4  # the caller's array is not shared either
        assert rho.matrix[0, 1] == 0.0
        assert eig_hermitian(rho).eigenvalues.tolist() == [0.5, 0.5]

    def test_kept_decomposition_cannot_be_made_writeable(self):
        # Every later caller shares the operator's decomposition, so its
        # arrays, and their bases, stay read-only for good.
        rho = dm([[0.7, 0.2j], [-0.2j, 0.3]])
        dec = eig_hermitian(rho)
        for array in (dec.eigenvalues, dec.eigenvectors):
            for view in (array, array.base):
                with pytest.raises(ValueError):
                    view.flags.writeable = True
        assert eig_hermitian(rho) is dec


class TestEnsemble:
    def test_probability_checks(self):
        with pytest.raises(ProbabilitiesDontSumError):
            Ensemble([(0.5, basis_state("0"))])
        with pytest.raises(ProbabilitiesDontSumError):
            Ensemble([(0.0, basis_state("0")), (1.0, basis_state("1"))])
        with pytest.raises(ProbabilitiesDontSumError):
            Ensemble([])

    def test_density_from_ensemble_off_diagonal(self):
        plus = QString({"0": 1 / RT2, "1": 1 / RT2})
        rho = density_from_ensemble(Ensemble([(1.0, plus)]))
        assert rho.basis == ("0", "1")
        assert rho.matrix == pytest.approx(np.full((2, 2), 0.5))

    def test_mixture_is_convex_combination(self):
        rho = density_from_ensemble(
            [(0.5, basis_state("0")), (0.5, basis_state("1"))]
        )
        assert rho.matrix == pytest.approx(np.eye(2) / 2)

    def test_an_ensemble_keeps_its_density(self):
        members = [(0.5, basis_state("0")), (0.5, QString({"0": 0.6, "1": 0.8}))]
        e = Ensemble(members)
        rho = density_from_ensemble(e)
        assert density_from_ensemble(e) is rho
        # a plain list of members is mixed anew each time, to equal bytes
        again = density_from_ensemble(members)
        assert again is not rho and again is not density_from_ensemble(members)
        assert again.basis == rho.basis
        assert again.matrix.tobytes() == rho.matrix.tobytes()


@st.composite
def ensemble_supports(draw):
    """Label sets of ``LABEL_POOL`` (mixed lengths, overlapping), one per
    member, and indices of members whose state is drawn again."""
    supports = draw(
        st.lists(st.sets(st.sampled_from(LABEL_POOL), min_size=1), min_size=1, max_size=14)
    )
    return [sorted(s) for s in supports], draw(st.lists(st.integers(0, 13), max_size=3))


@settings(max_examples=200, deadline=None)
@given(members=ensemble_supports(), seed=st.integers(0, 2**32 - 1))
@example(members=([["0110"]], []), seed=0)  # a single member
@example(members=([["0", "01"], ["", "0"]], [0, 1, 0]), seed=1)  # repeated, k > d
@example(members=([LABEL_POOL, ["1"]], []), seed=2)  # k < d
def test_density_matches_the_outer_product_loop(members, seed):
    supports, repeats = members
    rng = np.random.default_rng(seed)
    states = random_states_on(rng, supports)
    states += [states[r % len(states)] for r in repeats]
    weights = rng.uniform(0.05, 1.0, len(states))
    entries = list(zip((weights / weights.sum()).tolist(), states))
    rho = density_from_ensemble(entries)
    basis, want = density_by_outer_products(entries)
    assert rho.basis == basis
    assert np.max(np.abs(rho.matrix - want)) <= 1e-15
    assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) <= HERM_TOL
    assert abs(np.trace(rho.matrix) - 1.0) <= TRACE_TOL


# --- eigensolver ---------------------------------------------------------------

def test_eig_closed_form_real():
    rho = dm([[0.5, RT2 / 4], [RT2 / 4, 0.5]])
    dec = eig_hermitian(rho)
    assert dec.eigenvalues == pytest.approx([(2 + RT2) / 4, (2 - RT2) / 4], abs=1e-12)


def test_eig_closed_form_complex_phase():
    # [[a, b e^{i t}], [b e^{-i t}, a]] has eigenvalues a +- b regardless of t
    for t in (0.3, 1.2, -2.6):
        h = np.array(
            [[0.6, 0.25 * np.exp(1j * t)], [0.25 * np.exp(-1j * t), 0.4]]
        )
        dec = eig_hermitian(dm(h + 0j) if abs(np.trace(h) - 1) < 1e-12 else h)
        lam = 0.5 + math.sqrt(0.01 + 0.0625)
        assert dec.eigenvalues[0] == pytest.approx(lam, abs=1e-10)


def test_eig_diagonal_passthrough():
    dec = eig_hermitian(dm(np.diag([0.5, 0.25, 0.25, 0.0])))
    assert dec.eigenvalues == pytest.approx([0.5, 0.25, 0.25, 0.0], abs=0)


def test_eig_orders_descending_with_stable_ties():
    dec = eig_hermitian(np.diag([0.25, 0.5, 0.25]))
    assert list(dec.eigenvalues) == [0.5, 0.25, 0.25]
    # the two tied eigenvectors keep their original relative order
    assert abs(dec.eigenvectors[0, 1]) == pytest.approx(1.0)
    assert abs(dec.eigenvectors[2, 2]) == pytest.approx(1.0)


@pytest.mark.parametrize("dim", [2, 3, 4, 6, 8])
def test_eig_random_reconstruction(dim):
    rng = np.random.default_rng(1000 + dim)
    for _ in range(200):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        dec = eig_hermitian(rho)
        v, lam = dec.eigenvectors, np.asarray(dec.eigenvalues)
        assert np.max(np.abs(v @ np.diag(lam) @ v.conj().T - rho)) < 1e-9
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-9
        assert all(x >= y - 1e-12 for x, y in zip(lam, lam[1:]))
        assert lam.min() > -1e-10 and abs(lam.sum() - 1) < 1e-9


def test_eig_matches_numpy_cross_check():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = (g + g.conj().T) / 2
        ours = np.asarray(eig_hermitian_spectrum(h))
        ref = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert ours == pytest.approx(ref, abs=1e-9)


def eig_hermitian_spectrum(h):
    return eig_hermitian(h).eigenvalues


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "bad",
    [[[0.0, 1.0], [0.0, 0.0]], [[math.nan, 0.0], [0.0, 0.5]], [[0.5, 0.0], [math.nan, 0.5]]],
    ids=["non-hermitian", "nan-diagonal", "nan-off-diagonal"],
)
def test_eig_of_an_array_is_checked_every_call(bad, monkeypatch):
    # An array keeps nothing: each call checks it and decomposes it anew.
    eigh = count_eigh(monkeypatch)
    good = np.array([[0.6, 0.1], [0.1, 0.4]])
    first, second = eig_hermitian(good), eig_hermitian(good)
    assert first is not second and len(eigh) == 2
    assert first.eigenvalues.tolist() == second.eigenvalues.tolist()
    for _ in range(2):
        with pytest.raises(NotHermitianError):
            eig_hermitian(np.array(bad))
    assert len(eigh) == 2


def assert_matches_jacobi(h):
    """Eigenvalues and eigenspaces of ``eig_hermitian`` against Jacobi."""
    dec = eig_hermitian(h)
    vals, v = jacobi_eigh(h)
    order = np.argsort(-vals, kind="stable")
    vals, v = vals[order], v[:, order]
    assert np.asarray(dec.eigenvalues) == pytest.approx(vals, abs=1e-12)
    # compare spectral projectors, which are unique even within clusters
    for lo, hi in clusters(vals, gap=1e-6):
        ours = dec.eigenvectors[:, lo:hi]
        ref = v[:, lo:hi]
        assert np.max(np.abs(ours @ ours.conj().T - ref @ ref.conj().T)) < 1e-9


def clusters(vals, gap):
    """``(lo, hi)`` slices of a descending spectrum split where it drops by > gap."""
    cuts = [0] + [k for k in range(1, len(vals)) if vals[k - 1] - vals[k] > gap]
    return list(zip(cuts, cuts[1:] + [len(vals)]))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_eig_matches_jacobi_oracle(dim):
    rng = np.random.default_rng(500 + dim)
    for _ in range(20):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        assert_matches_jacobi(rho / np.trace(rho).real)


def test_jacobi_near_degenerate_spectrum():
    # clustered eigenvalues are the classic hard case for both solvers
    rng = np.random.default_rng(3)
    base = np.diag([0.5, 0.5 - 1e-13, 1e-13 / 2, 1e-13 / 2])
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    h = q @ base @ q.conj().T
    h = (h + h.conj().T) / 2
    assert_matches_jacobi(h)
    vals, v = jacobi_eigh(h)
    assert np.max(np.abs(v @ np.diag(vals) @ v.conj().T - h)) < 1e-9


def test_eig_phase_convention():
    # [[a, b], [b*, a]] with b = i/4: eigenvectors (1, -i)/sqrt2 and (1, i)/sqrt2
    # up to phase; the tied components make the first one the real pivot
    dec = eig_hermitian(np.array([[0.5, 0.25j], [-0.25j, 0.5]]))
    assert list(dec.eigenvalues) == pytest.approx([0.75, 0.25], abs=1e-15)
    want = np.array([[1.0, 1.0], [-1j, 1j]]) / RT2
    assert np.max(np.abs(dec.eigenvectors - want)) < 1e-15
    assert dec.eigenvectors[0, 0].imag == 0.0 and dec.eigenvectors[0, 1].imag == 0.0
    rng = np.random.default_rng(21)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    vecs = eig_hermitian(g + g.conj().T).eigenvectors
    for k in range(8):
        pivot = int(np.argmax(np.abs(vecs[:, k])))
        assert vecs[pivot, k].imag == 0.0 and vecs[pivot, k].real > 0.0


def test_eig_results_are_readonly():
    dec = eig_hermitian(np.eye(2) / 2)
    with pytest.raises(ValueError):
        dec.eigenvalues[0] = 1.0
    with pytest.raises(ValueError):
        dec.eigenvectors[0, 0] = 1.0


# --- entropies -------------------------------------------------------------------

def test_entropy_pure_and_uniform():
    assert von_neumann_entropy(dm([[1.0, 0.0], [0.0, 0.0]])) == 0.0
    assert von_neumann_entropy(dm(np.eye(8) / 8)) == pytest.approx(3.0, abs=1e-12)


def test_entropy_binary_value():
    rho = dm(np.diag([0.9, 0.1]))
    h = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert von_neumann_entropy(rho) == pytest.approx(h, abs=1e-12)


def test_entropy_of_spectrum_clamps_noise():
    assert entropy_of_spectrum([1.0, -1e-10]) == 0.0
    with pytest.raises(ValueError):
        entropy_of_spectrum([1.0, -1e-6])


def test_shannon_entropy_checks_distribution():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)
    with pytest.raises(InvalidDistributionError):
        shannon_entropy([0.5, 0.4])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_shannon_entropy_rejects_non_finite(bad):
    with pytest.raises(InvalidDistributionError):
        shannon_entropy([bad, 1.0])


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    rotated = q @ rho @ q.conj().T
    rotated = (rotated + rotated.conj().T) / 2
    assert von_neumann_entropy(dm(rho)) == pytest.approx(
        von_neumann_entropy(dm(rotated)), abs=1e-9
    )


# --- tensor products and marginals ------------------------------------------------

def test_tensor_product_entropy_additive():
    a = dm(np.diag([0.9, 0.1]), labels=["0", "1"])
    b = dm(np.diag([0.5, 0.25, 0.25]), labels=["00", "01", "10"])
    ab = tensor_product(a, b)
    assert ab.dim == 6
    assert von_neumann_entropy(ab) == pytest.approx(
        von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-9
    )


def test_tensor_product_labels_concatenate():
    a = dm(np.eye(2) / 2, labels=["0", "1"])
    ab = tensor_product(a, a)
    assert ab.basis == ("00", "01", "10", "11")


def test_tensor_product_dim_cap():
    big = dm(np.eye(64) / 64)
    at_cap = tensor_product(big, big)  # 4096 is exactly the cap
    assert at_cap.dim == DIM_CAP
    with pytest.raises(DimensionCapExceededError):
        tensor_product(at_cap, dm(np.eye(2) / 2))


def test_dim_cap_checked_before_allocation():
    over = subsystem_labels([DIM_CAP + 1])
    state = QString({b: 1.0 for b in over}, normalize=True)
    with pytest.raises(DimensionCapExceededError):
        density_from_ensemble([(1.0, state)])
    with pytest.raises(DimensionCapExceededError):
        DensityOperator(over, np.ones((1, 1)))  # the cap is checked first


def test_subsystem_labels_widths():
    assert subsystem_labels([2, 2]) == ("00", "01", "10", "11")
    assert subsystem_labels([3]) == ("00", "01", "10")
    assert subsystem_labels([2, 3]) == ("000", "001", "010", "100", "101", "110")


def bell_density():
    s = QString({"00": 1 / RT2, "11": 1 / RT2})
    return density_from_ensemble([(1.0, s)])


def test_partial_trace_bell():
    rho = bell_density()
    for keep in ([1], [2]):
        red = partial_trace(rho, [2, 2], keep)
        assert red.matrix == pytest.approx(np.eye(2) / 2)
        assert red.basis == ("0", "1")


def test_partial_trace_of_forty_one_label_parties():
    # More parties than einsum has letters (52) and than an ndarray has
    # axes (64 for the joint tensor): only one traced axis is contracted.
    pad = "0" * 20
    s = QString({pad + "00" + pad: 1 / RT2, pad + "11" + pad: 1 / RT2})
    rho = density_from_ensemble([(1.0, s)])
    parties = [1] * 20 + [2, 2] + [1] * 20
    want = partial_trace(bell_density(), [2, 2], [1, 2])
    red = partial_trace(rho, parties, [21, 22])
    assert red.basis == want.basis == ("00", "01", "10", "11")
    assert np.array_equal(red.matrix, want.matrix)
    assert red.matrix == pytest.approx(np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2)
    whole = partial_trace(rho, parties, range(1, 43))
    assert whole.basis == tuple(pad + b + pad for b in want.basis)
    assert np.array_equal(whole.matrix, want.matrix)
    half = partial_trace(rho, parties, [1, 22, 42])
    assert half.basis == ("000", "010")
    assert half.matrix == pytest.approx(np.eye(2) / 2)


def test_partial_trace_ghz_two_party_marginal():
    s = QString({"000": 1 / RT2, "111": 1 / RT2})
    rho = density_from_ensemble([(1.0, s)])
    red = partial_trace(rho, [2, 2, 2], [1, 2])
    assert red.matrix == pytest.approx(np.diag([0.5, 0.0, 0.0, 0.5]))
    assert von_neumann_entropy(red) == pytest.approx(1.0, abs=1e-9)


def test_partial_trace_of_product_recovers_factor():
    a = dm(np.diag([0.7, 0.3]), labels=["0", "1"])
    b = dm(np.diag([0.5, 0.25, 0.25]), labels=["00", "01", "10"])
    ab = tensor_product(a, b)
    ra = partial_trace(ab, [2, 3], [1])
    rb = partial_trace(ab, [2, 3], [2])
    assert ra.matrix == pytest.approx(a.matrix, abs=1e-12)
    assert rb.matrix == pytest.approx(b.matrix, abs=1e-12)


def test_partial_trace_keep_validation():
    rho = bell_density()
    with pytest.raises(DimensionMismatchError):
        partial_trace(rho, [2, 2], [])
    with pytest.raises(DimensionMismatchError):
        partial_trace(rho, [2, 2], [3])
    with pytest.raises(DimensionMismatchError):
        partial_trace(rho, [2, 3], [1])  # '00' is not a concatenation of party labels
    # duplicate keep indices collapse to a set
    a = partial_trace(rho, [2, 2], [1, 1])
    b = partial_trace(rho, [2, 2], [1])
    assert a.matrix == pytest.approx(b.matrix)


def random_density_on(rng, basis):
    d = len(basis)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityOperator(basis, (m + m.conj().T) / (2 * np.trace(m).real))


def keep_subsets(n):
    return [
        list(w) for r in range(1, n + 1) for w in itertools.combinations(range(1, n + 1), r)
    ]


@st.composite
def sparse_joints(draw):
    """Fixed-width parties of dimension 2..5 and a subset of their joint labels."""
    dims = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    labels = subsystem_labels(dims)
    picks = draw(st.sets(st.sampled_from(labels), min_size=1))
    return dims, sorted(picks, key=labels.index)


@settings(max_examples=150, deadline=None)
@given(joint=sparse_joints(), seed=st.integers(0, 2**32 - 1))
@example(joint=([2, 2], ["00", "11"]), seed=0)  # Bell's basis
def test_partial_trace_matches_width_slicing_oracle(joint, seed):
    dims, basis = joint
    rho = random_density_on(np.random.default_rng(seed), basis)
    for keep in keep_subsets(len(dims)):
        want = partial_trace_by_widths(rho, dims, keep)
        for parties in (dims, [subsystem_labels([d]) for d in dims]):
            got = partial_trace(rho, parties, keep)
            assert got.basis == want.basis
            assert np.array_equal(got.matrix, want.matrix)


# Party labels of mixed length whose concatenations are unambiguous:
# each party's basis is prefix-free, or has a single label.
MIXED_BASES = [("0", "1"), ("0", "10", "11"), ("1", "01", "000", "001"), ("0",), ("00", "01")]


@pytest.mark.parametrize("n", [2, 3])
def test_marginals_of_mixed_length_products_are_the_factors(n):
    rng = np.random.default_rng(17)
    for bases in itertools.product(MIXED_BASES, repeat=n):
        factors = [random_density_on(rng, b) for b in bases]
        joint = factors[0]
        for f in factors[1:]:
            joint = tensor_product(joint, f)
        for i, f in enumerate(factors, start=1):
            marginal = partial_trace(joint, bases, [i])
            assert marginal.basis == f.basis
            assert np.allclose(marginal.matrix, f.matrix, rtol=0, atol=1e-12)
        pair = partial_trace(joint, bases, [1, 2])
        assert pair.basis == tensor_product(factors[0], factors[1]).basis


AMBIGUOUS = [("0", "01"), ("1", "11")]  # 0+11 = 01+1 = 011


def test_ambiguous_concatenation_is_an_error():
    a, b = (random_density_on(np.random.default_rng(3), p) for p in AMBIGUOUS)
    with pytest.raises(DimensionMismatchError, match="spell the same string") as by_product:
        tensor_product(a, b)
    joint = DensityOperator(["00", "01", "011", "0111"], np.eye(4) / 4)
    with pytest.raises(DimensionMismatchError) as by_trace:
        partial_trace(joint, AMBIGUOUS, [1])
    assert str(by_trace.value) == str(by_product.value)
    assert "fixed-width" not in str(by_product.value)


def test_a_marginal_can_be_ambiguous_where_the_joint_is_not():
    parties = [("0", "01"), ("0",), ("1", "11")]
    factors = [random_density_on(np.random.default_rng(5), p) for p in parties]
    joint = tensor_product(tensor_product(factors[0], factors[1]), factors[2])
    assert joint.basis == ("001", "0011", "0101", "01011")
    for keep in ([1], [2], [3], [1, 2], [2, 3], [1, 2, 3]):
        assert partial_trace(joint, parties, keep).dim == math.prod(
            len(parties[i - 1]) for i in keep
        )
    with pytest.raises(DimensionMismatchError, match="spell the same string"):
        partial_trace(joint, parties, [1, 3])  # 0+11 = 01+1


def test_partial_trace_checks_the_cap_before_building_labels():
    rho = DensityOperator(["00", "11"], np.eye(2) / 2)
    for parties in ([4_000_000_000, 2], [("0", "1"), 10**18]):
        joint = math.prod(p if isinstance(p, int) else len(p) for p in parties)
        with pytest.raises(DimensionCapExceededError, match=f"joint dimension {joint} "):
            partial_trace(rho, parties, [1])
    with pytest.raises(DimensionMismatchError, match="at least one label"):
        partial_trace(rho, [-5000, -5000], [1])


def test_every_party_has_at_least_one_label():
    rho = DensityOperator(subsystem_labels([1, 2]), np.diag([0.25, 0.75]))
    assert rho.basis == ("00", "01")
    red = partial_trace(rho, [1, 2], [2])
    assert red.basis == ("0", "1")
    assert np.array_equal(red.matrix, rho.matrix)
    assert partial_trace(rho, [1, 2], [1]).basis == ("0",)
    for empty in (0, -1, ()):
        with pytest.raises(DimensionMismatchError, match="at least one label"):
            partial_trace(rho, [empty, 2], [2])


def random_joint(rng, dims):
    d = int(np.prod(dims))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = (rho + rho.conj().T) / 2
    return DensityOperator(subsystem_labels(dims), rho)


def test_subadditivity_two_qubits():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        rho = random_joint(rng, [2, 2])
        s_ab = von_neumann_entropy(rho)
        s_a = von_neumann_entropy(partial_trace(rho, [2, 2], [1]))
        s_b = von_neumann_entropy(partial_trace(rho, [2, 2], [2]))
        assert s_ab <= s_a + s_b + 1e-7
        assert abs(s_a - s_b) - 1e-7 <= s_ab  # Araki-Lieb


def test_strong_subadditivity_three_qubits():
    rng = np.random.default_rng(99)
    dims = [2, 2, 2]
    for _ in range(60):
        rho = random_joint(rng, dims)
        s_abc = von_neumann_entropy(rho)
        s_ab = von_neumann_entropy(partial_trace(rho, dims, [1, 2]))
        s_bc = von_neumann_entropy(partial_trace(rho, dims, [2, 3]))
        s_b = von_neumann_entropy(partial_trace(rho, dims, [2]))
        assert s_ab + s_bc - s_abc - s_b >= -1e-7


def test_entropy_of_copies_is_additive():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = dm(rho, labels=["0", "1"])
    s1 = von_neumann_entropy(rho)
    power = rho
    for m in range(2, 5):
        power = tensor_product(power, rho)
        assert von_neumann_entropy(power) == pytest.approx(m * s1, abs=1e-7)


# --- ensemble text format -----------------------------------------------------------

def test_ensemble_file_roundtrip(tmp_path):
    e = Ensemble(
        [
            (0.5, basis_state("0")),
            (0.5, QString({"10": 1 / RT2, "11": 1j / RT2})),
        ]
    )
    path = tmp_path / "e.ens"
    write_ensemble_file(str(path), e)
    back = read_ensemble_file(str(path))
    rho_a = density_from_ensemble(e)
    rho_b = density_from_ensemble(back)
    assert rho_a.matrix == pytest.approx(rho_b.matrix, abs=1e-12)


def test_dump_ensemble_ordering_is_canonical():
    e = Ensemble([(0.25, basis_state("111")), (0.75, basis_state("0"))])
    lines = dump_ensemble(e).splitlines()
    assert lines[0].startswith("0.75")  # shorter serialized state first


def test_load_ensemble_inline_and_errors():
    e = load_ensemble("0.5 { 0:1,0 }\n0.5 { 1:1,0 }\n")
    assert density_from_ensemble(e).matrix == pytest.approx(np.eye(2) / 2)
    with pytest.raises(FormatError):
        load_ensemble("0.5\n")
    with pytest.raises(FormatError):
        load_ensemble("x { 0:1,0 }\n")
    with pytest.raises(ProbabilitiesDontSumError):
        load_ensemble("0.25 { 0:1,0 }\n0.25 { 1:1,0 }\n")


def test_load_ensemble_path_reference(tmp_path):
    state_file = tmp_path / "s.qstr"
    state_file.write_text("0 1.0 0.0\n")
    ens_file = tmp_path / "e.ens"
    ens_file.write_text(f"1.0 {state_file.name}\n")
    e = read_ensemble_file(str(ens_file))
    assert density_from_ensemble(e).matrix[0, 0] == pytest.approx(1.0)
