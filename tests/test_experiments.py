import math

import numpy as np
import pytest

from qfock import (
    BlockTooLargeForCatalogError,
    DimOutOfRangeError,
    Ensemble,
    InequalitySpec,
    InvalidAmplitudeError,
    InvalidDeltaError,
    NotPrefixFreeError,
    QString,
    basis_state,
    density_from_ensemble,
    entropy_sandwich_report,
    identity_machine,
    incompressibility_report,
    inequality_check,
    kraft_sum,
    multicopy_kraft,
    multicopy_report,
    nonadditivity_search,
    partial_trace,
    product_state,
    random_density,
    self_delimit_machine,
    tensor_product,
    von_neumann_entropy,
)
import qfock.experiments
from qfock.complexity import ComplexityEstimate, DescriberMachine, IdentityMachine, MachineCatalog
from qfock.experiments import RANDOM_DIM_MAX, RANDOM_DIM_MIN, ROUNDOFF_TOL

from helpers import count_eigh, random_orthonormal_family

RT2 = math.sqrt(2.0)


# --- seeded random densities ---------------------------------------------------

def test_random_density_construction_properties():
    rho = random_density(2, seed=0)
    assert abs(np.trace(rho.matrix) - 1) < 1e-12
    assert min(np.linalg.eigvalsh(rho.matrix)) >= -1e-9


def test_random_density_determinism():
    a = random_density(5, seed=13)
    b = random_density(5, seed=13)
    assert np.array_equal(a.matrix, b.matrix)
    c = random_density(5, seed=14)
    assert not np.allclose(a.matrix, c.matrix)


@pytest.mark.parametrize("dim", [RANDOM_DIM_MIN - 1, RANDOM_DIM_MAX + 1, 0])
def test_random_density_dim_range(dim):
    with pytest.raises(DimOutOfRangeError):
        random_density(dim, seed=0)


def test_random_density_label_width():
    rho = random_density(5, seed=3)
    assert rho.basis == ("000", "001", "010", "011", "100")


# --- incompressibility ------------------------------------------------------------

def sd_catalog(span):
    return MachineCatalog([self_delimit_machine(identity_machine(span))])


def test_incompressibility_full_basis_golden():
    states = [basis_state(format(v, "03b")) for v in range(8)]
    rep = incompressibility_report(states, sd_catalog(3))
    assert rep.entropy == pytest.approx(3.0, abs=1e-9)
    assert rep.prefix_bound == pytest.approx(3.0)
    assert rep.plain_bound == pytest.approx(1.0)
    assert rep.all_prefix
    assert rep.max_description_length == pytest.approx(7.0)  # 2*3+1
    assert rep.verified


def test_incompressibility_four_state_overcomplete():
    plus = QString({"0": 1 / RT2, "1": 1 / RT2})
    minus = QString({"0": 1 / RT2, "1": -1 / RT2})
    states = [basis_state("0"), basis_state("1"), plus, minus]
    rep = incompressibility_report(states, sd_catalog(1))
    # the four states average to I/2
    assert rep.entropy == pytest.approx(1.0, abs=1e-9)
    assert rep.verified


def test_incompressibility_single_state_trivial():
    rep = incompressibility_report([basis_state("0")], sd_catalog(1))
    assert rep.entropy == pytest.approx(0.0, abs=1e-9)
    assert rep.verified  # any nonnegative length clears a bound of 0


def test_incompressibility_plain_bound_for_nonprefix_catalog():
    cat = MachineCatalog([identity_machine(3)])
    states = [basis_state(format(v, "03b")) for v in range(8)]
    rep = incompressibility_report(states, cat)
    assert not rep.all_prefix
    assert rep.applicable_bound == pytest.approx(1.0)  # (3-1)/2
    assert rep.max_description_length == pytest.approx(3.0)
    assert rep.verified


def test_incompressibility_describes_each_pair_once(monkeypatch):
    calls = []
    for cls in (DescriberMachine, IdentityMachine):
        def counting(self, state, real=cls._tally):
            calls.append((self, state))
            return real(self, state)

        monkeypatch.setattr(cls, "_tally", counting)
    specialist = DescriberMachine({"0": basis_state("01")}, prefix_flag=True)
    cat = MachineCatalog(
        [identity_machine(2), self_delimit_machine(identity_machine(2)), specialist]
    )
    states = [basis_state(format(v, "02b")) for v in range(4)]
    incompressibility_report(states, cat)
    assert len(calls) == len(states) * len(cat)


def test_incompressibility_random_families():
    rng = np.random.default_rng(71)
    for trial in range(20):
        size = int(rng.integers(2, 9))
        family = random_orthonormal_family(rng, size)
        length = len(next(iter(family[0].keys())))
        rep = incompressibility_report(family, sd_catalog(length))
        assert rep.entropy == pytest.approx(math.log2(size), abs=1e-7)
        assert rep.verified


# --- multi-copy distribution ---------------------------------------------------------

def test_multicopy_single_copy():
    rep = multicopy_report(0.5, 1)
    assert rep.expected_normalized == pytest.approx(1.0)
    assert rep.naive_length == 1


def test_multicopy_golden_n3():
    rep = multicopy_report(0.5, 3)
    assert rep.z_norm == pytest.approx(0.5)
    assert rep.normalized_lengths == (2, 2, 2, 2)
    assert rep.expected_normalized == pytest.approx(2.0)
    assert rep.expected_normalized == pytest.approx(math.log2(3 + 1))


@pytest.mark.parametrize("n", [1, 3, 7, 15, 31])
def test_multicopy_balanced_closed_form(n):
    # for alpha2 = 1/2 and n+1 a power of two the sector distribution is
    # uniform and every codeword has length exactly log2(n+1)
    rep = multicopy_report(0.5, n)
    assert rep.expected_normalized == pytest.approx(math.log2(n + 1))


def test_multicopy_raw_kraft_feasible_grid():
    for alpha2 in (0.1, 0.3, 0.5, 0.7, 0.9):
        for n in (1, 5, 17, 42, 60):
            rep = multicopy_report(alpha2, n)
            assert multicopy_kraft(rep) <= 1.0 + 1e-12
            assert rep.expected_normalized <= rep.expected_raw + 1e-12
            assert sum(rep.weights) == pytest.approx(1.0, abs=1e-9)
            assert 0.0 < rep.z_norm <= 1.0 + 1e-12


def test_multicopy_skewed_expected_raw_near_entropy_rate():
    rep = multicopy_report(0.9, 20)
    h = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    # per-string ceilings put the expectation within one bit of 20 h(0.9)
    assert 20 * h <= rep.expected_raw <= 20 * h + 1.0


def test_multicopy_validation():
    with pytest.raises(InvalidAmplitudeError):
        multicopy_report(0.0, 3)
    with pytest.raises(InvalidAmplitudeError):
        multicopy_report(1.0, 3)
    with pytest.raises(ValueError):
        multicopy_report(0.5, 0)
    with pytest.raises(ValueError):
        multicopy_report(0.5, 61)


@pytest.mark.parametrize("n", [10.7, 7.9, 12.0, "12"])
def test_multicopy_copy_count_must_be_an_integer(n):
    with pytest.raises(TypeError):
        multicopy_report(0.5, n)


def test_multicopy_takes_a_numpy_integer_copy_count():
    rep = multicopy_report(0.3, np.int64(12))
    assert type(rep.n) is int
    assert rep == multicopy_report(0.3, 12)


# --- non-additivity witnesses ----------------------------------------------------------

def test_nonadditivity_golden_block3():
    rep = nonadditivity_search(3, sd_catalog(5), 1.0)
    assert rep.n_star == 8
    assert rep.value_n == pytest.approx(12.0)
    assert rep.phi_average == pytest.approx(9.0)
    assert rep.value_zero == pytest.approx(6.0)
    assert rep.gap_concentrated == pytest.approx(3.0)
    assert rep.gap_diluted == pytest.approx(3.0)
    assert rep.success_concentrated and rep.success_diluted


@pytest.mark.parametrize("m_block", [2, 3, 5, 8])
def test_nonadditivity_gap_grows_with_block(m_block):
    rep = nonadditivity_search(m_block, sd_catalog(m_block + 2), 1.0)
    # with the self-delimited identity the gaps equal the block exponent
    assert rep.gap_concentrated == pytest.approx(float(m_block))
    assert rep.gap_diluted == pytest.approx(float(m_block))
    assert rep.success_concentrated == (m_block > 1)


@pytest.mark.parametrize("scale, succeeds", [(-2.0, True), (-0.5, False), (2.0, False)])
def test_nonadditivity_flags_flip_at_twice_roundoff_tol(scale, succeeds):
    # a gap succeeds when it exceeds k by more than ROUNDOFF_TOL
    gaps = nonadditivity_search(3, sd_catalog(5), 1.0)
    assert gaps.gap_concentrated == pytest.approx(3.0, rel=0, abs=1e-14)
    assert gaps.gap_diluted == pytest.approx(3.0, rel=0, abs=1e-14)
    rep = nonadditivity_search(3, sd_catalog(5), 3.0 + scale * ROUNDOFF_TOL)
    assert rep.success_concentrated is succeeds
    assert rep.success_diluted is succeeds


def test_nonadditivity_catalog_too_small():
    with pytest.raises(BlockTooLargeForCatalogError):
        nonadditivity_search(6, sd_catalog(3), 1.0)


def test_nonadditivity_rejects_bad_block():
    with pytest.raises(ValueError):
        nonadditivity_search(0, sd_catalog(3), 1.0)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_nonadditivity_rejects_non_finite_threshold(k):
    with pytest.raises(InvalidDeltaError):
        nonadditivity_search(3, sd_catalog(5), k)


# --- entropy sandwich -----------------------------------------------------------------

def dyadic_ensemble():
    return Ensemble(
        [
            (0.5, basis_state("0")),
            (0.25, basis_state("10")),
            (0.25, basis_state("11")),
        ]
    )


def test_sandwich_dyadic_with_sw_machine():
    from qfock import machine_from_code, sw_lossless_code

    e = dyadic_ensemble()
    code = sw_lossless_code(density_from_ensemble(e))
    rep = entropy_sandwich_report(e, MachineCatalog([machine_from_code(code)]))
    assert rep.entropy == pytest.approx(1.5)
    assert rep.expected_complexity == pytest.approx(1.5 + 3)  # index cost 3
    assert rep.overhead == 3
    assert rep.lower_ok and rep.upper_ok


def test_sandwich_pure_ensemble():
    from qfock import machine_from_code, sw_lossless_code

    e = Ensemble([(1.0, QString({"0": 1 / RT2, "111": 1 / RT2}))])
    code = sw_lossless_code(density_from_ensemble(e))
    rep = entropy_sandwich_report(e, MachineCatalog([machine_from_code(code)]))
    assert rep.entropy == pytest.approx(0.0, abs=1e-9)
    # single codeword eps: E = index cost alone
    assert rep.expected_complexity == pytest.approx(3.0)
    assert rep.lower_ok and rep.upper_ok


def test_sandwich_reuses_a_given_decomposition(monkeypatch):
    # The code and the report read the one operator the ensemble keeps,
    # so the pair decomposes once; an equal, separate ensemble agrees.
    from qfock import eig_hermitian, entropy_of_spectrum, machine_from_code, sw_lossless_code

    members = [(0.7, basis_state("0")), (0.3, QString({"0": 0.6, "1": 0.8}))]
    e = Ensemble(members)
    eigh = count_eigh(monkeypatch)
    rho = density_from_ensemble(e)
    code = sw_lossless_code(rho)
    shared = entropy_sandwich_report(e, MachineCatalog([machine_from_code(code)]))
    assert len(eigh) == 1
    assert density_from_ensemble(e) is rho
    dec = eig_hermitian(rho)
    assert eig_hermitian(density_from_ensemble(e)) is dec
    assert shared.entropy == entropy_of_spectrum(dec.eigenvalues)
    other = Ensemble(members)
    fresh = entropy_sandwich_report(
        other, MachineCatalog([machine_from_code(sw_lossless_code(density_from_ensemble(other)))])
    )
    assert len(eigh) == 2
    assert shared == fresh
    assert shared.entropy == pytest.approx(von_neumann_entropy(rho), abs=1e-12)


@pytest.mark.parametrize(
    "side, scale, lower, upper",
    [("lower", -0.5, True, True), ("lower", -2.0, False, True),
     ("upper", 0.5, True, True), ("upper", 2.0, True, False)],
)
def test_sandwich_flags_flip_at_twice_roundoff_tol(side, scale, lower, upper, monkeypatch):
    # every member costs the same value, so the expectation is that value
    from qfock import machine_from_code, sw_lossless_code

    e = dyadic_ensemble()
    cat = MachineCatalog([machine_from_code(sw_lossless_code(density_from_ensemble(e)))])
    exact = entropy_sandwich_report(e, cat)
    bound = exact.entropy if side == "lower" else exact.entropy + 1.0 + exact.overhead
    value = bound + scale * ROUNDOFF_TOL
    monkeypatch.setattr(
        qfock.experiments, "universal_complexity",
        lambda catalog, state: ComplexityEstimate(value, 1, {}),
    )
    rep = entropy_sandwich_report(e, cat)
    assert rep.expected_complexity == pytest.approx(value, rel=0, abs=1e-14)
    assert (rep.lower_ok, rep.upper_ok) == (lower, upper)


def test_sandwich_requires_prefix_catalog():
    with pytest.raises(NotPrefixFreeError):
        entropy_sandwich_report(
            dyadic_ensemble(), MachineCatalog([identity_machine(2)])
        )


def test_sandwich_uniform_two_states():
    from qfock import machine_from_code, sw_lossless_code

    e = Ensemble([(0.5, basis_state("0")), (0.5, basis_state("1"))])
    code = sw_lossless_code(density_from_ensemble(e))
    rep = entropy_sandwich_report(e, MachineCatalog([machine_from_code(code)]))
    assert rep.entropy == pytest.approx(1.0)
    assert rep.expected_complexity >= 1.0
    assert rep.lower_ok and rep.upper_ok


def test_sandwich_upper_bound_needs_a_good_machine():
    # the self-delimited identity alone pays 2l+1 per member, which can
    # overshoot S + 1 + c; only the lower bound is unconditional
    e = Ensemble([(0.5, basis_state("0")), (0.5, basis_state("1"))])
    rep = entropy_sandwich_report(e, sd_catalog(1))
    assert rep.lower_ok
    assert not rep.upper_ok


def test_sandwich_random_ensembles_hold_bounds():
    from qfock import machine_from_code, sw_lossless_code

    rng = np.random.default_rng(83)
    for _ in range(15):
        size = int(rng.integers(2, 6))
        family = random_orthonormal_family(rng, size)
        probs = rng.dirichlet(np.ones(size))
        probs = [float(p) for p in probs]
        probs[-1] += 1.0 - sum(probs)
        e = Ensemble(list(zip(probs, family)))
        code = sw_lossless_code(density_from_ensemble(e))
        length = len(next(iter(family[0].keys())))
        cat = MachineCatalog(
            [machine_from_code(code), self_delimit_machine(identity_machine(length))]
        )
        rep = entropy_sandwich_report(e, cat)
        assert rep.lower_ok and rep.upper_ok


# --- inequality transfer ------------------------------------------------------------------

def test_inequality_spec_validation():
    with pytest.raises(ValueError):
        InequalitySpec(2, [([3], 1.0)])
    with pytest.raises(ValueError):
        InequalitySpec(2, [([1], 1.0), ([1], 2.0)])  # duplicate subset
    with pytest.raises(ValueError):
        InequalitySpec(2, [([], 1.0)])
    with pytest.raises(ValueError):
        InequalitySpec(2, [])
    spec = InequalitySpec(2, [([1, 2], -1.0), ([1], 1.0)])
    assert spec.n_parties == 2
    assert "S(12)" in repr(spec)


def subadd_spec():
    return InequalitySpec(2, [([1], 1.0), ([2], 1.0), ([1, 2], -1.0)])


def test_inequality_joint_bell():
    bell = QString({"00": 1 / RT2, "11": 1 / RT2})
    rho = density_from_ensemble([(1.0, bell)])
    value = inequality_check(subadd_spec(), rho, [2, 2], mode="joint")
    assert value == pytest.approx(2.0, abs=1e-9)


def test_inequality_product_mode_is_zero_for_mutual_information():
    a = random_density(2, seed=1)
    b = random_density(2, seed=2)
    value = inequality_check(subadd_spec(), [a, b], mode="product")
    assert value == pytest.approx(0.0, abs=1e-12)


def test_inequality_product_matches_joint_path():
    rng = np.random.default_rng(97)
    spec = InequalitySpec(
        3, [([1], 0.5), ([2, 3], 1.0), ([1, 2, 3], -1.0), ([2], -0.25)]
    )
    for trial in range(25):
        factors = [random_density(2, seed=int(rng.integers(1 << 30))) for _ in range(3)]
        via_sum = inequality_check(spec, factors, mode="product")
        joint = product_state(factors)
        via_trace = inequality_check(spec, joint, [2, 2, 2], mode="joint")
        assert via_sum == pytest.approx(via_trace, abs=1e-9)


def test_inequality_check_mode_errors():
    spec = subadd_spec()
    rho = random_density(4, seed=5)
    with pytest.raises(ValueError):
        inequality_check(spec, rho, None, mode="joint")
    with pytest.raises(ValueError):
        inequality_check(spec, rho, [2, 2], mode="sideways")
    with pytest.raises(TypeError):
        inequality_check(spec, [rho], [2, 2], mode="joint")


def test_product_state_matches_tensor_chain():
    a = random_density(2, seed=21)
    b = random_density(3, seed=22)
    c = random_density(2, seed=23)
    joint = product_state([a, b, c])
    chain = tensor_product(tensor_product(a, b), c)
    assert joint.matrix == pytest.approx(chain.matrix, abs=1e-12)


def test_entropy_additivity_for_copies_via_product_mode():
    rho = random_density(2, seed=55)
    s1 = von_neumann_entropy(rho)
    for m in (2, 3, 4):
        spec = InequalitySpec(m, [(list(range(1, m + 1)), 1.0)])
        value = inequality_check(spec, [rho] * m, mode="product")
        assert value == pytest.approx(m * s1, abs=1e-7)
        joint = product_state([rho] * m)
        assert von_neumann_entropy(joint) == pytest.approx(m * s1, abs=1e-7)
