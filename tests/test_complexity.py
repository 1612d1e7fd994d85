import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfock.complexity
import qfock.fock

from qfock import (
    CapExceededError,
    PrefixCode,
    DuplicateKeyError,
    FormatError,
    LengthCapExceededError,
    NoDescriberError,
    NoOverlapError,
    NotOrthonormalError,
    NotPrefixFreeError,
    OutOfSpanError,
    QString,
    all_bitstrings,
    average_length,
    base_length,
    base_length_complexity,
    basis_state,
    build_condensable_code,
    delimit_bits,
    dump_machine,
    fidelity_penalized_complexity,
    identity_machine,
    index_cost,
    load_machine,
    machine_complexity,
    machine_from_code,
    min_description_length,
    random_density,
    read_machine_file,
    self_delimit_machine,
    sw_lossless_code,
    universal_complexity,
    write_machine_file,
)
from qfock.codes import canonical_prefix_code, kraft_sum_exact
from qfock.complexity import (
    DescriberMachine,
    IdentityMachine,
    MachineCatalog,
    load_program_table,
)

from helpers import (
    LABEL_POOL,
    catalog_query_by_exhaustion,
    culprit,
    identity_table,
    outcome,
    pairwise_gram_failure,
    random_orthonormal_family,
    random_qstring,
    stretch_norm,
    tilted_columns,
    unnormalized,
)

RT2 = math.sqrt(2.0)


def test_index_cost_values():
    assert index_cost(1) == 3  # bin(1) = "1"
    assert index_cost(2) == 5
    assert index_cost(3) == 5
    assert index_cost(4) == 7
    with pytest.raises(ValueError):
        index_cost(0)


class TestDescriberMachine:
    def test_single_program(self):
        m = DescriberMachine({"0": basis_state("0" * 20)}, prefix_flag=True)
        est = machine_complexity(m, basis_state("0" * 20))
        assert est.value == 1.0
        assert est.decomposition == {"0": pytest.approx(1.0)}

    def test_forced_weights(self):
        m = DescriberMachine(
            {"0": basis_state("0"), "10": basis_state("1010")}, prefix_flag=True
        )
        psi = QString({"0": 1 / RT2, "1010": 1 / RT2})
        est = machine_complexity(m, psi)
        assert est.value == pytest.approx(1.5)

    def test_prefix_flag_enforced(self):
        with pytest.raises(NotPrefixFreeError):
            DescriberMachine(
                {"1": basis_state("0"), "10": basis_state("1")}, prefix_flag=True
            )
        # ...but the same table is fine without the flag
        m = DescriberMachine(
            {"1": basis_state("0"), "10": basis_state("1")}, prefix_flag=False
        )
        assert not m.prefix_flag

    def test_outputs_must_be_orthonormal(self):
        with pytest.raises(NotOrthonormalError, match=r"^outputs of '0' and '1' overlap by 6\.000e-01$"):
            DescriberMachine(
                {"0": basis_state("0"), "1": QString({"0": 0.6, "1": 0.8})},
                prefix_flag=True,
            )
        with pytest.raises(NotOrthonormalError, match=r"^outputs of '0' and '1' overlap by 1\.000e\+00$"):
            DescriberMachine(
                {"0": basis_state("0"), "1": basis_state("0")}, prefix_flag=True
            )

    def test_duplicate_programs(self):
        with pytest.raises(DuplicateKeyError):
            DescriberMachine(
                [("0", basis_state("0")), ("0", basis_state("1"))], prefix_flag=True
            )

    def test_out_of_span(self):
        m = DescriberMachine({"0": basis_state("0")}, prefix_flag=True)
        with pytest.raises(OutOfSpanError):
            machine_complexity(m, basis_state("1"))


def test_machine_complexity_orthogonal_superposed_outputs():
    plus = QString({"0": 1 / RT2, "1": 1 / RT2})
    minus = QString({"0": 1 / RT2, "1": -1 / RT2})
    m = DescriberMachine({"0": plus, "11": minus}, prefix_flag=True)
    # |0> = (plus + minus)/sqrt(2): weights 1/2 on each program
    est = machine_complexity(m, basis_state("0"))
    assert est.value == pytest.approx(0.5 * 1 + 0.5 * 2)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, len(LABEL_POOL)),
    tilts=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.booleans()), max_size=3
    ),
    singles=st.lists(st.tuples(st.sampled_from(LABEL_POOL), st.integers(0, 3)), max_size=3),
    stretch=st.one_of(st.none(), st.tuples(st.integers(0, 12), st.booleans())),
)
def test_orthonormality_check_matches_the_pairwise_loop(seed, dim, tilts, singles, stretch):
    # columns of a random unitary over mixed-length labels, some tilted
    # toward each other by clearly more or clearly less than the 1e-8
    # tolerance, single-term outputs (which may collide with any output)
    # placed anywhere in the table, and perhaps one stretched norm
    rng = np.random.default_rng(seed)
    outputs = tilted_columns(rng, dim, tilts)
    for bits, phase in singles:
        outputs.insert(int(rng.integers(len(outputs) + 1)), QString({bits: 1j**phase}))
    if stretch is not None:
        k = stretch[0] % len(outputs)
        outputs[k] = stretch_norm(rng, outputs[k], stretch[1])
    pool = list(all_bitstrings(4))
    programs = [pool[i] for i in rng.permutation(len(pool))[: len(outputs)]]
    want = pairwise_gram_failure(outputs, programs=programs)
    if want is None:
        DescriberMachine(dict(zip(programs, outputs)), prefix_flag=False)
    else:
        with pytest.raises(NotOrthonormalError) as exc:
            DescriberMachine(dict(zip(programs, outputs)), prefix_flag=False)
        assert culprit(str(exc.value)) == culprit(want)


def test_orthonormality_check_reports_the_first_failure_row_by_row():
    tilted = QString({"00": 1.0, "0": 1e-6}, normalize=True)
    long = unnormalized({"1": math.sqrt(1.0 + 1e-6)})
    # row '0' (its overlap with '11') comes before row '10' (its norm)
    table = {"0": basis_state("0"), "10": long, "11": tilted}
    with pytest.raises(NotOrthonormalError, match="^outputs of '0' and '11' overlap by 1.000e-06"):
        DescriberMachine(table, prefix_flag=True)
    # within row '10', its norm comes before its overlap with '110'
    table = {"0": basis_state("11"), "10": long, "110": basis_state("1"), "111": tilted}
    with pytest.raises(NotOrthonormalError, match="^output of program '10' has norm 1.000001"):
        DescriberMachine(table, prefix_flag=True)


def test_building_a_machine_takes_no_inner_products(monkeypatch):
    code = sw_lossless_code(random_density(32, seed=5))
    plus = QString({"0": 1 / RT2, "1": 1 / RT2})

    def refuse(a, b):
        raise AssertionError("inner_product called")

    monkeypatch.setattr(qfock.fock, "inner_product", refuse)
    monkeypatch.setattr(qfock.complexity, "inner_product", refuse)
    assert len(machine_from_code(code).programs) == 32
    with pytest.raises(NotOrthonormalError, match="^outputs of '0' and '1' overlap"):
        DescriberMachine({"0": plus, "1": basis_state("1")}, prefix_flag=True)


def test_machine_complexity_matches_direct_scan():
    # the candidate-pruned sum must agree with a full scan over programs
    rng = np.random.default_rng(23)
    for _ in range(30):
        m = identity_machine(4)
        psi = random_qstring(rng, max_len=4, max_terms=4)
        est = machine_complexity(m, psi)
        direct = 0.0
        for prog in m.programs:
            w = abs(np.conjugate(complex(psi.amplitude(prog)))) ** 2
            direct += w * len(prog)
        assert est.value == pytest.approx(direct, abs=1e-12)


def test_base_length_complexity():
    m = identity_machine(6)
    psi = QString({"0": 1 / RT2, "1010": 1 / RT2})
    assert base_length_complexity(m, psi) == 4
    assert average_length(psi) == pytest.approx(2.5)


# --- stock machines ---------------------------------------------------------------

def test_all_bitstrings_counts():
    assert list(all_bitstrings(1)) == ["", "0", "1"]
    assert len(list(all_bitstrings(2))) == 7


def test_identity_machine_is_lossless_on_short_states():
    m = identity_machine(5)
    rng = np.random.default_rng(31)
    for _ in range(20):
        psi = random_qstring(rng, max_len=5, max_terms=4)
        est = machine_complexity(m, psi)
        assert est.value == pytest.approx(average_length(psi), abs=1e-12)


def test_identity_machine_cap():
    with pytest.raises(CapExceededError):
        identity_machine(21)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.booleans(), st.integers(0, 2**32 - 1))
def test_identity_machine_matches_materialized_table(max_len, prefix_flag, seed):
    # some states reach up to two bits past max_len, leaving the span
    rng = np.random.default_rng(seed)
    closed = IdentityMachine(max_len, prefix_flag)
    table = identity_table(max_len, prefix_flag)
    for reach in (0, 0, 1, 2, 2):
        pool = (2 << (max_len + reach)) - 1
        psi = random_qstring(rng, max_len=max_len + reach, max_terms=min(4, pool))
        try:
            want = machine_complexity(table, psi)
        except OutOfSpanError:
            with pytest.raises(OutOfSpanError):
                machine_complexity(closed, psi)
            continue
        assert machine_complexity(closed, psi) == want


def test_identity_machines_build_no_program_table(monkeypatch):
    def no_enumeration(max_len):
        raise AssertionError("program table materialized")

    monkeypatch.setattr(qfock.complexity, "all_bitstrings", no_enumeration)
    plain = identity_machine(20)
    sd = self_delimit_machine(plain)
    psi = QString({"0" * 20: 0.6, "1": 0.8})
    assert machine_complexity(plain, psi).value == pytest.approx(average_length(psi))
    assert machine_complexity(sd, psi).value == pytest.approx(2 * average_length(psi) + 1)
    with pytest.raises(AssertionError):
        sd.programs


def test_self_delimit_machine_program_law():
    sd = self_delimit_machine(identity_machine(3))
    assert sd.prefix_flag
    psi = QString({"0": 0.6, "11": 0.8})
    est = machine_complexity(sd, psi)
    assert est.value == pytest.approx(2 * average_length(psi) + 1)
    # the program for x is the delimited form of x
    assert "1110110" in self_delimit_machine(identity_machine(3)).programs


def _random_table(rng, prefix_flag):
    """A table machine over a random orthonormal family, on distinct
    programs of up to 3 bits (delimited when ``prefix_flag``)."""
    size = int(rng.integers(1, 5))
    length = max(1, (size - 1).bit_length()) + int(rng.integers(0, 2))
    family = random_orthonormal_family(rng, size, length=length)
    words = list(all_bitstrings(3))
    picks = rng.choice(len(words), size=size, replace=False)
    programs = [delimit_bits(words[k]) if prefix_flag else words[k] for k in picks]
    return DescriberMachine(dict(zip(programs, family)), prefix_flag=prefix_flag)


def _states_around(rng, machines):
    """States inside and outside the machines' spans: short basis strings,
    random superpositions, and each table's outputs and a mixture of them."""
    states = [basis_state(b) for b in ("", "0", "11")]
    states += [random_qstring(rng, max_len=4, max_terms=3) for _ in range(3)]
    for machine in machines:
        if isinstance(machine, DescriberMachine):
            outs = list(machine.programs.values())
            states += outs
            terms = {}
            for c, out in zip(rng.standard_normal(len(outs)), outs):
                for bits, amp in out.items():
                    terms[bits] = terms.get(bits, 0j) + float(c) * amp
            states.append(QString(terms, normalize=True))
    return states


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_self_delimit_machine_matches_the_checked_constructor(seed, prefix_flag):
    # self_delimit_machine skips the checks; the machine the checked
    # constructor builds from the same delimited table is the oracle.
    rng = np.random.default_rng(seed)
    for machine in (_random_table(rng, prefix_flag), IdentityMachine(2, True)):
        trusted = self_delimit_machine(machine)
        checked = DescriberMachine(
            {delimit_bits(p): out for p, out in machine.programs.items()}, prefix_flag=True
        )
        assert trusted.prefix_flag
        assert list(trusted.programs.items()) == list(checked.programs.items())
        for state in _states_around(rng, [checked]):
            assert repr(outcome(trusted.describe, state)) == repr(outcome(checked.describe, state))


def test_self_delimit_machine_keeps_the_length_cap():
    fits = "0" * ((qfock.fock.LENGTH_CAP - 1) // 2)
    too_long = fits + "0"
    ok = DescriberMachine({fits: basis_state("0"), "1": basis_state("1")}, prefix_flag=False)
    assert delimit_bits(fits) in self_delimit_machine(ok).programs
    bad = DescriberMachine({too_long: basis_state("0"), "1": basis_state("1")}, prefix_flag=False)
    with pytest.raises(LengthCapExceededError) as exc:
        self_delimit_machine(bad)
    assert outcome(delimit_bits, too_long) == ("raised", LengthCapExceededError, str(exc.value))


def test_machine_from_code():
    code = build_condensable_code(
        [basis_state("00"), basis_state("01")], {0: "0", 1: "10"}
    )
    m = machine_from_code(code)
    assert m.prefix_flag
    assert machine_complexity(m, basis_state("01")).value == 2.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans())
def test_trusted_machine_from_code_describes_as_the_checked_machine(seed, size, lossless):
    # machine_from_code skips the machine's checks; the machine built from
    # the same table by the checked constructor is the oracle.
    rng = np.random.default_rng(seed)
    if lossless:
        code = sw_lossless_code(random_density(max(size, 2), seed=seed))
    else:
        lengths = [int(l) for l in rng.integers(1, 6, size=size)]
        while kraft_sum_exact(lengths) > 1:
            lengths = [l + 1 for l in lengths]
        family = random_orthonormal_family(rng, size, length=int(rng.integers(3, 5)))
        code = build_condensable_code(family, canonical_prefix_code(lengths))
    trusted = machine_from_code(code)
    checked = DescriberMachine(trusted.programs, prefix_flag=True)
    assert trusted.prefix_flag and list(trusted.programs) == list(checked.programs)
    basis = code.source_basis
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    inside = {}
    for c, member in zip(coeffs, basis):
        for bits, amp in member.items():
            inside[bits] = inside.get(bits, 0j) + complex(c) * amp
    states = [*basis, QString(inside, normalize=True), random_qstring(rng, max_len=4)]
    for state in states:
        assert outcome(trusted.describe, state) == outcome(checked.describe, state)


@pytest.mark.parametrize("steps", [-2, -1, 0, 1, 2])
def test_machine_from_code_holds_to_the_codes_verdict_at_the_tolerance(steps):
    # Overlaps a few ulps either side of ORTHO_TOL: a code the Gram check
    # accepts always views as a machine, with no second check to disagree.
    eps = qfock.fock.ORTHO_TOL
    for _ in range(abs(steps)):
        eps = math.nextafter(eps, math.inf if steps > 0 else 0.0)
    tilted = QString({"0": math.sqrt(1.0 - eps * eps), "1": eps})
    basis = [tilted, basis_state("1")]
    words = PrefixCode({0: "0", 1: "10"})
    if steps > 0:
        with pytest.raises(NotOrthonormalError):
            build_condensable_code(basis, words)
        return
    machine = machine_from_code(build_condensable_code(basis, words))
    assert machine_complexity(machine, basis_state("1")).value == pytest.approx(2.0)


# --- universal complexity over catalogs ----------------------------------------------

def test_universal_single_identity():
    cat = MachineCatalog([identity_machine(8)])
    rng = np.random.default_rng(37)
    for _ in range(20):
        psi = random_qstring(rng, max_len=8, max_terms=3)
        est = universal_complexity(cat, psi)
        assert est.value == pytest.approx(3 + average_length(psi), abs=1e-12)
        assert est.machine_index == 1


def test_universal_duplicate_machine_ties_to_first():
    cat = MachineCatalog([identity_machine(8), identity_machine(8)])
    psi = QString({"0": 0.6, "11": 0.8})
    est = universal_complexity(cat, psi)
    assert est.machine_index == 1
    assert est.value == pytest.approx(3 + average_length(psi))


def test_universal_picks_cheaper_specialist():
    target = basis_state("0" * 12)
    specialist = DescriberMachine({"1": target}, prefix_flag=True)
    cat = MachineCatalog([identity_machine(12), specialist])
    est = universal_complexity(cat, target)
    # identity: 3 + 12; specialist: 5 + 1
    assert est.value == 6.0
    assert est.machine_index == 2


def test_universal_skips_machines_out_of_span():
    specialist = DescriberMachine({"0": basis_state("111")}, prefix_flag=True)
    cat = MachineCatalog([specialist, identity_machine(4)])
    est = universal_complexity(cat, basis_state("00"))
    assert est.machine_index == 2
    assert est.value == pytest.approx(5 + 2)


def test_universal_no_describer():
    specialist = DescriberMachine({"0": basis_state("111")}, prefix_flag=True)
    cat = MachineCatalog([specialist])
    with pytest.raises(NoDescriberError):
        universal_complexity(cat, basis_state("00"))


def test_universal_monotone_under_catalog_extension():
    rng = np.random.default_rng(43)
    base = [identity_machine(6)]
    extended = base + [self_delimit_machine(identity_machine(6))]
    for _ in range(30):
        psi = random_qstring(rng, max_len=6, max_terms=3)
        small = universal_complexity(MachineCatalog(base), psi).value
        large = universal_complexity(MachineCatalog(extended), psi).value
        assert large <= small + 1e-12


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_catalog_queries_match_the_exhaustive_loop(seed, size):
    # Machines drawn with repeats, so totals tie; short basis strings on
    # a leading identity make the index-cost skip fire.
    rng = np.random.default_rng(seed)
    pool = [
        identity_machine(int(rng.integers(0, 4))),
        IdentityMachine(int(rng.integers(0, 4)), True),
        _random_table(rng, False),
        _random_table(rng, True),
    ]
    pool.append(self_delimit_machine(pool[2]))
    cat = MachineCatalog([pool[int(k)] for k in rng.integers(len(pool), size=size)])
    for state in _states_around(rng, pool):
        want = outcome(catalog_query_by_exhaustion, cat, state)
        got = outcome(universal_complexity, cat, state)
        assert repr(got) == repr(want if want[0] == "raised" else ("ok", want[1][0]))
        bare = outcome(min_description_length, cat, state)
        assert repr(bare) == repr(want if want[0] == "raised" else ("ok", want[1][1]))


def _count_tallies(monkeypatch):
    tallied = []
    for cls in (DescriberMachine, IdentityMachine):
        def counting(self, state, real=cls._tally):
            tallied.append(self)
            return real(self, state)

        monkeypatch.setattr(cls, "_tally", counting)
    return tallied


def test_universal_stops_where_the_index_cost_alone_loses(monkeypatch):
    tallied = _count_tallies(monkeypatch)
    # Identity: 3 + 2 = 5.  Machine 2 would tie at 5 + 0 and lose the tie,
    # machine 3 costs 5 as well: neither is tallied.
    free = DescriberMachine({"": basis_state("00")}, prefix_flag=False)
    cat = MachineCatalog([identity_machine(4), free, identity_machine(2)])
    est = universal_complexity(cat, basis_state("00"))
    assert (est.value, est.machine_index) == (5.0, 1)
    assert tallied == [cat.machines[0]]
    assert repr(est) == repr(catalog_query_by_exhaustion(cat, basis_state("00"))[0])
    # The bare minimum needs every machine.
    tallied.clear()
    assert min_description_length(cat, basis_state("00")) == 0.0
    assert len(tallied) == len(cat)


def test_universal_builds_one_estimate_and_raises_nothing_for_misses(monkeypatch):
    built, raised = [], []
    real = qfock.complexity.ComplexityEstimate

    def counting_estimate(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    class CountingOutOfSpan(OutOfSpanError):
        def __init__(self, *args):
            raised.append(args)
            super().__init__(*args)

    monkeypatch.setattr(qfock.complexity, "ComplexityEstimate", counting_estimate)
    monkeypatch.setattr(qfock.complexity, "OutOfSpanError", CountingOutOfSpan)
    state = QString({"0": 0.6, "011": 0.8})
    misses = [DescriberMachine({"0": basis_state(b)}, prefix_flag=True) for b in ("1", "00", "111")]
    partial = identity_machine(1)  # spans "0" but not "011"
    cat = MachineCatalog([*misses, partial, *misses, identity_machine(3)])
    est = universal_complexity(cat, state)
    assert (est.machine_index, est.value) == (8, pytest.approx(9 + 0.36 + 0.64 * 3))
    assert len(built) == 1 and not raised
    # The probes do see what a single-machine query builds and raises.
    with pytest.raises(OutOfSpanError):
        machine_complexity(partial, state)
    assert len(raised) == 1


def test_min_description_length_ignores_index_costs():
    cat = MachineCatalog([identity_machine(8)])
    psi = QString({"0": 0.6, "11": 0.8})
    assert min_description_length(cat, psi) == pytest.approx(average_length(psi))


# --- fidelity-penalized complexity -----------------------------------------------------

def test_kq_exact_match():
    progs = {"0": basis_state("11")}
    assert fidelity_penalized_complexity(progs, basis_state("11")) == 1


def test_kq_constant_over_growing_tails():
    progs = {"0": basis_state("0")}
    for n in (1, 4, 9, 15):
        psi = QString({"0": 1 / RT2, "1" * n: 1 / RT2})
        assert fidelity_penalized_complexity(progs, psi) == 2


def test_kq_prefers_cheapest_tradeoff():
    psi = QString({"0": math.sqrt(0.99), "111": math.sqrt(0.01)})
    progs = {
        "0": basis_state("0"),  # fidelity 0.99: 1 + ceil(0.0145) = 2
        "10": psi,  # fidelity 1: 2 + 0 = 2
        "11111": basis_state("111"),  # fidelity 0.01: 5 + 7 = 12
    }
    assert fidelity_penalized_complexity(progs, psi) == 2


def test_kq_no_overlap():
    progs = {"0": basis_state("0")}
    with pytest.raises(NoOverlapError):
        fidelity_penalized_complexity(progs, basis_state("1"))


# --- machine text format -----------------------------------------------------------------

MACHINE_TEXT = """\
# toy machine
prefix: true
0 -> { 0:1,0 }
10 -> { 11:0.70710678118654752,0 ; 100:0,0.70710678118654752 }
"""


def test_load_machine_inline():
    m = load_machine(MACHINE_TEXT)
    assert m.prefix_flag
    assert set(m.programs) == {"0", "10"}
    out = m.output("10")
    assert out.amplitude("100") == pytest.approx(0.70710678118654752j)


def test_load_machine_requires_header():
    with pytest.raises(FormatError):
        load_machine("0 -> { 0:1,0 }\n")


def test_load_machine_bad_arrow():
    with pytest.raises(FormatError):
        load_machine("prefix: true\n0 = { 0:1,0 }\n")


@pytest.mark.parametrize("token", ["", "-", "0b1", "EPS"])
def test_program_tokens_follow_the_qstr_rule(token):
    with pytest.raises(FormatError) as exc:
        load_program_table(f"prefix: false\n{token} -> {{ 0:1,0 }}\n")
    assert str(exc.value) == f"line 2: bad program token {token!r}"


def test_machine_file_roundtrip(tmp_path):
    m = self_delimit_machine(identity_machine(2))
    path = tmp_path / "m.qm"
    write_machine_file(str(path), m)
    back = read_machine_file(str(path))
    assert set(back.programs) == set(m.programs)
    assert back.prefix_flag
    psi = QString({"0": 0.6, "11": 0.8})
    assert machine_complexity(back, psi).value == pytest.approx(
        machine_complexity(m, psi).value
    )


def test_machine_file_with_state_paths(tmp_path):
    (tmp_path / "out.qstr").write_text("111 1.0 0.0\n")
    (tmp_path / "m.qm").write_text("prefix: true\n0 -> out.qstr\n")
    m = read_machine_file(str(tmp_path / "m.qm"))
    assert m.output("0") == basis_state("111")


def test_dump_machine_eps_program():
    m = DescriberMachine({"": basis_state("0")}, prefix_flag=True)
    assert "eps ->" in dump_machine(m)
    assert load_machine(dump_machine(m)).programs == m.programs
