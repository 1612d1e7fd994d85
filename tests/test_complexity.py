import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfock.complexity

from qfock import (
    CapExceededError,
    DuplicateKeyError,
    FormatError,
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
    dump_machine,
    fidelity_penalized_complexity,
    identity_machine,
    index_cost,
    load_machine,
    machine_complexity,
    machine_from_code,
    min_description_length,
    read_machine_file,
    self_delimit_machine,
    universal_complexity,
    write_machine_file,
)
from qfock.complexity import (
    DescriberMachine,
    IdentityMachine,
    MachineCatalog,
    load_program_table,
)

from helpers import identity_table, random_qstring

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
        with pytest.raises(NotOrthonormalError):
            DescriberMachine(
                {"0": basis_state("0"), "1": QString({"0": 0.6, "1": 0.8})},
                prefix_flag=True,
            )
        with pytest.raises(NotOrthonormalError):
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


def test_machine_from_code():
    code = build_condensable_code(
        [basis_state("00"), basis_state("01")], {0: "0", 1: "10"}
    )
    m = machine_from_code(code)
    assert m.prefix_flag
    assert machine_complexity(m, basis_state("01")).value == 2.0


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
