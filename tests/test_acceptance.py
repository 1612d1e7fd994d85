"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <n> PASS|FAIL`` line (run with
``pytest tests/test_acceptance.py -s`` to see them as they happen).
Criterion 1 runs an exhaustive 67-million-pair roundtrip and takes a
couple of minutes; everything else finishes in seconds.
"""

import itertools
import math

import numpy as np
import pytest

from qfock import (
    DensityOperator,
    Ensemble,
    InequalitySpec,
    QString,
    average_length,
    basis_state,
    density_from_ensemble,
    identity_machine,
    incompressibility_report,
    inequality_check,
    kraft_condensable_check,
    lossy_typical_projection,
    machine_complexity,
    multicopy_kraft,
    multicopy_report,
    nonadditivity_search,
    pair_decode,
    pair_encode,
    partial_trace,
    random_density,
    self_delimit_machine,
    subsystem_labels,
    sw_report,
    tensor_product,
    universal_complexity,
    von_neumann_entropy,
)
from qfock.cli import main as cli_main
from qfock.complexity import DescriberMachine, MachineCatalog
from qfock.qcode import encode_qstring

from helpers import random_orthonormal_family, random_qstring, random_unitary

RT2 = math.sqrt(2.0)


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def all_bitstrings_upto(max_len):
    out = [""]
    for length in range(1, max_len + 1):
        out.extend(format(v, f"0{length}b") for v in range(1 << length))
    return out


def diag_density(probs):
    d = len(probs)
    w = max(1, (d - 1).bit_length())
    labels = [format(i, f"0{w}b") for i in range(d)]
    return DensityOperator(labels, np.diag(probs).astype(complex))


@pytest.mark.slow
def test_criterion_1_pair_encoding():
    """Golden pair example plus the exhaustive roundtrip (lengths <= 12).

    The full loop covers (2^13 - 1)^2 = 67,092,481 pairs and runs for
    roughly two minutes; it is the suite's one long test, marked
    ``slow``.  Deselect it with ``-m "not slow"`` for a fast pass.
    """
    golden_ok = pair_encode("110", "1000") == "11101101000"
    strings = all_bitstrings_upto(12)
    bad = 0
    for x in strings:
        for y in strings:
            if pair_decode(pair_encode(x, y)) != (x, y):
                bad += 1
    ok = golden_ok and bad == 0
    assert verdict(
        1, ok, f"golden 11101101000 {'ok' if golden_ok else 'WRONG'}, "
        f"{len(strings)}^2 exhaustive roundtrip, {bad} failures"
    )


def test_criterion_2_sw_sandwich():
    dims = itertools.cycle(range(2, 9))
    worst = 0.0
    violations = 0
    for seed in range(500):
        rho = random_density(next(dims), seed)
        _, rep = sw_report(rho)
        low = rep.entropy - rep.expected_avg_length
        high = rep.expected_avg_length - (rep.entropy + 1.0)
        worst = max(worst, low, high)
        if low > 1e-7 or high > 1e-7:
            violations += 1
    _, dyadic = sw_report(diag_density([0.5, 0.25, 0.25]))
    exact = dyadic.expected_avg_length == 1.5 and dyadic.entropy == 1.5
    ok = violations == 0 and exact
    assert verdict(
        2, ok, f"500 random densities, {violations} violations "
        f"(worst slack {worst:.2e}); dyadic E=S=1.5 {'exact' if exact else 'WRONG'}"
    )


def test_criterion_3_condensable_kraft():
    rng = np.random.default_rng(2718)
    violations = 0
    # (a) SW-encoded eigenbases of random densities
    dims = itertools.cycle(range(2, 9))
    for seed in range(100):
        rho = random_density(next(dims), seed + 10_000)
        code, _ = sw_report(rho)
        encoded = [encode_qstring(code, b) for b in code.source_basis]
        if kraft_condensable_check(encoded) > 1.0 + 1e-9:
            violations += 1
    # (b) random unitary rotations of complete dyadic codeword sets
    for _ in range(200):
        words = [""]
        for _ in range(int(rng.integers(1, 6))):
            leaf = words.pop(int(rng.integers(len(words))))
            words.extend([leaf + "0", leaf + "1"])
        leaves = [basis_state(w) for w in words]
        u = random_unitary(rng, len(words))
        family = []
        for k in range(len(words)):
            terms = {}
            for i, leaf in enumerate(words):
                if abs(u[i, k]) > 1e-14:
                    terms[leaf] = complex(u[i, k])
            family.append(QString(terms, normalize=True))
        if kraft_condensable_check(family) > 1.0 + 1e-9:
            violations += 1
    # (c) the specific superposed triple
    plus = QString({"0": 1 / RT2, "10": 1 / RT2})
    minus = QString({"0": 1 / RT2, "10": -1 / RT2})
    triple = kraft_condensable_check([plus, minus, basis_state("11")])
    triple_ok = abs(triple - 0.957106781) <= 1e-8
    ok = violations == 0 and triple_ok
    assert verdict(
        3, ok, f"100 SW eigenbases + 200 rotated dyadic sets, {violations} "
        f"violations; superposed triple = {triple:.9f}"
    )


def test_criterion_4_lossy_projection():
    rho = diag_density([0.9, 0.1])
    # binomial-tail oracle, evaluated independently right here
    oracle = 0.9**10 + 10 * 0.9**9 * 0.1
    got = lossy_typical_projection(rho, 10, 0.1)
    value_ok = abs(got.success - oracle) <= 1e-8
    succ = [lossy_typical_projection(rho, n, 0.1).success for n in (10, 20, 40, 60)]
    increasing = all(a < b for a, b in zip(succ, succ[1:]))
    ok = value_ok and increasing
    verdict(
        4, ok, f"n=10 success {got.success:.10f} vs oracle {oracle:.10f} "
        f"({'ok' if value_ok else 'WRONG'}); sequence "
        f"{[f'{s:.6f}' for s in succ]} strictly increasing: {increasing}"
    )
    assert value_ok
    # the full criterion also demands strict monotonicity over the grid;
    # the true binomial-tail values dip from n=10 to n=20, so this half
    # is expected to fail against the oracle-faithful implementation
    assert increasing


def test_criterion_5_upper_bound_and_invariance():
    rng = np.random.default_rng(31415)
    base_cat = MachineCatalog([identity_machine(6)])
    bound_violations = 0
    for _ in range(1000):
        psi = random_qstring(rng, max_len=6, max_terms=4)
        est = universal_complexity(base_cat, psi)
        if est.value > average_length(psi) + 3 + 1e-9:
            bound_violations += 1
    mono_violations = 0
    sd = self_delimit_machine(identity_machine(6))
    for trial in range(100):
        psi = random_qstring(rng, max_len=6, max_terms=4)
        extras = [sd] if trial % 2 else [sd, identity_machine(4)]
        small = MachineCatalog([identity_machine(6)])
        large = MachineCatalog([identity_machine(6), *extras])
        if (
            universal_complexity(large, psi).value
            > universal_complexity(small, psi).value + 1e-12
        ):
            mono_violations += 1
    ok = bound_violations == 0 and mono_violations == 0
    assert verdict(
        5, ok, f"1000 states within l+3 ({bound_violations} over); "
        f"100 nested catalog pairs monotone ({mono_violations} over)"
    )


def prefix_free_subsets(words, size):
    for combo in itertools.combinations(words, size):
        if all(
            not b.startswith(a) for a, b in itertools.permutations(combo, 2)
        ):
            yield combo


def test_criterion_6_incompressibility():
    rng = np.random.default_rng(6174)
    family_failures = 0
    for trial in range(200):
        size = int(rng.integers(2, 9))
        family = random_orthonormal_family(rng, size)
        length = len(next(iter(family[0].keys())))
        prefix_cat = MachineCatalog([self_delimit_machine(identity_machine(length))])
        plain_cat = MachineCatalog([identity_machine(length)])
        if not incompressibility_report(family, prefix_cat).verified:
            family_failures += 1
        if not incompressibility_report(family, plain_cat).verified:
            family_failures += 1
    # exhaustive: every prefix machine with <= 4 programs of length <= 4
    # describing an orthonormal family of matching size
    words4 = [format(v, f"0{l}b") for l in range(1, 5) for v in range(1 << l)]
    exhaustive_failures = 0
    machine_count = 0
    entropy_ok = True
    for size in (1, 2, 3, 4):
        family = random_orthonormal_family(rng, size)
        mixture = Ensemble([(1.0 / size, s) for s in family])
        s_rho = von_neumann_entropy(density_from_ensemble(mixture))
        if abs(s_rho - math.log2(size)) > 1e-7:
            entropy_ok = False
        pool = ([""] if size == 1 else []) + list(words4)
        for combo in prefix_free_subsets(pool, size):
            machine = DescriberMachine(dict(zip(combo, family)), prefix_flag=True)
            machine_count += 1
            worst = max(
                machine_complexity(machine, member).value for member in family
            )
            if worst < s_rho - 1e-9:
                exhaustive_failures += 1
    ok = family_failures == 0 and exhaustive_failures == 0 and entropy_ok
    assert verdict(
        6, ok, f"200 random families verified ({family_failures} failures); "
        f"{machine_count} exhaustive prefix machines "
        f"({exhaustive_failures} below the entropy floor)"
    )


def test_criterion_7_multicopy():
    rep = multicopy_report(0.5, 3)
    golden_ok = rep.expected_normalized == 2.0 == math.log2(3 + 1)
    grid_failures = 0
    for alpha2 in [round(0.1 * k, 1) for k in range(1, 10)]:
        for n in range(1, 61):
            r = multicopy_report(alpha2, n)
            if multicopy_kraft(r) > 1.0 + 1e-12:
                grid_failures += 1
            if r.expected_normalized > r.expected_raw + 1e-12:
                grid_failures += 1
    ok = golden_ok and grid_failures == 0
    assert verdict(
        7, ok, f"alpha2=1/2 n=3 expected={rep.expected_normalized} "
        f"(= log2 4); 9x60 grid, {grid_failures} failures"
    )


def test_criterion_8_nonadditivity():
    conc = None
    for m_block in range(1, 13):
        rep = nonadditivity_search(
            m_block, MachineCatalog([self_delimit_machine(identity_machine(m_block + 1))]), 1.0
        )
        if rep.success_concentrated:
            conc = rep
            break
    dil = None
    for m_block in range(1, 16):  # blocks up to 2^16 strings
        rep = nonadditivity_search(
            m_block, MachineCatalog([self_delimit_machine(identity_machine(m_block + 1))]), 1.0
        )
        if rep.success_diluted and rep.n_star <= 1 << 16:
            dil = rep
            break
    ok = conc is not None and dil is not None
    detail = "no witness found"
    if ok:
        detail = (
            f"(>) m_block={conc.m_block}, n*={conc.n_star}, "
            f"QK(n*)={conc.value_n} vs phi avg {conc.phi_average} "
            f"(gap {conc.gap_concentrated}); (<) n*={dil.n_star}, "
            f"phi avg {dil.phi_average} vs QK(0)={dil.value_zero} "
            f"(gap {dil.gap_diluted})"
        )
    assert verdict(8, ok, detail)


def test_criterion_9_entropy_engine():
    rng = np.random.default_rng(8128)
    sub_failures = al_failures = ssa_failures = 0
    for trial in range(250):
        d = 4
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        m /= np.trace(m).real
        rho = DensityOperator(subsystem_labels([2, 2]), (m + m.conj().T) / 2)
        s_ab = von_neumann_entropy(rho)
        s_a = von_neumann_entropy(partial_trace(rho, [2, 2], [1]))
        s_b = von_neumann_entropy(partial_trace(rho, [2, 2], [2]))
        if s_ab > s_a + s_b + 1e-7:
            sub_failures += 1
        if s_ab < abs(s_a - s_b) - 1e-7:
            al_failures += 1
    for trial in range(250):
        d = 8
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        m /= np.trace(m).real
        rho = DensityOperator(subsystem_labels([2, 2, 2]), (m + m.conj().T) / 2)
        s_abc = von_neumann_entropy(rho)
        s_ab = von_neumann_entropy(partial_trace(rho, [2, 2, 2], [1, 2]))
        s_bc = von_neumann_entropy(partial_trace(rho, [2, 2, 2], [2, 3]))
        s_b = von_neumann_entropy(partial_trace(rho, [2, 2, 2], [2]))
        if s_ab + s_bc - s_abc - s_b < -1e-7:
            ssa_failures += 1
    # additivity of copies
    add_failures = 0
    rho = random_density(2, seed=424242)
    s1 = von_neumann_entropy(rho)
    power = rho
    for m_copies in range(2, 5):
        power = tensor_product(power, rho)
        if abs(von_neumann_entropy(power) - m_copies * s1) > 1e-7:
            add_failures += 1
    # product-mode inequality check vs the sum-of-parts formula
    spec = InequalitySpec(
        2, [([1], 0.75), ([2], 1.0), ([1, 2], -1.0)]
    )
    prod_failures = 0
    for trial in range(100):
        a = random_density(2, seed=trial)
        b = random_density(2, seed=trial + 5000)
        via_mode = inequality_check(spec, [a, b], mode="product")
        parts = {1: von_neumann_entropy(a), 2: von_neumann_entropy(b)}
        by_hand = sum(
            coeff * sum(parts[i] for i in subset) for subset, coeff in spec.terms
        )
        if abs(via_mode - by_hand) > 1e-9:
            prod_failures += 1
    total = sub_failures + al_failures + ssa_failures + add_failures + prod_failures
    assert verdict(
        9, total == 0,
        f"subadd {sub_failures}, Araki-Lieb {al_failures}, SSA {ssa_failures}, "
        f"copy additivity {add_failures}, product-mode {prod_failures} failures"
    )


def test_criterion_10_cli_determinism(tmp_path):
    s = tmp_path / "s.qstr"
    s.write_text("0 0.6 0.0\n11 0.8 0.0\n")
    plus = tmp_path / "plus.qstr"
    plus.write_text("0 0.70710678118654752 0.0\n1 0.70710678118654752 0.0\n")
    rho = tmp_path / "rho.ens"
    rho.write_text("0.9 { 0:1,0 }\n0.1 { 1:1,0 }\n")
    dyadic = tmp_path / "dyadic.ens"
    dyadic.write_text("0.5 { 0:1,0 }\n0.25 { 10:1,0 }\n0.25 { 11:1,0 }\n")
    bell = tmp_path / "bell.ens"
    bell.write_text("1.0 { 00:0.70710678118654752,0 ; 11:0.70710678118654752,0 }\n")
    machine = tmp_path / "m.qm"
    machine.write_text("prefix: true\n0 -> { 0:1,0 }\n10 -> { 11:1,0 }\n")

    invocations = [
        ["avglen", "--state", s],
        ["baselen", "--state", s],
        ["pair", "--x", "110", "--y", "1000"],
        ["selfdelim", "--state", s],
        ["entropy", "--rho", dyadic],
        ["shannon", "--p", "0.9,0.1"],
        ["code", "--p", "0.5,0.25,0.25"],
        ["kraft", "--lengths", "1,2,2"],
        ["sw", "--rho", dyadic],
        ["encode", "--rho", dyadic, "--state", s],
        ["lossy", "--rho", rho, "--n", "10,20,40,60", "--delta", "0.1"],
        ["lossy", "--rho", rho, "--n", "10,20", "--delta", "0.1", "--format", "csv"],
        ["complexity", "--machine", machine, "--state", s],
        ["universal", "--machine", machine, "--sd-identity", "4", "--state", s],
        ["kq", "--programs", machine, "--state", plus],
        ["incompress", "--state", s, "--state", plus, "--sd-identity", "2"],
        ["multicopy", "--alpha2", "0.5", "--n", "7"],
        ["multicopy", "--alpha2", "0.3", "--n", "5", "--format", "csv"],
        ["nonadd", "--mblock", "4"],
        ["sandwich", "--ensemble", dyadic],
        ["ineq", "--spec", "1=1;2=1;1,2=-1", "--mode", "joint",
         "--rho", bell, "--dims", "2,2"],
        ["randrho", "--dim", "6", "--seed", "77"],
    ]
    mismatches = []
    for k, argv in enumerate(invocations):
        out_a = tmp_path / f"a{k}.out"
        out_b = tmp_path / f"b{k}.out"
        code_a = cli_main([str(t) for t in argv] + ["--out", str(out_a)])
        code_b = cli_main([str(t) for t in argv] + ["--out", str(out_b)])
        if code_a != 0 or code_b != 0:
            mismatches.append((argv[0], "nonzero exit"))
        elif out_a.read_bytes() != out_b.read_bytes():
            mismatches.append((argv[0], "bytes differ"))
    ok = not mismatches
    assert verdict(
        10, ok, f"{len(invocations)} invocations across all 20 subcommands "
        f"byte-identical" + ("" if ok else f"; mismatches: {mismatches}")
    )
