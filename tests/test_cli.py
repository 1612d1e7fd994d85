import argparse
import ast
import builtins
import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import pytest

import qfock.cli
import qfock.complexity
from qfock import ComplexityEstimate, load_ensemble
from qfock.cli import main
from qfock.codes import CEIL_SNAP, PROB_TOL
from qfock.complexity import WEIGHT_SUM_TOL
from qfock.fock import NORM_TOL

from helpers import count_eigh

PLUS = "0 0.70710678118654752 0.0\n1 0.70710678118654752 0.0\n"


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "s.qstr").write_text("0 0.6 0.0\n11 0.8 0.0\n")
    (tmp_path / "plus.qstr").write_text(PLUS)
    (tmp_path / "rho09.ens").write_text("0.9 { 0:1,0 }\n0.1 { 1:1,0 }\n")
    (tmp_path / "dyadic.ens").write_text(
        "0.5 { 0:1,0 }\n0.25 { 10:1,0 }\n0.25 { 11:1,0 }\n"
    )
    (tmp_path / "m.qm").write_text("prefix: true\n0 -> { 0:1,0 }\n10 -> { 11:1,0 }\n")
    return tmp_path


def run(capsys, argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 0, out
    return json.loads(out)


def test_avglen_report_envelope(workdir, capsys):
    rep = run_json(capsys, ["avglen", "--state", workdir / "s.qstr"])
    assert set(rep) == {"tool_version", "seed", "inputs", "result", "checks"}
    assert rep["result"]["average_length"] == 1.64
    assert rep["seed"] == 0
    digest = rep["inputs"][str(workdir / "s.qstr")]
    assert digest.startswith("sha256:") and len(digest) == 7 + 64


def test_baselen(workdir, capsys):
    rep = run_json(capsys, ["baselen", "--state", workdir / "s.qstr"])
    assert rep["result"]["base_length"] == 2


def test_pair_encode_and_decode(workdir, capsys):
    rep = run_json(capsys, ["pair", "--x", "110", "--y", "1000"])
    assert rep["result"]["encoded"] == "11101101000"
    assert rep["checks"]["roundtrip"] is True
    rep = run_json(capsys, ["pair", "--decode", "11101101000"])
    assert rep["result"] == {"x": "110", "y": "1000"}
    rep = run_json(capsys, ["pair", "--x", "eps", "--y", "eps"])
    assert rep["result"]["encoded"] == "0"


@pytest.mark.parametrize(
    "argv",
    [["--x", "", "--y", "1"], ["--x", "1", "--y", ""], ["--decode", ""]],
    ids=["x", "y", "decode"],
)
def test_pair_rejects_empty_bitstring_argument(argv, capsys):
    # the empty string is written 'eps' on the command line, as in files
    with pytest.raises(SystemExit) as exc:
        main(["pair", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "qfock: usage error: bad bitstring argument '' (use 'eps' for empty)\n"
    )


@pytest.mark.parametrize(
    "code, reason",
    [("111", "missing delimiter: input is all ones"),
     ("1101", "input too short for its announced first component")],
    ids=["all-ones", "too-short"],
)
def test_pair_bad_encoding_is_a_usage_error(code, reason, capsys):
    # the library raises ValueError; the command line reports a usage error
    with pytest.raises(SystemExit) as exc:
        main(["pair", "--decode", code])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qfock: usage error: bad pair encoding {code!r}: {reason}\n"


def test_selfdelim_writes_state(workdir, capsys):
    out_state = workdir / "sd.qstr"
    rep = run_json(
        capsys,
        ["selfdelim", "--state", workdir / "s.qstr", "--out-state", out_state],
    )
    assert rep["result"]["average_length_out"] == pytest.approx(2 * 1.64 + 1)
    assert rep["checks"]["length_law"] is True
    assert out_state.exists()


def test_entropy(workdir, capsys):
    rep = run_json(capsys, ["entropy", "--rho", workdir / "dyadic.ens"])
    assert rep["result"]["entropy"] == 1.5
    assert rep["result"]["eigenvalues"] == [0.5, 0.25, 0.25]
    assert rep["checks"]["psd"] is True


def test_shannon(workdir, capsys):
    rep = run_json(capsys, ["shannon", "--p", "0.5,0.5"])
    assert rep["result"]["entropy"] == 1.0


def test_code(workdir, capsys):
    rep = run_json(capsys, ["code", "--p", "0.9,0.1"])
    assert rep["result"]["codewords"] == ["0", "1000"]
    assert rep["result"]["expected_length"] == 1.3
    assert rep["checks"]["sandwich"] is True


def test_kraft(workdir, capsys):
    rep = run_json(capsys, ["kraft", "--lengths", "1,2,2"])
    assert rep["result"]["kraft_sum"] == 1.0
    assert rep["checks"]["feasible"] is True
    rep = run_json(capsys, ["kraft", "--lengths", "2,2,2,2,2"])
    assert rep["result"]["kraft_sum"] == 1.25
    assert rep["checks"]["feasible"] is False


@pytest.mark.parametrize(
    "lengths, reason",
    [
        ("", "no lengths given"),
        (",", "no lengths given"),
        ("-1", "negative length in '-1'"),
        ("3,-2,1", "negative length in '3,-2,1'"),
    ],
    ids=["empty", "comma", "negative", "negative-inside"],
)
def test_kraft_bad_lengths_are_usage_errors(lengths, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kraft", f"--lengths={lengths}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qfock: usage error: {reason}\n"


def test_kraft_length_over_the_cap_is_a_domain_error(capsys):
    from qfock.fock import LENGTH_CAP

    code, out = run(capsys, ["kraft", "--lengths", f"1,{LENGTH_CAP + 1}"])
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "LengthCapExceededError",
        "message": f"codeword length {LENGTH_CAP + 1} exceeds cap {LENGTH_CAP}",
    }


@pytest.mark.parametrize(
    "lengths, feasible",
    [("1,1", True), ("1,2,2", True), ("1,1,60", False)],
)
def test_kraft_feasibility_is_decided_exactly(lengths, feasible, capsys):
    # 1,1,60 sums to 1 + 2**-60, which the printed float rounds to 1
    rep = run_json(capsys, ["kraft", "--lengths", lengths])
    assert rep["result"]["kraft_sum"] == 1.0
    assert rep["checks"]["feasible"] is feasible


def test_sw(workdir, capsys):
    rep = run_json(capsys, ["sw", "--rho", workdir / "dyadic.ens"])
    assert set(rep["result"]) == {
        "codewords", "lengths", "table_text",
        "expected_avg_length", "entropy", "kraft", "per_member",
    }
    assert set(rep["checks"]) == {"kraft_feasible", "sandwich"}
    assert rep["result"]["codewords"] == ["0", "10", "11"]
    assert rep["result"]["expected_avg_length"] == 1.5
    assert rep["checks"]["sandwich"] is True


def test_encode(workdir, capsys):
    rep = run_json(
        capsys,
        ["encode", "--rho", workdir / "dyadic.ens", "--state", workdir / "s.qstr"],
    )
    assert rep["result"]["average_length"] == 1.64


def test_lossy_single_and_sweep(workdir, capsys):
    rep = run_json(
        capsys,
        ["lossy", "--rho", workdir / "rho09.ens", "--n", "10", "--delta", "0.1"],
    )
    assert rep["result"]["budget"] == 6
    assert rep["result"]["success"] == 0.736098929
    rep = run_json(
        capsys,
        ["lossy", "--rho", workdir / "rho09.ens", "--n", "10,20", "--delta", "0.1"],
    )
    assert [row["n"] for row in rep["result"]["sweep"]] == [10, 20]


def test_lossy_csv(workdir, capsys):
    code, out = run(
        capsys,
        [
            "lossy", "--rho", workdir / "rho09.ens",
            "--n", "10,20,40,60", "--delta", "0.1", "--format", "csv",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# tool_version=0.1.0"
    assert lines[2] == (
        "n,delta,entropy,budget,success,"
        "kept_classes,total_classes,kept_dimension,trivial"
    )
    assert len(lines) == 7


def test_complexity(workdir, capsys):
    rep = run_json(
        capsys,
        ["complexity", "--machine", workdir / "m.qm", "--state", workdir / "s.qstr"],
    )
    assert rep["result"]["value"] == 1.64
    assert rep["result"]["decomposition"] == {"0": 0.36, "10": 0.64}


def test_universal(workdir, capsys):
    rep = run_json(
        capsys,
        [
            "universal", "--machine", workdir / "m.qm",
            "--sd-identity", "4", "--state", workdir / "s.qstr",
        ],
    )
    assert rep["result"]["value"] == pytest.approx(3 + 1.64)
    assert rep["result"]["machine_index"] == 1


def test_universal_requires_some_machine(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["universal", "--state", str(workdir / "s.qstr")])
    assert exc.value.code == 2


def test_kq(workdir, capsys):
    rep = run_json(
        capsys,
        ["kq", "--programs", workdir / "m.qm", "--state", workdir / "plus.qstr"],
    )
    # program "0" -> |0> has fidelity 1/2 against |+>: 1 + 1 = 2
    assert rep["result"]["value"] == 2


def test_incompress(workdir, capsys):
    rep = run_json(
        capsys,
        [
            "incompress",
            "--state", workdir / "s.qstr",
            "--state", workdir / "plus.qstr",
            "--sd-identity", "2",
        ],
    )
    assert set(rep["result"]) == {
        "member_count", "entropy", "prefix_bound", "plain_bound", "all_prefix",
        "applicable_bound", "max_description_length", "per_state",
    }
    assert set(rep["checks"]) == {"bound_respected"}
    assert rep["checks"]["bound_respected"] is True
    assert rep["result"]["member_count"] == 2


def test_multicopy_json_and_csv(workdir, capsys):
    rep = run_json(capsys, ["multicopy", "--alpha2", "0.5", "--n", "3"])
    assert rep["result"]["expected_normalized"] == 2.0
    assert rep["checks"]["raw_kraft_feasible"] is True
    code, out = run(
        capsys, ["multicopy", "--alpha2", "0.5", "--n", "3", "--format", "csv"]
    )
    assert code == 0
    assert out.strip().splitlines()[2] == "i,weight,raw_length,normalized_length"


def test_nonadd(workdir, capsys):
    rep = run_json(capsys, ["nonadd", "--mblock", "3"])
    assert rep["result"]["n_star"] == 8
    assert rep["result"]["gap_concentrated"] == 3.0
    assert rep["checks"]["concentrated_gap_exceeds_k"] is True


def test_sandwich(workdir, capsys):
    rep = run_json(capsys, ["sandwich", "--ensemble", workdir / "dyadic.ens"])
    assert set(rep["result"]) == {
        "entropy", "expected_complexity", "overhead", "per_member",
    }
    assert set(rep["checks"]) == {"lower", "upper"}
    assert rep["result"]["entropy"] == 1.5
    assert rep["result"]["expected_complexity"] == 4.5
    assert rep["checks"]["lower"] is True and rep["checks"]["upper"] is True


def test_ineq_joint_and_product(workdir, capsys):
    (workdir / "bell.ens").write_text(
        "1.0 { 00:0.70710678118654752,0 ; 11:0.70710678118654752,0 }\n"
    )
    rep = run_json(
        capsys,
        [
            "ineq", "--spec", "1=1;2=1;1,2=-1",
            "--mode", "joint", "--rho", workdir / "bell.ens", "--dims", "2,2",
        ],
    )
    assert rep["result"]["value"] == 2.0
    rep = run_json(
        capsys,
        [
            "ineq", "--spec", "1=1;2=1;1,2=-1", "--mode", "product",
            "--factor", workdir / "rho09.ens", "--factor", workdir / "rho09.ens",
        ],
    )
    assert rep["result"]["value"] == 0.0
    assert rep["checks"]["paths_agree"] is True


FACTORS = {
    "q.ens": "0.9 { 0:1,0 }\n0.1 { 1:1,0 }\n",
    "d.ens": "0.5 { 0:1,0 }\n0.25 { 10:1,0 }\n0.25 { 11:1,0 }\n",
    "pure.ens": "1.0 { 0:1,0 }\n",
    "q3.ens": "0.5 { 00:1,0 }\n0.5 { 01:1,0 }\n",
    "a.ens": "0.5 { 0:1,0 }\n0.5 { 01:1,0 }\n",
    "b.ens": "0.5 { 1:1,0 }\n0.5 { 11:1,0 }\n",
}


def ineq_product(workdir, capsys, *names):
    for name, text in FACTORS.items():
        (workdir / name).write_text(text)
    argv = ["ineq", "--spec", "1=1;2=1;1,2=-1", "--mode", "product"]
    for name in names:
        argv += ["--factor", workdir / name]
    return run(capsys, argv)


@pytest.mark.parametrize(
    "names",
    [
        ("q.ens", "d.ens"),  # mixed label lengths
        ("d.ens", "d.ens"),
        ("pure.ens", "q.ens"),  # a one-label factor
        ("q3.ens", "q.ens"),  # labels wider than ceil(log2 dim)
    ],
    ids=lambda names: "-".join(n.removesuffix(".ens") for n in names),
)
def test_ineq_product_mode_on_any_unambiguous_labels(names, workdir, capsys):
    code, out = ineq_product(workdir, capsys, *names)
    assert code == 0, out
    rep = json.loads(out)
    assert rep["checks"]["paths_agree"] is True
    assert rep["result"]["value"] == 0.0


def test_ineq_product_mode_rejects_ambiguous_labels(workdir, capsys):
    code, out = ineq_product(workdir, capsys, "a.ens", "b.ens")  # 0+11 = 01+1
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "DimensionMismatchError",
        "message": "two concatenations of party labels spell the same string",
    }


def test_ineq_product_mode_rejects_an_ambiguous_marginal(workdir, capsys):
    for name, text in FACTORS.items():
        (workdir / name).write_text(text)
    argv = ["ineq", "--spec", "1,3=1", "--mode", "product"]
    for name in ("a.ens", "pure.ens", "b.ens"):  # the product is unambiguous
        argv += ["--factor", workdir / name]
    code, out = run(capsys, argv)  # the marginal on 1,3 is not: 0+11 = 01+1
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "DimensionMismatchError",
        "message": "two concatenations of party labels spell the same string",
    }


def test_ineq_dims_accepts_a_one_label_party(workdir, capsys):
    (workdir / "j.ens").write_text("0.5 { 00:1,0 }\n0.5 { 01:1,0 }\n")
    rep = run_json(capsys, [
        "ineq", "--spec", "1=1;2=1", "--rho", workdir / "j.ens", "--dims", "1,2",
    ])
    assert rep["result"]["value"] == 1.0


@pytest.mark.parametrize("left,right,spec", [
    (26, 0, ",".join(map(str, range(1, 29))) + "=1"),
    (20, 20, ",".join(map(str, range(1, 43))) + "=1;21=1"),
], ids=["past-52-einsum-letters", "past-64-ndarray-axes"])
def test_ineq_dims_with_many_one_label_parties(left, right, spec, workdir, capsys):
    # A Bell pair padded by one-label parties: the mixed pair alone, or
    # the pure one in the middle, whose full entropy is 0 and marginal 1.
    a, b, amp = "0" * left, "0" * right, "0.70710678118654752"
    if right:
        text = f"1.0 {{ {a}00{b}:{amp},0 ; {a}11{b}:{amp},0 }}\n"
    else:
        text = f"0.5 {{ {a}00:1,0 }}\n0.5 {{ {a}11:1,0 }}\n"
    (workdir / "pad.ens").write_text(text)
    dims = ",".join(["1"] * left + ["2", "2"] + ["1"] * right)
    rep = run_json(capsys, ["ineq", "--spec", spec, "--rho", workdir / "pad.ens", "--dims", dims])
    assert rep["result"]["value"] == pytest.approx(1.0, abs=1e-12)


def test_randrho_deterministic_and_file(workdir, capsys):
    out_ens = workdir / "r.ens"
    rep1 = run_json(
        capsys, ["randrho", "--dim", "4", "--seed", "9", "--out-ens", out_ens]
    )
    rep2 = run_json(capsys, ["randrho", "--dim", "4", "--seed", "9"])
    assert rep1["result"]["eigenvalues"] == rep2["result"]["eigenvalues"]
    assert rep1["seed"] == 9
    assert out_ens.exists()
    rep3 = run_json(capsys, ["entropy", "--rho", out_ens])
    assert rep3["result"]["entropy"] == pytest.approx(
        rep1["result"]["entropy"], abs=1e-6
    )


def test_randrho_negative_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["randrho", "--dim", "3", "--seed", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "qfock: usage error: randrho needs a non-negative --seed, got -1\n"
    )
    # the other commands only record --seed, so any integer is fine there
    assert run_json(capsys, ["kraft", "--lengths", "1", "--seed", "-1"])["seed"] == -1


def test_kq_resolves_states_next_to_the_machine_file(tmp_path, capsys, monkeypatch):
    d = tmp_path / "d"
    d.mkdir()
    (d / "s0.qstr").write_text("0 1.0 0.0\n")
    (d / "m.qm").write_text("prefix: true\n0 -> s0.qstr\n")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    rep = run_json(capsys, ["kq", "--programs", d / "m.qm", "--state", d / "s0.qstr"])
    assert rep["result"]["value"] == 1


@pytest.mark.parametrize("command", ["universal", "incompress"])
def test_malformed_state_fails_before_the_catalog_is_built(
    command, workdir, capsys, monkeypatch
):
    def no_build(max_len):
        raise AssertionError("catalog built before --state was parsed")

    monkeypatch.setattr(qfock.cli, "identity_machine", no_build)
    (workdir / "bad.qstr").write_text("zz 1 0\n")
    code, out = run(
        capsys, [command, "--identity", "16", "--state", workdir / "bad.qstr"]
    )
    assert code == 4
    assert json.loads(out)["error"]["type"] == "FormatError"


def test_identity_catalogs_build_no_program_table(workdir, capsys, monkeypatch):
    def no_enumeration(max_len):
        raise AssertionError("program table materialized")

    monkeypatch.setattr(qfock.complexity, "all_bitstrings", no_enumeration)
    s, plus = workdir / "s.qstr", workdir / "plus.qstr"
    for argv in (
        ["universal", "--identity", "20", "--sd-identity", "20", "--state", s],
        ["incompress", "--sd-identity", "20", "--state", s, "--state", plus],
        ["nonadd", "--mblock", "4"],
        ["sandwich", "--ensemble", workdir / "dyadic.ens", "--sd-identity", "20"],
    ):
        run_json(capsys, argv)


def test_nan_amplitude_is_a_domain_error(workdir, capsys):
    (workdir / "nan.qstr").write_text("0 nan 0.0\n1 0.5 0.0\n")
    (workdir / "nan.ens").write_text("1.0 nan.qstr\n")
    code, out = run(capsys, ["entropy", "--rho", workdir / "nan.ens"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotNormalizedError"


@pytest.mark.parametrize(
    "argv",
    [
        ["lossy", "--rho", "r8.ens", "--n", "64", "--delta", "0.1"],
        ["lossy", "--rho", "rho09.ens", "--n", "65", "--delta", "0.1"],
        ["multicopy", "--alpha2", "0.5", "--n", "61"],
        ["nonadd", "--mblock", "0"],
    ],
)
def test_out_of_range_sizes_are_domain_errors(argv, workdir, capsys, monkeypatch):
    probs = [0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05]
    (workdir / "r8.ens").write_text(
        "".join(f"{p} {{ {i:03b}:1,0 }}\n" for i, p in enumerate(probs))
    )
    monkeypatch.chdir(workdir)
    code, out = run(capsys, argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "CapExceededError"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["shannon", "--p", "nan,1"], "InvalidDistributionError"),
        (["shannon", "--p", "inf,1"], "InvalidDistributionError"),
        (["code", "--p", "nan,1"], "InvalidDistributionError"),
        (["lossy", "--rho", "rho09.ens", "--n", "10", "--delta", "nan"], "InvalidDeltaError"),
        (["lossy", "--rho", "rho09.ens", "--n", "10", "--delta", "inf"], "InvalidDeltaError"),
        (["nonadd", "--mblock", "3", "--k", "nan"], "InvalidDeltaError"),
        (["nonadd", "--mblock", "3", "--k", "inf"], "InvalidDeltaError"),
        (["multicopy", "--alpha2", "nan", "--n", "5"], "InvalidAmplitudeError"),
        # finite, but a literal n-copy weight underflows to 0.0
        (["multicopy", "--alpha2", "1e-6", "--n", "60"], "InvalidAmplitudeError"),
        (["multicopy", "--alpha2", "1e-300", "--n", "5"], "InvalidAmplitudeError"),
        (["multicopy", "--alpha2", "0.9999999999999999", "--n", "60"], "InvalidAmplitudeError"),
    ],
)
def test_non_finite_numbers_are_domain_errors(argv, error, workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    code, out = run(capsys, argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == error


def test_emitted_reports_never_hold_nan():
    with pytest.raises(ValueError):
        qfock.cli._emit_json({"value": float("nan")})


def test_partial_trace_over_the_dimension_cap_is_a_domain_error(workdir, capsys):
    (workdir / "big.ens").write_text("1.0 { " + "1" * 22 + ":1,0 }\n")
    code, out = run(capsys, [
        "ineq", "--spec", "1=1", "--rho", workdir / "big.ens", "--dims", "2048,2048",
    ])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DimensionCapExceededError"


def test_ineq_dims_entry_over_the_cap_is_a_domain_error(workdir, capsys):
    (workdir / "bell.ens").write_text("0.5 { 00:1,0 }\n0.5 { 11:1,0 }\n")
    code, out = run(capsys, [
        "ineq", "--spec", "1=1", "--rho", workdir / "bell.ens",
        "--dims", "4000000000,2",
    ])
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "DimensionCapExceededError",
        "message": "joint dimension 8000000000 exceeds the cap 4096",
    }


@pytest.fixture()
def eig_calls(monkeypatch):
    """The LAPACK decompositions, not the ``eig_hermitian`` calls: an
    operator answers those from the decomposition it keeps."""
    return count_eigh(monkeypatch)


@pytest.mark.parametrize(
    "argv",
    [
        ["sw", "--rho", "dyadic.ens"],  # through qcode.sw_report
        ["entropy", "--rho", "dyadic.ens"],
        ["randrho", "--dim", "6", "--seed", "77"],
        ["sandwich", "--ensemble", "dyadic.ens"],  # code and entropy share one
        ["lossy", "--rho", "rho09.ens", "--n", "10,20,40,60", "--delta", "0.1"],  # one per sweep
    ],
)
def test_cli_decomposes_once(argv, workdir, capsys, eig_calls):
    run_json(capsys, [workdir / a if a.endswith(".ens") else a for a in argv])
    assert len(eig_calls) == 1


def test_randrho_phase_convention(capsys):
    rep = run_json(capsys, ["randrho", "--dim", "6", "--seed", "77"])
    members = list(load_ensemble(rep["result"]["ensemble_text"]))
    assert sorted(p for p, _ in members) == pytest.approx(
        sorted(rep["result"]["eigenvalues"]), abs=1e-8
    )
    for _, state in members:
        # the largest-magnitude amplitude (first in label order) is real positive
        amps = [state.amplitude(b) for b in sorted(state.keys())]
        peak = max(amps, key=abs)
        assert peak.imag == 0.0 and peak.real > 0.0


# --- each check against its bound -------------------------------------------------
# A flag with a tolerance holds half a tolerance past its bound and fails
# two tolerances past it; an exact flag fails one step past its bound.

TWO_SIDED = [(0.5, True), (-0.5, True), (2.0, False), (-2.0, False)]


@pytest.mark.parametrize("scale, holds", TWO_SIDED)
def test_length_law_flips_at_twice_norm_tol(scale, holds, workdir, capsys, monkeypatch):
    lengths = iter([1.0, 3.0 + scale * NORM_TOL])  # the input's, then the output's
    monkeypatch.setattr(qfock.cli, "average_length", lambda state: next(lengths))
    rep = run_json(capsys, ["selfdelim", "--state", workdir / "s.qstr"])
    assert rep["checks"]["length_law"] is holds


def _spectrum(eigenvalues):
    """A stand-in for ``cli._spectrum_fields`` that reports ``eigenvalues``."""
    return lambda rho: {"dim": len(eigenvalues), "entropy": 0.0, "eigenvalues": eigenvalues}


@pytest.mark.parametrize("scale, holds", [(-0.5, True), (-2.0, False), (2.0, True)])
def test_psd_flips_at_twice_eig_clamp(scale, holds, workdir, capsys, monkeypatch):
    from qfock.linalg import EIG_CLAMP

    monkeypatch.setattr(qfock.cli, "_spectrum_fields", _spectrum([1.0, scale * EIG_CLAMP]))
    rep = run_json(capsys, ["entropy", "--rho", workdir / "dyadic.ens"])
    assert rep["checks"]["psd"] is holds


@pytest.mark.parametrize("scale, holds", TWO_SIDED)
def test_trace_one_flips_at_twice_trace_tol(scale, holds, capsys, monkeypatch):
    from qfock.linalg import TRACE_TOL

    monkeypatch.setattr(qfock.cli, "_spectrum_fields", _spectrum([0.5, 0.5 + scale * TRACE_TOL]))
    rep = run_json(capsys, ["randrho", "--dim", "2"])
    assert rep["checks"]["trace_one"] is holds


@pytest.mark.parametrize("scale, holds", TWO_SIDED)
def test_complexity_weights_flip_at_twice_their_tol(scale, holds, workdir, capsys, monkeypatch):
    weights = {"0": 0.5, "10": 0.5 + scale * WEIGHT_SUM_TOL}
    monkeypatch.setattr(
        qfock.cli, "machine_complexity",
        lambda machine, state: ComplexityEstimate(1.5, None, weights),
    )
    rep = run_json(capsys, ["complexity", "--machine", workdir / "m.qm", "--state", workdir / "s.qstr"])
    assert rep["checks"]["weights_sum_to_one"] is holds


@pytest.mark.parametrize(
    "fields, flag, holds",
    [
        *(({"weights": (0.5, 0.5 + scale * PROB_TOL)}, "weights_sum_to_one", holds)
          for scale, holds in TWO_SIDED),
        ({"raw_lengths": (1, 1)}, "raw_kraft_feasible", True),
        ({"raw_lengths": (1, 1, 60)}, "raw_kraft_feasible", False),
        ({"expected_normalized": 1.0}, "normalized_not_longer", True),
        ({"expected_normalized": math.nextafter(1.0, 2.0)}, "normalized_not_longer", False),
    ],
)
def test_multicopy_checks_flip_at_their_bounds(fields, flag, holds, capsys, monkeypatch):
    from qfock import experiments

    real = experiments.multicopy_report
    report = real(0.5, 1)  # weights (0.5, 0.5), raw lengths (1, 1), both expectations 1
    assert report.expected_raw == 1.0
    monkeypatch.setattr(
        experiments, "multicopy_report",
        lambda alpha2, n: dataclasses.replace(real(alpha2, n), **fields),
    )
    rep = run_json(capsys, ["multicopy", "--alpha2", "0.5", "--n", "1"])
    assert rep["checks"][flag] is holds


@pytest.mark.parametrize(
    "offset, holds",
    [(-2 * CEIL_SNAP, False), (-CEIL_SNAP / 2, True), (0.0, True),
     (1.0 - 2 * CEIL_SNAP, True), (1.0, False)],
)
@pytest.mark.parametrize("command", ["code", "sw"])
def test_sandwich_flag_reads_the_entropy_window(command, offset, holds, workdir, capsys, monkeypatch):
    # E = S + 1 exactly is outside the window for both commands
    if command == "code":
        monkeypatch.setattr(
            qfock.cli, "expected_length", lambda code, p: qfock.cli.shannon_entropy(p) + offset
        )
        argv = ["code", "--p", "0.5,0.25,0.25"]
    else:
        from qfock import qcode

        real = qcode.sw_report

        def sw_report(rho):
            code, report = real(rho)
            return code, dataclasses.replace(
                report, expected_avg_length=report.entropy + offset
            )

        monkeypatch.setattr(qcode, "sw_report", sw_report)
        argv = ["sw", "--rho", workdir / "dyadic.ens"]
    assert run_json(capsys, argv)["checks"]["sandwich"] is holds


@pytest.mark.parametrize("scale, holds", TWO_SIDED)
def test_paths_agree_flips_at_twice_roundoff_tol(scale, holds, workdir, capsys, monkeypatch):
    from qfock import experiments
    from qfock.experiments import ROUNDOFF_TOL

    def inequality_check(spec, rho, dims=None, *, mode):
        return 1.0 if mode == "product" else 1.0 + scale * ROUNDOFF_TOL

    monkeypatch.setattr(experiments, "inequality_check", inequality_check)
    rep = run_json(capsys, [
        "ineq", "--spec", "1=1;2=1", "--mode", "product",
        "--factor", workdir / "rho09.ens", "--factor", workdir / "dyadic.ens",
    ])
    assert rep["checks"]["paths_agree"] is holds


# --- formats, sinks, exit codes ---------------------------------------------------

def test_out_flag_writes_file(workdir, capsys):
    out = workdir / "report.json"
    code, stdout = run(
        capsys, ["avglen", "--state", workdir / "s.qstr", "--out", out]
    )
    assert code == 0 and stdout == ""
    assert json.loads(out.read_text())["result"]["average_length"] == 1.64


def test_text_format(workdir, capsys):
    code, out = run(
        capsys, ["avglen", "--state", workdir / "s.qstr", "--format", "text"]
    )
    assert code == 0
    assert "result.average_length = 1.64" in out
    assert out.startswith("tool_version = ")


def refuse_file_access(monkeypatch, workdir):
    """Make opening any file under ``workdir`` fail the test."""
    real_open = builtins.open

    def guarded_open(file, *args, **kwargs):
        path = os.path.abspath(os.fspath(file))
        assert not path.startswith(str(workdir)), f"opened {path}"
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", guarded_open)


# Valid invocations of the subcommands that have no csv table; the ones
# with --out-state or --out-ens would write a file if they ran.
NO_TABLE_ARGV = [
    ["avglen", "--state", "s.qstr"],
    ["baselen", "--state", "s.qstr"],
    ["pair", "--x", "110", "--y", "1000"],
    ["selfdelim", "--state", "s.qstr", "--out-state", "o.qstr"],
    ["entropy", "--rho", "dyadic.ens"],
    ["shannon", "--p", "0.9,0.1"],
    ["code", "--p", "0.5,0.25,0.25"],
    ["kraft", "--lengths", "1,2,2"],
    ["sw", "--rho", "dyadic.ens"],
    ["encode", "--rho", "dyadic.ens", "--state", "s.qstr", "--out-state", "e.qstr"],
    ["complexity", "--machine", "m.qm", "--state", "s.qstr"],
    ["universal", "--machine", "m.qm", "--sd-identity", "4", "--state", "s.qstr"],
    ["kq", "--programs", "m.qm", "--state", "plus.qstr"],
    ["incompress", "--state", "s.qstr", "--state", "plus.qstr", "--sd-identity", "2"],
    ["nonadd", "--mblock", "8"],
    ["sandwich", "--ensemble", "dyadic.ens"],
    ["ineq", "--spec", "1=1", "--mode", "product", "--factor", "rho09.ens"],
    ["randrho", "--dim", "4", "--out-ens", "r.ens"],
]


@pytest.mark.parametrize("argv", NO_TABLE_ARGV, ids=lambda argv: argv[0])
def test_csv_rejected_for_non_sweep(argv, workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    before = sorted(os.listdir(workdir))
    refuse_file_access(monkeypatch, workdir)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", "report.json", "--format", "csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"qfock {argv[0]}: error: argument --format: invalid choice: 'csv'" in err
    assert sorted(os.listdir(workdir)) == before  # no state, ensemble or report


def test_csv_refusal_covers_every_command_without_a_table():
    from qfock.cli import _HANDLERS

    assert sorted(_HANDLERS) == sorted([a[0] for a in NO_TABLE_ARGV] + ["lossy", "multicopy"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lossy", "--rho", "missing.ens", "--n", "", "--delta", "0.1"],
         "no copy counts given"),
        (["lossy", "--rho", "bad.ens", "--n", "x", "--delta", "0.1"],
         "bad copy-count list 'x': invalid literal for int() with base 10: 'x'"),
        (["ineq", "--mode", "product", "--spec", "1=1;3=1",
          "--factor", "rho09.ens", "--factor", "missing.ens"],
         "subset [3] outside 1..2"),
        (["ineq", "--spec", "1=1", "--rho", "missing.ens", "--dims", "2,x"],
         "bad dimension list '2,x': invalid literal for int() with base 10: 'x'"),
        (["universal", "--state", "missing.qstr"],
         "no machines given; use --machine, --identity or --sd-identity"),
        (["incompress", "--state", "missing.qstr"],
         "no machines given; use --machine, --identity or --sd-identity"),
        (["randrho", "--dim", "4", "--seed", "-1", "--out-ens", "r.ens"],
         "randrho needs a non-negative --seed, got -1"),
    ],
    ids=["lossy-missing", "lossy-malformed", "ineq-product", "ineq-joint",
         "universal", "incompress", "randrho"],
)
def test_usage_errors_come_before_any_file_is_read(argv, message, workdir, capsys, monkeypatch):
    (workdir / "bad.ens").write_text("zz 1 0\n")
    monkeypatch.chdir(workdir)
    before = sorted(os.listdir(workdir))
    refuse_file_access(monkeypatch, workdir)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", "report.json"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"qfock: usage error: {message}\n"
    assert sorted(os.listdir(workdir)) == before


def test_exit_1_domain_error(workdir, capsys):
    (workdir / "unnorm.qstr").write_text("0 0.5 0.0\n")
    code, out = run(capsys, ["avglen", "--state", workdir / "unnorm.qstr"])
    assert code == 1
    record = json.loads(out)
    assert record["error"]["type"] == "NotNormalizedError"


def test_exit_2_usage(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["pair", "--x", "110"])  # missing --y
    assert exc.value.code == 2


def test_exit_3_missing_file(workdir, capsys):
    code, _ = run(capsys, ["avglen", "--state", workdir / "nope.qstr"])
    assert code == 3


def test_exit_4_malformed_input(workdir, capsys):
    (workdir / "bad.qstr").write_text("zz 1 0\n")
    code, out = run(capsys, ["avglen", "--state", workdir / "bad.qstr"])
    assert code == 4
    assert json.loads(out)["error"]["type"] == "FormatError"


@pytest.mark.parametrize(
    "command, name, text, message",
    [
        ("entropy", "r.ens", "# refs\n0.5 bad.qstr\n0.5 { 1:1,0 }\n",
         "line 2: {dir}/bad.qstr: line 1: bad bitstring token 'zz'"),
        ("entropy", "r.ens", "1.0 { :1,0 }\n", "line 1: bad bitstring token ''"),
        ("complexity", "r.qm", "prefix: true\n\n0 -> bad.qstr\n",
         "line 3: {dir}/bad.qstr: line 1: bad bitstring token 'zz'"),
        ("complexity", "r.qm", "prefix: false\n -> { 0:1,0 }\n",
         "line 2: bad program token ''"),
    ],
    ids=["ens-path", "ens-inline", "qm-path", "qm-empty-program"],
)
def test_format_errors_name_the_file_and_line(
    command, name, text, message, workdir, capsys
):
    (workdir / "bad.qstr").write_text("zz 1 0\n")
    (workdir / name).write_text(text)
    flag = "--rho" if command == "entropy" else "--machine"
    extra = [] if command == "entropy" else ["--state", workdir / "s.qstr"]
    code, out = run(capsys, [command, flag, workdir / name, *extra])
    assert code == 4
    error = json.loads(out)["error"]
    assert error == {"type": "FormatError", "message": message.format(dir=workdir)}


def test_help_for_every_subcommand(capsys):
    from qfock.cli import _HANDLERS

    for name in _HANDLERS:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert name in capsys.readouterr().out


def test_readme_lists_the_subcommands_and_their_formats():
    from qfock.cli import _HANDLERS, build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    assert block.split() == list(_HANDLERS)

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    formats = {
        name: next(a for a in p._actions if a.dest == "format").choices
        for name, p in sub.choices.items()
    }
    assert list(formats) == list(_HANDLERS)
    assert [name for name, choices in formats.items() if "csv" in choices] == [
        "lossy", "multicopy",
    ]
    assert all(set(choices) >= {"json", "text"} for choices in formats.values())


def test_reports_are_deterministic(workdir, capsys):
    argv = ["sw", "--rho", workdir / "dyadic.ens"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


# --- the file edge: every input read once, digested as parsed ---------------------

def sha(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("e.ens", "0.5 sub.qstr\n0.5 { 1:1,0 }\n", ["entropy", "--rho", "d/e.ens"]),
        ("m.qm", "prefix: true\n0 -> { 0:1,0 }\n10 -> sub.qstr\n",
         ["complexity", "--machine", "d/m.qm", "--state", "s.qstr"]),
    ],
    ids=["ens", "qm"],
)
def test_referenced_states_are_inputs(name, text, argv, workdir, capsys, monkeypatch):
    (workdir / "d").mkdir()
    (workdir / "d" / "sub.qstr").write_bytes(b"# referenced\n11 1.0 0.0\n")
    (workdir / "d" / name).write_text(text)
    monkeypatch.chdir(workdir)
    rep = run_json(capsys, argv)
    named = argv[2::2]  # the files named on the command line
    want = {p: sha((workdir / p).read_bytes()) for p in named}
    # keyed by the path as opened: next to the referencing file
    want[os.path.join("d", "sub.qstr")] = sha(b"# referenced\n11 1.0 0.0\n")
    assert rep["inputs"] == want


@pytest.mark.parametrize(
    "argv, message",
    [
        (["avglen", "--state", "bad8.qstr"],
         "bad8.qstr: not UTF-8: byte 21: invalid start byte"),
        (["entropy", "--rho", "bad8.ens"],
         "bad8.ens: not UTF-8: byte 14: invalid continuation byte"),
        (["entropy", "--rho", "ref.ens"],
         "line 1: ./bad8.qstr: not UTF-8: byte 21: invalid start byte"),
        (["complexity", "--machine", "ref.qm", "--state", "s.qstr"],
         "line 2: ./bad8.qstr: not UTF-8: byte 21: invalid start byte"),
    ],
    ids=["qstr", "ens", "ens-ref", "qm-ref"],
)
def test_non_utf8_input_is_a_format_error(argv, message, workdir, capsys, monkeypatch):
    (workdir / "bad8.qstr").write_bytes(b"0 0.6 0.0\n11 0.8 0.0 \xff\n")
    (workdir / "bad8.ens").write_bytes(b"1.0 { 0:1,0 } \xe9\n")
    (workdir / "ref.ens").write_text("1.0 bad8.qstr\n")
    (workdir / "ref.qm").write_text("prefix: true\n0 -> bad8.qstr\n")
    monkeypatch.chdir(workdir)
    code, out = run(capsys, argv)
    assert code == 4
    assert json.loads(out)["error"] == {"type": "FormatError", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        ["avglen", "--state", "s.qstr"],
        ["entropy", "--rho", "r.ens"],
        ["encode", "--rho", "dyadic.ens", "--state", "s.qstr", "--out-state", "x.qstr"],
        ["lossy", "--rho", "rho09.ens", "--n", "10,20", "--delta", "0.1"],
        ["complexity", "--machine", "r.qm", "--state", "plus.qstr"],
        ["universal", "--machine", "m.qm", "--sd-identity", "3", "--state", "s.qstr"],
        ["kq", "--programs", "m.qm", "--state", "plus.qstr"],
        ["incompress", "--state", "s.qstr", "--state", "plus.qstr", "--machine", "r.qm",
         "--sd-identity", "2"],
        ["sandwich", "--ensemble", "r.ens", "--machine", "m.qm"],
        ["ineq", "--spec", "1=1;2=1", "--mode", "product", "--factor", "rho09.ens",
         "--factor", "r.ens"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_input_file_is_opened_once(argv, workdir, capsys, monkeypatch):
    (workdir / "sub.qstr").write_text("1 1.0 0.0\n")
    (workdir / "r.ens").write_text("0.5 sub.qstr\n0.5 { 0:1,0 }\n")
    (workdir / "r.qm").write_text("prefix: false\n0 -> sub.qstr\n1 -> { 0:1,0 }\n")
    monkeypatch.chdir(workdir)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.path.normpath(os.fspath(file)))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main([*argv, "--out", "report.json"]) == 0
    rep = json.loads((workdir / "report.json").read_text())
    written = {"report.json", "x.qstr"}
    reads = [p for p in opened if p not in written and (workdir / p).is_file()]
    assert sorted(reads) == sorted(set(reads))  # none opened twice
    assert {os.path.normpath(p) for p in rep["inputs"]} == set(reads)
    for path, digest in rep["inputs"].items():
        assert digest == sha((workdir / path).read_bytes())


@pytest.mark.parametrize(
    "files, argv",
    [
        ({"a.qstr": "# lf or crlf\n0 0.6 0.0\n\n11 0.8 0.0\n"}, ["avglen", "--state", "a.qstr"]),
        ({"a.ens": "0.5 { 0:1,0 }\n# ref\n0.5 a.qstr\n", "a.qstr": "1 1.0 0.0\n"},
         ["entropy", "--rho", "a.ens"]),
        ({"a.qm": "prefix: true\n0 -> { 0:1,0 }\n\n10 -> a.qstr\n", "a.qstr": "11 1.0 0.0\n"},
         ["complexity", "--machine", "a.qm", "--state", "s.qstr"]),
    ],
    ids=["qstr", "ens", "qm"],
)
def test_crlf_files_parse_as_lf(files, argv, workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    results = []
    for eol in ("\n", "\r\n"):
        for name, text in files.items():
            (workdir / name).write_bytes(text.replace("\n", eol).encode())
        results.append(run_json(capsys, argv)["result"])
    assert results[0] == results[1]


# --- the criterion-10 invocations, listed twice --------------------------------------

REPO = Path(__file__).resolve().parents[1]


def _criterion_10_invocations() -> list[tuple[str, ...]]:
    """The argv lists of criterion 10, each path variable as the file name
    it writes (``s = tmp_path / "s.qstr"`` reads ``s.qstr``)."""
    tree = ast.parse((REPO / "tests" / "test_acceptance.py").read_text())
    test = next(
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == "test_criterion_10_cli_determinism"
    )
    names, invocations = {}, None
    for node in test.body:
        if not (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)):
            continue
        target, value = node.targets[0].id, node.value
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Div):
            names[target] = ast.literal_eval(value.right)
        elif target == "invocations":
            invocations = value
    return [
        tuple(names[t.id] if isinstance(t, ast.Name) else ast.literal_eval(t) for t in argv.elts)
        for argv in invocations.elts
    ]


def _bench_invocations() -> list[tuple[str, ...]]:
    tree = ast.parse((REPO / "bench" / "workloads" / "cli.py").read_text())
    value = next(
        n.value for n in tree.body
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "INVOCATIONS"
    )
    return [tuple(argv) for argv in ast.literal_eval(value)]


def test_criterion_10_and_the_cli_benchmark_run_the_same_invocations():
    # The acceptance test and bench/workloads/cli.py each list the 22
    # invocations; a change to one list must be made in the other too.
    acceptance = _criterion_10_invocations()
    assert len(acceptance) == 22
    assert acceptance == _bench_invocations()


CRITERION_10_FILES = {
    "s.qstr": "0 0.6 0.0\n11 0.8 0.0\n",
    "plus.qstr": PLUS,
    "rho.ens": "0.9 { 0:1,0 }\n0.1 { 1:1,0 }\n",
    "dyadic.ens": "0.5 { 0:1,0 }\n0.25 { 10:1,0 }\n0.25 { 11:1,0 }\n",
    "bell.ens": "1.0 { 00:0.70710678118654752,0 ; 11:0.70710678118654752,0 }\n",
    "m.qm": "prefix: true\n0 -> { 0:1,0 }\n10 -> { 11:1,0 }\n",
}

# The checks of each criterion-10 invocation, in the order of the list.
CRITERION_10_CHECKS = [
    ("avglen", set()),
    ("baselen", set()),
    ("pair", {"roundtrip"}),
    ("selfdelim", {"length_law"}),
    ("entropy", {"psd"}),
    ("shannon", set()),
    ("code", {"kraft_feasible", "sandwich"}),
    ("kraft", {"feasible"}),
    ("sw", {"kraft_feasible", "sandwich"}),
    ("encode", set()),
    ("lossy", {"all_success_le_one"}),
    ("lossy", {"all_success_le_one"}),
    ("complexity", {"weights_sum_to_one"}),
    ("universal", set()),
    ("kq", set()),
    ("incompress", {"bound_respected"}),
    ("multicopy", {"weights_sum_to_one", "raw_kraft_feasible", "normalized_not_longer"}),
    ("multicopy", {"weights_sum_to_one", "raw_kraft_feasible", "normalized_not_longer"}),
    ("nonadd", {"concentrated_gap_exceeds_k", "diluted_gap_exceeds_k"}),
    ("sandwich", {"lower", "upper"}),
    ("ineq", set()),
    ("randrho", {"trace_one"}),
]


@pytest.mark.parametrize(
    "k", range(len(CRITERION_10_CHECKS)),
    ids=[f"{k}-{name}" for k, (name, _) in enumerate(CRITERION_10_CHECKS)],
)
def test_criterion_10_checks_are_pinned(k, tmp_path, capsys, monkeypatch):
    # Every flag of every criterion-10 invocation, by name, and each one
    # true on these inputs.  A csv table carries no checks, so a csv
    # invocation is read as JSON.
    invocations = _criterion_10_invocations()
    assert len(invocations) == len(CRITERION_10_CHECKS)
    name, keys = CRITERION_10_CHECKS[k]
    argv = list(invocations[k])
    assert argv[0] == name
    if argv[-2:] == ["--format", "csv"]:
        argv = argv[:-2]
    for file_name, text in CRITERION_10_FILES.items():
        (tmp_path / file_name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run_json(capsys, argv)["checks"] == dict.fromkeys(keys, True)
