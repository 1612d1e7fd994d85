import json

import pytest

import qfock.cli
import qfock.complexity
import qfock.linalg
import qfock.qcode
from qfock import load_ensemble
from qfock.cli import main

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


@pytest.fixture()
def eig_calls(monkeypatch):
    """Count eig_hermitian calls through every module that binds it.

    The CLI and ``experiments`` import it from ``linalg`` at call time.
    """
    calls = []
    real = qfock.linalg.eig_hermitian

    def counting(rho):
        calls.append(rho)
        return real(rho)

    for module in (qfock.linalg, qfock.qcode):
        monkeypatch.setattr(module, "eig_hermitian", counting)
    return calls


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


def test_csv_rejected_for_non_sweep(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["avglen", "--state", str(workdir / "s.qstr"), "--format", "csv"])
    assert exc.value.code == 2


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


def test_reports_are_deterministic(workdir, capsys):
    argv = ["sw", "--rho", workdir / "dyadic.ens"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second
