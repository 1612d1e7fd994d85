"""The benchmark's own checks: every oracle rejects a perturbed output,
and one reduced round of each workload passes with no failures.

    python3 -m pytest bench/tests
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from qfock import codes, fock

import oracles as orc
import worker
import workloads
from spans import Api, Tracer
from workloads import Op, cli, strings


def small_workload(name, tmp_path, seed=3):
    wl = workloads.load(name)(seed, str(tmp_path), small=True)
    api = Api(wl.entries)
    wl.setup(api)
    return wl, api


def first(wl, kind):
    return next((i, op) for i, op in enumerate(wl.ops) if op.kind == kind)


# --- one reduced round of each workload -------------------------------------

@pytest.mark.parametrize("name", workloads.NAMES)
def test_reduced_round_has_no_failures(name, tmp_path):
    wl, api = small_workload(name, tmp_path)
    phase = worker.summarize(worker.measure(wl, api, 0.0, min_rounds=2))
    assert phase["problems"] == []
    assert phase["failed"] == 0 and phase["attempted"] == 2 * len(wl.ops)
    assert phase["latency_p50_ms"] > 0 and phase["latency_tail_ms"] > 0


def test_traced_round_records_spans(tmp_path):
    wl = workloads.load("strings")(3, str(tmp_path), small=True)
    tracer = Tracer()
    api = Api(wl.entries, tracer)
    wl.setup(api)
    tracer.phase = "ops"
    phase = worker.measure(wl, api, 0.0, tracer, min_rounds=1)
    totals = tracer.phase_totals("ops")
    pairs = sum(op.kind == "pair" for op in wl.ops)
    assert totals["fock.pair_encode"][0] == pairs == totals["op.pair"][0]
    assert phase["failed"] == 0
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    span = json.loads(path.read_text().splitlines()[0])
    assert set(span) == {"name", "start", "end", "parent", "op"}


def test_a_wrong_program_output_is_counted(tmp_path):
    wl, api = small_workload("strings", tmp_path)
    api.pair_encode = lambda x, y: fock.pair_encode(x, y) + "0"
    phase = worker.measure(wl, api, 0.0, min_rounds=1)
    pairs = sum(op.kind == "pair" for op in wl.ops)
    assert phase["failed"] == phase["wrong"] == pairs
    assert phase["problems"]


def test_an_exception_is_a_failure_but_not_a_wrong_output(tmp_path):
    wl, api = small_workload("strings", tmp_path)

    def broken(p):
        raise ValueError("broken")

    api.shannon_code = broken
    phase = worker.measure(wl, api, 0.0, min_rounds=1)
    assert phase["failed"] == sum(op.kind == "shannon" for op in wl.ops)
    assert phase["wrong"] == 0


def test_latencies_are_per_operation_medians():
    lat = [[i, i, 50.0 + i] for i in range(100)]  # three rounds, the last one slow
    phase = worker.summarize({"latencies": lat, "attempted": 300, "rounds": 3,
                              "failed": 0, "busy_s": 1.5})
    assert phase["tail_percentile"] == 90.0
    assert phase["latency_tail_ms"] == 89e3
    assert phase["latency_p50_ms"] == 49.5e3
    assert phase["throughput_ops_s"] == 200.0


# --- strings ---------------------------------------------------------------

def test_strings_oracles_reject_perturbed_outputs():
    x, y = "110", "1000"
    z = fock.pair_encode(x, y)
    assert z == orc.pair_code(x, y) == "11101101000"
    op = Op("pair", (x, y))
    assert strings.check_output(op, (z, (x, y))) == []
    assert strings.check_output(op, (z + "1", (x, y)))
    assert strings.check_output(op, (z, (x, y + "0")))

    items = ["1", "", "0110"]
    op = Op("seq", (items,))
    good = fock.sequence_encode(items)
    assert strings.check_output(op, (good, items)) == []
    assert strings.check_output(op, ("0" + good, items))

    terms = {"": 0.6 + 0j, "101": 0.8j}
    q = fock.QString(terms)
    op = Op("sdelim", (terms, q))
    assert strings.check_output(op, fock.self_delimit(q)) == []
    assert strings.check_output(op, fock.QString({"0": 0.8j, "1110101": 0.6}))

    op = Op("qstr", (terms, q))
    text = fock.dump_qstring(q)
    assert text.startswith("eps ")
    assert strings.check_output(op, (text, fock.load_qstring(text))) == []
    assert strings.check_output(op, (text.replace("eps", "-"), q))

    weights = [5, 3, 1, 1]
    probs = [w / 10 for w in weights]
    code = codes.shannon_code(probs)
    assert orc.shannon_lengths(weights) == [1, 2, 4, 4]
    assert orc.check_shannon(weights, code.table) == []
    longer = {**code.table, 0: code.table[0] + "0"}
    assert orc.check_shannon(weights, longer)
    clash = {0: "0", 1: "01", 2: "1100", 3: "1101"}
    assert orc.check_shannon(weights, clash) == ["codewords are not prefix-free"]

    lengths = [1, 2, 3, 40]
    want = Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 8) + Fraction(1, 2**40)
    assert orc.kraft_fraction(lengths) == want == codes.kraft_sum_exact(lengths)
    op = Op("kraft", (lengths,))
    assert strings.check_output(op, want) == []
    assert strings.check_output(op, want + Fraction(1, 2**41))


# --- sources ---------------------------------------------------------------

def test_sources_oracles_reject_perturbed_outputs(tmp_path):
    wl, api = small_workload("sources", tmp_path)
    i, op = first(wl, "spectrum")
    out = wl.call(op, api)
    assert wl.check(i, op, out) == []
    rho, dec, s = out
    assert wl.check(i, op, (rho, dec, s + 1e-6))
    bumped = np.array(dec.eigenvalues) + np.array([1e-6] + [0.0] * (len(dec.eigenvalues) - 1))
    assert wl.check(i, op, (rho, dataclasses.replace(dec, eigenvalues=bumped), s))
    flipped = np.array(dec.eigenvectors)
    flipped[:, [0, 1]] = flipped[:, [1, 0]]
    assert wl.check(i, op, (rho, dataclasses.replace(dec, eigenvectors=flipped), s))

    i, op = first(wl, "code")
    code, report, encoded = wl.call(op, api)
    assert wl.check(i, op, (code, report, encoded)) == []
    high = dataclasses.replace(report, expected_avg_length=report.entropy + 1.0)
    assert wl.check(i, op, (code, high, encoded))
    assert wl.check(i, op, (code, report, fock.self_delimit(encoded)))


def test_lossy_oracles_reject_perturbed_reports(tmp_path):
    wl, api = small_workload("sources", tmp_path)
    lossy = [(i, op) for i, op in enumerate(wl.ops) if op.kind == "lossy"]
    assert {wl.lossy[op.args[0]][2] for _, op in lossy} == {20, 10, 8, 12}
    for i, op in lossy:
        rep = wl.call(op, api)
        assert wl.check(i, op, rep) == []
        for change in ({"success": rep.success * (1 - 1e-6)},
                       {"kept_dimension": rep.kept_dimension + 1},
                       {"total_classes": rep.total_classes + 1},
                       {"budget": rep.budget + 1}):
            assert wl.check(i, op, dataclasses.replace(rep, **change)), change
        if wl.lossy[op.args[0]][3] is None and len(wl.lossy[op.args[0]][1]) ** rep.n > 1 << 16:
            assert wl.check(i, op, dataclasses.replace(rep, kept_classes=rep.kept_classes + 1))


def test_lossy_oracles_agree_with_each_other():
    lams = [0.7, 0.3]
    for n in (4, 9, 16):
        budget = math.ceil(n * (orc.entropy_bits(lams) + 0.1))
        brute = orc.lossy_bruteforce(lams, n, budget)
        tail = orc.lossy_binomial(0.7, n, budget)
        types = orc.lossy_types(lams, n, budget)
        assert brute[1] == tail[1] == types[1]
        assert orc.close(brute[0], tail[0]) and orc.close(tail[0], types[0])
    assert orc.close(orc.lossy_binomial(0.9, 10, 6)[0], 0.9**10 + 10 * 0.9**9 * 0.1)


# --- catalog ---------------------------------------------------------------

def test_catalog_oracles_reject_perturbed_reports(tmp_path):
    wl, api = small_workload("catalog", tmp_path)
    for kind, field, delta in (("universal", "value", 0.5),
                               ("incompress", "entropy", 1e-6),
                               ("incompress", "max_description_length", 0.25),
                               ("nonadd", "n_star", 1),
                               ("nonadd", "value_zero", 1.0),
                               ("sandwich", "expected_complexity", 1e-6),
                               ("sandwich", "overhead", 2)):
        i, op = first(wl, kind)
        out = wl.call(op, api)
        assert wl.check(i, op, out) == [], kind
        bad = dataclasses.replace(out, **{field: getattr(out, field) + delta})
        assert wl.check(i, op, bad), (kind, field)


def test_catalog_closed_forms():
    state = {"0": 0.6, "11": 0.8}
    assert orc.close(orc.identity_value(state, 4, False), 1.64)
    assert orc.close(orc.identity_value(state, 4, True), 2 * 1.64 + 1)
    assert orc.identity_value(state, 1, False) is None
    machine = ("table", {"0": {"0": 1.0}, "10": {"11": 1.0}})
    cost, index, _ = orc.catalog_cost([machine, ("sd-identity", 4)], state)
    assert orc.close(cost, 4.64) and index == 1
    assert orc.projected_value({"0": {"0": 1.0}}, state) is None
    assert [orc.index_cost(i) for i in (1, 2, 3, 4)] == [3, 5, 5, 7]


# --- cli -------------------------------------------------------------------

def test_cli_closed_forms_reject_perturbed_reports(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in cli.FILES.items():
        (tmp_path / name).write_text(text)
    want = cli.expectations(str(tmp_path))
    from qfock.cli import main

    for k, argv in enumerate(cli.INVOCATIONS):
        out = tmp_path / f"out{k}.txt"
        assert main([*argv, "--out", str(out)]) == 0
        text = out.read_text()
        got = cli.parse_csv(text) if "csv" in argv else json.loads(text)
        assert orc.compare(got, want[k], argv[0]) == [], argv
    report = json.loads((tmp_path / "out0.txt").read_text())
    report["result"]["average_length"] = 1.65
    assert orc.compare(report, want[0])
    report = json.loads((tmp_path / "out2.txt").read_text())
    assert report["result"]["encoded"] == "11101101000"
    report["result"]["encoded"] = "11101101001"
    assert orc.compare(report, want[2])
    report = json.loads((tmp_path / "out13.txt").read_text())
    assert orc.close(report["result"]["value"], 4.64)
    report["inputs"]["s.qstr"] = "sha256:" + "0" * 64
    assert orc.compare(report, want[13])
    report = json.loads((tmp_path / "out9.txt").read_text())
    report["result"]["text"] = "0 0.8 0.0\n11 0.6 0.0\n"
    assert orc.compare(report, want[9])


def test_cli_repeat_must_be_byte_identical(tmp_path):
    wl, api = small_workload("cli", tmp_path)
    i, op = 0, wl.ops[0]
    assert wl.call(op, api) == 0
    assert wl.check(i, op, 0) == []
    path = tmp_path / op.args[1][-1]
    path.write_bytes(path.read_bytes() + b" ")
    assert "differs from the previous run" in wl.check(i, op, 0)[0]
    assert wl.check(i, op, 3) == [f"{op.args[1][0]}: exit code 3"]
