"""``cli``: the ``qfock`` command end to end.

One round runs the 22 criterion-10 invocations of the acceptance suite,
in a seeded order, each twice in a row (44 operations), each as its own
``python -m qfock.cli ... --out FILE`` process on the files set-up writes.  Set-up also starts the entry point
once (``--version``), so an unimportable program fails before timing.

Each report is checked against closed forms (average length 1.64, the
pair code ``11101101000``, dyadic entropy 1.5, universal cost 4.64, the
binomial tail for ``lossy`` ...) and against the previous report of the
same invocation byte for byte.  No stored copy of an output is used.

The traced run adds three probes: a bare interpreter start, the import
of ``qfock.cli`` above that floor, and ``cli.main(argv)`` in-process
per subcommand.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from functools import partial
from time import perf_counter

import numpy as np

import oracles as orc
from workloads import Base, Op

RT2 = "0.70710678118654752"
FILES = {
    "s.qstr": "0 0.6 0.0\n11 0.8 0.0\n",
    "plus.qstr": f"0 {RT2} 0.0\n1 {RT2} 0.0\n",
    "rho.ens": "0.9 { 0:1,0 }\n0.1 { 1:1,0 }\n",
    "dyadic.ens": "0.5 { 0:1,0 }\n0.25 { 10:1,0 }\n0.25 { 11:1,0 }\n",
    "bell.ens": f"1.0 {{ 00:{RT2},0 ; 11:{RT2},0 }}\n",
    "m.qm": "prefix: true\n0 -> { 0:1,0 }\n10 -> { 11:1,0 }\n",
}
INVOCATIONS = (
    ("avglen", "--state", "s.qstr"),
    ("baselen", "--state", "s.qstr"),
    ("pair", "--x", "110", "--y", "1000"),
    ("selfdelim", "--state", "s.qstr"),
    ("entropy", "--rho", "dyadic.ens"),
    ("shannon", "--p", "0.9,0.1"),
    ("code", "--p", "0.5,0.25,0.25"),
    ("kraft", "--lengths", "1,2,2"),
    ("sw", "--rho", "dyadic.ens"),
    ("encode", "--rho", "dyadic.ens", "--state", "s.qstr"),
    ("lossy", "--rho", "rho.ens", "--n", "10,20,40,60", "--delta", "0.1"),
    ("lossy", "--rho", "rho.ens", "--n", "10,20", "--delta", "0.1", "--format", "csv"),
    ("complexity", "--machine", "m.qm", "--state", "s.qstr"),
    ("universal", "--machine", "m.qm", "--sd-identity", "4", "--state", "s.qstr"),
    ("kq", "--programs", "m.qm", "--state", "plus.qstr"),
    ("incompress", "--state", "s.qstr", "--state", "plus.qstr", "--sd-identity", "2"),
    ("multicopy", "--alpha2", "0.5", "--n", "7"),
    ("multicopy", "--alpha2", "0.3", "--n", "5", "--format", "csv"),
    ("nonadd", "--mblock", "4"),
    ("sandwich", "--ensemble", "dyadic.ens"),
    ("ineq", "--spec", "1=1;2=1;1,2=-1", "--mode", "joint", "--rho", "bell.ens", "--dims", "2,2"),
    ("randrho", "--dim", "6", "--seed", "77"),
)
PROBE_REPEATS = 5


def invoke(argv, cwd):
    """Run ``python -m qfock.cli *argv`` in ``cwd``; return its exit code."""
    return subprocess.run(
        [sys.executable, "-m", "qfock.cli", *argv], cwd=cwd,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    ).returncode


def _spawn_ms(code: str, cwd: str) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=cwd, check=True)
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


class Workload(Base):
    entries = (("cli", invoke, lambda argv, cwd: argv[0]),)
    rss_of_children = True

    def setup(self, api) -> None:
        for name, text in FILES.items():
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        if invoke(["--version"], self.workdir) != 0:
            raise RuntimeError("python -m qfock.cli --version failed")
        picks = list(range(len(INVOCATIONS)))
        random.Random(self.seed).shuffle(picks)
        if self.small:
            picks = picks[:4]
        self.ops = [Op("invoke", (k, [*INVOCATIONS[k], "--out", f"out{k}-{rep}.txt"]))
                    for k in picks for rep in (0, 1)]
        self._expect = expectations(self.workdir)
        self._last: dict[int, bytes] = {}

    def call(self, op: Op, api):
        return api.invoke(op.args[1], self.workdir)

    def check(self, i: int, op: Op, out) -> list[str]:
        k, argv = op.args
        name = argv[0]
        if out != 0:
            return [f"{name}: exit code {out}"]
        with open(os.path.join(self.workdir, argv[-1]), "rb") as fh:
            data = fh.read()
        problems = []
        if k in self._last and self._last[k] != data:
            problems.append(f"{name}: report differs from the previous run")
        self._last[k] = data
        if "csv" in INVOCATIONS[k]:
            return problems + orc.compare(parse_csv(data.decode()), self._expect[k], name)
        return problems + orc.compare(json.loads(data), self._expect[k], name)

    def probe(self) -> None:
        """Interpreter floor, import cost, and in-process ``main`` per subcommand."""
        floor = _spawn_ms("pass", self.workdir)
        self.extras["cli.interpreter_ms"] = floor
        self.extras["cli.import_ms"] = _spawn_ms("import qfock.cli", self.workdir) - floor
        from qfock.cli import main

        here = os.getcwd()
        os.chdir(self.workdir)
        times: dict[str, list[float]] = {}
        try:
            for argv in INVOCATIONS:  # warm pass
                main([*argv, "--out", "probe.txt"])
            for argv in INVOCATIONS:
                start = perf_counter()
                main([*argv, "--out", "probe.txt"])
                times.setdefault(argv[0], []).append((perf_counter() - start) * 1e3)
        finally:
            os.chdir(here)
        for sub, ms in times.items():
            self.extras[f"cli.main_ms.{sub}"] = statistics.fmean(ms)


def parse_csv(text: str) -> dict:
    lines = text.splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(ln for ln in lines if not ln.startswith("#")))))
    return {"header": header, "rows": [{k: json.loads(v) for k, v in r.items()} for r in rows]}


VERSION = orc.Match("a version string", lambda v: isinstance(v, str) and bool(v))
CSV_HEADER = [orc.Match("a '# tool_version=' line",
                        lambda v: isinstance(v, str) and v.startswith("# tool_version=")),
              "# seed=0"]


def envelope(workdir: str, inputs, result: dict, checks: dict, seed: int = 0) -> dict:
    return {
        "tool_version": VERSION,
        "seed": seed,
        "inputs": {p: orc.sha256_of(os.path.join(workdir, p)) for p in inputs},
        "result": result,
        "checks": checks,
    }


def _h(probs) -> float:
    return -math.fsum(p * math.log2(p) for p in probs if p > 0)


def lossy_rows(ns) -> list[dict]:
    """Binomial-tail rows for diag(0.9, 0.1), delta 0.1."""
    h = _h([0.9, 0.1])
    rows = []
    for n in ns:
        budget = math.ceil(n * (h + 0.1) - 1e-12)
        success, dim = orc.lossy_binomial(0.9, n, budget)
        kept = sum(
            1 for i in range(n + 1)
            if orc.ceil_snapped(-(i * math.log2(0.9) + (n - i) * math.log2(0.1))) <= budget
        )
        rows.append({
            "budget": budget, "delta": 0.1, "entropy": h, "kept_classes": kept,
            "kept_dimension": dim, "n": n, "success": success,
            "total_classes": n + 1, "trivial": False,
        })
    return rows


def multicopy_rows(a: float, n: int) -> list[dict]:
    raw = [a**i * (1 - a) ** (n - i) for i in range(n + 1)]
    z = sum(raw)
    return [
        {"i": i, "weight": math.comb(n, i) * raw[i], "raw_length": orc.ceil_snapped(-math.log2(raw[i])),
         "normalized_length": orc.ceil_snapped(-math.log2(raw[i] / z))}
        for i in range(n + 1)
    ]


def _randrho(seed: int, dim: int) -> np.ndarray:
    """The documented recipe of ``randrho``: G G* / tr with complex normal G."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def expectations(workdir: str) -> dict:
    """Closed-form report of each invocation, by index into INVOCATIONS."""
    def env(inputs, result, checks=None, seed=0):
        return envelope(workdir, inputs, result, checks or {}, seed)

    r = 1.0 / math.sqrt(2.0)
    s = {"0": 0.6, "11": 0.8}
    plus = {"0": r, "1": r}
    avg = 0.36 * 1 + 0.64 * 2  # 1.64
    sd_avg = 2 * avg + 1  # self-delimited: 4.28
    dyadic_table = {"codewords": ["0", "10", "11"], "lengths": [1, 2, 2],
                    "table_text": "0 0\n1 10\n2 11\n"}
    mix = orc.mixture_entropy([(0.5, s), (0.5, plus)])
    h09 = _h([0.9, 0.1])
    rho77 = _randrho(77, 6)
    eig77 = [float(x) for x in orc.spectrum(rho77)]
    mc = multicopy_rows(0.5, 7)
    out = {
        0: env(["s.qstr"], {"average_length": avg, "terms": 2}),
        1: env(["s.qstr"], {"base_length": 2}),
        2: env([], {"encoded": orc.pair_code("110", "1000"), "length": 11}, {"roundtrip": True}),
        3: env(["s.qstr"], {"text": orc.qstr_text(orc.delimited({"0": 0.6 + 0j, "11": 0.8 + 0j})),
                            "average_length_in": avg, "average_length_out": sd_avg},
               {"length_law": True}),
        4: env(["dyadic.ens"], {"entropy": 1.5, "dim": 3, "eigenvalues": [0.5, 0.25, 0.25]},
               {"psd": True}),
        5: env([], {"entropy": h09}),
        6: env([], {**dyadic_table, "expected_length": 1.5, "entropy": 1.5},
               {"kraft_feasible": True, "sandwich": True}),
        7: env([], {"kraft_sum": 1.0, "count": 3}, {"feasible": True}),
        8: env(["dyadic.ens"], {**dyadic_table, "expected_avg_length": 1.5, "entropy": 1.5,
                                "kraft": 1.0, "per_member": [[0, 1.0], [1, 2.0], [2, 2.0]]},
               {"kraft_feasible": True, "sandwich": True}),
        9: env(["dyadic.ens", "s.qstr"], {"text": orc.Match("0.6|0> + 0.8|11> up to phases",
                                                              partial(same_moduli, s)),
                                          "average_length": avg, "input_average_length": avg}),
        10: env(["rho.ens"], {"delta": 0.1, "sweep": lossy_rows([10, 20, 40, 60])},
                {"all_success_le_one": True}),
        11: {"header": CSV_HEADER, "rows": lossy_rows([10, 20])},
        12: env(["m.qm", "s.qstr"], {"value": avg, "decomposition": {"0": 0.36, "10": 0.64}},
                {"weights_sum_to_one": True}),
        13: env(["m.qm", "s.qstr"], {"value": orc.index_cost(1) + avg, "machine_index": 1,
                                     "decomposition": {"0": 0.36, "10": 0.64}}),
        14: env(["m.qm", "plus.qstr"], {"value": 2}),
        15: env(["s.qstr", "plus.qstr"], {
            "member_count": 2, "entropy": mix, "prefix_bound": mix, "plain_bound": (mix - 1) / 2,
            "all_prefix": True, "applicable_bound": mix, "max_description_length": sd_avg,
            "per_state": [
                {"state_id": 0, "catalog_value": 3 + sd_avg, "machine_index": 1,
                 "description_length": sd_avg},
                {"state_id": 1, "catalog_value": 3 + 3.0, "machine_index": 1,
                 "description_length": 3.0},
            ]}, {"bound_respected": True}),
        16: env([], {"alpha2": 0.5, "n": 7, "z_norm": 8 / 128,
                     "weights": [row["weight"] for row in mc],
                     "raw_lengths": [row["raw_length"] for row in mc],
                     "normalized_lengths": [row["normalized_length"] for row in mc],
                     "expected_raw": 7.0, "expected_normalized": 3.0, "naive_length": 7},
                {"weights_sum_to_one": True, "raw_kraft_feasible": True,
                 "normalized_not_longer": True}),
        17: {"header": CSV_HEADER, "rows": multicopy_rows(0.3, 5)},
        18: env([], {"m_block": 4, "k": 1.0, "n_star": 16, "value_n": 3 + 2 * 5 + 1.0,
                     "value_phi_plus": 3 + 2 * 3 + 1.0, "value_phi_minus": 3 + 2 * 3 + 1.0,
                     "value_zero": 3 + 3.0, "phi_average": 10.0, "gap_concentrated": 4.0,
                     "gap_diluted": 4.0, "success_concentrated": True, "success_diluted": True},
                {"concentrated_gap_exceeds_k": True, "diluted_gap_exceeds_k": True}),
        19: env(["dyadic.ens"], {"entropy": 1.5, "expected_complexity": 4.5, "overhead": 3,
                                 "per_member": [
                                     {"probability": 0.5, "catalog_value": 4.0, "machine_index": 1},
                                     {"probability": 0.25, "catalog_value": 5.0, "machine_index": 1},
                                     {"probability": 0.25, "catalog_value": 5.0, "machine_index": 1},
                                 ]}, {"lower": True, "upper": True}),
        20: env(["bell.ens"], {"value": 2.0, "mode": "joint"}),
        21: env([], {"dim": 6, "entropy": orc.entropy_bits(eig77), "eigenvalues": eig77,
                     "ensemble_text": orc.Match("an ensemble mixing to the randrho density",
                                                 partial(mixes_to, rho77))}, {"trace_one": True}, seed=77),
    }
    return out


def mixes_to(m: np.ndarray, text) -> bool:
    """Whether an ensemble text (inline states on 3-bit labels) mixes to ``m``."""
    if not isinstance(text, str):
        return False
    got = np.zeros_like(m)
    labels = [format(i, "03b") for i in range(m.shape[0])]
    for line in text.splitlines():
        p, body = line.split(" ", 1)
        amps = orc.parse_inline(body)
        v = np.array([amps.get(b, 0j) for b in labels])
        got += float(p) * np.outer(v, v.conj())
    return float(np.max(np.abs(got - m))) <= 1e-8


def same_moduli(terms: dict, text) -> bool:
    """Whether a ``.qstr`` text has exactly these labels with these |amplitudes|.

    Phases of an encoded state follow the eigenvector phases the
    eigensolver picks, which any correct solver may choose differently.
    """
    if not isinstance(text, str):
        return False
    got = {}
    for line in text.splitlines():
        bits, re_part, im_part = line.split()
        got["" if bits == "eps" else bits] = abs(complex(float(re_part), float(im_part)))
    return got.keys() == terms.keys() and all(
        abs(got[b] - abs(a)) <= 1e-12 for b, a in terms.items())
