"""``strings``: bitstring encodings and classical codes (``fock``, ``codes``).

Pure Python objects, no numpy algebra, so ``check_bitstring`` runs on
every call.  One round, in a seeded order (sizes drawn once from a fixed
generator, contents from the seed):

* 1400 pair round trips, each string 0..300 bits;
* 300 sequence round trips of 1..6 strings of 0..80 bits;
* 200 ``self_delimit`` calls on states of 2..8 terms of 0..64 bits;
* 200 ``dump_qstring``/``load_qstring`` round trips of such states;
* 200 ``shannon_code`` calls on 2..24 probabilities ``w / sum(w)``
  with integer weights 1..1000;
* 100 ``kraft_sum_exact`` calls on 1..64 lengths of 0..40.
"""

from __future__ import annotations

import math
import random

from qfock import codes, fock

import oracles as orc
from workloads import Base, Op

COUNTS = {"pair": 1400, "seq": 300, "sdelim": 200, "qstr": 200, "shannon": 200, "kraft": 100}


def _bits(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b") if n else ""


def _terms(rng: random.Random, lengths) -> dict:
    """Distinct strings near the given lengths, with unit-norm complex amplitudes."""
    labels: set[str] = set()
    for n in lengths:
        while (bits := _bits(rng, n)) in labels:
            n += 1
        labels.add(bits)
    amps = [rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in labels]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return {b: a / norm for b, a in zip(sorted(labels), amps)}


class Workload(Base):
    entries = (
        ("fock", fock.pair_encode),
        ("fock", fock.pair_decode),
        ("fock", fock.sequence_encode),
        ("fock", fock.sequence_decode),
        ("fock", fock.self_delimit),
        ("fock", fock.dump_qstring),
        ("fock", fock.load_qstring),
        ("codes", codes.shannon_code),
        ("codes", codes.kraft_sum_exact),
    )

    def setup(self, api) -> None:
        # Sizes come from a fixed generator and contents from the seed,
        # so every seed does the same amount of work.
        size = random.Random(0)
        rng = random.Random(self.seed)
        scale = 20 if self.small else 1
        ops = []
        for kind, count in COUNTS.items():
            for _ in range(max(1, count // scale)):
                if kind == "pair":
                    args = (_bits(rng, size.randint(0, 300)), _bits(rng, size.randint(0, 300)))
                elif kind == "seq":
                    args = ([_bits(rng, size.randint(0, 80)) for _ in range(size.randint(1, 6))],)
                elif kind in ("sdelim", "qstr"):
                    terms = _terms(rng, [size.randint(0, 64) for _ in range(size.randint(2, 8))])
                    args = (terms, fock.QString(terms))
                elif kind == "shannon":
                    weights = [rng.randint(1, 1000) for _ in range(size.randint(2, 24))]
                    total = sum(weights)
                    args = (weights, [w / total for w in weights])
                else:
                    args = ([rng.randint(0, 40) for _ in range(size.randint(1, 64))],)
                ops.append(Op(kind, args))
        rng.shuffle(ops)
        self.ops = ops
        self._passed: dict[int, object] = {}

    def call(self, op: Op, api):
        kind, args = op
        if kind == "pair":
            z = api.pair_encode(*args)
            return z, api.pair_decode(z)
        if kind == "seq":
            z = api.sequence_encode(args[0])
            return z, api.sequence_decode(z, len(args[0]))
        if kind == "sdelim":
            return api.self_delimit(args[1])
        if kind == "qstr":
            text = api.dump_qstring(args[1])
            return text, api.load_qstring(text)
        if kind == "shannon":
            return api.shannon_code(args[1])
        return api.kraft_sum_exact(args[0])

    def check(self, i: int, op: Op, out) -> list[str]:
        # An output equal to one that already passed needs no second look.
        if i in self._passed and self._passed[i] == out:
            return []
        problems = check_output(op, out)
        if not problems:
            self._passed[i] = out
        return problems


def check_output(op: Op, out) -> list[str]:
    kind, args = op
    if kind == "pair":
        want = orc.pair_code(*args)
        return [] if out == (want, args) else [f"pair {args}: got {out}, want {want}"]
    if kind == "seq":
        items = args[0]
        want = orc.sequence_code(items)
        return [] if out == (want, items) else [f"sequence {items}: got {out}, want {want}"]
    if kind == "sdelim":
        terms = args[0]
        got = out.terms
        problems = [] if got == orc.delimited(terms) else ["self_delimit terms differ"]
        law = 2.0 * orc.mean_length(terms) + 1.0
        if not orc.close(orc.mean_length(got), law):
            problems.append(f"average length {orc.mean_length(got)} != 2*avg+1 = {law}")
        return problems
    if kind == "qstr":
        terms = args[0]
        text, back = out
        problems = [] if text == orc.qstr_text(terms) else ["dump_qstring text differs"]
        if back.terms != terms:
            problems.append("load_qstring(dump_qstring(q)) != q")
        return problems
    if kind == "shannon":
        return orc.check_shannon(args[0], out.table)
    want = orc.kraft_fraction(args[0])
    return [] if out == want else [f"kraft sum {out} != {want}"]

