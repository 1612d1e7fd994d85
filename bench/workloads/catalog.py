"""``catalog``: description lengths over machine catalogs
(``complexity``, ``experiments``).

Set-up builds ``identity_machine(L)`` and its ``self_delimit_machine``
(L = 16), writes four ``.qm`` machines whose outputs are superposed
(orthonormal columns of a seeded random unitary over 3- or 4-bit
strings, on prefix-free programs of 1..3 bits) and reads them back.
The plain catalog is ``[identity, self-delimited identity, *qm]``; the
prefix catalog drops the identity.  One round, in a seeded order:

* 600 ``universal_complexity`` queries on the plain catalog: two thirds
  on random states of 1..4 terms up to L bits, one third on
  superpositions of one machine's outputs (the costlier kind, kept
  away from the median);
* 24 ``incompressibility_report`` on orthonormal families (machine
  outputs, or random unitary columns), alternating the two catalogs;
* 12 ``nonadditivity_search`` on the prefix catalog, blocks of 4..8 bits;
* 12 ``entropy_sandwich_report`` on 2..4 member ensembles, each with a
  catalog headed by the lossless-code machine of its density.
"""

from __future__ import annotations

import os
import resource

import numpy as np
from qfock import complexity, experiments, qcode
from qfock.fock import QString
from qfock.linalg import Ensemble, density_from_ensemble

import oracles as orc
from workloads import Base, Op

MAX_LEN = 16
QM_MACHINES = 4
COUNTS = {"universal": 600, "incompress": 24, "nonadd": 12, "sandwich": 12}


def _unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _unitary(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _prefix_free_words(rng, count: int) -> list[str]:
    """Leaves of a random binary tree with ``count`` leaves."""
    words = [""]
    while len(words) < count:
        leaf = words.pop(int(rng.integers(len(words))))
        words += [leaf + "0", leaf + "1"]
    return sorted(words)


def _terms(labels, amps) -> dict:
    return {b: complex(a) for b, a in zip(labels, amps)}


def _inline(terms: dict) -> str:
    return "{ " + " ; ".join(f"{b}:{a.real!r},{a.imag!r}" for b, a in terms.items()) + " }"


def _max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload(Base):
    entries = (
        ("complexity", complexity.identity_machine),
        ("complexity", complexity.self_delimit_machine),
        ("complexity", complexity.read_machine_file),
        ("complexity", complexity.machine_from_code),
        ("complexity", complexity.universal_complexity),
        ("qcode", qcode.sw_lossless_code),
        ("experiments", experiments.incompressibility_report),
        ("experiments", experiments.nonadditivity_search),
        ("experiments", experiments.entropy_sandwich_report),
    )

    def setup(self, api) -> None:
        # Shapes (widths, sizes, lengths, blocks) come from a fixed
        # generator and contents from the seed, so every seed does the
        # same amount of work.
        size = np.random.default_rng(0)
        rng = np.random.default_rng(self.seed)
        max_len = 8 if self.small else MAX_LEN
        tables = []  # oracle view of each .qm machine: program -> terms
        machines = []
        for j in range(QM_MACHINES):
            width = 3 + j % 2
            labels = [format(i, f"0{width}b") for i in range(1 << width)]
            programs = _prefix_free_words(size, int(size.integers(2, 5)))
            u = _unitary(rng, 1 << width)
            table = {p: _terms(labels, u[:, k]) for k, p in enumerate(programs)}
            path = os.path.join(self.workdir, f"m{j}.qm")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("prefix: true\n")
                fh.writelines(f"{p} -> {_inline(t)}\n" for p, t in table.items())
            machines.append(api.read_machine_file(path))
            tables.append(("table", table))
        identity = api.identity_machine(max_len)
        sd = api.self_delimit_machine(identity)
        self.extras["complexity.rss_after_build_mib"] = _max_rss_mib()
        self.plain = (complexity.MachineCatalog([identity, sd, *machines]),
                      [("identity", max_len), ("sd-identity", max_len), *tables])
        self.prefix = (complexity.MachineCatalog([sd, *machines]),
                       [("sd-identity", max_len), *tables])

        scale = 20 if self.small else 1
        ops = []
        for _ in range(COUNTS["universal"] // scale):
            if len(ops) % 3:
                pool = sorted({format(int(rng.integers(1 << n)), f"0{n}b") if n else ""
                               for n in size.integers(0, max_len + 1, size=4)})
                labels = pool[: int(size.integers(1, len(pool) + 1))]
                terms = _terms(labels, _unit(rng, len(labels)))
            else:
                _, table = tables[int(size.integers(QM_MACHINES))]
                outs = list(table.values())
                pick = rng.permutation(len(outs))[: int(size.integers(1, len(outs) + 1))]
                c = _unit(rng, len(pick))
                labels = list(outs[0])
                terms = _terms(labels, sum(ck * np.array([outs[k][b] for b in labels])
                                           for ck, k in zip(c, pick)))
            ops.append(Op("universal", (QString(terms), terms)))
        for t in range(max(2, COUNTS["incompress"] // scale)):
            if t % 2:
                _, table = tables[int(size.integers(QM_MACHINES))]
                family = list(table.values())
            else:
                width = int(size.integers(1, 4))
                labels = [format(i, f"0{width}b") for i in range(1 << width)]
                u = _unitary(rng, 1 << width)
                family = [_terms(labels, u[:, k])
                          for k in range(int(size.integers(2, (1 << width) + 1)))]
            cat = self.prefix if t % 4 < 2 else self.plain
            ops.append(Op("incompress", ([QString(f) for f in family], family, cat)))
        for _ in range(max(1, COUNTS["nonadd"] // scale)):
            m_block = int(size.integers(4, min(8, max_len - 1) + 1))
            k = float(rng.choice([0.5, 1.0, 2.0]))
            ops.append(Op("nonadd", (m_block, k)))
        for t in range(max(1, COUNTS["sandwich"] // scale)):
            members = self._sandwich_members(size, rng, tables, t)
            ens = Ensemble([(p, QString(s)) for p, s in members])
            code_machine = api.machine_from_code(api.sw_lossless_code(density_from_ensemble(ens)))
            table = {p: dict(code_machine.output(p).items()) for p in code_machine.programs}
            cat = (complexity.MachineCatalog([code_machine, *self.prefix[0].machines]),
                   [("table", table), *self.prefix[1]])
            ops.append(Op("sandwich", (ens, members, cat)))
        order = rng.permutation(len(ops))
        self.ops = [ops[k] for k in order]
        self._want: dict[int, object] = {}

    @staticmethod
    def _sandwich_members(size, rng, tables, t: int):
        """Machine outputs (orthonormal) or short basis strings, random weights."""
        if t % 2:
            _, table = tables[int(size.integers(QM_MACHINES))]
            states = list(table.values())
        else:
            words = sorted({format(int(rng.integers(1 << n)), f"0{n}b")
                            for n in size.integers(1, 4, size=4)})
            states = [{w: 1.0 + 0j} for w in words]
        weights = rng.integers(1, 10, size=len(states))
        return [(float(w) / float(weights.sum()), s) for w, s in zip(weights, states)]

    def call(self, op: Op, api):
        kind, args = op
        if kind == "universal":
            return api.universal_complexity(self.plain[0], args[0])
        if kind == "incompress":
            return api.incompressibility_report(args[0], args[2][0])
        if kind == "nonadd":
            return api.nonadditivity_search(args[0], self.prefix[0], args[1])
        return api.entropy_sandwich_report(args[0], args[2][0])

    def check(self, i: int, op: Op, out) -> list[str]:
        if i not in self._want:
            self._want[i] = self.expect(op)
        return compare_report(op.kind, self._want[i], out)

    def expect(self, op: Op):
        """The oracle's values for one operation."""
        kind, args = op
        if kind == "universal":
            return orc.catalog_cost(self.plain[1], args[1])
        if kind == "incompress":
            family, oracle_machines = args[1], args[2][1]
            prefix = all(m[0] != "identity" for m in oracle_machines)
            entropy = orc.mixture_entropy([(1.0 / len(family), s) for s in family])
            bound = entropy if prefix else (entropy - 1.0) / 2.0
            per_state = [(orc.catalog_cost(oracle_machines, s), orc.bare_cost(oracle_machines, s))
                         for s in family]
            return entropy, prefix, bound, per_state
        if kind == "nonadd":
            return orc.nonadditivity(self.prefix[1], args[0], args[1])
        members, oracle_machines = args[1], args[2][1]
        entropy = orc.mixture_entropy(members)
        expected = sum(p * orc.catalog_cost(oracle_machines, s)[0] for p, s in members)
        return entropy, expected, orc.index_cost(len(oracle_machines))


def _cost_problems(label, value, index, want) -> list[str]:
    cost, best, gap = want
    problems = []
    if not orc.close(value, cost):
        problems.append(f"{label}: catalog value {value} != {cost}")
    if gap > 1e-6 and index != best:
        problems.append(f"{label}: machine {index} != cheapest {best}")
    return problems


def compare_report(kind: str, want, out) -> list[str]:
    if kind == "universal":
        return _cost_problems("universal", out.value, out.machine_index, want)
    if kind == "incompress":
        entropy, prefix, bound, per_state = want
        problems = []
        if not orc.close(out.entropy, entropy):
            problems.append(f"incompress entropy {out.entropy} != {entropy}")
        if out.all_prefix != prefix or not orc.close(out.applicable_bound, bound):
            problems.append(f"bound {out.applicable_bound} (prefix {out.all_prefix}) != {bound}")
        if len(out.per_state) != len(per_state):
            problems.append(f"{len(out.per_state)} members reported, {len(per_state)} given")
        for got, (cost, bare) in zip(out.per_state, per_state):
            problems += _cost_problems(f"member {got.state_id}", got.catalog_value,
                                       got.machine_index, cost)
            if not orc.close(got.description_length, bare):
                problems.append(f"member {got.state_id}: length {got.description_length} != {bare}")
        longest = max(b for _, b in per_state)
        if not orc.close(out.max_description_length, longest):
            problems.append(f"max description length {out.max_description_length} != {longest}")
        if longest < bound - 1e-6 or not out.verified:
            problems.append(f"incompressibility bound broken: {longest} < {bound}")
        return problems
    if kind == "nonadd":
        problems = []
        for key, value in want.items():
            got = getattr(out, key)
            ok = orc.close(got, value) if isinstance(value, float) else got == value
            if not ok:
                problems.append(f"nonadd {key}: {got} != {value}")
        return problems
    entropy, expected, overhead = want
    problems = []
    if not orc.close(out.entropy, entropy):
        problems.append(f"sandwich entropy {out.entropy} != {entropy}")
    if not orc.close(out.expected_complexity, expected):
        problems.append(f"sandwich E {out.expected_complexity} != {expected}")
    if out.overhead != overhead:
        problems.append(f"sandwich overhead {out.overhead} != {overhead}")
    if not entropy - orc.TOL <= expected <= entropy + 1 + overhead + orc.TOL:
        problems.append(f"sandwich S <= E <= S+1+c broken: {entropy}, {expected}, {overhead}")
    if not (out.lower_ok and out.upper_ok):
        problems.append("sandwich report flags a broken bound")
    return problems

