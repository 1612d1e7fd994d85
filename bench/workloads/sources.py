"""``sources``: density operators and source codes (``linalg``, ``qcode``).

Set-up draws Ginibre densities ``G G* / tr(G G*)`` and writes each as
an ensemble text: the normalized columns of ``G`` weighted by their
squared norms.  One round, in a seeded order:

* per density (16 at d=4, 6 at d=8, 3 at d=16, 3 at d=32), a
  ``spectrum`` operation (``load_ensemble``, ``density_from_ensemble``,
  ``eig_hermitian``, ``von_neumann_entropy``) and a ``code`` operation
  (``sw_report``, then ``encode_qstring`` of a random state);
* ``lossy`` operations, ``lossy_typical_projection`` at small d and
  moderate n, each config in ``LOSSY`` on its own seeded source.
  ``q`` marks a diagonal qubit source ``diag(p, 1 - p)``; the others
  are Ginibre densities.

The counts keep eigen work and type-class enumeration each above a
third of the round at the parent commit, and put the median inside the
``5x16`` lossy group and the tail on the d=16 operations (see the
README).
"""

from __future__ import annotations

import math

import numpy as np
from qfock import linalg, qcode
from qfock.fock import QString

import oracles as orc
from workloads import Base, Op

DENSITIES = ((4, 16), (8, 6), (16, 3), (32, 3))
DELTA = 0.1
# (d, n, count); "q" is a diagonal qubit source.
LOSSY = (
    ("q", 20, 2), ("q", 40, 2), ("q", 60, 2),
    (2, 16, 2), (3, 10, 2), (4, 8, 2),
    (3, 40, 4), (4, 24, 8), (5, 16, 30), (6, 12, 40),
)


def lossy_tag(d, n) -> str:
    """Span and metric suffix of a lossy config: ``<dim>x<n>``."""
    return f"{2 if d == 'q' else d}x{n}"


def _labels(d: int) -> list[str]:
    width = max(1, (d - 1).bit_length())
    return [format(i, f"0{width}b") for i in range(d)]


def _ginibre_ensemble(rng, d: int):
    """(unit columns, weights, ensemble text) for ``G G* / tr``."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    norms = np.linalg.norm(g, axis=0)
    cols = g / norms
    probs = norms**2 / np.sum(norms**2)
    labels = _labels(d)
    lines = []
    for k in range(d):
        body = " ; ".join(
            f"{b}:{float(cols[i, k].real)!r},{float(cols[i, k].imag)!r}"
            for i, b in enumerate(labels)
        )
        lines.append(f"{float(probs[k])!r} {{ {body} }}")
    return cols, [float(p) for p in probs], "\n".join(lines) + "\n"


class Workload(Base):
    entries = (
        ("linalg", linalg.load_ensemble),
        ("linalg", linalg.density_from_ensemble),
        ("linalg", linalg.eig_hermitian, lambda rho: f"d{rho.dim}"),
        ("linalg", linalg.von_neumann_entropy),
        ("qcode", qcode.sw_report),
        ("qcode", qcode.encode_qstring),
        ("qcode", qcode.lossy_typical_projection, lambda rho, n, delta: lossy_tag(rho.dim, n)),
    )

    def setup(self, api) -> None:
        rng = np.random.default_rng(self.seed)
        self.sources = []  # (text, oracle density, rho, vector of the state to encode)
        ops = []
        densities = ((4, 2), (8, 1)) if self.small else DENSITIES
        for d, count in densities:
            for _ in range(count):
                cols, probs, text = _ginibre_ensemble(rng, d)
                rho = api.density_from_ensemble(api.load_ensemble(text))
                v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                v /= np.linalg.norm(v)
                state = QString({b: complex(a) for b, a in zip(_labels(d), v)})
                idx = len(self.sources)
                self.sources.append((text, orc.density(cols, probs), rho, v))
                ops += [Op("spectrum", (idx,)), Op("code", (idx, state))]
        self.lossy = []  # (rho, oracle spectrum, n, diagonal p or None)
        lossy = (("q", 20, 1), (3, 10, 1), (4, 8, 1), (4, 12, 1)) if self.small else LOSSY
        for d, n, count in lossy:
            for _ in range(count):
                if d == "q":
                    p = float(rng.uniform(0.55, 0.95))
                    text = f"{p!r} {{ 0:1,0 }}\n{1.0 - p!r} {{ 1:1,0 }}\n"
                    m = np.diag([p, 1.0 - p]).astype(complex)
                else:
                    p = None
                    cols, probs, text = _ginibre_ensemble(rng, d)
                    m = orc.density(cols, probs)
                rho = api.density_from_ensemble(api.load_ensemble(text))
                ops.append(Op("lossy", (len(self.lossy), n)))
                self.lossy.append((rho, orc.spectrum(m), n, p))
        self.extras["qcode.lossy_classes_per_round"] = sum(
            math.comb(n + len(lams) - 1, len(lams) - 1) for _, lams, n, _ in self.lossy)
        order = rng.permutation(len(ops))
        self.ops = [ops[k] for k in order]
        self._lossy_want: dict[int, tuple] = {}

    def call(self, op: Op, api):
        kind, args = op
        if kind == "lossy":
            return api.lossy_typical_projection(self.lossy[args[0]][0], args[1], DELTA)
        text, _, rho, _ = self.sources[args[0]]
        if kind == "spectrum":
            fresh = api.density_from_ensemble(api.load_ensemble(text))
            return fresh, api.eig_hermitian(fresh), api.von_neumann_entropy(fresh)
        code, report = api.sw_report(rho)
        return code, report, api.encode_qstring(code, args[1])

    def check(self, i: int, op: Op, out) -> list[str]:
        kind, args = op
        if kind == "lossy":
            return self._check_lossy(args[0], out)
        _, m, _, v = self.sources[args[0]]
        return check_source(kind, m, v, out)

    def _check_lossy(self, idx: int, rep) -> list[str]:
        rho, lams, n, p = self.lossy[idx]
        d = len(lams)
        entropy = orc.entropy_bits(lams)
        problems = []
        if not orc.close(rep.entropy, entropy):
            problems.append(f"lossy entropy {rep.entropy} != {entropy}")
        if not orc.lossy_budget_ok(rep.budget, entropy, n, DELTA):
            problems.append(f"budget {rep.budget} != ceil({n} (S + {DELTA}))")
        if rep.total_classes != math.comb(n + d - 1, d - 1):
            problems.append(f"total_classes {rep.total_classes} != C({n + d - 1}, {d - 1})")
        if rep.kept_dimension > 1 << rep.budget:
            problems.append(f"kept_dimension {rep.kept_dimension} > 2^{rep.budget}")
        if problems:
            return problems
        if idx not in self._lossy_want:
            self._lossy_want[idx] = lossy_oracle(lams, n, rep.budget, p)
        success, dim, classes = self._lossy_want[idx]
        if rep.budget >= n * math.log2(d) - 1e-12:
            success = 1.0
        if not orc.close(rep.success, min(success, 1.0)):
            problems.append(f"lossy success {rep.success} != {success} (d={d}, n={n})")
        if rep.kept_dimension != dim:
            problems.append(f"kept_dimension {rep.kept_dimension} != {dim}")
        if classes is not None and rep.kept_classes != classes:
            problems.append(f"kept_classes {rep.kept_classes} != {classes}")
        return problems


def lossy_oracle(lams, n: int, budget: int, p) -> tuple:
    """(success, kept dimension, kept classes or None) by the cheapest
    independent route: the binomial tail for a diagonal qubit, brute
    force over all d^n strings when that is at most 2^16, else a sum
    over multisets."""
    if p is not None:
        return (*orc.lossy_binomial(p, n, budget), None)
    if len(lams) ** n <= 1 << 16:
        return (*orc.lossy_bruteforce(lams, n, budget), None)
    return orc.lossy_types(lams, n, budget)


def check_source(kind: str, m: np.ndarray, v: np.ndarray, out) -> list[str]:
    lams = orc.spectrum(m)
    entropy = orc.entropy_bits(lams)
    if kind == "spectrum":
        return check_spectrum(m, lams, entropy, *out)
    code, report, encoded = out
    problems = []
    e = report.expected_avg_length
    if not entropy - orc.TOL <= e < entropy + 1.0:
        problems.append(f"sw expected length {e} outside [S, S+1) with S={entropy}")
    if not orc.close(report.entropy, entropy):
        problems.append(f"sw entropy {report.entropy} != {entropy}")
    words = [code.words.codeword(k) for k in range(len(code))]
    want = [orc.ceil_snapped(-math.log2(l)) for l in lams]
    if [len(w) for w in words] != want:
        problems.append(f"sw lengths {[len(w) for w in words]} != {want}")
    if not orc.prefix_free(words):
        problems.append("sw codewords are not prefix-free")
    _, vecs = np.linalg.eigh(m)
    weights = np.abs(vecs[:, ::-1].conj().T @ v) ** 2
    avg = float(sum(w * len(word) for w, word in zip(weights, words)))
    if not orc.close(orc.mean_length(encoded.terms), avg, 1e-8):
        problems.append(f"encoded average length {orc.mean_length(encoded.terms)} != {avg}")
    return problems


def check_spectrum(m, lams, entropy, rho, dec, s) -> list[str]:
    problems = []
    err = float(np.max(np.abs(rho.matrix - m)))
    if err > orc.TOL:
        problems.append(f"density off by {err:.2e}")
    vals = np.asarray(dec.eigenvalues)
    if vals.shape != lams.shape or float(np.max(np.abs(vals - lams))) > orc.TOL:
        problems.append(f"eigenvalues off: {vals[:3]} vs {lams[:3]}")
    else:
        resid = np.abs(m @ dec.eigenvectors - dec.eigenvectors * vals).max()
        if resid > 1e-8:
            problems.append(f"eigenvector residual {resid:.2e}")
    if not orc.close(s, entropy):
        problems.append(f"entropy {s} != {entropy}")
    return problems
