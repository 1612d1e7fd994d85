"""Independent oracles for the benchmark's output checks.

Nothing here imports ``qfock``.  Each oracle recomputes a result from
the benchmark's own inputs by a closed form, a brute force at small
sizes, exact rational arithmetic, or a numpy routine, so that a fault
in the program cannot hide by agreeing with itself.

Every ``check_*`` function returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np

TOL = 1e-9
SNAP = 1e-9  # documented rounding of -log2 values that sit on an integer


def close(a, b, tol=TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- strings ---------------------------------------------------------------

def pair_code(x: str, y: str) -> str:
    return "1" * len(x) + "0" + x + y


def sequence_code(items) -> str:
    acc = items[-1]
    for s in reversed(items[:-1]):
        acc = pair_code(s, acc)
    return acc


def delimited(terms: dict) -> dict:
    return {"1" * len(b) + "0" + b: a for b, a in terms.items()}


def mean_length(terms: dict) -> float:
    weight = sum(abs(a) ** 2 for a in terms.values())
    return sum(abs(a) ** 2 * len(b) for b, a in terms.items()) / weight


def qstr_text(terms: dict) -> str:
    """The ``.qstr`` text form: one ``bits re im`` line per term, terms
    by length then lexicographically, ``eps`` for the empty string."""
    rows = sorted(terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return "".join(f"{b or 'eps'} {a.real!r} {a.imag!r}\n" for b, a in rows)


def shannon_lengths(weights) -> list[int]:
    """Exact ``ceil(-log2 p)`` for ``p = w / sum(weights)``: the least
    ``l >= 0`` with ``2**l * w >= total``."""
    total = sum(weights)
    out = []
    for w in weights:
        l = 0
        while (w << l) < total:
            l += 1
        out.append(l)
    return out


def prefix_free(words) -> bool:
    """Quadratic check that no word is a prefix of another."""
    words = list(words)
    return len(set(words)) == len(words) and not any(
        a != b and b.startswith(a) for a in words for b in words
    )


def kraft_fraction(lengths) -> Fraction:
    """Kraft sum by integer arithmetic over the common denominator."""
    top = max(lengths)
    return Fraction(sum(1 << (top - l) for l in lengths), 1 << top)


def check_shannon(weights, table: dict) -> list[str]:
    want = shannon_lengths(weights)
    words = [table.get(i) for i in range(len(weights))]
    if None in words or len(table) != len(weights):
        return [f"codeword table has indices {sorted(table)}"]
    problems = []
    if [len(w) for w in words] != want:
        problems.append(f"lengths {[len(w) for w in words]} != ceil(-log2 p) {want}")
    if not prefix_free(words):
        problems.append("codewords are not prefix-free")
    if kraft_fraction(want) > 1:
        problems.append("Kraft sum of the Shannon lengths exceeds 1")
    return problems


# --- sources ---------------------------------------------------------------

def density(columns: np.ndarray, probs) -> np.ndarray:
    """``sum_k p_k |g_k><g_k|`` for unit columns ``g_k``."""
    return (columns * np.asarray(probs)) @ columns.conj().T


def spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues in descending order, by LAPACK."""
    return np.linalg.eigvalsh(m)[::-1]


def entropy_bits(eigs) -> float:
    return float(-sum(l * math.log2(l) for l in eigs if l > 0.0))


def ceil_snapped(v: float) -> int:
    r = round(v)
    if abs(v - r) <= SNAP:
        v = float(r)
    return max(0, math.ceil(v))


def lossy_budget_ok(budget: int, entropy: float, n: int, delta: float) -> bool:
    """``budget = ceil(n (S + delta))``; a value on an integer may round
    either way between two correct entropies."""
    x = n * (entropy + delta)
    return budget == math.ceil(x - 1e-12) or (
        abs(x - round(x)) <= 1e-9 and budget in (round(x), round(x) + 1)
    )


def lossy_bruteforce(lams, n: int, budget: int) -> tuple[float, int]:
    """Success and kept dimension over all ``d**n`` eigenstrings."""
    d = len(lams)
    if d**n > 1 << 16:
        raise ValueError("brute force is limited to 2**16 strings")
    logs = np.log2(np.asarray(lams, dtype=float))
    idx = np.indices((d,) * n).reshape(n, -1)
    logp = logs[idx].sum(axis=0)
    kept = np.array([ceil_snapped(-v) <= budget for v in logp])
    return float(np.exp2(logp[kept]).sum()), int(kept.sum())


def lossy_binomial(p: float, n: int, budget: int) -> tuple[float, int]:
    """Success and kept dimension for ``diag(p, 1 - p)``: a binomial tail."""
    q = 1.0 - p
    success, dim = 0.0, 0
    for i in range(n + 1):
        if ceil_snapped(-(i * math.log2(p) + (n - i) * math.log2(q))) <= budget:
            success += math.comb(n, i) * p**i * q ** (n - i)
            dim += math.comb(n, i)
    return success, dim


def lossy_types(lams, n: int, budget: int) -> tuple[float, int, int]:
    """Success, kept dimension and kept classes by a sum over multisets."""
    logs = [math.log2(l) for l in lams]
    parts, dim, classes = [], 0, 0
    for combo in itertools.combinations_with_replacement(range(len(lams)), n):
        counts = [0] * len(lams)
        for j in combo:
            counts[j] += 1
        logp = math.fsum(k * g for k, g in zip(counts, logs) if k)
        if ceil_snapped(-logp) <= budget:
            mult, left = 1, n
            for k in counts:
                mult *= math.comb(left, k)
                left -= k
            parts.append(mult * 2.0**logp)
            dim += mult
            classes += 1
    return math.fsum(parts), dim, classes


# --- catalogs ----------------------------------------------------------------

def index_cost(i: int) -> int:
    """``2 * len(bin i) + 1``: the self-delimiting catalog address of machine i."""
    return 2 * i.bit_length() + 1


def identity_value(state: dict, max_len: int, delimited_programs: bool):
    """Closed form on the identity machine: the average length, or
    ``2 avg + 1`` once its programs are self-delimited."""
    if max(len(b) for b in state) > max_len:
        return None
    avg = mean_length(state)
    return 2.0 * avg + 1.0 if delimited_programs else avg


def projected_value(outputs: dict, state: dict):
    """Description length on a table machine by a numpy projection.

    ``outputs`` maps program -> {bits: amplitude}.  The state's
    coordinates in the span are ``V^dag psi``; a state that keeps more
    than 1e-8 of its weight outside the span has no value.
    """
    labels = sorted(set(state).union(*outputs.values()))
    where = {b: k for k, b in enumerate(labels)}
    programs = list(outputs)
    v = np.zeros((len(labels), len(programs)), dtype=complex)
    for j, prog in enumerate(programs):
        for b, a in outputs[prog].items():
            v[where[b], j] = a
    psi = np.zeros(len(labels), dtype=complex)
    for b, a in state.items():
        psi[where[b]] = a
    weights = np.abs(v.conj().T @ psi) ** 2
    if 1.0 - weights.sum() > 1e-8:
        return None
    return float(sum(w * len(p) for w, p in zip(weights, programs)))


def machine_value(machine, state: dict):
    """``machine`` is ("identity", L), ("sd-identity", L) or ("table", outputs)."""
    kind, spec = machine
    if kind == "table":
        return projected_value(spec, state)
    return identity_value(state, spec, kind == "sd-identity")


def catalog_cost(machines, state: dict):
    """(value, index, runner-up gap) minimising index cost plus value."""
    costs = []
    for i, m in enumerate(machines, start=1):
        value = machine_value(m, state)
        if value is not None:
            costs.append((index_cost(i) + value, i))
    if not costs:
        return None
    ordered = sorted(costs)
    gap = ordered[1][0] - ordered[0][0] if len(ordered) > 1 else math.inf
    return ordered[0][0], ordered[0][1], gap


def bare_cost(machines, state: dict) -> float:
    return min(
        v for v in (machine_value(m, state) for m in machines) if v is not None
    )


def mixture_entropy(members) -> float:
    """Entropy of ``sum_k p_k |psi_k><psi_k|`` for (p, {bits: amp}) members."""
    labels = sorted({b for _, s in members for b in s})
    where = {b: k for k, b in enumerate(labels)}
    cols = np.zeros((len(labels), len(members)), dtype=complex)
    for j, (_, s) in enumerate(members):
        for b, a in s.items():
            cols[where[b], j] = a
    return entropy_bits(spectrum(density(cols, [p for p, _ in members])))


def nonadditivity(machines, m_block: int, k: float) -> dict:
    """Brute-force witness search over the block [2^m, 2^(m+1))."""
    best, n_star = -math.inf, None
    for n in range(1 << m_block, 1 << (m_block + 1)):
        value = catalog_cost(machines, {format(n, "b"): 1.0})[0]
        if value > best:
            best, n_star = value, n
    amp = 1.0 / math.sqrt(2.0)
    bits = format(n_star, "b")
    plus = catalog_cost(machines, {"0": amp, bits: amp})[0]
    minus = catalog_cost(machines, {"0": amp, bits: -amp})[0]
    zero = catalog_cost(machines, {"0": 1.0})[0]
    avg = 0.5 * (plus + minus)
    return {
        "n_star": n_star,
        "value_n": best,
        "phi_average": avg,
        "value_zero": zero,
        "success_concentrated": best - avg > k + 1e-9,
        "success_diluted": avg - zero > k + 1e-9,
    }


# --- files -----------------------------------------------------------------

def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def parse_inline(body: str) -> dict:
    """``{ bits:re,im ; ... }`` -> {bits: amplitude}; ``eps`` is empty."""
    out = {}
    for chunk in body.strip()[1:-1].split(";"):
        if chunk.strip():
            token, amp = chunk.split(":")
            re_part, im_part = amp.split(",")
            bits = token.strip()
            out["" if bits == "eps" else bits] = complex(float(re_part), float(im_part))
    return out


class Match:
    """An expected value given by a predicate, for a field with no single exact form."""

    def __init__(self, label: str, pred) -> None:
        self.label = label
        self.pred = pred

    def __repr__(self) -> str:
        return self.label


def compare(got, want, path="result", tol=1e-8) -> list[str]:
    """Recursive comparison: floats to a relative tolerance, :class:`Match`
    by its predicate, the rest exactly."""
    if isinstance(want, Match):
        return [] if want.pred(got) else [f"{path}: {got!r} is not {want.label}"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [p for key in want for p in compare(got[key], want[key], f"{path}.{key}", tol)]
    if isinstance(want, (list, tuple)):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare(g, w, f"{path}[{i}]", tol)]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return [] if close(got, want, tol) else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []
