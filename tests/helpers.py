"""Shared generators and independent oracles for the test suite."""

import math
from fractions import Fraction

import numpy as np

from qfock import (
    ComplexityEstimate,
    QString,
    delimit_bits,
    index_cost,
    inner_product,
    machine_complexity,
    make_qstring,
    pair_decode,
    pair_encode,
)
from qfock.codes import PRUNE_SLACK, ceil_bits
from qfock.complexity import DescriberMachine
from qfock.errors import NoDescriberError, OutOfSpanError, QFockError
from qfock.fock import check_bitstring, format_bits, length_lex


def random_unitary(rng, dim):
    """Haar-ish unitary from the QR of a complex Ginibre sample."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the result is deterministic
    return q * (np.diag(r) / np.abs(np.diag(r)))


def count_eigh(monkeypatch):
    """Record the shape of each matrix given to ``np.linalg.eigh``: the
    LAPACK decompositions, however many ``eig_hermitian`` calls ask."""
    calls = []
    real = np.linalg.eigh

    def counting(m, *args, **kwargs):
        calls.append(np.shape(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def random_qstring(rng, max_len=6, max_terms=4):
    """Random normalized superposition over distinct short bitstrings."""
    n_terms = int(rng.integers(1, max_terms + 1))
    pool = [""]
    for length in range(1, max_len + 1):
        pool.extend(format(v, f"0{length}b") for v in range(1 << length))
    picks = rng.choice(len(pool), size=n_terms, replace=False)
    amps = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    return make_qstring(
        {pool[int(i)]: complex(a) for i, a in zip(picks, amps)}, normalize=True
    )


def random_orthonormal_family(rng, size, length=None):
    """`size` orthonormal QStrings over fixed-length basis strings."""
    if length is None:
        length = max(1, (size - 1).bit_length())
    if size > (1 << length):
        raise ValueError("family too large for the basis length")
    labels = [format(v, f"0{length}b") for v in range(1 << length)]
    u = random_unitary(rng, 1 << length)
    family = []
    for k in range(size):
        terms = {
            labels[i]: complex(u[i, k])
            for i in range(len(labels))
            if abs(u[i, k]) > 1e-12
        }
        family.append(QString(terms, normalize=True))
    return family


def identity_table(max_len, prefix_flag):
    """The identity machine as a materialized program table.

    Every string of length <= max_len maps to itself, its program
    delimited as ``1^len 0 x`` when ``prefix_flag`` is set; an oracle for
    the closed-form ``IdentityMachine``.
    """
    programs = {}
    for n in range(max_len + 1):
        for v in range(1 << n):
            bits = format(v, f"0{n}b") if n else ""
            programs[delimit_bits(bits) if prefix_flag else bits] = QString({bits: 1.0})
    return DescriberMachine(programs, prefix_flag=prefix_flag)


def catalog_query_by_exhaustion(cat, state):
    """``(estimate, least bare value)`` by the loop catalog queries ran
    before they tallied machines and skipped the costly ones.

    ``machine_complexity`` on every machine, ``OutOfSpanError``
    swallowed, then ``min`` over index cost plus value, which keeps the
    first tie; raises ``NoDescriberError`` when no machine spans the state.
    """
    spanning = []
    for i, machine in enumerate(cat, start=1):
        try:
            spanning.append((i, machine_complexity(machine, state)))
        except OutOfSpanError:
            continue
    if not spanning:
        raise NoDescriberError("no machine in the catalog spans the state")
    i, est = min(spanning, key=lambda pair: index_cost(pair[0]) + pair[1].value)
    cheapest = ComplexityEstimate(float(index_cost(i) + est.value), i, est.decomposition)
    return cheapest, min(e.value for _, e in spanning)


def sequence_encode_by_pairs(strings):
    """The per-step fold ``fock.sequence_encode`` replaced.

    One checked ``pair_encode`` per item, last to first, each on the
    whole encoding so far; its values and errors are the reference.
    """
    items = list(strings)
    if not items:
        raise ValueError("cannot encode an empty sequence")
    acc = check_bitstring(items[-1])
    for s in reversed(items[:-1]):
        acc = pair_encode(s, acc)
    return acc


def sequence_decode_by_pairs(z, count):
    """The per-step loop ``fock.sequence_decode`` replaced: one checked
    ``pair_decode`` per remainder."""
    if count < 1:
        raise ValueError("count must be at least 1")
    out = []
    rest = z
    for _ in range(count - 1):
        head, rest = pair_decode(rest)
        out.append(head)
    out.append(check_bitstring(rest))
    return out


def outcome(func, *args, **kwargs):
    """``("ok", value)``, or ``("raised", type, message)`` for an error a
    check raises, so two implementations compare by value and error."""
    try:
        return ("ok", func(*args, **kwargs))
    except (TypeError, ValueError, QFockError) as exc:
        return ("raised", type(exc), str(exc))


def amplitude_bits(state):
    """A state's terms in order, each amplitude as the hex of its parts."""
    return [(bits, a.real.hex(), a.imag.hex()) for bits, a in state.items()]


def density_by_outer_products(entries):
    """``(basis, matrix)`` of an ensemble, one ``np.outer`` per member.

    The loop ``linalg.density_from_ensemble`` ran before its one matrix
    product: the union of the labels in ``length_lex`` order, and
    ``p * outer(v, conj(v))`` added member by member, each ``v`` the
    member's coordinate vector over that basis.
    """
    basis = sorted({bits for _, state in entries for bits in state.keys()}, key=length_lex)
    index = {b: i for i, b in enumerate(basis)}
    m = np.zeros((len(basis), len(basis)), dtype=complex)
    for p, state in entries:
        v = np.zeros(len(basis), dtype=complex)
        for bits, amp in state.items():
            v[index[bits]] = amp
        m += p * np.outer(v, v.conj())
    return tuple(basis), m


def kraft_by_fractions(lengths):
    """Kraft sum adding one ``Fraction(1, 2**l)`` per length.

    The per-term loop ``codes.kraft_sum_exact`` replaced by its closed
    form; same validation order (``int``, then sign) and the same errors
    for a negative length or an empty input.
    """
    total = Fraction(0)
    count = 0
    for l in lengths:
        l = int(l)
        if l < 0:
            raise ValueError("codeword lengths must be nonnegative")
        total += Fraction(1, 1 << l)
        count += 1
    if count == 0:
        raise ValueError("no lengths given")
    return total


def pairwise_gram_failure(states, tol=1e-8, *, norms=True, programs=None):
    """First failure of a pairwise ``inner_product`` check, or None.

    The loop ``qcode`` ran before its Gram matrix: for each member i in
    order, its squared norm (with ``norms``), then its overlap with every
    later member.  The message is the one ``CondensableCode`` raises with
    ``norms`` and the one ``kraft_condensable_check`` raises without.
    With ``programs`` (one per state, in table order) it is the one a
    ``DescriberMachine`` with those outputs raises, which names programs.
    """
    for i, a in enumerate(states):
        if norms:
            norm = inner_product(a, a).real
            if abs(norm - 1.0) > tol:
                if programs is not None:
                    return f"output of program {format_bits(programs[i])!r} has norm {norm!r}"
                return f"member {i} has squared norm {norm!r}"
        for j in range(i + 1, len(states)):
            ov = abs(inner_product(a, states[j]))
            if ov > tol:
                if programs is not None:
                    return (f"outputs of {format_bits(programs[i])!r} and "
                            f"{format_bits(programs[j])!r} overlap by {ov:.3e}")
                word = "members" if norms else "states"
                return f"{word} {i} and {j} overlap by {ov:.3e}"
    return None


# Labels of mixed length for the Gram-check families below.
LABEL_POOL = ["", "0", "1", "00", "01", "10", "11", "010", "111", "0110"]


def random_states_on(rng, supports):
    """One random normalized QString over each label set of ``supports``."""
    states = []
    for labels in supports:
        amps = rng.standard_normal(len(labels)) + 1j * rng.standard_normal(len(labels))
        states.append(QString(dict(zip(labels, amps.tolist())), normalize=True))
    return states


def unnormalized(terms):
    """A QString holding ``terms`` as given, past the constructor's norm check."""
    state = QString.__new__(QString)
    state._terms = dict(terms)
    return state


def off_tolerance(rng, above):
    """A step clearly above, or clearly below, the 1e-8 Gram tolerance."""
    return 10.0 ** (rng.uniform(-7, -4) if above else rng.uniform(-13, -10))


def tilted_columns(rng, dim, tilts):
    """Columns of a random unitary over ``dim`` labels of ``LABEL_POOL``.

    Each ``(a, b, above)`` in ``tilts`` adds ``off_tolerance`` times member
    a to member b (indices wrap; a == b is skipped), so their overlap ends
    clearly above or below the tolerance.
    """
    labels = [LABEL_POOL[i] for i in rng.permutation(len(LABEL_POOL))[:dim]]
    size = int(rng.integers(1, dim + 1))
    u = random_unitary(rng, dim)
    members = [dict(zip(labels, u[:, k])) for k in range(size)]
    for a, b, above in tilts:
        a, b = a % size, b % size
        if a == b:
            continue
        eps = off_tolerance(rng, above)
        for bits, amp in members[a].items():
            members[b][bits] = members[b].get(bits, 0j) + eps * amp
    return [QString(m, normalize=True) for m in members]


def stretch_norm(rng, state, above):
    """``state`` with its squared norm moved off 1 by ``off_tolerance``."""
    eps = off_tolerance(rng, above)
    return unnormalized({bits: amp * math.sqrt(1.0 + eps) for bits, amp in state.items()})


def culprit(message):
    """A Gram-check failure message without its number: what failed."""
    return message.split(" overlap by ")[0].split(" has ")[0]


def binomial_tail_success(p, n, budget):
    """P[ceil(-log2 (p^i q^(n-i))) <= budget] for a diagonal qubit source.

    Enumerates the n+1 sectors directly; used as an oracle against
    lossy_typical_projection for two-level diagonal densities.
    """
    q = 1.0 - p
    total = 0.0
    for i in range(n + 1):
        logp = i * math.log2(p) + (n - i) * math.log2(q)
        v = -logp
        r = round(v)
        if abs(v - r) <= 1e-9:
            v = float(r)
        if max(0, math.ceil(v)) <= budget:
            total += math.comb(n, i) * (p**i) * (q ** (n - i))
    return min(total, 1.0)


def _compositions(total, parts):
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def lossy_by_compositions(lams, n, budget):
    """``(kept_classes, kept_dimension, success)`` over every type class.

    Visits all ``C(n+d-1, d-1)`` compositions of n in lexicographic
    order, with no pruning, and recomputes each class's ``log2 p``, snap
    and factorial multinomial from scratch; the arithmetic per class is
    that of ``lossy_typical_projection``, so its pruned engine must match
    this loop bit for bit.
    """
    kept_classes = 0
    kept_dimension = 0
    success = 0.0
    for counts in _compositions(n, len(lams)):
        logp = sum(k * math.log2(lam) for k, lam in zip(counts, lams) if k)
        v = -logp
        r = round(v)
        if abs(v - r) <= 1e-9:
            v = float(r)
        length = max(0, math.ceil(v))
        if length <= budget:
            mult = math.factorial(n)
            for k in counts:
                mult //= math.factorial(k)
            kept_classes += 1
            kept_dimension += mult
            success += mult * (2.0 ** logp)
    return kept_classes, kept_dimension, success


def type_classes_by_stack(lams, n, budget=None):
    """``(multiplicity, log2 p, length)`` per type class: the stack walk.

    The type-class engine before its tables, fold and break: one stack
    entry per node, a ``math.comb`` and ``ceil_bits`` per class, and
    every child of a node tested against the cut.  It visits the classes
    in the engine's order and sums each ``log2 p`` the same way, so the
    engine must match it bit for bit.
    """
    logs = [math.log2(lam) for lam in lams]
    last = len(logs) - 1
    floor = [max(-x, 0.0) for x in logs[1:]]
    limit = math.inf if budget is None else budget + PRUNE_SLACK
    stack = [(0, n, 0.0, 1)]  # (part, copies left, log2 p so far, multiplicity)
    while stack:
        j, rem, logp, mult = stack.pop()
        if j == last or not rem:  # one class left: the last part takes the rest
            if rem:
                logp += rem * logs[j]
            length = ceil_bits(-logp)
            if budget is None or length <= budget:
                yield mult, logp, length
            continue
        step, cut = logs[j], floor[j]
        for k in range(rem, -1, -1):  # pushed high to low, so popped k = 0 first
            part = logp + k * step if k else logp
            if (rem - k) * cut - part <= limit:
                stack.append((j + 1, rem - k, part, mult * math.comb(rem, k)))


def jacobi_eigh(matrix, tol=1e-12, max_sweeps=50):
    """Cyclic complex Jacobi eigensolver, an oracle independent of LAPACK.

    Each rotation annihilates one off-diagonal pivot and is accumulated
    into the eigenvector matrix.  Returns ``(eigenvalues, eigenvectors)``
    in no particular order; asserts that the off-diagonal Frobenius norm
    drops below ``tol`` within ``max_sweeps`` sweeps.
    """
    a = np.array(matrix, dtype=complex)
    d = a.shape[0]
    v = np.eye(d, dtype=complex)
    for _ in range(max_sweeps):
        if np.linalg.norm(a - np.diag(np.diag(a))) <= tol:
            return a.real.diagonal().copy(), v
        for p in range(d - 1):
            for q in range(p + 1, d):
                r = abs(a[p, q])
                if r == 0.0:
                    continue
                phase = a[p, q] / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # columns p, q of the unitary rotation
                rot = np.array([[c, s], [-s * phase.conjugate(), c * phase.conjugate()]])
                a[:, [p, q]] = a[:, [p, q]] @ rot
                a[[p, q], :] = rot.conj().T @ a[[p, q], :]
                a[p, q] = a[q, p] = 0.0
                v[:, [p, q]] = v[:, [p, q]] @ rot
    raise AssertionError(f"Jacobi did not converge in {max_sweeps} sweeps")


def partial_trace_by_widths(rho, dims, keep):
    """``partial_trace`` by slicing each label at fixed widths.

    The algorithm ``linalg.partial_trace`` ran before it looked labels up
    by party: each subsystem of dimension d owns a binary slice of width
    ``ceil(log2 d)`` (minimum 1), read as the party's index.  An oracle
    for fixed-width joint bases, where both must agree bit for bit.
    """
    from qfock import DensityOperator, DimensionMismatchError

    dims = [int(d) for d in dims]
    n = len(dims)
    kept = sorted(set(int(k) for k in keep))
    if not kept or kept[0] < 1 or kept[-1] > n:
        raise DimensionMismatchError(f"keep must be a non-empty subset of 1..{n}")
    widths = [max(1, (d - 1).bit_length()) for d in dims]
    rows = []
    for bits in rho.basis:
        if len(bits) != sum(widths):
            raise DimensionMismatchError(f"{bits!r} does not split into {widths}")
        idx, pos = 0, 0
        for w, d in zip(widths, dims):
            v = int(bits[pos:pos + w], 2)
            if v >= d:
                raise DimensionMismatchError(f"{bits!r} is out of range for {dims}")
            idx, pos = idx * d + v, pos + w
        rows.append(idx)
    full_dim = math.prod(dims)
    full = np.zeros((full_dim, full_dim), dtype=complex)
    full[np.ix_(rows, rows)] = rho.matrix
    tensor = full.reshape(tuple(dims) * 2)

    letters = iter("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    row_sub = [next(letters) for _ in range(n)]
    col_sub = [row_sub[i] if (i + 1) not in kept else next(letters) for i in range(n)]
    out_sub = "".join(row_sub[i - 1] for i in kept) + "".join(col_sub[i - 1] for i in kept)
    contracted = np.einsum("".join(row_sub) + "".join(col_sub) + "->" + out_sub, tensor)

    labels = [""]
    for i in kept:
        labels = [p + format(v, f"0{widths[i - 1]}b") for p in labels for v in range(dims[i - 1])]
    return DensityOperator(labels, contracted.reshape(len(labels), len(labels)))
