"""Condensable quantum codes: prefix codes extended linearly to states.

A condensable code fixes an orthonormal source basis and a prefix-free
classical codeword for each basis member; the encoder is the isometry
that sends basis member k to the deterministic string |w_k> and extends
linearly.  Because the codewords are prefix-free, the images of
orthogonal states remain distinguishable even though their lengths
differ, and the average lengths of any orthogonal family of encoded
states satisfy the Kraft-style bound ``sum 2**-avg_len <= 1``.

``sw_lossless_code`` instantiates the classic lossless construction for
a density operator: codewords are canonical prefix codewords with
lengths ``ceil(-log2 eigenvalue)`` over the operator's eigenbasis, so
the expected encoded length of the eigen-ensemble lands within one bit
above the von Neumann entropy.

Orthonormality of a code's source basis, and orthogonality of a family
given to ``kraft_condensable_check``, are read off the states' Gram
matrix, one product of the amplitude rows ``linalg`` lays out for them.
Its upper triangle is searched row by row, diagonal first, so a failure
names the member or pair that a pairwise loop would have met first.

``lossy_typical_projection`` evaluates the induced fixed-budget lossy
scheme on n copies analytically over type classes; nothing of size 2**n
is ever materialized.  The classes come from ``codes._type_classes``,
a stack walk in lexicographic order that sums the last two parts of
each class inside one loop, cuts every branch in which no class can fit
the qubit budget any more, and keeps a class when its codeword fits.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .codes import (
    PrefixCode,
    _type_classes,
    canonical_prefix_code,
    ceil_neg_log2,
    kraft_sum,
)
from .errors import (
    ArityMismatchError,
    CapExceededError,
    InvalidDeltaError,
    NotOrthogonalError,
    NotOrthonormalError,
    OutOfSpanError,
)
from .fock import AMP_FLOOR, ORTHO_TOL, SPAN_TOL, QString, average_length, inner_product
from .linalg import DensityOperator, _amplitude_rows, _labels, eig_hermitian, entropy_of_spectrum

EIG_FLOOR = 1e-12
# With a delta so large that nothing is pruned, enumerating the classes
# at the cap takes 0.36-0.63 s for d <= 10 (d=8, n=20: 888,030 classes)
# and 0.9 s at d=1447, n=2 (1,047,628 classes), 0.44-0.86 us per class on
# a 2-vCPU VM.  The tests, demos and benchmark stay at or below (d=6,
# n=14), 11,628 classes.
LOSSY_CLASS_CAP = 1 << 20
# Round-off slack for the float products n * (S + delta) and n * log2(dim),
# which can land a few ulps above an integer they equal exactly.
BUDGET_SNAP = 1e-12


def _gram(states: Sequence[QString]) -> np.ndarray:
    """The Gram matrix ``G[i, j] = <states[i]|states[j]>`` as one product.

    Row k of ``m`` (``linalg._amplitude_rows``) holds state k's amplitudes
    over the union of the states' labels, so ``G = conj(m) @ m.T`` (that
    is, ``M^H M`` for the column matrix ``M = m.T``).
    """
    m = _amplitude_rows(states, _labels(states))
    return m.conj() @ m.T


def _gram_failure(states: Sequence[QString], *, norms: bool) -> tuple[int, int, float] | None:
    """The first Gram entry of ``states`` that is off by more than ``ORTHO_TOL``.

    Entries are taken as a pairwise loop meets them: row by row over the
    upper triangle, each row's diagonal first.  A diagonal entry (checked
    only with ``norms``) fails when its real part, the squared norm, is
    more than ``ORTHO_TOL`` from 1, an off-diagonal one when its
    magnitude, the overlap, exceeds ``ORTHO_TOL``.  Returns ``(i, j,
    squared norm or overlap)``, or None when every entry passes.
    """
    g = _gram(states)
    dev = np.abs(g)
    dev.flat[:: len(g) + 1] = np.abs(g.real.diagonal() - 1.0) if norms else 0.0
    bad = dev > ORTHO_TOL
    if not bad.any():
        return None
    # Only now pay for the ordered search.  |G[j, i]| equals |G[i, j]| up
    # to round-off, so a pair fails if either entry does.
    bad = np.triu(bad | bad.T)
    i, j = divmod(int(bad.argmax()), len(g))
    return i, j, float(g.real[i, i] if i == j else dev[i, j])


class CondensableCode:
    """An orthonormal source basis plus aligned prefix-free codewords."""

    __slots__ = ("_basis", "_words")

    def __init__(self, source_basis: Sequence[QString], words: PrefixCode) -> None:
        basis = tuple(source_basis)
        if not basis:
            raise ArityMismatchError("source basis is empty")
        if sorted(words.table) != list(range(len(basis))):
            raise ArityMismatchError(
                f"codewords must be indexed 0..{len(basis) - 1} to match the basis"
            )
        failure = _gram_failure(basis, norms=True)
        if failure is not None:
            i, j, value = failure
            if i == j:
                raise NotOrthonormalError(f"member {i} has squared norm {value!r}")
            raise NotOrthonormalError(f"members {i} and {j} overlap by {value:.3e}")
        self._basis = basis
        self._words = words

    @property
    def source_basis(self) -> tuple[QString, ...]:
        return self._basis

    @property
    def words(self) -> PrefixCode:
        return self._words

    def __len__(self) -> int:
        return len(self._basis)


def build_condensable_code(
    source_basis: Sequence[QString], words: PrefixCode | dict[int, str]
) -> CondensableCode:
    if not isinstance(words, PrefixCode):
        words = PrefixCode(words)
    return CondensableCode(source_basis, words)


def encode_qstring(code: CondensableCode, state: QString) -> QString:
    """Apply the code isometry to a state in the span of the source basis."""
    coeffs = [inner_product(b, state) for b in code.source_basis]
    captured = sum(abs(c) ** 2 for c in coeffs)
    if 1.0 - captured > SPAN_TOL:
        raise OutOfSpanError(
            f"state leaves the code span; residual {1.0 - captured:.3e}"
        )
    # Codewords of a checked PrefixCode: distinct, checked bitstrings.
    return QString._from_checked(
        ((code.words.codeword(k), c) for k, c in enumerate(coeffs) if abs(c) > AMP_FLOOR),
        normalize=True,
    )


def eigen_ensemble(rho: DensityOperator) -> list[tuple[float, QString]]:
    """The eigen-ensemble of ``rho``.

    Each eigenvalue at or above ``EIG_FLOOR`` is paired with its
    eigenvector as a quantum string over ``rho.basis``, descending.
    Smaller eigenvalues are dropped together with their eigenvectors;
    they carry no weight at working precision.
    """
    dec = eig_hermitian(rho)
    vecs = dec.eigenvectors
    columns = vecs.T.tolist()
    keep = (np.abs(vecs) > AMP_FLOOR).T.tolist()
    members = []
    for k, lam in enumerate(dec.eigenvalues.tolist()):
        if lam < EIG_FLOOR:
            continue
        # rho.basis holds distinct labels, checked when rho was built.
        terms = (
            (label, amp) for label, amp, kept in zip(rho.basis, columns[k], keep[k]) if kept
        )
        members.append((lam, QString._from_checked(terms, normalize=True)))
    return members


def _lossless_code(members: Sequence[tuple[float, QString]]) -> CondensableCode:
    if not members:
        raise ArityMismatchError("operator has no eigenvalue above the floor")
    lengths = [ceil_neg_log2(lam) for lam, _ in members]
    return CondensableCode([state for _, state in members], canonical_prefix_code(lengths))


def sw_lossless_code(rho: DensityOperator) -> CondensableCode:
    """Lossless code for ``rho``: canonical codewords of length
    ``ceil(-log2 eigenvalue)`` over its eigen-ensemble."""
    return _lossless_code(eigen_ensemble(rho))


@dataclass(frozen=True)
class CompressionReport:
    """Expected encoded length of a source against its entropy."""

    expected_avg_length: float
    entropy: float
    kraft: float
    per_member: tuple[tuple[int, float], ...]


def compression_report(
    code: CondensableCode, probs: Sequence[float]
) -> CompressionReport:
    """Report for encoding source member k with probability ``probs[k]``.

    Encoding a basis member yields a single codeword string, so its
    average length after encoding is just the codeword length.
    """
    if len(probs) != len(code):
        raise ArityMismatchError(
            f"{len(probs)} probabilities for a {len(code)}-member basis"
        )
    p = [float(x) for x in probs]
    lengths = [len(code.words.codeword(k)) for k in range(len(code))]
    expected = sum(x * l for x, l in zip(p, lengths))
    total = sum(p)
    entropy = -sum(x * math.log2(x / total) for x in p if x > 0.0)
    return CompressionReport(
        expected_avg_length=float(expected),
        entropy=float(entropy),
        kraft=kraft_sum(lengths),
        per_member=tuple((k, float(l)) for k, l in enumerate(lengths)),
    )


def sw_report(rho: DensityOperator) -> tuple[CondensableCode, CompressionReport]:
    """Build the lossless code of ``rho`` and report it on the eigen-ensemble."""
    members = eigen_ensemble(rho)
    code = _lossless_code(members)
    return code, compression_report(code, [lam for lam, _ in members])


def kraft_condensable_check(states: Sequence[QString]) -> float:
    """Kraft sum ``sum 2**-avg_len`` over a pairwise orthogonal family."""
    states = list(states)
    if not states:
        raise ValueError("no states given")
    failure = _gram_failure(states, norms=False)
    if failure is not None:
        i, j, overlap = failure
        raise NotOrthogonalError(f"states {i} and {j} overlap by {overlap:.3e}")
    return float(sum(2.0 ** -average_length(s) for s in states))


@dataclass(frozen=True)
class LossyReport:
    """Outcome of projecting n encoded copies onto a qubit budget."""

    n: int
    delta: float
    entropy: float
    budget: int
    success: float
    kept_classes: int
    total_classes: int
    kept_dimension: int
    trivial: bool


def lossy_typical_projection(rho: DensityOperator, n: int, delta: float) -> LossyReport:
    """Project the blockwise-encoded n-copy source onto ``m`` qubits.

    Each n-symbol eigenstring gets a whole-string codeword of length
    ``ceil(-log2 p(string))``; the budget is ``m = ceil(n (S + delta))``
    qubits, and the success probability is the total weight of strings
    whose codeword fits.  Counting runs over type classes, so the cost
    grows polynomially in n; the walk (``codes._type_classes``) skips
    every branch whose codeword lengths already exceed the budget.

    A budget of at least ``n log2 dim`` qubits covers even the raw,
    uncompressed block; that case is reported as trivial with success 1
    rather than treated as an error.  Sources with more than
    ``LOSSY_CLASS_CAP`` type classes are rejected before enumeration.
    The copy count must be an integer: a float or a string raises
    ``TypeError`` (``operator.index``) rather than being truncated.
    """
    if not 0.0 < delta < math.inf:  # also rejects NaN
        raise InvalidDeltaError(f"delta must be positive and finite, got {delta!r}")
    n = operator.index(n)
    if not 1 <= n <= 64:
        raise CapExceededError(f"copy count must be in 1..64, got {n}")
    eigenvalues = eig_hermitian(rho).eigenvalues
    lams = [float(lam) for lam in eigenvalues if lam >= EIG_FLOOR]
    entropy = entropy_of_spectrum(eigenvalues)
    budget_bits = n * (entropy + delta) - BUDGET_SNAP
    if budget_bits == math.inf:
        raise InvalidDeltaError(f"delta {delta!r} overflows the {n}-copy budget")
    budget = math.ceil(budget_bits)
    raw_qubits = n * math.log2(rho.dim)
    trivial = budget >= raw_qubits - BUDGET_SNAP

    d_eff = len(lams)
    total_classes = math.comb(n + d_eff - 1, d_eff - 1)
    if total_classes > LOSSY_CLASS_CAP:
        raise CapExceededError(
            f"{total_classes} type classes for d={d_eff}, n={n} exceed the cap "
            f"of {LOSSY_CLASS_CAP}"
        )
    kept_classes = 0
    kept_dimension = 0
    success = 0.0
    for mult, logp in _type_classes(lams, n, budget):
        kept_classes += 1
        kept_dimension += mult
        success += mult * (2.0 ** logp)
    if trivial:
        success = 1.0
    return LossyReport(
        n=n,
        delta=float(delta),
        entropy=entropy,
        budget=budget,
        success=float(min(success, 1.0)),
        kept_classes=kept_classes,
        total_classes=total_classes,
        kept_dimension=kept_dimension,
        trivial=trivial,
    )
