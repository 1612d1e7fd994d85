"""Dense Hermitian linear algebra over labeled bitstring bases.

Density operators carry their basis labels with them so that states,
codes, and machines built on bitstrings can move in and out of matrix
form without bookkeeping at the call sites.  All logarithms are base 2;
entropies are in bits.

Quantum strings enter numpy in one place: ``_amplitude_rows`` lays k
states out as k x d amplitude rows over the columns ``_labels`` gives
their labels.  :func:`density_from_ensemble` mixes such rows in one
product, and ``qcode`` builds its Gram matrix from them.

The eigensolver is LAPACK's Hermitian ``eigh`` (through numpy), with
the order of ties and the phase of each eigenvector fixed by this module
rather than by the LAPACK build.  An operator is immutable, so it keeps
its decomposition from the first :func:`eig_hermitian` call, and an
ensemble keeps the operator :func:`density_from_ensemble` built from it:
``eigh`` runs once per operator.  The cost is one more d x d complex128
array (the eigenvectors; 256 MiB at ``DIM_CAP``) per operator.

This module, and ``qcode`` on top of it, load numpy on import; the
string, code, machine and report layers import them only inside the
functions that need matrices.  No dense operator
above ``DIM_CAP`` dimensions is allocated: ensembles, density
operators, tensor products and partial traces check the cap first.

The ``.ens`` reader (:func:`load_ensemble`) reads its lines and states
with the shared text rules of ``fock`` (``text_lines``,
``load_state_ref``).
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .codes import PROB_TOL, shannon_entropy  # shannon_entropy is re-exported
from .errors import (
    DimensionCapExceededError,
    DimensionMismatchError,
    FormatError,
    NotHermitianError,
    ProbabilitiesDontSumError,
)
from .fock import (
    QString,
    check_bitstring,
    format_inline_state,
    length_lex,
    load_state_ref,
    read_text,
    text_lines,
    write_text,
)

HERM_TOL = 1e-9
TRACE_TOL = 1e-9
EIG_CLAMP = 1e-9
PHASE_TIE_TOL = 1e-9
DIM_CAP = 1 << 12


def _check_dim(dim: int, what: str) -> None:
    """Reject a dense operator above ``DIM_CAP`` before it is allocated."""
    if dim > DIM_CAP:
        raise DimensionCapExceededError(f"{what} {dim} exceeds the cap {DIM_CAP}")


def _immutable(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` on immutable bytes: neither it nor its base can be
    made writeable again, so a checked or shared array stays as it was."""
    return np.frombuffer(a.tobytes(), dtype=a.dtype).reshape(a.shape)


def _check_hermitian(m: np.ndarray) -> None:
    """Reject a square matrix that is not Hermitian within ``HERM_TOL``."""
    herm_err = float(np.max(np.abs(m - m.conj().T)))
    if not herm_err <= HERM_TOL:  # negated, so NaN entries fail it
        raise NotHermitianError(f"Hermiticity violated by {herm_err:.3e}")


class Ensemble:
    """A finite mixture of quantum strings with positive weights summing to 1."""

    __slots__ = ("_entries", "_rho")  # _rho: kept by density_from_ensemble

    def __init__(self, entries: Iterable[tuple[float, QString]]) -> None:
        pairs = []
        for p, state in entries:
            p = float(p)
            if not 0.0 < p <= 1.0:
                raise ProbabilitiesDontSumError(
                    f"ensemble probability {p!r} outside (0, 1]"
                )
            if not isinstance(state, QString):
                raise TypeError("ensemble members must be QString instances")
            pairs.append((p, state))
        if not pairs:
            raise ProbabilitiesDontSumError("ensemble is empty")
        total = sum(p for p, _ in pairs)
        if abs(total - 1.0) > PROB_TOL:
            raise ProbabilitiesDontSumError(
                f"ensemble probabilities sum to {total!r}, not 1"
            )
        self._entries = tuple(pairs)
        self._rho: DensityOperator | None = None

    @property
    def entries(self) -> tuple[tuple[float, QString], ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)


class DensityOperator:
    """A trace-one Hermitian operator over an explicit bitstring basis."""

    __slots__ = ("_basis", "_matrix", "_dec")  # _dec: kept by eig_hermitian

    def __init__(self, basis: Sequence[str], matrix) -> None:
        labels = tuple(check_bitstring(b) for b in basis)
        _check_dim(len(labels), "dimension")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if m.shape[0] != len(labels):
            raise DimensionMismatchError(
                f"{len(labels)} basis labels for a {m.shape[0]}-dimensional matrix"
            )
        if m.shape[0] == 0:
            raise ValueError("dimension must be at least 1")
        # The checks below are trusted for the operator's lifetime (by
        # eig_hermitian), so they run on a copy over immutable bytes.  This
        # one copy replaces np.array's; at DIM_CAP (256 MiB) it took 0.23 s
        # against 0.11 s on a 2-vCPU VM.
        m = _immutable(m)
        _check_hermitian(m)
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= TRACE_TOL:  # negated, so a NaN trace fails it
            raise ValueError(f"trace is {tr!r}, not 1")
        self._basis = labels
        self._matrix = m
        self._dec: SpectralDecomposition | None = None

    @property
    def basis(self) -> tuple[str, ...]:
        return self._basis

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return len(self._basis)

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _labels(states: Iterable[QString]) -> dict[str, int]:
    """Each label of ``states`` -> its column, in order of first appearance."""
    index: dict[str, int] = {}
    for state in states:
        for bits in state.keys():
            index.setdefault(bits, len(index))
    return index


def _amplitude_rows(states: Sequence[QString], index: dict[str, int]) -> np.ndarray:
    """The k x d matrix whose row i holds ``states[i]``'s amplitudes in
    the columns ``index`` gives their labels, zero elsewhere."""
    rows = []
    for state in states:
        row = [0j] * len(index)
        for bits, amp in state.items():
            row[index[bits]] = amp
        rows.append(row)
    return np.array(rows, dtype=complex)


def density_from_ensemble(e: Ensemble | Iterable[tuple[float, QString]]) -> DensityOperator:
    """Mix the ensemble members into a density operator.

    The basis is the union of all term labels in canonical order.  With
    the members' amplitude rows ``M`` (k x d) and weights ``p`` the
    operator is one product, ``(M.T * p) @ conj(M)``.  An ``Ensemble``
    keeps the operator, so every call on it returns the same object,
    whose decomposition is then computed only once.
    """
    if not isinstance(e, Ensemble):
        e = Ensemble(e)
    if e._rho is None:
        states = [state for _, state in e]
        basis = tuple(sorted(_labels(states), key=length_lex))
        _check_dim(len(basis), "ensemble dimension")
        m = _amplitude_rows(states, {b: i for i, b in enumerate(basis)})
        p = np.array([weight for weight, _ in e])
        e._rho = DensityOperator(basis, (m.T * p) @ m.conj())
    return e._rho


def eig_hermitian(rho: DensityOperator | np.ndarray) -> SpectralDecomposition:
    """Full spectral decomposition, eigenvalues sorted descending.

    An eigenvector's pivot is its largest-magnitude component, the first
    one within ``PHASE_TIE_TOL`` of the largest.  Each eigenvector is
    scaled so that its pivot is real and positive, and equal eigenvalues
    are ordered by the position of their pivots, so neither the phases
    nor the order of ties depend on the LAPACK build.

    Both arrays sit on immutable bytes.  A ``DensityOperator`` keeps its
    decomposition, so later calls return the same object; an array is
    checked for Hermiticity and decomposed on every call.
    """
    if isinstance(rho, DensityOperator):
        if rho._dec is None:
            # the matrix was checked when the operator was built, and is immutable
            rho._dec = _decompose(rho.matrix)
        return rho._dec
    m = np.asarray(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    _check_hermitian(m)
    return _decompose(m)


def _decompose(m: np.ndarray) -> SpectralDecomposition:
    """The decomposition of a checked Hermitian matrix (see eig_hermitian)."""
    vals, vecs = np.linalg.eigh(m)
    mags = np.abs(vecs)
    pivot = np.argmax(mags >= mags.max(axis=0) - PHASE_TIE_TOL, axis=0)
    cols = np.arange(len(vals))
    peak = vecs[pivot, cols]
    vecs = vecs * (np.abs(peak) / peak)
    vecs[pivot, cols] = np.abs(peak)
    order = np.lexsort((pivot, -vals))
    return SpectralDecomposition(
        eigenvalues=_immutable(vals[order]), eigenvectors=_immutable(vecs[:, order])
    )


def entropy_of_spectrum(eigenvalues: Sequence[float]) -> float:
    """Base-2 entropy of a spectrum, clamping round-off negatives to zero."""
    total = 0.0
    for lam in eigenvalues:
        lam = float(lam)
        if lam < -EIG_CLAMP:
            raise ValueError(f"eigenvalue {lam!r} is negative beyond tolerance")
        if lam <= 0.0:
            continue
        total -= lam * math.log2(lam)
    return total


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) in bits via the spectral decomposition."""
    return entropy_of_spectrum(eig_hermitian(rho).eigenvalues)


def _party_basis(party: int | Sequence[str]) -> tuple[str, ...]:
    """A party's labels: its basis, or for an int ``d`` the ``d``
    fixed-width binary labels (width ``ceil(log2 d)``, minimum 1)."""
    if isinstance(party, (int, np.integer)):
        width = max(1, (int(party) - 1).bit_length())
        labels = tuple(format(v, f"0{width}b") for v in range(party))
    else:
        labels = tuple(party)
    if not labels:
        raise DimensionMismatchError("every party needs at least one label")
    return labels


def _concat_index(
    bases: Sequence[Sequence[str]], order: Sequence[int] | None = None
) -> dict[str, int]:
    """Joint label -> row-major index over the concatenations of ``bases``.

    The index takes the parties in ``order`` (0-based positions, most
    significant first; as listed by default).  Two concatenations that
    spell the same string raise, so every joint label splits into party
    labels in exactly one way.
    """
    stride, step = {}, 1
    for p in reversed(range(len(bases)) if order is None else order):
        stride[p], step = step, step * len(bases[p])
    index = {"": 0}
    for p, basis in enumerate(bases):
        index = {j + b: i + k * stride[p] for j, i in index.items() for k, b in enumerate(basis)}
    if len(index) != math.prod(len(b) for b in bases):
        raise DimensionMismatchError(
            "two concatenations of party labels spell the same string"
        )
    return index


def tensor_product(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product with concatenated basis labels."""
    _check_dim(a.dim * b.dim, "product dimension")
    basis = tuple(_concat_index([a.basis, b.basis]))
    return DensityOperator(basis, np.kron(a.matrix, b.matrix))


def subsystem_labels(dims: Sequence[int]) -> tuple[str, ...]:
    """Canonical fixed-width labels for the product basis of ``dims``."""
    return tuple(_concat_index([_party_basis(d) for d in dims]))


def partial_trace(
    rho: DensityOperator, parties: Sequence[int | Sequence[str]], keep: Iterable[int]
) -> DensityOperator:
    """Trace out every party not in ``keep``.

    ``parties`` lists each party's basis in order, either as a sequence
    of labels or as an int ``d`` for the ``d`` fixed-width binary labels
    of ``subsystem_labels``; parties are numbered from 1.  Every label of
    ``rho.basis`` must be a concatenation of one label per party, and no
    two concatenations may spell the same string.  The kept labels are
    concatenated the same way, so the kept parties must concatenate
    unambiguously too; prefix-free party bases always do.
    """
    dims = [max(int(p), 0) if isinstance(p, (int, np.integer)) else len(p) for p in parties]
    full_dim = math.prod(dims)
    _check_dim(full_dim, "joint dimension")  # before any label is built
    bases = [_party_basis(p) for p in parties]
    n = len(bases)
    kept = sorted(set(int(k) for k in keep))
    if not kept or kept[0] < 1 or kept[-1] > n:
        raise DimensionMismatchError(
            f"keep must be a non-empty subset of 1..{n}, got {kept}"
        )
    # Row-major over the kept parties, then the traced ones: a label sits
    # at kept_index * d_traced + traced_index, one traced axis for einsum.
    traced = sorted(set(range(1, n + 1)).difference(kept))
    index = _concat_index(bases, [i - 1 for i in kept + traced])
    d_kept = math.prod(dims[i - 1] for i in kept)
    d_traced = full_dim // d_kept
    try:
        rows = [index[b] for b in rho.basis]
    except KeyError as exc:
        raise DimensionMismatchError(
            f"basis label {exc.args[0]!r} is not a concatenation of party labels"
        ) from None
    full = np.zeros((full_dim, full_dim), dtype=complex)
    full[np.ix_(rows, rows)] = rho.matrix
    contracted = np.einsum("atbt->ab", full.reshape(d_kept, d_traced, d_kept, d_traced))
    out_basis = tuple(_concat_index([bases[i - 1] for i in kept]))
    return DensityOperator(out_basis, contracted)


# --- ensemble text format ----------------------------------------------------
#
# One entry per line: a probability followed by a state, either an inline
# { bits:re,im ; ... } block or a .qstr path resolved next to the ensemble
# file.

def load_ensemble(text: str, *, base_dir: str | None = None) -> Ensemble:
    entries: list[tuple[float, QString]] = []
    for lineno, line in text_lines(text):
        fields = line.split(None, 1)
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected '<p> <state>'")
        try:
            p = float(fields[0])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad probability: {exc}") from exc
        entries.append((p, load_state_ref(fields[1], base_dir, lineno)))
    if not entries:
        raise FormatError("ensemble has no entries")
    return Ensemble(entries)


def dump_ensemble(e: Ensemble) -> str:
    """Serialize all-inline, entries ordered by their serialized states."""
    rows = [(p, format_inline_state(state)) for p, state in e]
    rows.sort(key=lambda row: (len(row[1]), row[1]))
    return "\n".join(f"{p!r} {text}" for p, text in rows) + "\n"


def read_ensemble_file(path: str) -> Ensemble:
    return load_ensemble(read_text(path), base_dir=os.path.dirname(path) or ".")


def write_ensemble_file(path: str, e: Ensemble) -> None:
    write_text(path, dump_ensemble(e))
