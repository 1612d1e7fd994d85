"""Dense Hermitian linear algebra over labeled bitstring bases.

Density operators carry their basis labels with them so that states,
codes, and machines built on bitstrings can move in and out of matrix
form without bookkeeping at the call sites.  All logarithms are base 2;
entropies are in bits.

The eigensolver is LAPACK's Hermitian ``eigh`` (through numpy), with
the order of ties and the phase of each eigenvector fixed by this module
rather than by the LAPACK build.

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
    text_lines,
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


class Ensemble:
    """A finite mixture of quantum strings with positive weights summing to 1."""

    __slots__ = ("_entries",)

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

    @property
    def entries(self) -> tuple[tuple[float, QString], ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)


class DensityOperator:
    """A trace-one Hermitian operator over an explicit bitstring basis."""

    __slots__ = ("_basis", "_matrix", "_index")

    def __init__(self, basis: Sequence[str], matrix) -> None:
        labels = tuple(check_bitstring(b) for b in basis)
        _check_dim(len(labels), "dimension")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if m.shape[0] != len(labels):
            raise DimensionMismatchError(
                f"{len(labels)} basis labels for a {m.shape[0]}-dimensional matrix"
            )
        if m.shape[0] == 0:
            raise ValueError("dimension must be at least 1")
        # Negated tests, so NaN entries fail them instead of passing.
        herm_err = float(np.max(np.abs(m - m.conj().T)))
        if not herm_err <= HERM_TOL:
            raise NotHermitianError(f"Hermiticity violated by {herm_err:.3e}")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace is {tr!r}, not 1")
        m.flags.writeable = False
        self._basis = labels
        self._matrix = m
        self._index = {b: i for i, b in enumerate(labels)}

    @property
    def basis(self) -> tuple[str, ...]:
        return self._basis

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return len(self._basis)

    def index_of(self, bits: str) -> int:
        return self._index[bits]

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def ensemble_basis(e: Ensemble) -> tuple[str, ...]:
    keys: set[str] = set()
    for _, state in e:
        keys.update(state.keys())
    return tuple(sorted(keys, key=length_lex))


def state_vector(state: QString, basis: Sequence[str]) -> np.ndarray:
    """Embed a quantum string into the coordinate vector of ``basis``."""
    index = {b: i for i, b in enumerate(basis)}
    v = np.zeros(len(basis), dtype=complex)
    for bits, amp in state.items():
        try:
            v[index[bits]] = amp
        except KeyError:
            raise DimensionMismatchError(
                f"state term {bits!r} is outside the given basis"
            ) from None
    return v


def density_from_ensemble(e: Ensemble | Iterable[tuple[float, QString]]) -> DensityOperator:
    """Mix the ensemble members into a density operator.

    The basis is the union of all term labels in canonical order.
    """
    if not isinstance(e, Ensemble):
        e = Ensemble(e)
    basis = ensemble_basis(e)
    _check_dim(len(basis), "ensemble dimension")
    m = np.zeros((len(basis), len(basis)), dtype=complex)
    for p, state in e:
        v = state_vector(state, basis)
        m += p * np.outer(v, v.conj())
    return DensityOperator(basis, m)


def eig_hermitian(rho: DensityOperator | np.ndarray) -> SpectralDecomposition:
    """Full spectral decomposition, eigenvalues sorted descending.

    An eigenvector's pivot is its largest-magnitude component, the first
    one within ``PHASE_TIE_TOL`` of the largest.  Each eigenvector is
    scaled so that its pivot is real and positive, and equal eigenvalues
    are ordered by the position of their pivots, so neither the phases
    nor the order of ties depend on the LAPACK build.
    """
    m = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    herm_err = float(np.max(np.abs(m - m.conj().T)))
    if not herm_err <= HERM_TOL:
        raise NotHermitianError(f"Hermiticity violated by {herm_err:.3e}")
    vals, vecs = np.linalg.eigh(m)
    mags = np.abs(vecs)
    pivot = np.argmax(mags >= mags.max(axis=0) - PHASE_TIE_TOL, axis=0)
    cols = np.arange(len(vals))
    peak = vecs[pivot, cols]
    vecs = vecs * (np.abs(peak) / peak)
    vecs[pivot, cols] = np.abs(peak)
    order = np.lexsort((pivot, -vals))
    vals = np.ascontiguousarray(vals[order])
    vecs = np.ascontiguousarray(vecs[:, order])
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)


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
    dec = eig_hermitian(rho)
    return entropy_of_spectrum(dec.eigenvalues)


def tensor_product(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product with concatenated basis labels."""
    _check_dim(a.dim * b.dim, "product dimension")
    basis = tuple(x + y for x in a.basis for y in b.basis)
    if len(set(basis)) != len(basis):
        raise DimensionMismatchError(
            "concatenated basis labels collide; factors need fixed-width labels"
        )
    return DensityOperator(basis, np.kron(a.matrix, b.matrix))


def _label_width(dim: int) -> int:
    return max(1, (dim - 1).bit_length())


def subsystem_labels(dims: Sequence[int]) -> tuple[str, ...]:
    """Canonical fixed-width labels for the product basis of ``dims``."""
    widths = [_label_width(d) for d in dims]
    labels = [""]
    for d, w in zip(dims, widths):
        labels = [
            prefix + format(v, "b").zfill(w) for prefix in labels for v in range(d)
        ]
    return tuple(labels)


def partial_trace(
    rho: DensityOperator, dims: Sequence[int], keep: Iterable[int]
) -> DensityOperator:
    """Trace out every subsystem not in ``keep``.

    ``dims`` lists the subsystem dimensions in order; subsystems are
    numbered from 1.  Basis labels must be fixed-width concatenations of
    per-subsystem labels (width ``ceil(log2 dim)``, minimum 1).
    """
    dims = [int(d) for d in dims]
    if any(d < 2 for d in dims):
        raise DimensionMismatchError("subsystem dimensions must be at least 2")
    n = len(dims)
    full_dim = math.prod(dims)
    _check_dim(full_dim, "joint dimension")
    kept = sorted(set(int(k) for k in keep))
    if not kept or kept[0] < 1 or kept[-1] > n:
        raise DimensionMismatchError(
            f"keep must be a non-empty subset of 1..{n}, got {kept}"
        )
    widths = [_label_width(d) for d in dims]
    total_width = sum(widths)
    offsets = []
    pos = 0
    for w in widths:
        offsets.append((pos, pos + w))
        pos += w

    def embed_index(bits: str) -> int:
        if len(bits) != total_width:
            raise DimensionMismatchError(
                f"basis label {bits!r} does not split into widths {widths}"
            )
        idx = 0
        for (lo, hi), d in zip(offsets, dims):
            v = int(bits[lo:hi], 2)
            if v >= d:
                raise DimensionMismatchError(
                    f"label slice {bits[lo:hi]!r} out of range for dimension {d}"
                )
            idx = idx * d + v
        return idx

    rows = [embed_index(b) for b in rho.basis]
    full = np.zeros((full_dim, full_dim), dtype=complex)
    full[np.ix_(rows, rows)] = rho.matrix
    tensor = full.reshape(tuple(dims) * 2)

    # one letter per row axis; traced subsystems reuse it on the col axis
    keep_set = set(kept)
    letters = iter("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    row_sub = [next(letters) for _ in range(n)]
    col_sub = [row_sub[i] if (i + 1) not in keep_set else next(letters) for i in range(n)]
    out_sub = "".join(row_sub[i - 1] for i in kept) + "".join(col_sub[i - 1] for i in kept)
    contracted = np.einsum("".join(row_sub) + "".join(col_sub) + "->" + out_sub, tensor)

    out_dims = [dims[i - 1] for i in kept]
    out_dim = math.prod(out_dims)
    out = contracted.reshape(out_dim, out_dim)
    return DensityOperator(subsystem_labels(out_dims), out)


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
    with open(path, "r", encoding="utf-8") as fh:
        return load_ensemble(fh.read(), base_dir=os.path.dirname(path) or ".")


def write_ensemble_file(path: str, e: Ensemble) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_ensemble(e))
