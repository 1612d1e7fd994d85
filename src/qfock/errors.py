"""Exception hierarchy shared across the package.

Every domain failure derives from :class:`QFockError` so callers (and the
command line driver) can distinguish modelling errors from programming
mistakes, which surface as plain ``ValueError``/``TypeError``.
"""

from __future__ import annotations


class QFockError(Exception):
    """Base class for all domain errors raised by this package."""


# --- quantum strings -------------------------------------------------------

class EmptyStateError(QFockError):
    """A state ended up with no terms (all amplitudes zero or none given)."""


class NotNormalizedError(QFockError):
    """Squared amplitudes do not sum to 1 within tolerance."""


class DuplicateKeyError(QFockError):
    """The same bitstring appeared twice in a term list or program table."""


class LengthCapExceededError(QFockError):
    """A bitstring operation would exceed the global length cap."""


# --- linear algebra --------------------------------------------------------

class ProbabilitiesDontSumError(QFockError):
    """Ensemble probabilities do not sum to 1 within tolerance."""


class NotHermitianError(QFockError):
    """Matrix is not Hermitian within tolerance."""


class InvalidDistributionError(QFockError):
    """A probability vector is malformed (negative, tiny, or wrong sum)."""


class DimensionCapExceededError(QFockError):
    """A dense operator would exceed the supported dimension cap."""


class DimensionMismatchError(QFockError):
    """Subsystem dimensions are inconsistent with the operator they describe."""


# --- classical codes -------------------------------------------------------

class NotPrefixFreeError(QFockError):
    """A codeword table contains a codeword that prefixes another."""


class MissingCodewordError(QFockError):
    """A source symbol with positive probability has no codeword."""


# --- quantum codes ---------------------------------------------------------

class NotOrthonormalError(QFockError):
    """A family of states that must be orthonormal is not."""


class ArityMismatchError(QFockError):
    """Codeword table size does not match the source basis size."""


class OutOfSpanError(QFockError):
    """A state lies outside the span a code or machine can describe."""


class NotOrthogonalError(QFockError):
    """States that must be pairwise orthogonal are not."""


class InvalidDeltaError(QFockError):
    """A slack or threshold is out of range: the typical-subspace delta must
    be positive and finite, the nonadditivity threshold k finite."""


# --- describer machines ----------------------------------------------------

class NoDescriberError(QFockError):
    """No machine in the catalog spans the given state."""


class NoOverlapError(QFockError):
    """No program output has nonzero overlap with the target state."""


class CapExceededError(QFockError, ValueError):
    """A size parameter lies outside the range whose work is bounded.

    Raised before any work starts, so an accepted input always finishes
    in bounded time and memory.
    """


# --- experiments -----------------------------------------------------------

class InvalidAmplitudeError(QFockError):
    """A squared amplitude parameter must lie strictly between 0 and 1.

    Its n-copy weights must also stay above floating-point underflow.
    """


class BlockTooLargeForCatalogError(QFockError):
    """The catalog does not span every basis string of the requested block."""


class DimOutOfRangeError(QFockError):
    """Requested random-state dimension is outside the supported range."""


# --- file formats ----------------------------------------------------------

class FormatError(QFockError):
    """A text input (state, ensemble, or machine file) is malformed."""
