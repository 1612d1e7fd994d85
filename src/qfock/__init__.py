"""qfock: indeterminate-length quantum strings, codes, and complexity.

The package models normalized superpositions of classical bitstrings of
different lengths, the variable-length quantum codes built on them, and
finite describer-machine stand-ins for quantum program complexity,
together with the entropy machinery (LAPACK Hermitian eigensolver,
partial traces, inequality checks) needed to reproduce the associated
coding theorems numerically.

Importing the package does not import numpy.  The names from ``errors``,
``fock``, ``codes`` and ``complexity`` load eagerly; the names from
``linalg``, ``qcode`` and ``experiments`` (densities, eigensolver,
quantum codes, theorem reports) load with their module on first access.
``__all__`` lists both kinds.
"""

__version__ = "0.1.0"

from .errors import (
    QFockError,
    EmptyStateError,
    NotNormalizedError,
    DuplicateKeyError,
    LengthCapExceededError,
    ProbabilitiesDontSumError,
    NotHermitianError,
    InvalidDistributionError,
    DimensionCapExceededError,
    DimensionMismatchError,
    NotPrefixFreeError,
    MissingCodewordError,
    NotOrthonormalError,
    ArityMismatchError,
    OutOfSpanError,
    NotOrthogonalError,
    InvalidDeltaError,
    NoDescriberError,
    NoOverlapError,
    CapExceededError,
    InvalidAmplitudeError,
    BlockTooLargeForCatalogError,
    DimOutOfRangeError,
    FormatError,
)
from .fock import (
    EPS_TOKEN,
    LENGTH_CAP,
    QString,
    make_qstring,
    basis_state,
    average_length,
    base_length,
    inner_product,
    delimit_bits,
    self_delimit,
    pair_encode,
    pair_decode,
    sequence_encode,
    sequence_decode,
    dump_qstring,
    load_qstring,
    read_qstring_file,
    write_qstring_file,
)
from .codes import (
    PrefixCode,
    ceil_neg_log2,
    kraft_sum,
    kraft_sum_exact,
    canonical_prefix_code,
    shannon_code,
    expected_length,
    code_table_text,
    shannon_entropy,
)
from .complexity import (
    DescriberMachine,
    IdentityMachine,
    MachineCatalog,
    ComplexityEstimate,
    index_cost,
    machine_complexity,
    base_length_complexity,
    universal_complexity,
    min_description_length,
    fidelity_penalized_complexity,
    identity_machine,
    self_delimit_machine,
    machine_from_code,
    all_bitstrings,
    load_machine,
    dump_machine,
    read_machine_file,
    write_machine_file,
)
# Served on first access by __getattr__ below: linalg and qcode load numpy,
# and experiments is slow to import (its report dataclasses).
_LAZY = {
    name: module
    for module, names in {
        "linalg": (
            "Ensemble",
            "DensityOperator",
            "SpectralDecomposition",
            "density_from_ensemble",
            "eig_hermitian",
            "von_neumann_entropy",
            "entropy_of_spectrum",
            "tensor_product",
            "partial_trace",
            "subsystem_labels",
            "load_ensemble",
            "dump_ensemble",
            "read_ensemble_file",
            "write_ensemble_file",
        ),
        "qcode": (
            "CondensableCode",
            "CompressionReport",
            "LossyReport",
            "build_condensable_code",
            "encode_qstring",
            "sw_lossless_code",
            "compression_report",
            "sw_report",
            "kraft_condensable_check",
            "lossy_typical_projection",
        ),
        "experiments": (
            "StateComplexity",
            "IncompressibilityReport",
            "MultiCopyReport",
            "NonadditivityReport",
            "MemberComplexity",
            "SandwichReport",
            "InequalitySpec",
            "random_density",
            "incompressibility_report",
            "multicopy_report",
            "multicopy_kraft",
            "nonadditivity_search",
            "entropy_sandwich_report",
            "inequality_check",
            "product_state",
        ),
    }.items()
    for name in names
}

__all__ = sorted(
    {name for name in dir() if not name.startswith("_")}
    | set(_LAZY)
    | set(_LAZY.values())
)


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        # Unknown here, so ``from qfock import linalg`` imports the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
