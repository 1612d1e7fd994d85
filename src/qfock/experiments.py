"""Desk-scale reproductions of the structural theorems.

Each function here assembles primitives from the other modules into a
self-contained, checkable report:

* ``incompressibility_report``: no prefix-flagged catalog can describe
  every member of a uniform family below the entropy of the mixture,
  and dropping the prefix discipline only halves the bound.
* ``multicopy_report``: the symmetric expansion of n copies of a
  two-term state concentrates on n+1 weights; coding those weights
  naively (literal per-string probabilities) versus normalized shows a
  strict gap, the normalization defect ``log2 Z``.
* ``nonadditivity_search``: pigeonhole witnesses in both directions
  that the average-length complexity of a balanced two-term state can
  sit far from the average of its parts.
* ``entropy_sandwich_report``: the expected catalog complexity of an
  ensemble is wedged between S(rho) and S(rho) + 1 + c once the catalog
  contains a lossless code for the ensemble's density operator.
* ``inequality_check``: evaluate a linear entropy expression over
  subsystem marginals, either on an explicit joint state or on a
  product state where additivity makes every marginal entropy a sum.
  Parties may have labels of any lengths if every kept set of them
  concatenates unambiguously; an int party means fixed-width labels.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .codes import ceil_neg_log2, kraft_sum
from .complexity import (
    MachineCatalog,
    _query,
    index_cost,
    universal_complexity,
)
from .errors import (
    BlockTooLargeForCatalogError,
    CapExceededError,
    DimOutOfRangeError,
    InvalidAmplitudeError,
    InvalidDeltaError,
    NoDescriberError,
    NotPrefixFreeError,
)
from .fock import QString

# linalg loads numpy, so the functions that need it import it themselves:
# multicopy_report and nonadditivity_search run without numpy.
if TYPE_CHECKING:
    from .linalg import DensityOperator, Ensemble

RANDOM_DIM_MIN = 2
RANDOM_DIM_MAX = 64
MULTICOPY_MAX_N = 60
BOUND_TOL = 1e-6
#: Round-off allowed where two float computations of one value meet: the
#: nonadditivity gaps against k, the sandwich bounds, and the CLI's
#: ``ineq`` product-mode value against its joint cross-check.
ROUNDOFF_TOL = 1e-9


def random_density(dim: int, seed: int) -> DensityOperator:
    """A Ginibre-distributed random density operator.

    ``G G*/tr(G G*)`` for a square matrix of standard complex normal
    entries; the same seed always yields the same operator.  Basis
    labels are fixed-width binary, so power-of-two dimensions compose
    directly with ``partial_trace``.
    """
    import numpy as np

    from .linalg import DensityOperator, subsystem_labels

    if not RANDOM_DIM_MIN <= dim <= RANDOM_DIM_MAX:
        raise DimOutOfRangeError(
            f"dim must be in {RANDOM_DIM_MIN}..{RANDOM_DIM_MAX}, got {dim}"
        )
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityOperator(subsystem_labels([dim]), m)


# --- incompressibility ------------------------------------------------------

@dataclass(frozen=True)
class StateComplexity:
    """Catalog complexity of one family member."""

    state_id: int
    catalog_value: float
    machine_index: int
    description_length: float


@dataclass(frozen=True)
class IncompressibilityReport:
    member_count: int
    entropy: float
    prefix_bound: float
    plain_bound: float
    all_prefix: bool
    applicable_bound: float
    per_state: tuple[StateComplexity, ...]
    max_description_length: float
    verified: bool


def incompressibility_report(
    states: Sequence[QString], cat: MachineCatalog
) -> IncompressibilityReport:
    """Check the family against the entropy floor of its uniform mixture.

    For each member the report carries both the catalog complexity
    (index cost included) and the bare description length on the best
    spanning machine.  The verification flag compares the largest bare
    description length against S(rho) for prefix-flagged catalogs and
    against (S(rho) - 1) / 2 otherwise; the catalog values only exceed
    the bare lengths, so the flag is the stronger statement.
    """
    from .linalg import Ensemble, density_from_ensemble, von_neumann_entropy

    members = list(states)
    if not members:
        raise ValueError("no states given")
    ensemble = Ensemble([(1.0 / len(members), s) for s in members])
    entropy = von_neumann_entropy(density_from_ensemble(ensemble))
    all_prefix = cat.all_prefix()
    prefix_bound = entropy
    plain_bound = (entropy - 1.0) / 2.0
    applicable = prefix_bound if all_prefix else plain_bound

    per_state = []
    for sid, state in enumerate(members):
        est, bare = _query(cat, state, prune=False)
        per_state.append(StateComplexity(sid, est.value, est.machine_index, bare))
    max_len = max(s.description_length for s in per_state)
    return IncompressibilityReport(
        member_count=len(members),
        entropy=entropy,
        prefix_bound=prefix_bound,
        plain_bound=plain_bound,
        all_prefix=all_prefix,
        applicable_bound=applicable,
        per_state=tuple(per_state),
        max_description_length=max_len,
        verified=bool(max_len >= applicable - BOUND_TOL),
    )


# --- multi-copy weights -----------------------------------------------------

@dataclass(frozen=True)
class MultiCopyReport:
    """Weight-and-length table for n copies of a two-term state."""

    alpha2: float
    n: int
    z_norm: float
    weights: tuple[float, ...]
    raw_lengths: tuple[int, ...]
    normalized_lengths: tuple[int, ...]
    expected_raw: float
    expected_normalized: float
    naive_length: int


def multicopy_report(alpha2: float, n: int) -> MultiCopyReport:
    """Expected codeword lengths for the symmetric n-copy expansion.

    A two-term state with squared amplitudes ``(a, 1-a)`` expands over
    the n+1 symmetric sectors with binomial weights
    ``Q(i) = C(n,i) a^i (1-a)^(n-i)``.  The literal per-string
    probabilities ``a^i (1-a)^(n-i)`` sum to ``z_norm <= 1``, so coding
    straight off them wastes ``-log2 z_norm`` bits against coding the
    normalized sector distribution.  The copy count must be an integer:
    a float or a string raises ``TypeError`` rather than being truncated.
    """
    alpha2 = float(alpha2)
    if not 0.0 < alpha2 < 1.0:
        raise InvalidAmplitudeError(
            f"squared amplitude must be strictly inside (0, 1), got {alpha2!r}"
        )
    n = operator.index(n)
    if not 1 <= n <= MULTICOPY_MAX_N:
        raise CapExceededError(f"copy count must be in 1..{MULTICOPY_MAX_N}, got {n}")
    beta2 = 1.0 - alpha2
    raw = [alpha2**i * beta2 ** (n - i) for i in range(n + 1)]
    if 0.0 in raw:
        raise InvalidAmplitudeError(
            f"squared amplitude {alpha2!r} at n={n} copies underflows a literal "
            f"weight to 0.0"
        )
    z_norm = float(sum(raw))
    weights = [math.comb(n, i) * raw[i] for i in range(n + 1)]
    raw_lengths = [ceil_neg_log2(p) for p in raw]
    normalized_lengths = [ceil_neg_log2(p / z_norm) for p in raw]
    expected_raw = sum(q * l for q, l in zip(weights, raw_lengths))
    expected_normalized = sum(q * l for q, l in zip(weights, normalized_lengths))
    return MultiCopyReport(
        alpha2=alpha2,
        n=n,
        z_norm=z_norm,
        weights=tuple(float(q) for q in weights),
        raw_lengths=tuple(raw_lengths),
        normalized_lengths=tuple(normalized_lengths),
        expected_raw=float(expected_raw),
        expected_normalized=float(expected_normalized),
        naive_length=n,
    )


def multicopy_kraft(report: MultiCopyReport) -> float:
    """Kraft sum of the raw lengths; always feasible since z_norm <= 1."""
    return kraft_sum(report.raw_lengths)


# --- nonadditivity witnesses -------------------------------------------------

@dataclass(frozen=True)
class NonadditivityReport:
    m_block: int
    k: float
    n_star: int
    value_n: float
    value_phi_plus: float
    value_phi_minus: float
    value_zero: float
    phi_average: float
    gap_concentrated: float
    gap_diluted: float
    success_concentrated: bool
    success_diluted: bool


def nonadditivity_search(
    m_block: int, cat: MachineCatalog, k: float
) -> NonadditivityReport:
    """Pigeonhole witnesses that complexity is not additive over terms.

    Over the block ``n in [2^m_block, 2^(m_block+1))`` the search picks
    the n whose basis string is costliest for the catalog (ties to the
    smallest n).  With ``phi+-`` the balanced superpositions of |0> and
    |n*>, the concentrated gap compares the cost of |n*> against the
    phi average, and the diluted gap compares the phi average against
    the cost of |0>; each direction succeeds when its gap exceeds k by
    more than ``ROUNDOFF_TOL``, so a tie cannot be promoted by float noise.
    """
    if m_block < 1:
        raise CapExceededError(f"m_block must be at least 1, got {m_block}")
    if not math.isfinite(k):
        raise InvalidDeltaError(f"threshold k must be finite, got {k!r}")
    lo = 1 << m_block
    hi = 1 << (m_block + 1)

    def catalog_value(state: QString) -> float:
        try:
            return universal_complexity(cat, state).value
        except NoDescriberError as exc:
            raise BlockTooLargeForCatalogError(
                f"catalog does not span the block [2^{m_block}, 2^{m_block + 1})"
            ) from exc

    values = {n: catalog_value(QString({format(n, "b"): 1.0})) for n in range(lo, hi)}
    n_star = max(values, key=values.__getitem__)
    best = values[n_star]
    bits_star = format(n_star, "b")
    amp = 1.0 / math.sqrt(2.0)
    phi_plus = QString({"0": amp, bits_star: amp})
    phi_minus = QString({"0": amp, bits_star: -amp})
    value_plus = catalog_value(phi_plus)
    value_minus = catalog_value(phi_minus)
    value_zero = catalog_value(QString({"0": 1.0}))
    phi_avg = 0.5 * (value_plus + value_minus)
    gap_conc = best - phi_avg
    gap_dil = phi_avg - value_zero
    return NonadditivityReport(
        m_block=m_block,
        k=float(k),
        n_star=n_star,
        value_n=float(best),
        value_phi_plus=float(value_plus),
        value_phi_minus=float(value_minus),
        value_zero=float(value_zero),
        phi_average=float(phi_avg),
        gap_concentrated=float(gap_conc),
        gap_diluted=float(gap_dil),
        success_concentrated=bool(gap_conc > k + ROUNDOFF_TOL),
        success_diluted=bool(gap_dil > k + ROUNDOFF_TOL),
    )


# --- entropy sandwich --------------------------------------------------------

@dataclass(frozen=True)
class MemberComplexity:
    probability: float
    catalog_value: float
    machine_index: int


@dataclass(frozen=True)
class SandwichReport:
    entropy: float
    expected_complexity: float
    overhead: int
    per_member: tuple[MemberComplexity, ...]
    lower_ok: bool
    upper_ok: bool


def entropy_sandwich_report(e: Ensemble, cat: MachineCatalog) -> SandwichReport:
    """Wedge the expected catalog complexity of ``e`` against S(rho).

    Requires a prefix-flagged catalog.  The overhead ``c`` is the
    largest index cost in the catalog; whenever some machine in the
    catalog realizes a lossless code for the ensemble's density
    operator, the expectation satisfies
    ``S(rho) <= E <= S(rho) + 1 + c``, each side checked within
    ``ROUNDOFF_TOL``.
    """
    from .linalg import density_from_ensemble, von_neumann_entropy

    if not cat.all_prefix():
        raise NotPrefixFreeError("sandwich bounds need a prefix-flagged catalog")
    entropy = von_neumann_entropy(density_from_ensemble(e))
    per_member = []
    expected = 0.0
    for p, state in e:
        est = universal_complexity(cat, state)
        expected += p * est.value
        per_member.append(
            MemberComplexity(
                probability=float(p),
                catalog_value=est.value,
                machine_index=est.machine_index or 0,
            )
        )
    overhead = index_cost(len(cat))
    return SandwichReport(
        entropy=float(entropy),
        expected_complexity=float(expected),
        overhead=overhead,
        per_member=tuple(per_member),
        lower_ok=bool(expected >= entropy - ROUNDOFF_TOL),
        upper_ok=bool(expected <= entropy + 1.0 + overhead + ROUNDOFF_TOL),
    )


# --- entropy inequalities ----------------------------------------------------

class InequalitySpec:
    """A linear expression ``sum_W lambda_W S(rho^W)`` over subsystems 1..n."""

    __slots__ = ("_n_parties", "_terms")

    def __init__(
        self, n_parties: int, terms: Sequence[tuple[Sequence[int], float]]
    ) -> None:
        n_parties = int(n_parties)
        if n_parties < 1:
            raise ValueError("need at least one party")
        seen: set[frozenset[int]] = set()
        clean: list[tuple[frozenset[int], float]] = []
        for subset, coeff in terms:
            w = frozenset(int(i) for i in subset)
            if not w:
                raise ValueError("subsets must be non-empty")
            if min(w) < 1 or max(w) > n_parties:
                raise ValueError(f"subset {sorted(w)} outside 1..{n_parties}")
            if w in seen:
                raise ValueError(f"duplicate subset {sorted(w)}")
            seen.add(w)
            clean.append((w, float(coeff)))
        if not clean:
            raise ValueError("no terms given")
        self._n_parties = n_parties
        self._terms = tuple(clean)

    @property
    def n_parties(self) -> int:
        return self._n_parties

    @property
    def terms(self) -> tuple[tuple[frozenset[int], float], ...]:
        return self._terms

    def __repr__(self) -> str:
        body = " + ".join(
            f"{coeff:g}*S({''.join(map(str, sorted(w)))})" for w, coeff in self._terms
        )
        return f"InequalitySpec({body})"


def inequality_check(
    spec: InequalitySpec,
    rho: DensityOperator | Sequence[DensityOperator],
    dims: Sequence[int | Sequence[str]] | None = None,
    *,
    mode: str = "joint",
) -> float:
    """Evaluate ``sum_W lambda_W S(rho^W)``.

    Joint mode takes an explicit joint state plus one basis (or int
    dimension) per party and computes every marginal with ``partial_trace``.
    Product mode takes one factor per party and uses additivity,
    ``S(rho^W) = sum_{i in W} S(rho_i)``; no joint operator is formed.
    """
    from .linalg import DensityOperator, partial_trace, von_neumann_entropy

    if mode == "joint":
        if not isinstance(rho, DensityOperator):
            raise TypeError("joint mode expects a single DensityOperator")
        if dims is None:
            raise ValueError("joint mode requires the party bases or dimensions")
        if len(dims) != spec.n_parties:
            raise ValueError(f"{len(dims)} party bases for {spec.n_parties} parties")
        total = 0.0
        for w, coeff in spec.terms:
            total += coeff * von_neumann_entropy(partial_trace(rho, dims, w))
        return float(total)
    if mode == "product":
        factors = list(rho)
        if len(factors) != spec.n_parties:
            raise ValueError(f"{len(factors)} factors for {spec.n_parties} parties")
        entropies = [von_neumann_entropy(f) for f in factors]
        total = 0.0
        for w, coeff in spec.terms:
            total += coeff * sum(entropies[i - 1] for i in w)
        return float(total)
    raise ValueError(f"mode must be 'joint' or 'product', got {mode!r}")


def product_state(factors: Sequence[DensityOperator]) -> DensityOperator:
    """Tensor together per-party factors (left to right)."""
    from .linalg import tensor_product

    factors = list(factors)
    if not factors:
        raise ValueError("no factors given")
    out = factors[0]
    for f in factors[1:]:
        out = tensor_product(out, f)
    return out
