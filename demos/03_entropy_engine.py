"""
Density operators, spectra, and entropy inequalities
====================================================

The linear-algebra layer: density operators carry explicit bitstring
basis labels, eigensystems come from LAPACK's Hermitian solver with
each eigenvector's phase fixed, and entropies of marginals can be
combined into arbitrary linear inequality expressions.
"""

import numpy as np

from qfock import (
    DensityOperator,
    Ensemble,
    InequalitySpec,
    QString,
    density_from_ensemble,
    eig_hermitian,
    inequality_check,
    partial_trace,
    random_density,
    subsystem_labels,
    tensor_product,
    von_neumann_entropy,
)

# Mix two non-orthogonal pure states and inspect the spectrum.
plus = QString({"0": 2**-0.5, "1": 2**-0.5})
ens = Ensemble([(0.5, QString({"0": 1.0})), (0.5, plus)])
rho = density_from_ensemble(ens)
dec = eig_hermitian(rho)
print("eigenvalues:", np.round(dec.eigenvalues, 6))
print("S(rho) =", von_neumann_entropy(rho))

# %% Marginals of an entangled pair
#
# A Bell pair is globally pure (entropy 0) but each half is maximally
# mixed (entropy 1).
bell = density_from_ensemble(
    [(1.0, QString({"00": 2**-0.5, "11": 2**-0.5}))]
)
half = partial_trace(bell, [2, 2], [1])
print("S(joint) =", von_neumann_entropy(bell))
print("S(half)  =", von_neumann_entropy(half))

# %% Inequality expressions
#
# S(1) + S(2) - S(12) is the mutual information; subadditivity says it
# is never negative.  Joint mode traces out marginals from one state.
mutual = InequalitySpec(2, [([1], 1.0), ([2], 1.0), ([1, 2], -1.0)])
print("I(1:2) on Bell pair:", inequality_check(mutual, bell, [2, 2]))

rng_rho = random_density(4, seed=7)
labeled = DensityOperator(subsystem_labels([2, 2]), rng_rho.matrix)
print("I(1:2) on random 2-qubit:", inequality_check(mutual, labeled, [2, 2]))

# Product mode skips the joint operator entirely and uses additivity;
# for a product state both routes agree.
a, b = random_density(2, seed=1), random_density(3, seed=2)
joint = tensor_product(a, b)
via_joint = inequality_check(mutual, joint, [2, 3])
via_parts = inequality_check(mutual, [a, b], mode="product")
print(f"product state: joint={via_joint:.3e} parts={via_parts:.3e}")

# %% Parties of indeterminate length
#
# A dyadic source emits the prefix-free words 0, 10 and 11, so its
# factor has labels of mixed length.  Each joint label of qubit (x)
# source splits into one label per party in exactly one way, so
# partial_trace takes the party bases and looks every label up.
qubit = density_from_ensemble([(0.9, QString({"0": 1.0})), (0.1, QString({"1": 1.0}))])
source = density_from_ensemble(
    [(0.5, QString({"0": 1.0})), (0.25, QString({"10": 1.0})), (0.25, QString({"11": 1.0}))]
)
joint = tensor_product(qubit, source)
print("joint labels:", joint.basis)
parties = [qubit.basis, source.basis]
print("source marginal labels:", partial_trace(joint, parties, [2]).basis)
via_joint = inequality_check(mutual, joint, parties)
via_parts = inequality_check(mutual, [qubit, source], mode="product")
print(f"qubit (x) source: joint={via_joint:.3e} parts={via_parts:.3e}")
assert abs(via_joint - via_parts) <= 1e-9, "joint and product routes must agree"
