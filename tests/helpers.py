"""Tools that several test modules share and no library driver needs."""
from dataclasses import replace

import numpy as np

from gridprep.basis import BasisSet, kronecker_delta
from gridprep.errors import StructuralError, ValidationError
from gridprep.statevec import QuantumState


def from_basis_index(layout, index: int) -> QuantumState:
    """The computational basis state |index> on `layout`."""
    if not 0 <= index < layout.dim:
        raise StructuralError(f"basis index {index} out of range")
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[index] = 1.0
    return QuantumState(layout, amps)


def segment_probabilities(state: QuantumState, segment: str) -> np.ndarray:
    """Born-rule distribution of one segment's value."""
    return np.bincount(state.segment_values(segment),
                       weights=np.abs(state.amplitudes) ** 2,
                       minlength=state.layout.segment(segment).dim)


def delta_at_site(site: int, l: int):
    """Kronecker delta on site `site` of a 2^l-site grid of length 1."""
    return kronecker_delta(site / (1 << l))


def grid_prob(orbital, l: int) -> np.ndarray:
    return np.abs(orbital.grid_values(l)) ** 2


def purity(rho) -> float:
    """Tr ρ² = Σ|ρ_ij|², which holds because ρ is Hermitian."""
    return float(np.vdot(rho.matrix, rho.matrix).real)


def perturbed(basis: BasisSet, target: int, strength: float) -> BasisSet:
    """`basis` with orbital `target`'s energy shifted by `strength`."""
    gap = basis.gap()
    if gap > 0 and abs(strength) >= gap / 2:
        raise ValidationError(
            f"perturbation {strength} exceeds half the spectral gap {gap}")
    orbitals = list(basis.orbitals)
    orbitals[target] = replace(orbitals[target],
                               energy=orbitals[target].energy + strength)
    return BasisSet(orbitals)
