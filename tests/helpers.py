"""Tools that several test modules share and no library driver needs."""
from dataclasses import replace

import numpy as np

from gridprep.basis import BasisSet, kronecker_delta
from gridprep.errors import StructuralError, ValidationError
from gridprep.statevec import QuantumState, control_masks


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


def gap(basis: BasisSet) -> float:
    """Half the minimum spacing between distinct energies (0 if all tie)."""
    distinct = np.unique(np.round(basis.energies, 12))
    if distinct.size < 2:
        return 0.0
    return float(np.min(np.diff(distinct)) / 2.0)


def perturbed(basis: BasisSet, target: int, strength: float) -> BasisSet:
    """`basis` with orbital `target`'s energy shifted by `strength`."""
    spectral_gap = gap(basis)
    if spectral_gap > 0 and abs(strength) >= spectral_gap / 2:
        raise ValidationError(
            f"perturbation {strength} exceeds half the spectral gap "
            f"{spectral_gap}")
    orbitals = list(basis.orbitals)
    orbitals[target] = replace(orbitals[target],
                               energy=orbitals[target].energy + strength)
    return BasisSet(orbitals)


# -- gate-level phase estimation: the reference for the closed form --------

def qft_matrix(width: int, inverse: bool = False) -> np.ndarray:
    """Dense QFT on `width` qubits, kernel exp(+2 pi i j k / d) / sqrt(d),
    conjugated when `inverse`.
    """
    d = 1 << width
    jk = np.outer(np.arange(d), np.arange(d))
    sign = -1.0 if inverse else 1.0
    return np.exp(sign * 2j * np.pi * jk / d) / np.sqrt(d)


def controlled_unitary(state: QuantumState, segment: str, u: np.ndarray,
                       controls=None) -> QuantumState:
    """`u` on one segment where every (global qubit, bit) control matches,
    identity elsewhere.
    """
    seg = state.layout.segment(segment)
    amps = state.amplitudes.copy()
    cube = amps.reshape(-1, seg.dim, 1 << seg.offset)
    hi_sel, lo_sel = control_masks(state, seg, controls, cube.shape[0],
                                   cube.shape[2])
    block = np.ix_(hi_sel, np.arange(seg.dim), lo_sel)
    cube[block] = np.einsum("ab,hbl->hal", u, cube[block])
    return QuantumState(state.layout, amps)


def textbook_phase_estimate(state: QuantumState, readout_segment: str,
                            target_segment: str, u: np.ndarray,
                            adjoint: bool = False) -> QuantumState:
    """The phase-estimation circuit gate by gate: QFT on the readout,
    u^(2^b) on the target controlled by readout qubit b (u^dagger with
    `adjoint`), inverse QFT.
    """
    readout = state.layout.segment(readout_segment)
    power = np.asarray(u, dtype=np.complex128)
    if adjoint:
        power = power.conj().T
    state = controlled_unitary(state, readout_segment,
                               qft_matrix(readout.width))
    for b in range(readout.width):
        state = controlled_unitary(state, target_segment, power,
                                   [(readout.offset + b, 1)])
        power = power @ power
    return controlled_unitary(state, readout_segment,
                              qft_matrix(readout.width, inverse=True))
