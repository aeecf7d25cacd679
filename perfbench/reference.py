"""Reference states computed without gridprep.

Everything here is rebuilt from the physics: closed-form samples of each
orbital family, Loewdin orthonormalization of a basis on the grid,
determinants and permanents by an explicit sum over permutations, and the
superpositions and mixtures made from them.  The benchmark checks gridprep's
outputs against these, so this module must never import gridprep.

Conventions shared with gridprep's public output format:
  * an orbital is sampled at the sites x_j = j * L / 2^l and normalized;
  * an m-particle vector has particle register 0 in the least significant
    position of the flat index.
"""
from __future__ import annotations

import math
from functools import reduce
from itertools import permutations

import numpy as np
from scipy import special

LENGTH = 1.0
#: gridprep's default Hermite width is L / 20.
HERMITE_WIDTH = LENGTH / 20.0


def orbital_samples(family: str, param: int, l: int) -> np.ndarray:
    """Normalized point samples of one orbital on the 2^l-site grid."""
    n_sites = 1 << l
    x = np.arange(n_sites) * (LENGTH / n_sites)
    if family == "box-sine":
        values = np.sin(param * np.pi * x / LENGTH).astype(np.complex128)
    elif family == "ring-plane-wave":
        values = np.exp(2j * np.pi * param * x / LENGTH)
    elif family == "harmonic-hermite":
        u = (x - LENGTH / 2.0) / HERMITE_WIDTH
        values = (special.eval_hermite(param, u)
                  * np.exp(-u * u / 2.0)).astype(np.complex128)
    else:
        raise ValueError(f"no closed form for family {family!r}")
    return values / np.linalg.norm(values)


def grid_basis(orbitals, l: int) -> np.ndarray:
    """(2^l, M) matrix of sampled orbitals after symmetric (Loewdin)
    orthonormalization; `orbitals` is a list of (family, param) pairs.
    """
    raw = np.column_stack([orbital_samples(f, p, l) for f, p in orbitals])
    evals, evecs = np.linalg.eigh(raw.conj().T @ raw)
    return raw @ (evecs * evals ** -0.5) @ evecs.conj().T


def _permutation_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def symmetrized_state(phi: np.ndarray, counts, fermionic: bool) -> np.ndarray:
    """Determinant (fermions) or permanent (bosons) of the occupied columns
    of `phi`, by an explicit sum over all m! permutations.

    `counts[i]` is the occupation of orbital i.
    """
    occupied = [i for i, c in enumerate(counts) for _ in range(c)]
    m = len(occupied)
    total = 0.0
    for perm in permutations(range(m)):
        sign = _permutation_sign(perm) if fermionic else 1
        # axes (x_{m-1}, ..., x_0): register 0 ends up least significant
        term = reduce(np.multiply.outer,
                      [phi[:, occupied[perm[b]]] for b in reversed(range(m))])
        total = total + sign * term
    norm = math.factorial(m) * math.prod(math.factorial(c) for c in counts)
    return np.ravel(total) / math.sqrt(norm)


def superposition_state(phi: np.ndarray, terms, fermionic: bool) -> np.ndarray:
    """Normalized sum_w a_w |Psi_w> over (amplitude, counts) terms."""
    total = sum(a * symmetrized_state(phi, counts, fermionic)
                for a, counts in terms)
    return total / np.linalg.norm(total)


def gibbs_weights(beta: float, energies) -> np.ndarray:
    """exp(-beta E_i) / Z."""
    energies = np.asarray(energies, dtype=float)
    w = np.exp(-beta * (energies - energies.min()))
    return w / w.sum()


def mixture(phi: np.ndarray, weighted, fermionic: bool) -> np.ndarray:
    """sum_i p_i |Psi_i><Psi_i| over (weight, counts) components."""
    rho = 0.0
    for p, counts in weighted:
        v = symmetrized_state(phi, counts, fermionic)
        rho = rho + p * np.outer(v, v.conj())
    return rho
