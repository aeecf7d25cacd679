"""Output checks.  Each returns a list of (name, value, limit) readings; a
reading passes when value <= limit.  No gridprep import: the checks see
only numpy arrays and plain numbers.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.sparse.linalg import eigsh

#: Pure-state infidelity allowed against the reference for loads and
#: determinants, and for exactly representable phase estimation.
PURE_TOL = 1e-9
EXACT_PHASE_TOL = 1e-8
EXCHANGE_TOL = 1e-10
RHO_TOL = 1e-8
TRACE_TOL = 1e-10
EIGEN_TOL = 1e-8


def infidelity(a: np.ndarray, b: np.ndarray) -> float:
    """1 - |<a|b>| / (|a| |b|)."""
    a = np.ravel(a)
    b = np.ravel(b)
    if a.shape != b.shape:
        return 1.0
    overlap = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return max(0.0, 1.0 - float(overlap))


def irrational_phase_tol(m: int, eps_pe: float) -> float:
    """1 - 2 sqrt(1 - d) / (2 - d) with d = m * eps_pe.

    Each of the m identifications fails with probability at most eps_pe,
    which can scale a branch amplitude by a factor in [1 - d, 1].  By the
    Kantorovich inequality the overlap of a vector with such a rescaled
    copy is at least 2 sqrt(1 - d) / (2 - d).
    """
    d = m * eps_pe
    return 1.0 - 2.0 * math.sqrt(1.0 - d) / (2.0 - d)


def exchange_overlap(vec: np.ndarray, m: int, l: int) -> complex:
    """<psi| P_01 |psi> for the exchange of particle registers 0 and 1."""
    cube = np.ravel(vec).reshape([1 << l] * m)  # axes: particle m-1 .. 0
    swapped = np.swapaxes(cube, m - 1, m - 2).reshape(-1)
    return complex(np.vdot(np.ravel(vec), swapped))


def check_pure(vec, ref, tol, error_bound=None):
    inf = infidelity(vec, ref)
    out = [("infidelity", inf, tol)]
    if error_bound is not None:
        out.append(("infidelity<=error_bound", inf, error_bound))
    return out


def check_exchange(vec, m: int, l: int, fermionic: bool):
    expected = -1.0 if fermionic else 1.0
    return [("exchange_overlap",
             abs(exchange_overlap(vec, m, l) - expected), EXCHANGE_TOL)]


def check_mixture(rho: np.ndarray, ref: np.ndarray, weights):
    """Elementwise agreement, unit trace, and the leading eigenvalues equal
    to the ensemble weights.
    """
    weights = np.sort(np.asarray(weights, dtype=float))[::-1]
    out = [
        ("rho_elementwise", float(np.max(np.abs(rho - ref))), RHO_TOL),
        ("trace", abs(complex(np.trace(rho)) - 1.0), TRACE_TOL),
    ]
    k = weights.size
    # a fixed start vector keeps the Lanczos iteration deterministic
    lead = eigsh(rho, k=k, which="LA", tol=0,
                 v0=np.ones(rho.shape[0], dtype=rho.dtype),
                 return_eigenvectors=False)
    out.append(("leading_eigenvalues",
                float(np.max(np.abs(np.sort(lead)[::-1] - weights))),
                EIGEN_TOL))
    return out


def failing(readings):
    """The readings that exceed their limit (NaN fails too)."""
    return [(name, value, limit) for name, value, limit in readings
            if not value <= limit]
