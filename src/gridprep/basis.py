"""Orbital families, integration settings, and the Fock operator model.

A continuum orbital is point-sampled on the grid by one evaluation per
family, which gives the magnitudes |phi(x)| and the unit phase factors
e^{i arg phi(x)} together (a real family computes its sin or hermval once
for both); the normalized amplitudes and those factors are what the loader
takes its split ratios and its phase kickback from.  Grid-native families
(kronecker-delta, tabulated) define their amplitudes directly on sites.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError, ValidationError

#: Both exact names compute exact split ratios of the point-sampled grid
#: distribution; monte-carlo estimates them by sampling grid sites.
BACKENDS = ("analytic-cdf", "adaptive-quadrature", "monte-carlo")

#: Denominator mass below this is treated as zero (double-precision noise).
EMPTY_MASS_THRESHOLD = 1e-14

#: Most Monte Carlo samples per integral (about 80 MiB of sampler arrays).
MC_SAMPLE_CAP = 1 << 20

#: Largest entry of Φ†Φ − I a re-orthonormalized grid matrix may leave.
ORTHONORMALITY_TOL = 1e-6

#: The phase factor of a real orbital's negative sites: e^{i pi}, whose
#: imaginary part is sin(pi) = 1.2e-16 in double precision.
MINUS_ONE = np.exp(1j * np.pi)


@dataclass(frozen=True)
class Orbital:
    """One member of an orthonormal single-particle basis.

    family parameters live in `params`; `energy` is the eigenvalue of the
    Fock operator for this orbital.
    """

    family: str
    length: float
    energy: float
    params: tuple = ()

    def __post_init__(self):
        if not self.length > 0:
            raise ValidationError(
                f"orbital domain length {self.length} is not > 0")

    # -- grid oracles ------------------------------------------------------
    def grid_values(self, l: int) -> np.ndarray:
        """Normalized complex amplitudes at the sites x_j = j*L/2^l."""
        return self.sample_grid(l)[0]

    def sample_grid(self, l: int) -> tuple[np.ndarray, np.ndarray | None]:
        """`grid_values(l)` and the unit factors e^{i arg phi(x_j)}, None
        when every arg phi(x_j) is 0: those a continuum family's evaluation
        multiplied in, and for a tabulated orbital those of its normalized
        values.  A grid-native family's sites are given as they are.  A
        continuum family is evaluated in place in one float buffer of the
        2^l sites, besides its sign mask and `hermval`'s temporaries.
        """
        n_sites = 1 << l
        if self.family == "kronecker-delta":
            site = int(self.params[0] / self.length * n_sites)
            vec = np.zeros(n_sites, dtype=np.complex128)
            vec[site] = 1.0
            return vec, None
        if self.family == "tabulated":
            vec = np.array(self.params[0], dtype=np.complex128)
            if vec.size != n_sites:
                raise ValidationError(
                    f"tabulated orbital has {vec.size} entries, "
                    f"grid needs {n_sites}")
            phases, floor = None, 0.0
        else:
            xs = np.arange(n_sites, dtype=np.float64)
            xs *= self.length / n_sites
            mags, phases = self._magnitudes_and_phases(xs)
            vec = mags.astype(np.complex128) if phases is None \
                else mags * phases
            # the squares sum to about 2^l / L; to rounding noise if phi is 0
            floor = EMPTY_MASS_THRESHOLD * n_sites / self.length
        # np.einsum calls no BLAS, so the amplitudes do not depend on the
        # BLAS thread count.  statevec.vector_norm would also drop the
        # zero squares, every imaginary part where the phase is 0: a pass
        # that costs several times this sum on the grids loaded here.
        parts = vec.view(np.float64)
        norm = np.sqrt(np.einsum("i,i->", parts, parts))
        if not np.isfinite(norm):
            raise ValidationError("orbital is not finite on the grid")
        if not norm**2 > floor:
            raise ValidationError("orbital vanishes on every grid site")
        vec /= norm
        if self.family == "tabulated":  # its table carries its phases
            angle = np.angle(vec)
            phases = np.exp(1j * angle) if np.any(angle) else None
        return vec, phases

    def _magnitudes_and_phases(self, x: np.ndarray):
        """|phi(x)| and the factors e^{i arg phi(x)}, None when every arg
        is 0, of a continuum family, in place in `x` (a Hermite orbital's
        in its hermval); a real family evaluates sin or hermval once for
        both, and its factor is e^{i pi} where phi(x) < 0.
        """
        L = self.length
        if self.family in ("uniform", "ring-plane-wave"):
            phases = None
            if self.family == "ring-plane-wave" and self.params[0] != 0:
                x *= 2.0 * np.pi * self.params[0]
                x /= L
                x += 0.0  # as np.exp(1j * t) has imaginary part t + 0.0
                phases = np.empty(x.size, dtype=np.complex128)
                np.cos(x, out=phases.real)
                np.sin(x, out=phases.imag)
            x.fill(math.sqrt(1.0 / L))
            return x, phases
        if self.family == "box-sine":
            x *= self.params[0] * np.pi
            x /= L
            phi = np.sin(x, out=x)
            scale = 2.0 / L
        elif self.family == "harmonic-hermite":
            n, width = self.params
            if n > 170:  # 2^n n! exceeds every double
                raise ValidationError("orbital is not finite on the grid")
            scale = 1.0 / (2.0**n * math.factorial(n) * math.sqrt(math.pi))
            x -= L / 2.0
            x /= width
            phi = _hermite_value(n, x)
            np.exp(np.negative(np.square(x, out=x), out=x), out=x)
        else:
            raise ValidationError(
                f"family {self.family!r} has no continuum oracle")
        negative = phi < 0
        density = np.square(phi, out=phi)
        density *= scale
        if self.family == "harmonic-hermite":
            density *= x
            density /= width
        return np.sqrt(density, out=density), \
            np.where(negative, MINUS_ONE, 1.0) if negative.any() else None


def _hermite_value(n: int, u: np.ndarray) -> np.ndarray:
    return np.polynomial.hermite.hermval(u, [0.0] * n + [1.0])


# -- family constructors ---------------------------------------------------

def uniform(length: float = 1.0, energy: float = 0.0) -> Orbital:
    return Orbital("uniform", length, energy)


def box_sine(n: int = 1, length: float = 1.0,
             energy: float | None = None) -> Orbital:
    if n < 1:
        raise ValidationError("box-sine quantum number must be >= 1")
    return Orbital("box-sine", length, float(n**2 if energy is None else energy),
                   (n,))


def ring_plane_wave(k: int = 0, length: float = 1.0,
                    energy: float | None = None) -> Orbital:
    return Orbital("ring-plane-wave", length,
                   float(k**2 if energy is None else energy), (k,))


def harmonic_hermite(n: int = 0, length: float = 1.0,
                     width: float | None = None,
                     energy: float | None = None) -> Orbital:
    if n < 0:
        raise ValidationError("hermite index must be >= 0")
    if width is None:
        width = length / 20.0
    if not width > 0:
        raise ValidationError(f"hermite width {width} is not > 0")
    return Orbital("harmonic-hermite", length,
                   float(n + 0.5 if energy is None else energy),
                   (n, float(width)))


def kronecker_delta(x0: float, length: float = 1.0,
                    energy: float = 0.0) -> Orbital:
    if not 0 <= x0 < length:
        raise ValidationError("delta position x0 must lie in [0, L)")
    return Orbital("kronecker-delta", length, energy, (float(x0),))


def tabulated(values, length: float = 1.0, energy: float = 0.0) -> Orbital:
    values = tuple(complex(v) for v in values)
    if len(values) & (len(values) - 1):
        raise ValidationError("tabulated orbital needs a power-of-two table")
    if not any(abs(v) > 0 for v in values):
        raise ValidationError("tabulated orbital is identically zero")
    return Orbital("tabulated", length, energy, (values,))


#: Orbital family -> constructor, whose keywords are its config keys.
FAMILIES = {"uniform": uniform, "box-sine": box_sine,
            "ring-plane-wave": ring_plane_wave,
            "harmonic-hermite": harmonic_hermite,
            "kronecker-delta": kronecker_delta, "tabulated": tabulated}


# -- integration -----------------------------------------------------------

@dataclass(frozen=True)
class IntegrationSpec:
    backend: str = "analytic-cdf"
    epsilon_i: float = 1e-6
    delta: float = 0.05
    sigma2: float | None = None
    bounds: tuple[float, float] | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValidationError(f"unknown integration backend {self.backend!r}")
        if not 0 < self.epsilon_i < 1:
            raise ValidationError("epsilon_i must lie in (0, 1)")
        if not 0 < self.delta < 1:
            raise ValidationError("delta must lie in (0, 1)")
        if self.bounds is not None:
            if len(self.bounds) != 2:
                raise ValidationError(
                    f"bounds must be (lower, upper), got {len(self.bounds)} "
                    "values")
            if self.bounds[0] > self.bounds[1]:
                raise ValidationError("lower bound exceeds upper bound")
        if self.backend == "monte-carlo" and (
                self.bounds is not None or self.sigma2 is not None):
            n = mc_sample_count(self, bounded=self.bounds is not None)
            if n > MC_SAMPLE_CAP:
                raise ResourceError(f"integration.epsilon_i = {self.epsilon_i:g}"
                                    f" needs {n} Monte Carlo samples per "
                                    f"integral, cap is {MC_SAMPLE_CAP}")


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF."""
    if not 0 < p < 1:
        raise ValidationError("quantile argument must lie in (0, 1)")
    return statistics.NormalDist().inv_cdf(p)


def mc_sample_count(spec: IntegrationSpec, bounded: bool = True) -> int:
    """Worst-case Monte Carlo sample count for an (epsilon_i, delta)
    absolute-error estimate: the bounded-range formula when `bounded`,
    the variance formula otherwise.
    """
    z = normal_quantile(1.0 - spec.delta / 2.0)
    if bounded:
        if spec.bounds is None:
            raise ValidationError("bounded sample count needs (lower, upper)")
        lo, hi = spec.bounds
        return math.ceil((z * (hi - lo) / (2.0 * spec.epsilon_i)) ** 2)
    if spec.sigma2 is None:
        raise ValidationError("variance sample count needs sigma2")
    return math.ceil(z**2 * spec.sigma2 / spec.epsilon_i**2)


# -- basis set and Fock operator -------------------------------------------

class BasisSet:
    """M orthonormal orbitals plus the Fock operator they diagonalize."""

    def __init__(self, orbitals: list[Orbital]):
        if not orbitals:
            raise ValidationError("basis needs at least one orbital")
        lengths = {o.length for o in orbitals}
        if len(lengths) != 1:
            raise ValidationError("orbitals must share one domain length")
        self.orbitals = list(orbitals)
        self._grid_cache: dict[int, np.ndarray] = {}

    @property
    def size(self) -> int:
        return len(self.orbitals)

    @property
    def energies(self) -> np.ndarray:
        return np.array([o.energy for o in self.orbitals])

    def grid_matrix(self, l: int) -> np.ndarray:
        """(2^l, M) matrix of grid-discretized, re-orthonormalized orbitals.

        Columns are the point-sampled orbitals after symmetric (Loewdin)
        re-orthonormalization, so the Gram matrix is the identity.
        """
        if l in self._grid_cache:
            return self._grid_cache[l]
        if self.size > (1 << l):
            raise ValidationError(
                f"{self.size} orbitals cannot be independent on {1 << l} sites"
            )
        raw = np.column_stack([o.grid_values(l) for o in self.orbitals])
        gram = raw.conj().T @ raw
        evals, evecs = np.linalg.eigh(gram)
        if np.min(evals) < 1e-10:
            raise ValidationError(
                "grid-discretized orbitals are (numerically) linearly dependent"
            )
        inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
        ortho = raw @ inv_sqrt
        check = np.max(np.abs(ortho.conj().T @ ortho - np.eye(self.size)))
        if check > ORTHONORMALITY_TOL:
            raise ValidationError(
                f"re-orthonormalization residual {check:.3g} exceeds tolerance"
            )
        self._grid_cache[l] = ortho
        return ortho

    def fock_unitary(self, l: int, t: float) -> np.ndarray:
        """exp(-i F t), computed exactly from the factored eigen-form."""
        phi = self.grid_matrix(l)
        d = phi.shape[0]
        # unit eigenphase on the complement keeps support untouched (phase 0)
        u = np.eye(d, dtype=np.complex128)
        u = u + (phi * (np.exp(-1j * self.energies * t) - 1.0)) @ phi.conj().T
        return u
