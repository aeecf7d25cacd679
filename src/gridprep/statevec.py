"""Dense statevector emulation of multi-register qubit systems.

Conventions (fixed once, obeyed everywhere):
  * Bit 0 of the global basis index is qubit 0.  A segment of width w at
    offset o occupies global bits o .. o+w-1; its integer value is
    (index >> o) & (2**w - 1), i.e. little-endian within the segment.
  * The QFT forward kernel is exp(+2*pi*1j*j*k / 2**w), so phase
    estimation reads the eigenphase directly after the inverse transform.
  * All state comparisons elsewhere are modulo global phase.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ImpossibleOutcomeError,
    ResourceError,
    StructuralError,
    ValidationError,
)

DEFAULT_QUBIT_CAP = 26
DENSITY_MATRIX_CAP = 12
NORM_TOL = 1e-10
#: Entrywise tolerance of the matrix checks: unitarity, commutation, and a
#: density matrix's trace, Hermiticity, positivity shift and factor norm.
MATRIX_TOL = 1e-8
#: Norm off value 0 up to which a segment counts as blank.
BLANK_TOL = 1e-9
#: Norm outside the kept segments up to which a pure state is extracted.
LEAK_TOL = 1e-8

SEGMENT_ROLES = ("fock", "particle", "readout", "spec", "scratch")


def qubit_cap() -> int:
    """Total-width cap; override with the GRIDPREP_QUBIT_CAP env var."""
    raw = os.environ.get("GRIDPREP_QUBIT_CAP")
    try:
        return int(raw) if raw else DEFAULT_QUBIT_CAP
    except ValueError:
        raise ValidationError(
            f"GRIDPREP_QUBIT_CAP must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class Segment:
    name: str
    role: str
    width: int
    offset: int

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def dim(self) -> int:
        return 1 << self.width


class RegisterLayout:
    """Named, contiguous, disjoint qubit segments tiling [0, n_total)."""

    def __init__(self, segments: list[tuple[str, str, int]]):
        offset = 0
        self._segments: dict[str, Segment] = {}
        for name, role, width in segments:
            if role not in SEGMENT_ROLES:
                raise StructuralError(f"unknown segment role {role!r}")
            if width < 0:
                raise StructuralError(f"segment {name!r} has negative width")
            if name in self._segments:
                raise StructuralError(f"duplicate segment name {name!r}")
            self._segments[name] = Segment(name, role, width, offset)
            offset += width
        self.n_total = offset
        cap = qubit_cap()
        if self.n_total > cap:
            raise ResourceError(
                f"layout needs {self.n_total} qubits, cap is {cap} "
                "(override with GRIDPREP_QUBIT_CAP)"
            )

    def __iter__(self):
        return iter(self._segments.values())

    def segment(self, name: str) -> Segment:
        try:
            return self._segments[name]
        except KeyError:
            raise StructuralError(f"no segment named {name!r}") from None

    @property
    def dim(self) -> int:
        return 1 << self.n_total

    def values(self, name: str, indices: np.ndarray) -> np.ndarray:
        seg = self.segment(name)
        return (indices >> seg.offset) & seg.mask

    def with_values(self, indices, fields: dict):
        """`indices` with the field of each named segment replaced by the
        given values (arrays broadcast against `indices`, or integers).
        """
        for name, values in fields.items():
            seg = self.segment(name)
            indices = (indices & ~(seg.mask << seg.offset)) \
                | (values << seg.offset)
        return indices


@dataclass
class QuantumState:
    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.ascontiguousarray(self.amplitudes,
                                               dtype=np.complex128)
        if self.amplitudes.shape != (self.layout.dim,):
            raise StructuralError(
                f"amplitude vector has length {self.amplitudes.size}, "
                f"layout needs {self.layout.dim}"
            )

    @classmethod
    def zero(cls, layout: RegisterLayout) -> "QuantumState":
        amps = np.zeros(layout.dim, dtype=np.complex128)
        amps[0] = 1.0
        return cls(layout, amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def check_norm(self, tol: float = NORM_TOL) -> None:
        if abs(self.norm - 1.0) > tol:
            raise ValidationError(f"state norm {self.norm} deviates from 1")

    def segment_values(self, name: str) -> np.ndarray:
        return self.layout.values(name, np.arange(self.layout.dim))

    def segment_is_blank(self, name: str, controls=None) -> bool:
        """Whether the norm off segment value 0 is at most BLANK_TOL on the
        branch that (global qubit, bit) `controls` select (everywhere
        without them).  Sums squares of the interleaved real and imaginary
        parts, copying only when controls lie below the segment.
        """
        seg = self.layout.segment(name)
        cube = _reshape_on_segment(self.amplitudes, seg)
        hi_sel, lo_sel = control_masks(self, seg, controls, cube.shape[0],
                                       cube.shape[2])
        rest = cube[:, 1:, :]
        if not lo_sel.all():
            rest = np.compress(lo_sel, rest, axis=2)
        rest = rest.view(np.float64)
        sq = np.einsum("hxl,hxl->h", rest, rest)
        return sq[hi_sel].sum() <= BLANK_TOL * BLANK_TOL


def _populated(amps: np.ndarray) -> np.ndarray:
    """Ascending indices of the amplitudes with any bit set.  −0.0 counts,
    so copying these entries into +0.0 everywhere else is bitwise exact.
    """
    found = np.flatnonzero(amps.view(np.uint64)) >> 1
    first = np.ones(found.size, dtype=bool)
    first[1:] = found[1:] != found[:-1]
    return found[first]


@dataclass(frozen=True)
class SparseState:
    """A state held as its populated amplitudes: `values[k]` sits at basis
    index `index[k]`, indices ascend, and every other amplitude is +0.0.

    The support is every amplitude with any bit set, −0.0 included, so
    `from_state(s).to_state()` is `s` bitwise.  Stages that need the
    nonzero amplitudes alone select them with `values != 0`.
    """

    layout: RegisterLayout
    index: np.ndarray
    values: np.ndarray

    @classmethod
    def from_state(cls, state: QuantumState) -> "SparseState":
        """The populated amplitudes of a dense state, in one scan."""
        index = _populated(state.amplitudes)
        return cls(state.layout, index, state.amplitudes[index])

    def to_state(self) -> QuantumState:
        """The dense vector, +0.0 off the stored indices."""
        amps = np.zeros(self.layout.dim, dtype=np.complex128)
        amps[self.index] = self.values
        return QuantumState(self.layout, amps)


@dataclass
class DensityMatrix:
    """A validated density matrix ρ, stored as complex128.

    There are two ways to build one:

    * `DensityMatrix(matrix)`, for a matrix the caller supplies, copies the
      matrix and raises `ValidationError` unless ρ is square, every entry
      is finite, |tr ρ − 1| ≤ 1e-8, ρ is Hermitian to 1e-8 entrywise, and
      λ_min(ρ) ≥ −1e-8 (1e-8 is MATRIX_TOL).  Positivity is decided by
      whether ρ + 1e-8·I has a Cholesky factor (Cholesky is backward
      stable, so this is as strict as an eigensolve at a fraction of its
      cost).
    * `DensityMatrix.from_factor(table)` forms ρ = T·T† from a purification
      factor T and checks only that T is a finite 2-D array with
      |‖T‖_F² − 1| ≤ 1e-8.  ρ is then Hermitian and positive semidefinite
      (to rounding) with trace ‖T‖_F² by construction, so the dense checks
      are skipped.
    """
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.array(self.matrix, dtype=np.complex128)
        d = self.matrix.shape[0]
        if self.matrix.shape != (d, d):
            raise ValidationError("density matrix must be square")
        if not np.isfinite(self.matrix).all():
            raise ValidationError("density matrix has non-finite entries")
        if abs(np.trace(self.matrix).real - 1.0) > MATRIX_TOL:
            raise ValidationError(f"trace {np.trace(self.matrix)} != 1")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > MATRIX_TOL:
            raise ValidationError("density matrix is not Hermitian")
        try:
            np.linalg.cholesky(self.matrix + MATRIX_TOL * np.eye(d))
        except np.linalg.LinAlgError:
            raise ValidationError(
                "density matrix has negative eigenvalues") from None

    @classmethod
    def from_factor(cls, table: np.ndarray) -> DensityMatrix:
        """ρ = T·T† for a (kept × traced) amplitude table T."""
        table = np.asarray(table, dtype=np.complex128)
        if table.ndim != 2:
            raise ValidationError("density-matrix factor must be 2-D")
        if not np.isfinite(table).all():
            raise ValidationError(
                "density-matrix factor has non-finite entries")
        norm = np.vdot(table, table).real
        if abs(norm - 1.0) > MATRIX_TOL:
            raise ValidationError(
                f"density-matrix factor has squared norm {norm} != 1")
        rho = object.__new__(cls)
        rho.matrix = table @ table.conj().T
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def _reshape_on_segment(amps: np.ndarray, seg: Segment):
    hi = amps.size >> (seg.offset + seg.width)
    return amps.reshape(hi, seg.dim, 1 << seg.offset)


def control_masks(state: QuantumState, seg: Segment, controls,
                  hi_n: int, lo_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks over the qubits above (hi_n values) and below (lo_n values,
    bit 0 = qubit 0) the target segment that select the branch where every
    (global qubit, bit) control matches.
    """
    hi_sel = np.ones(hi_n, dtype=bool)
    lo_sel = np.ones(lo_n, dtype=bool)
    for q, bit in controls or []:
        if not 0 <= q < state.layout.n_total:
            raise StructuralError(f"qubit index {q} outside layout")
        if seg.offset <= q < seg.offset + seg.width:
            raise StructuralError("control qubit lies inside the target segment")
        if q < seg.offset:
            lo_sel &= ((np.arange(lo_n) >> q) & 1) == bit
        else:
            shift = q - seg.offset - seg.width
            hi_sel &= ((np.arange(hi_n) >> shift) & 1) == bit
    return hi_sel, lo_sel


def check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    d = u.shape[0]
    if u.shape != (d, d):
        raise ValidationError("matrix must be square")
    if np.max(np.abs(u.conj().T @ u - np.eye(d))) > MATRIX_TOL:
        raise ValidationError("matrix is not unitary")
    return u


def apply_unitary_on_segment(
    state: QuantumState, segment: str, u: np.ndarray
) -> QuantumState:
    """Apply a d x d unitary to one segment (identity elsewhere)."""
    seg = state.layout.segment(segment)
    u = check_unitary(u)
    if u.shape[0] != seg.dim:
        raise ValidationError(
            f"unitary dimension {u.shape[0]} != segment dimension {seg.dim}"
        )
    cube = u @ _reshape_on_segment(state.amplitudes, seg)
    return QuantumState(state.layout, cube.reshape(-1))


def qft(state: QuantumState, segment: str, inverse: bool = False) -> QuantumState:
    """QFT of one segment (kernel as in the module docstring) by FFT."""
    cube = _reshape_on_segment(state.amplitudes,
                               state.layout.segment(segment))
    transform = np.fft.fft if inverse else np.fft.ifft
    return QuantumState(state.layout,
                        transform(cube, axis=1, norm="ortho").reshape(-1))


def permute_basis(state: QuantumState, dest: np.ndarray) -> QuantumState:
    """Classical relabeling of the basis: the amplitude at index i moves to
    index dest[i].  `dest` must be a permutation of the index range.
    """
    dest = np.asarray(dest)
    dim = state.layout.dim
    hit = np.zeros(dim, dtype=bool)
    if dest.shape == (dim,) and dest.min() >= 0 and dest.max() < dim:
        hit[dest] = True
    if not hit.all():
        raise StructuralError("relabeling must be a permutation")
    amps = np.empty_like(state.amplitudes)
    amps[dest] = state.amplitudes
    return QuantumState(state.layout, amps)


def measure_segment(
    state: QuantumState, segment: str, rng
) -> tuple[int, QuantumState]:
    """Born-rule measurement of a segment's integer value, drawn from the
    numpy Generator `rng`.
    """
    state.check_norm(1e-8)
    seg = state.layout.segment(segment)
    vals = state.segment_values(segment)
    probs = np.bincount(vals, weights=np.abs(state.amplitudes) ** 2,
                        minlength=seg.dim)
    total = probs.sum()
    if total <= 0:
        raise ImpossibleOutcomeError("state carries no probability mass")
    outcome = int(rng.choice(seg.dim, p=probs / total))
    p = probs[outcome]
    if p <= 0:
        raise ImpossibleOutcomeError(f"outcome {outcome} has zero probability")
    amps = np.where(vals == outcome, state.amplitudes, 0.0) / np.sqrt(p)
    return outcome, QuantumState(state.layout, amps)


def _packed_values(idx: np.ndarray, segments) -> tuple[np.ndarray, int]:
    """Values of `segments` at each basis index, packed into one integer
    (first segment least significant), and their total width.
    """
    packed = np.zeros(idx.size, dtype=np.int64)
    shift = 0
    for s in segments:
        packed |= (((idx >> s.offset) & s.mask).astype(np.int64)) << shift
        shift += s.width
    return packed, shift


def partial_trace(state: QuantumState,
                  keep_segments: list[str]) -> DensityMatrix:
    """Reduced density matrix ρ = T·T† over the kept segments, where T is
    the (kept × traced) amplitude table.

    The kept segments contribute to the row/column index in list order,
    first segment least significant.
    """
    kept = [state.layout.segment(name) for name in keep_segments]
    k_width = sum(s.width for s in kept)
    if k_width > DENSITY_MATRIX_CAP:
        raise ResourceError(
            f"partial trace over {k_width} qubits exceeds the cap of "
            f"{DENSITY_MATRIX_CAP}"
        )
    idx = _populated(state.amplitudes)
    kvals, _ = _packed_values(idx, kept)
    rvals, r_width = _packed_values(
        idx, [s for s in state.layout if s.name not in keep_segments])
    table = np.zeros((1 << k_width, 1 << r_width), dtype=np.complex128)
    table[kvals, rvals] = state.amplitudes[idx]
    return DensityMatrix.from_factor(table)


def extract_segment_vector(
    state: QuantumState, keep_segments: list[str]
) -> np.ndarray:
    """Pure-state shortcut for partial_trace: slice out the kept segments
    assuming every other segment sits in |0>, and normalize.  Raises if
    leakage outside that slice exceeds LEAK_TOL or the slice is zero.
    """
    kept = [state.layout.segment(name) for name in keep_segments]
    idx = _populated(state.amplitudes)
    vals = state.amplitudes[idx]
    keep_names = set(keep_segments)
    rest_zero = np.ones(idx.size, dtype=bool)
    for s in state.layout:
        if s.name in keep_names:
            continue
        rest_zero &= state.layout.values(s.name, idx) == 0
    leak = np.linalg.norm(vals[~rest_zero])
    if leak > LEAK_TOL:
        raise ValidationError(
            f"segments outside {keep_segments} are not blank (leak {leak:.3g})"
        )
    kvals, width = _packed_values(idx[rest_zero], kept)
    vec = np.zeros(1 << width, dtype=np.complex128)
    vec[kvals] = vals[rest_zero]
    n = np.linalg.norm(vec)
    if n == 0:
        raise ValidationError(f"segments {keep_segments} carry no amplitude")
    return vec / n
