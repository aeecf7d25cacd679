"""Dense statevector emulation of multi-register qubit systems.

This is the one module that knows where a segment's bits sit.  Every
other module addresses registers by name and value: `segment_view` gives
the amplitudes one axis per named segment, with (segment, value) controls
picking a branch, and `RegisterLayout.values` and `with_values` read and
write segment fields of basis indices.

Conventions (fixed once, obeyed everywhere):
  * Bit 0 of the global basis index is qubit 0.  A segment of width w at
    offset o occupies global bits o .. o+w-1; its integer value is
    (index >> o) & (2**w - 1), i.e. little-endian within the segment.
  * The QFT forward kernel is exp(+2*pi*1j*j*k / 2**w), so phase
    estimation reads the eigenphase directly after the inverse transform.
  * All state comparisons elsewhere are modulo global phase.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .errors import (
    ImpossibleOutcomeError,
    ResourceError,
    StructuralError,
    ValidationError,
)

DEFAULT_QUBIT_CAP = 26
DENSITY_MATRIX_CAP = 12
#: Entrywise tolerance of the matrix checks (unitarity, orthonormal
#: columns), and of a density-matrix factor's squared norm.
MATRIX_TOL = 1e-8
#: Norm off value 0 up to which a segment counts as blank.
BLANK_TOL = 1e-9
#: Norm outside the kept segments up to which a pure state is extracted.
LEAK_TOL = 1e-8

#: einsum subscripts, one per axis of a segment view.
AXES = "abcdefghijklmnopqrstuvwxyz"


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
    width: int
    offset: int

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def dim(self) -> int:
        return 1 << self.width


class RegisterLayout:
    """Contiguous, disjoint (name, width) segments tiling [0, n_total)."""

    def __init__(self, segments: list[tuple[str, int]]):
        offset = 0
        self._segments: dict[str, Segment] = {}
        for name, width in segments:
            if width < 0:
                raise StructuralError(f"segment {name!r} has negative width")
            if name in self._segments:
                raise StructuralError(f"duplicate segment name {name!r}")
            self._segments[name] = Segment(name, width, offset)
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

    def segment_is_blank(self, name: str, controls=None) -> bool:
        """Whether the norm off segment value 0 is at most BLANK_TOL on the
        branch that the (segment, value) `controls` select (everywhere
        without them).  Sums squares of the interleaved real and imaginary
        parts of the branch view, without copying.
        """
        view, (axis,) = segment_view(self, [name], controls)
        rest = np.moveaxis(view, axis, 0)[1:, ..., None].view(np.float64)
        axes = AXES[:rest.ndim]
        return np.einsum(f"{axes},{axes}->", rest, rest) <= BLANK_TOL ** 2


def vector_norm(values: np.ndarray, scratch: np.ndarray | None = None) -> float:
    """Euclidean norm: the square root of np.sum (a pairwise sum in index
    order, whatever the BLAS thread count) over the nonzero squares of the
    float64 view, so a state and its slab in a wider layout have one norm.
    The squares go into `scratch` when given, a float64 array of that
    view's size, instead of a new array.
    """
    values = np.ascontiguousarray(values, dtype=np.complex128)
    squares = np.square(values.view(np.float64), out=scratch)
    return float(np.sqrt(np.sum(squares[squares != 0])))


@dataclass(frozen=True)
class SparseState:
    """A state held as its populated amplitudes: `values[k]` sits at basis
    index `index[k]`, indices ascend, and every other amplitude is +0.0.

    Stages that need the nonzero amplitudes alone select them with
    `values != 0`.
    """

    layout: RegisterLayout
    index: np.ndarray
    values: np.ndarray

    def to_state(self) -> QuantumState:
        """The dense vector, +0.0 off the stored indices."""
        amps = np.zeros(self.layout.dim, dtype=np.complex128)
        amps[self.index] = self.values
        return QuantumState(self.layout, amps)


class DensityMatrix:
    """A density matrix ρ = T·T†, held as its purification factor T.

    `DensityMatrix(factor)` copies T as complex128 and raises
    `ValidationError` unless T is a finite 2-D array with
    |‖T‖_F² − 1| ≤ MATRIX_TOL.  ρ is then Hermitian and positive
    semidefinite (to rounding) with trace ‖T‖_F² by construction, so there
    is nothing else to check.  `dim` is T's row count; the dense ρ is formed
    only when `matrix` is first read.
    """

    def __init__(self, factor: np.ndarray):
        factor = np.array(factor, dtype=np.complex128)
        if factor.ndim != 2:
            raise ValidationError("density-matrix factor must be 2-D")
        if not np.isfinite(factor).all():
            raise ValidationError(
                "density-matrix factor has non-finite entries")
        norm = np.vdot(factor, factor).real
        if abs(norm - 1.0) > MATRIX_TOL:
            raise ValidationError(
                f"density-matrix factor has squared norm {norm} != 1")
        self.factor = factor

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        """ρ = T·T† as a dense dim × dim array."""
        return self.factor @ self.factor.conj().T


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
    view, (axis,) = segment_view(state, [segment])
    cube = np.moveaxis(np.tensordot(u, view, axes=(1, axis)), 0, axis)
    return QuantumState(state.layout, cube.reshape(-1))


def qft(state: QuantumState, segment: str, inverse: bool = False) -> QuantumState:
    """QFT of one segment (kernel as in the module docstring) by FFT."""
    view, (axis,) = segment_view(state, [segment])
    transform = np.fft.fft if inverse else np.fft.ifft
    return QuantumState(state.layout, transform(
        view, axis=axis, norm="ortho").reshape(-1))


def segment_view(state: QuantumState, names,
                 controls=None) -> tuple[np.ndarray, list[int]]:
    """The amplitudes as a view with one C-order axis per named segment and
    one per run of other segments, most significant first, and the axis of
    each name.  Each (segment, value) control indexes its segment's axis
    at that value, so the view holds the branch the controls select, and
    writing to it writes to the state.
    """
    controls = list(controls or ())
    keys = [*names, *(name for name, _ in controls)]
    named = {state.layout.segment(key).name for key in keys}
    if len(named) != len(keys):
        raise StructuralError(f"segments {keys} are not distinct")
    shape, where = [], {}
    # a named segment's key is its name; a run of others shares False
    for key, run in groupby(reversed(list(state.layout)),
                            lambda seg: seg.name in named and seg.name):
        where[key] = len(shape)
        shape.append(math.prod(seg.dim for seg in run))
    index = [slice(None)] * len(shape)
    for name, value in controls:
        if not 0 <= value < shape[where[name]]:
            raise ValidationError(
                f"control value {value} out of range for segment {name!r}")
        index[where[name]] = value
    # `...` keeps a 0-d view, not a scalar, when every axis is a control
    view = state.amplitudes.reshape(shape)[(*index, ...)]
    return view, [where[name] - sum(where[c] < where[name] for c, _ in controls)
                  for name in names]


def segment_masses(state: QuantumState, names) -> np.ndarray:
    """Born masses of the joint value of the named segments (first name
    least significant): |a|^2 summed over every other segment's axis.
    """
    view, found = segment_view(state, names)
    parts = view[..., None].view(np.float64)
    axes = AXES[:parts.ndim]
    joint = "".join(axes[k] for k in reversed(found))
    return np.einsum(f"{axes},{axes}->{joint}", parts, parts).reshape(-1)


def relabel(state: QuantumState, names, table) -> QuantumState:
    """Classical relabeling of the named segments: the amplitude at joint
    value v of those segments (first name least significant) moves to joint
    value table[v], whatever the other segments hold.  `table` must be a
    permutation of the joint values.  Gathers through one open-mesh index
    on the segment-axis view: the named axes read the digits of the inverse
    table, every other axis its own position.
    """
    cube, found = segment_view(state, names)
    dims = cube.shape
    size = math.prod(dims[k] for k in found)
    table = np.asarray(table)
    hit = np.zeros(size, dtype=bool)
    if table.shape == (size,) and table.dtype.kind in "iu" \
            and table.min() >= 0 and table.max() < size:
        hit[table] = True
    if not hit.all():
        raise StructuralError(f"relabeling of {list(names)} must be a "
                              f"permutation of their {size} joint values")
    inverse = np.empty(size, dtype=np.int64)
    inverse[table] = np.arange(size)
    mesh, named = list(np.ix_(*map(np.arange, dims))), found[::-1]
    joint = [dims[k] for k in named]
    source = inverse[np.ravel_multi_index([mesh[k] for k in named], joint)]
    for k, digit in zip(named, np.unravel_index(source, joint)):
        mesh[k] = digit
    return QuantumState(state.layout, cube[tuple(mesh)].reshape(-1))


def measure_segment(
    state: QuantumState, segment: str, rng
) -> tuple[int, QuantumState]:
    """Measurement of a segment's integer value, drawn by `born_draw`."""
    probs = segment_masses(state, [segment])
    outcome = born_draw(probs, rng)
    branch = [(segment, outcome)]
    collapsed = QuantumState(state.layout, np.zeros_like(state.amplitudes))
    segment_view(collapsed, [], branch)[0][...] = \
        segment_view(state, [], branch)[0] / np.sqrt(probs[outcome])
    return outcome, collapsed


def born_draw(masses: np.ndarray, rng) -> int:
    """Outcome k drawn from the numpy Generator `rng` with probability
    masses[k] / sum(masses), the Born rule: the masses' norm must lie within
    1e-8 of 1, and the outcome drawn must have positive mass.
    """
    total = masses.sum()
    if not abs(math.sqrt(total) - 1.0) <= 1e-8:  # NaN fails too
        raise ValidationError(f"state norm {math.sqrt(total)} deviates from 1")
    outcome = int(rng.choice(masses.size, p=masses / total))
    if masses[outcome] <= 0:
        raise ImpossibleOutcomeError(f"outcome {outcome} has zero probability")
    return outcome


def _kept_table(state: QuantumState, keep_segments: list[str]) -> np.ndarray:
    """The (kept × traced) amplitude table: rows by the kept segments in
    list order, columns by the others in layout order, first least significant.
    """
    view, found = segment_view(state, keep_segments)
    traced = [k for k in range(view.ndim) if k not in found]
    return view.transpose(found[::-1] + traced) \
        .reshape(math.prod(view.shape[k] for k in found), -1)


def partial_trace(state: QuantumState,
                  keep_segments: list[str]) -> DensityMatrix:
    """Reduced density matrix over the kept segments, held as its factor T,
    the (kept × traced) amplitude table.

    The kept segments contribute to the row/column index in list order,
    first segment least significant.
    """
    k_width = sum(state.layout.segment(name).width for name in keep_segments)
    if k_width > DENSITY_MATRIX_CAP:
        raise ResourceError(
            f"partial trace over {k_width} qubits exceeds the cap of "
            f"{DENSITY_MATRIX_CAP}"
        )
    return DensityMatrix(_kept_table(state, keep_segments))


def extract_segment_vector(
    state: QuantumState, keep_segments: list[str]
) -> np.ndarray:
    """Pure-state shortcut for partial_trace: slice out the kept segments
    assuming every other segment sits in |0>, and normalize.  Raises if
    leakage outside that slice exceeds LEAK_TOL or the slice is zero.  It
    forms the squares and the quotient in the array it returns, so besides
    that it allocates only `vector_norm`'s nonzero squares.
    """
    table = _kept_table(state, keep_segments)
    leak = vector_norm(table[:, 1:])
    if leak > LEAK_TOL:
        raise ValidationError(
            f"segments outside {keep_segments} are not blank (leak {leak:.3g})"
        )
    out = np.empty(table.shape[0], dtype=np.complex128)
    n = vector_norm(table[:, 0], scratch=out.view(np.float64))
    if n == 0:
        raise ValidationError(f"segments {keep_segments} carry no amplitude")
    return np.divide(table[:, 0], n, out=out)
