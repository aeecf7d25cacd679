"""End-to-end preparation drivers: single orbitals, (anti)symmetrized
occupation states, superpositions of occupation states, two-species
products, and mixed states via purification.

Every multi-particle driver runs one skeleton (`_prepare`): lay out the
registers, load without the permutation banks, (anti)symmetrize each
species' particle bank with them, report, and read out a vector or a
density matrix.  A driver supplies only its load.  Superpositions load
amplitudes onto an occupation register and orbitals per branch, then
disentangle the register particle by particle (phase-estimate which
orbital a register holds, remove that quantum) and verify it empty by
measurement, retrying on failure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import PreparationReport, angle_error_bound
from .assemble import (
    OccupationVector,
    antisymmetrize,
    particle_segments,
    permutation_segments,
    prepare_hartree_product,
    slater_oracle,
)
from .basis import BasisSet, IntegrationSpec, Orbital
from .discriminate import PhaseEstimationConfig, SymmetryOperator, \
    boson_counter_width, fock_encode, identify_and_decrement, \
    verify_uncomputation
from .errors import RetryBudgetError, ValidationError
from .loader import LoadPlan, load_amplitude_table, load_orbital, \
    load_error_bound
from .statevec import DensityMatrix, QuantumState, RegisterLayout, \
    SparseState, extract_segment_vector, partial_trace, permute_basis


def _check_shared(occs: list[OccupationVector], what: str) -> None:
    """Raise unless the occupations share orbital count, statistics, and
    particle number.
    """
    for attr, label in (("num_orbitals", "the orbital count"),
                        ("statistics", "particle statistics"),
                        ("m", "the particle number")):
        if len({getattr(occ, attr) for occ in occs}) != 1:
            raise ValidationError(f"{what} must share {label}")


@dataclass(frozen=True)
class FockSuperposition:
    """Normalized superposition sum_w alpha_w |n_w> of occupation states.

    All terms must share orbital count, statistics, and particle number
    (branches of unequal particle number cannot share one first-quantized
    register bank).
    """

    terms: tuple[tuple[complex, OccupationVector], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValidationError("superposition needs at least one term")
        occs = [occ for _, occ in self.terms]
        _check_shared(occs, "terms")
        if len({occ.n for occ in occs}) != len(occs):
            raise ValidationError("duplicate occupation term")
        norm = math.sqrt(sum(abs(a) ** 2 for a, _ in self.terms))
        if abs(norm - 1.0) > 1e-9:
            raise ValidationError(f"amplitudes have norm {norm}, expected 1")
        if self.statistics == "bosonic":
            factors = {occ.multiplicity_factor() for occ in occs}
            if len(factors) != 1:
                raise ValidationError(
                    "bosonic terms with differing orbital multiplicities "
                    "are not supported in one superposition"
                )

    @classmethod
    def from_terms(cls, terms) -> "FockSuperposition":
        amps = np.array([a for a, _ in terms], dtype=complex)
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise ValidationError("superposition amplitudes are all zero")
        return cls(tuple((complex(a / norm), occ) for a, occ in terms))

    @classmethod
    def from_strings(cls, pairs, statistics: str = "fermionic"):
        """pairs: iterable of (amplitude, occupation string)."""
        return cls.from_terms(
            [(a, OccupationVector.parse(s, statistics)) for a, s in pairs]
        )

    @property
    def statistics(self) -> str:
        return self.terms[0][1].statistics

    @property
    def num_orbitals(self) -> int:
        return self.terms[0][1].num_orbitals

    @property
    def m(self) -> int:
        return self.terms[0][1].m

    @property
    def max_count(self) -> int:
        return max(max(occ.n) for _, occ in self.terms)


@dataclass(frozen=True)
class MixedSpec:
    """Classical ensemble {p_i, |n_i>} to prepare as a density matrix."""

    components: tuple[tuple[float, OccupationVector], ...]

    def __post_init__(self):
        if not self.components:
            raise ValidationError("ensemble needs at least one component")
        probs = [p for p, _ in self.components]
        if any(p < 0 for p in probs):
            raise ValidationError("ensemble weights must be nonnegative")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValidationError(
                f"ensemble weights sum to {sum(probs)}, expected 1"
            )
        _check_shared([occ for _, occ in self.components], "components")

    @classmethod
    def from_probabilities(cls, pairs, statistics: str = "fermionic"):
        return cls(tuple(
            (float(p), occ if isinstance(occ, OccupationVector)
             else OccupationVector.parse(occ, statistics))
            for p, occ in pairs
        ))

    @classmethod
    def thermal(cls, beta: float, pairs, statistics: str = "fermionic"):
        """Gibbs weights exp(-beta E_i)/Z over (energy, occupation) pairs."""
        energies = np.array([e for e, _ in pairs], dtype=float)
        weights = np.exp(-beta * (energies - energies.min()))
        weights /= weights.sum()
        return cls.from_probabilities(
            [(w, occ) for w, (_, occ) in zip(weights, pairs)], statistics
        )

    @property
    def statistics(self) -> str:
        return self.components[0][1].statistics


@dataclass
class PreparedState:
    """Output bundle: final object plus the run report."""

    vector: np.ndarray | None
    rho: DensityMatrix | None
    report: PreparationReport
    state: QuantumState | None = None


def _merge_plans(counters: dict, plans: list[LoadPlan]) -> None:
    for plan in plans:
        for key in ("integral_requests", "integral_evaluations",
                    "rotation_applications", "empty_blocks"):
            counters[key] = counters.get(key, 0) + getattr(plan, key)
        if plan.mc_samples_per_integral:
            counters["mc_samples_per_integral"] = plan.mc_samples_per_integral


def _load_branches(
    layout: RegisterLayout, segment: str, branches, p_names: list[str],
    basis: BasisSet, spec: IntegrationSpec, counters: dict, cache: dict,
) -> QuantumState:
    """Prepare sum_b a_b |code_b> |Hartree product of occupation_b> from
    |0>, for (a_b, code_b, occupation_b) branches, the products on the
    particle registers `p_names`.

    The amplitude table is loaded on branch-register indices 0..K-1 and
    relabeled from index to code (unused indices fill the unused codes in
    ascending order); each branch's orbitals then load conditioned on its
    code.
    """
    state, plan = load_amplitude_table(
        QuantumState.zero(layout), segment,
        np.array([a for a, _, _ in branches], dtype=complex), spec,
        cache=cache)
    _merge_plans(counters, [plan])
    codes = [code for _, code, _ in branches]
    mapping = np.array(codes + sorted(
        set(range(layout.segment(segment).dim)) - set(codes)))
    idx = np.arange(layout.dim)
    state = permute_basis(state, layout.with_values(
        idx, {segment: mapping[layout.values(segment, idx)]}))
    for _, code, occ in branches:
        state, plans = prepare_hartree_product(
            state, occ, basis, spec, p_names,
            controls=[(segment, code)], cache=cache)
        _merge_plans(counters, plans)
    return state


def _fock_branches(sup: FockSuperposition):
    """Counter width, occupation-register segment, and (amplitude,
    occupation code, occupation) branches of a superposition, in ascending
    code order.
    """
    width = boson_counter_width(sup.max_count)
    return width, ("fock", "fock", sup.num_orbitals * width), sorted(
        ((a, fock_encode(occ, width), occ) for a, occ in sup.terms),
        key=lambda branch: branch[1])


def prepare_orbital(
    orbital: Orbital,
    l: int,
    spec: IntegrationSpec,
    ratio_perturb=None,
) -> PreparedState:
    """Load one orbital onto a single grid register."""
    bound = load_error_bound(l, spec.epsilon_i)  # rejects l < 1 first
    parts = particle_segments(1, l)
    layout = RegisterLayout(parts)
    state = QuantumState.zero(layout)
    state, plan = load_orbital(state, _names(parts)[0], orbital, spec,
                               ratio_perturb=ratio_perturb)
    counters: dict = {}
    _merge_plans(counters, [plan])
    report = PreparationReport(
        kind="orbital", l=l, m=1, statistics="n/a",
        qubits=layout.n_total, counters=counters, error_bound=bound,
    )
    return PreparedState(vector=extract_segment_vector(state, _names(parts)),
                         rho=None, report=report, state=state)


def _names(segments: list[tuple[str, str, int]]) -> list[str]:
    return [name for name, _, _ in segments]


def _prepare(
    kind: str, species: list[tuple[OccupationVector, str]], l: int,
    spec: IntegrationSpec, load, head: tuple = (), tail: tuple = (),
    rho: bool = False,
) -> PreparedState:
    """The skeleton of every multi-particle driver, for (occupation,
    register-name prefix) species.

    Register order: the head (a branch or occupation register, if any),
    every species' particle bank, every permutation bank, then the tail.
    The qubit cap and the report's qubit count apply to that layout.  The
    permutation banks stay blank until symmetrization writes them, so
    `load(layout, banks, counters)` sees the layout without them and
    returns the loaded state and its attempt number, for `banks` each
    species' particle register names.  Its populated amplitudes then move
    into the full layout, each segment's field by name, and each bank is
    (anti)symmetrized there; the particle banks (first species least
    significant) are read out as a vector, or with `rho` as the density
    matrix of the rest traced out.  The error bound is one load bound per
    loaded register: m particles and the head's table.
    """
    bound = load_error_bound(l, spec.epsilon_i)  # rejects l < 1 first
    parts = [particle_segments(occ.m, l, prefix=f"{prefix}particle")
             for occ, prefix in species]
    perms = [permutation_segments(occ.m, prefix=f"{prefix}perm")
             for occ, prefix in species]
    layout = RegisterLayout([*head, *sum(parts + perms, []), *tail])
    loaded = RegisterLayout([*head, *sum(parts, []), *tail])
    counters: dict = {}
    state, attempts = load(loaded, [_names(p) for p in parts], counters)
    support = SparseState.from_state(state)
    # segments keep their order and the banks read 0: indices keep ascending
    support = SparseState(layout, layout.with_values(0, {
        seg.name: loaded.values(seg.name, support.index)
        for seg in loaded}), support.values)
    syms = []
    for i, ((occ, _), p, b) in enumerate(zip(species, parts, perms)):
        if i:  # a later species reads the earlier one's output
            support = SparseState.from_state(state)
        state, sym = antisymmetrize(support, _names(b), _names(p),
                                    occ.statistics)
        syms.append(sym)
    # several species have no single symmetrization norm: sum their costs
    counters.update(syms[0] if len(syms) == 1 else {
        key: sum(sym[key] for sym in syms)
        for key in ("comparators", "swapped_qubits")})

    m = sum(occ.m for occ, _ in species)
    report = PreparationReport(
        kind=kind, l=l, m=m,
        statistics="+".join(occ.statistics for occ, _ in species),
        qubits=layout.n_total, attempts=attempts, retries=attempts - 1,
        counters=counters,
        error_bound=(m + len(head)) * bound,
    )
    names = _names(sum(parts, []))
    return PreparedState(
        vector=None if rho else extract_segment_vector(state, names),
        rho=partial_trace(state, names) if rho else None,
        report=report, state=state)


def _species_product(
    kind: str, species: list[tuple[OccupationVector, BasisSet, str]],
    l: int, spec: IntegrationSpec, ratio_perturb=None,
    cache: dict | None = None,
) -> PreparedState:
    """Skeleton whose load is an unconditioned Hartree product per
    (occupation, basis, register-name prefix) species.
    """
    def load(layout, banks, counters):
        state = QuantumState.zero(layout)
        for (occ, basis, _), names in zip(species, banks):
            state, plans = prepare_hartree_product(
                state, occ, basis, spec, names,
                ratio_perturb=ratio_perturb, cache=cache)
            _merge_plans(counters, plans)
        return state, 1

    return _prepare(kind, [(occ, prefix) for occ, _, prefix in species],
                    l, spec, load)


def prepare_slater(
    occupation: OccupationVector,
    basis: BasisSet,
    l: int,
    spec: IntegrationSpec,
    ratio_perturb=None,
    cache: dict | None = None,
) -> PreparedState:
    """Hartree product of the occupied orbitals, then (anti)symmetrization.

    The occupation is classical here, so no occupation register or phase
    estimation is needed.
    """
    kind = "slater" if occupation.statistics == "fermionic" else "permanent"
    return _species_product(kind, [(occupation, basis, "")], l, spec,
                            ratio_perturb, cache)


def prepare_two_species(
    occupation_a: OccupationVector,
    occupation_b: OccupationVector,
    basis_a: BasisSet,
    basis_b: BasisSet,
    l: int,
    spec: IntegrationSpec,
) -> PreparedState:
    """Product of two independently (anti)symmetrized species sharing one
    grid; exchange symmetry is applied within each species only.  Register
    names carry the prefixes a_ and b_, and species a is least significant
    in the returned vector.
    """
    return _species_product(
        "two-species",
        [(occupation_a, basis_a, "a_"), (occupation_b, basis_b, "b_")],
        l, spec)


def prepare_superposition(
    sup: FockSuperposition,
    basis: BasisSet,
    l: int,
    spec: IntegrationSpec,
    t: float | None = None,
    eps_pe: float | None = None,
    symmetry: SymmetryOperator | None = None,
    seed: int | None = None,
    max_attempts: int = 20,
    cache: dict | None = None,
) -> PreparedState:
    """Prepare sum_w alpha_w |Psi_w> in first quantization.

    Repeat-until-success: an attempt whose occupation register fails to
    verify as empty after disentangling is discarded and the whole
    preparation restarts with fresh measurement randomness.

    The error bound is m + 1 times the load bound of one register, which
    bounds the infidelity of the state exact phase estimation returns.
    With eps_pe set, `phase_estimation_error_bound` bounds the infidelity
    of the returned state against that one, and `angle_error_bound` adds
    the two steps.  `max_attempts` must be at least 1.
    """
    if max_attempts < 1:
        raise ValidationError(f"max_attempts {max_attempts} is not at least 1")
    if sup.num_orbitals > basis.size:
        raise ValidationError("superposition refers to orbitals outside "
                              "the basis")
    load_error_bound(l, spec.epsilon_i)  # rejects l < 1 before the readouts
    counter_width, fock, branches = _fock_branches(sup)
    config = PhaseEstimationConfig.build(
        basis, l, t=t, eps_pe=eps_pe, symmetry=symmetry)
    cache = {} if cache is None else cache

    def load(layout, banks, counters):
        seed_seq = np.random.SeedSequence(seed)
        for attempt in range(1, max_attempts + 1):
            rng = np.random.default_rng(seed_seq.spawn(1)[0])
            state = _load_branches(layout, "fock", branches, banks[0],
                                   basis, spec, counters, cache)
            ambiguous = 0.0
            for particle in banks[0]:
                state, record = identify_and_decrement(
                    state, config, "fock", particle,
                    counter_width=counter_width, rng=rng)
                ambiguous = max(ambiguous, record.ambiguous_mass)
            counters["max_ambiguous_mass"] = float(ambiguous)
            ok, _, state = verify_uncomputation(state, "fock", rng)
            if ok:
                return state, attempt
        raise RetryBudgetError(
            f"occupation register failed to verify empty in {max_attempts} "
            "attempts"
        )

    prep = _prepare(
        "superposition", [(branches[0][2], "")], l, spec, load,
        head=(fock,), tail=tuple(config.segments()))
    if eps_pe is not None:
        prep.report.error_bound = angle_error_bound(
            [prep.report.error_bound,
             phase_estimation_error_bound(sup.m, eps_pe)])
    return prep


def phase_estimation_error_bound(m: int, eps_pe: float) -> float:
    """Infidelity bound 1 - 2 sqrt(1 - delta) / (2 - delta), delta = m eps_pe,
    for the amplitude distortion of m inexact phase estimations, measured
    against the state exact phase estimation returns.

    Each of the m identifications misreads an occupation with probability
    at most eps_pe, so every branch w of the returned state carries the
    amplitude a_w of the exact-estimation state scaled by some c_w in
    [1 - delta, 1], then renormalized.  With weights w_w = |a_w|^2 (summing to 1) the overlap is
    sum_w c_w w_w / sqrt(sum_w c_w^2 w_w).  The Kantorovich inequality
    (sum w c^2)(sum w) <= (M + m')^2 / (4 M m') (sum w c)^2 for c in
    [m', M] bounds the overlap below by 2 sqrt(m' M) / (m' + M), which with
    m' = 1 - delta and M = 1 is 2 sqrt(1 - delta) / (2 - delta).  delta is
    clipped to 1, where the bound becomes the trivial 1.
    """
    delta = min(1.0, m * eps_pe)
    return 1.0 - 2.0 * math.sqrt(1.0 - delta) / (2.0 - delta)


def superposition_oracle(sup: FockSuperposition, basis: BasisSet,
                         l: int) -> np.ndarray:
    """Ground truth sum_w alpha_w |Psi_w> from the brute-force
    determinant/permanent oracle.
    """
    total = None
    for a, occ in sup.terms:
        term = a * slater_oracle(occ, basis, l)
        total = term if total is None else total + term
    return total / np.linalg.norm(total)


def prepare_mixed(
    mixed: MixedSpec,
    basis: BasisSet,
    l: int,
    spec: IntegrationSpec,
    cache: dict | None = None,
) -> PreparedState:
    """Prepare sum_i p_i |Psi_i><Psi_i| by purification: a spec register
    holds sqrt(p_i) amplitudes, orbitals load conditionally per branch, the
    particle bank is (anti)symmetrized, and the spec register is traced out.

    Each branch has a definite occupation, so no occupation register or
    phase estimation is required.
    """
    comps = mixed.components
    branches = [(math.sqrt(p), i, occ) for i, (p, occ) in enumerate(comps)]
    w_spec = max(1, math.ceil(math.log2(len(comps))))
    return _purified_mixture("mixed", ("branch", "spec", w_spec), branches,
                             basis, l, spec, cache)


def _purified_mixture(
    kind: str, head: tuple[str, str, int], branches, basis: BasisSet,
    l: int, spec: IntegrationSpec, cache: dict | None,
) -> PreparedState:
    """Skeleton whose load is the branches on the head register, read
    out as the density matrix of the particle banks.
    """
    cache = {} if cache is None else cache

    def load(layout, banks, counters):
        return _load_branches(layout, head[0], branches, banks[0], basis,
                              spec, counters, cache), 1

    return _prepare(kind, [(branches[0][2], "")], l, spec, load,
                    head=(head,), rho=True)


def mixed_oracle(mixed: MixedSpec, basis: BasisSet, l: int) -> DensityMatrix:
    """Ground truth sum_i p_i |Psi_i><Psi_i|, built from the factor whose
    columns are sqrt(p_i) |Psi_i>.
    """
    return DensityMatrix.from_factor(np.column_stack(
        [np.sqrt(p) * slater_oracle(occ, basis, l)
         for p, occ in mixed.components]))


def prepare_diagonal_mixed(
    sup: FockSuperposition,
    basis: BasisSet,
    l: int,
    spec: IntegrationSpec,
    cache: dict | None = None,
) -> PreparedState:
    """Skip the disentangling step: leave the occupation register entangled
    and trace it out, yielding the dephased ensemble with weights
    |alpha_w|^2.
    """
    _, fock, branches = _fock_branches(sup)
    return _purified_mixture("diagonal-mixed", fock, branches, basis, l,
                             spec, cache)
