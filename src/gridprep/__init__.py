"""Classical emulator for grid-based many-particle quantum state
preparation: orbital loading, (anti)symmetrization, occupation-register
disentangling by phase estimation, and the proved error bounds.
"""
from types import ModuleType as _ModuleType

from .analysis import (
    BoundCheck,
    CostRow,
    PreparationReport,
    angle_error_bound,
    cost_table,
    fit_exponent,
    format_float,
    mixed_fidelity,
    mixed_infidelity,
    pure_infidelity,
    verify_bounds,
)
from .assemble import (
    OccupationVector,
    antisymmetrize,
    apply_rank_to_permutation,
    generate_permutation_superposition,
    odd_even_network,
    particle_segments,
    permutation_segments,
    prepare_hartree_product,
    quword_width,
    rank_to_permutation,
    slater_oracle,
    sort_and_entangle,
)
from .basis import (
    BasisSet,
    IntegrationSpec,
    Orbital,
    box_sine,
    harmonic_hermite,
    kronecker_delta,
    mc_sample_count,
    normal_quantile,
    ring_plane_wave,
    tabulated,
    uniform,
)
from .compose import (
    FockSuperposition,
    MixedSpec,
    PreparedState,
    mixed_oracle,
    prepare_mixed,
    prepare_orbital,
    prepare_slater,
    prepare_superposition,
    prepare_two_species,
    superposition_oracle,
)
from .discriminate import (
    IdentificationRecord,
    PhaseEstimationConfig,
    SymmetryOperator,
    extra_qubits_for,
    identify_and_decrement,
    phase_estimate,
    verify_uncomputation,
)
from .errors import (
    DegeneracyError,
    GridprepError,
    ImpossibleOutcomeError,
    PipelineError,
    ResourceError,
    RetryBudgetError,
    StructuralError,
    ValidationError,
)
from .loader import (
    LoadPlan,
    apply_phases,
    load_amplitude_table,
    load_error_bound,
    load_orbital,
)
from .statevec import (
    DensityMatrix,
    QuantumState,
    RegisterLayout,
    Segment,
    SparseState,
    apply_unitary_on_segment,
    extract_segment_vector,
    measure_segment,
    partial_trace,
    qft,
    qubit_cap,
    relabel,
    segment_masses,
)

__all__ = [name for name, value in sorted(globals().items())
           if not (name.startswith("_") or isinstance(value, _ModuleType))]

__version__ = "0.1.0"
