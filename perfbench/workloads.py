"""The four workloads.  Each workload function turns a seed into one round:
a fixed list of operations, each a call into a public `gridprep.prepare_*`
function plus the checks its output must pass.  A run repeats whole rounds.

The seed picks quantum numbers, occupations, amplitudes, temperatures and
measurement seeds.  It never changes the grid sizes, particle numbers or
the number of operations in a round, so the cost of a round is the same for
every seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

import checks
import reference as ref

EPS_I = 1e-9

#: Measurement seeds of the irrational-phase configuration.  They are fixed,
#: not drawn from the workload seed: on seed 98 gridprep returns a state
#: whose readout reset measured a nonzero outcome (a known fault), and that
#: must fail the same number of times in every run.  Seed 82 retries once.
IRRATIONAL_SEEDS = tuple(range(80, 100))


@dataclass
class Op:
    config: str           # the inputs, as named in failure reports
    seed: int | None      # measurement seed, if the preparation measures
    call: Callable        # gridprep module -> PreparedState
    check: Callable       # PreparedState -> [(name, value, limit)]
    known_fault: bool = False
    #: Ops of one group share set-up state (a ratio cache, or nothing), and
    #: set-up runs one untimed warm-up preparation per group.
    group: str = ""

    @property
    def warmup_group(self) -> str:
        return self.group or self.config


def _specs(gp):
    cdf = gp.IntegrationSpec(backend="analytic-cdf", epsilon_i=EPS_I)
    quad = gp.IntegrationSpec(backend="adaptive-quadrature", epsilon_i=EPS_I)
    return cdf, quad


def gp_orbital(gp, family, param, energy=None):
    make = {"box-sine": gp.box_sine, "ring-plane-wave": gp.ring_plane_wave,
            "harmonic-hermite": gp.harmonic_hermite}[family]
    return make(param, energy=energy)


def _complex_amplitudes(rng, k):
    a = rng.normal(size=k) + 1j * rng.normal(size=k)
    return a / np.linalg.norm(a)


def _counts_string(counts):
    return ",".join(str(c) for c in counts)


# -- orbital -----------------------------------------------------------------

def orbital(gp, seed):
    """Single-orbital loads on fine grids, one family per grid size."""
    rng = np.random.default_rng(seed)
    cdf, quad = _specs(gp)
    # grid sizes chosen so that the three loads take about the same time,
    # which keeps the median load time away from a gap between clusters
    loads = [
        ("box-sine", int(rng.integers(1, 9)), 17, cdf),
        ("ring-plane-wave", int(rng.choice([-1, 1]) * rng.integers(1, 9)),
         17, cdf),
        ("harmonic-hermite", int(rng.integers(1, 3)), 18, quad),
    ]
    ops = []
    for family, param, l, spec in loads:
        orb = gp_orbital(gp, family, param)
        target = ref.orbital_samples(family, param, l)

        def call(gp, orb=orb, l=l, spec=spec):
            return gp.prepare_orbital(orb, l, spec)

        def check(prep, target=target):
            return checks.check_pure(prep.vector, target, checks.PURE_TOL,
                                     prep.report.error_bound)

        ops.append(Op(f"{family}({param}) l={l}", None, call, check))
    return ops


# -- slater ------------------------------------------------------------------

SLATER_L = 5
SLATER_M = 3


def slater(gp, seed):
    """Two determinants and one permanent of three particles at l = 5."""
    rng = np.random.default_rng(seed)
    cdf, _ = _specs(gp)
    box = [("box-sine", int(n))
           for n in sorted(rng.choice(np.arange(2, 10), 4, replace=False))]
    ring = [("ring-plane-wave", int(k)) for k in rng.choice(
        [k for k in range(-7, 8) if k != 0], 4, replace=False)]
    while True:
        counts = np.bincount(rng.integers(0, 4, size=SLATER_M), minlength=4)
        if counts.max() <= 2:
            break
    jobs = [
        (box, np.insert(np.ones(3, int), int(rng.integers(4)), 0), True),
        (ring, np.insert(np.ones(3, int), int(rng.integers(4)), 0), True),
        (box, counts, False),
    ]
    ops = []
    for orbitals, counts, fermionic in jobs:
        counts = tuple(int(c) for c in counts)
        basis = gp.BasisSet([gp_orbital(gp, f, p) for f, p in orbitals])
        statistics = "fermionic" if fermionic else "bosonic"
        occ = gp.OccupationVector(counts, statistics)
        target = ref.symmetrized_state(ref.grid_basis(orbitals, SLATER_L),
                                       counts, fermionic)

        def call(gp, occ=occ, basis=basis):
            return gp.prepare_slater(occ, basis, SLATER_L, cdf)

        def check(prep, target=target, fermionic=fermionic):
            return (checks.check_pure(prep.vector, target, checks.PURE_TOL,
                                      prep.report.error_bound)
                    + checks.check_exchange(prep.vector, SLATER_M, SLATER_L,
                                            fermionic))

        label = (f"{statistics} {orbitals[0][0]} "
                 f"{[p for _, p in orbitals]} n={_counts_string(counts)}")
        # nothing is cached between these loads: one warm-up per statistics
        ops.append(Op(label, None, call, check, group=statistics))
    return ops


# -- superposition -----------------------------------------------------------

EXACT_BASIS = [("box-sine", n) for n in (1, 2, 3, 4)]
EXACT_ENERGIES = [0.0, 1.0, 2.0, 3.0]
EXACT_T = 2 * math.pi / 8
RING_BASIS = [("ring-plane-wave", k) for k in (0, 1, -1)]
RING_ENERGIES = [0.0, 1.0, 1.0]
RING_T = 2 * math.pi / 4
IRR_BASIS = [("box-sine", n) for n in (1, 2, 3)]
IRR_ENERGIES = [0.0, math.sqrt(2.0), math.sqrt(5.0)]
IRR_T = 2 * math.pi * 0.3 / math.sqrt(2.0)
IRR_EPS_PE = 0.05
IRR_TERMS = [(0.6, (1, 1, 0)), (0.8, (1, 0, 1))]


def _two_fermion_occupations(num_orbitals):
    out = []
    for pair in combinations(range(num_orbitals), 2):
        counts = [0] * num_orbitals
        for i in pair:
            counts[i] = 1
        out.append(tuple(counts))
    return out


def _gp_basis(gp, orbitals, energies):
    return gp.BasisSet([gp_orbital(gp, f, p, e)
                        for (f, p), e in zip(orbitals, energies)])


def _superposition_config(gp, label, orbitals, energies, l, terms, seeds,
                          tol, one_attempt, known_fault=False, **pe):
    """One configuration: one basis, superposition and ratio cache, run
    once per measurement seed.
    """
    cdf, _ = _specs(gp)
    basis = _gp_basis(gp, orbitals, energies)
    sup = gp.FockSuperposition.from_terms(
        [(a, gp.OccupationVector(c)) for a, c in terms])
    target = ref.superposition_state(ref.grid_basis(orbitals, l), terms, True)
    cache: dict = {}

    def check(prep):
        readings = [("infidelity", checks.infidelity(prep.vector, target),
                     tol)]
        if one_attempt:
            readings.append(("attempts", prep.report.attempts - 1, 0))
        return readings

    ops = []
    for seed in seeds:
        def call(gp, seed=seed):
            return gp.prepare_superposition(sup, basis, l, cdf, seed=seed,
                                            cache=cache, **pe)

        ops.append(Op(label, seed, call, check, known_fault))
    return ops


def superposition(gp, seed):
    """Occupation-state superpositions disentangled by phase estimation:
    exact phases, a symmetry-split degenerate pair, and irrational phases.
    """
    rng = np.random.default_rng(seed)
    ops = []
    exact = [("exact-phase", EXACT_BASIS, EXACT_ENERGIES, (2, 3, 4),
              {"t": EXACT_T}),
             ("symmetry", RING_BASIS, RING_ENERGIES, (2, 3),
              {"t": RING_T,
               "symmetry": gp.SymmetryOperator("cyclic-shift")})]
    for name, orbitals, energies, sizes, pe in exact:
        occs = _two_fermion_occupations(len(orbitals))
        for k in sizes:
            picks = [occs[i] for i in rng.choice(len(occs), k, replace=False)]
            terms = list(zip(_complex_amplitudes(rng, k), picks))
            label = f"{name} " + "+".join(
                "".join(map(str, c)) for c in picks)
            ops += _superposition_config(
                gp, label, orbitals, energies, 3, terms,
                [int(rng.integers(2**31))], checks.EXACT_PHASE_TOL, True, **pe)
    ops += _superposition_config(
        gp, "irrational-phase", IRR_BASIS, IRR_ENERGIES, 2, IRR_TERMS,
        IRRATIONAL_SEEDS, checks.irrational_phase_tol(2, IRR_EPS_PE), False,
        known_fault=True, t=IRR_T, eps_pe=IRR_EPS_PE)
    return ops


# -- mixed -------------------------------------------------------------------

MIXED_L = 5


def mixed(gp, seed):
    """Thermal ensembles of two-fermion states of 2, 3 and 4 components,
    prepared by purification and partial trace.
    """
    rng = np.random.default_rng(seed)
    cdf, _ = _specs(gp)
    orbitals = [("box-sine", int(n))
                for n in sorted(rng.choice(np.arange(1, 9), 4, replace=False))]
    levels = [0.0, 1.0, 2.0, 3.0]
    basis = _gp_basis(gp, orbitals, levels)
    phi = ref.grid_basis(orbitals, MIXED_L)
    occs = _two_fermion_occupations(4)
    ops = []
    for k in (2, 3, 4):
        beta = float(rng.uniform(0.3, 1.5))
        picks = [occs[i] for i in rng.choice(len(occs), k, replace=False)]
        energies = [sum(e for e, c in zip(levels, counts) if c)
                    for counts in picks]
        spec = gp.MixedSpec.thermal(
            beta, [(e, gp.OccupationVector(c))
                   for e, c in zip(energies, picks)])
        weights = ref.gibbs_weights(beta, energies)
        target = ref.mixture(phi, list(zip(weights, picks)), True)

        def call(gp, spec=spec):
            return gp.prepare_mixed(spec, basis, MIXED_L, cdf)

        def check(prep, target=target, weights=weights):
            return checks.check_mixture(prep.rho.matrix, target, weights)

        ops.append(Op(f"thermal {k} components beta={beta:.3f}", None, call,
                      check))
    return ops


WORKLOADS = {"orbital": orbital, "slater": slater,
             "superposition": superposition, "mixed": mixed}
