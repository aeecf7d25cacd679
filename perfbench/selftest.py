"""Self-test of the benchmark's references and checks.

    python3 perfbench/selftest.py

Shows that the gridprep-free references agree with gridprep's own oracles
(`slater_oracle`, `superposition_oracle`, `mixed_oracle`, and
`Orbital.grid_values`) on small cases, that every check rejects a corrupted
output, and that BENCHMARK.json names exactly the metrics run.py prints.
Exits 1 on the first disagreement.
"""
import json
import math
import sys

import numpy as np

import checks
import reference as ref
import run
import workloads

gp = run.import_gridprep()
CDF = gp.IntegrationSpec(backend="analytic-cdf", epsilon_i=1e-9)


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"selftest FAILED: {what}")
        sys.exit(1)
    print(f"ok  {what}")


def gp_basis(orbitals, energies=None):
    energies = energies or [None] * len(orbitals)
    return gp.BasisSet([workloads.gp_orbital(gp, f, p, e)
                        for (f, p), e in zip(orbitals, energies)])


def passes(readings):
    return not checks.failing(readings)


# -- the references agree with gridprep's oracles ------------------------------

for family, param in [("box-sine", 3), ("ring-plane-wave", -2),
                      ("harmonic-hermite", 2)]:
    for l in (3, 6, 10):
        ours = ref.orbital_samples(family, param, l)
        theirs = workloads.gp_orbital(gp, family, param).grid_values(l)
        expect(np.max(np.abs(ours - theirs)) < 1e-12,
               f"{family}({param}) samples at l={l} match grid_values")

BASES = {
    "box-sine": [("box-sine", n) for n in (1, 2, 3, 4)],
    "ring": [("ring-plane-wave", k) for k in (0, 1, -1, 2)],
    # Hermite samples are far from orthogonal on 16 sites, so this basis
    # exercises the Loewdin step
    "hermite": [("harmonic-hermite", n) for n in (0, 1, 2, 3)],
}
for name, orbitals in BASES.items():
    phi = ref.grid_basis(orbitals, 4)
    expect(np.max(np.abs(phi - gp_basis(orbitals).grid_matrix(4))) < 1e-12,
           f"{name} basis orthonormalization matches grid_matrix")
    for counts, fermionic in [((1, 1, 0, 1), True), ((0, 1, 1, 0), True),
                              ((2, 1, 0, 0), False), ((1, 1, 1, 0), False),
                              ((0, 0, 3, 0), False)]:
        occ = gp.OccupationVector(counts,
                                  "fermionic" if fermionic else "bosonic")
        oracle = gp.slater_oracle(occ, gp_basis(orbitals), 4)
        ours = ref.symmetrized_state(phi, counts, fermionic)
        expect(np.max(np.abs(ours - oracle)) < 1e-12,
               f"{name} {'det' if fermionic else 'perm'} {counts} matches "
               "slater_oracle")

terms = [(0.6, (1, 1, 0, 0)), (0.8j, (0, 1, 0, 1)), (0.3 - 0.2j, (1, 0, 1, 0))]
sup = gp.FockSuperposition.from_terms(
    [(a, gp.OccupationVector(c)) for a, c in terms])
expect(np.max(np.abs(
    ref.superposition_state(ref.grid_basis(BASES["ring"], 3), terms, True)
    - gp.superposition_oracle(sup, gp_basis(BASES["ring"]), 3))) < 1e-12,
    "superposition matches superposition_oracle")

energies = [0.0, 1.0, 2.0]
picks = [(1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0)]
spec = gp.MixedSpec.thermal(0.7, [(e, gp.OccupationVector(c))
                                  for e, c in zip(energies, picks)])
weights = ref.gibbs_weights(0.7, energies)
expect(np.allclose([p for p, _ in spec.components], weights, atol=1e-15),
       "Gibbs weights match MixedSpec.thermal")
phi = ref.grid_basis(BASES["box-sine"], 3)
mix_ref = ref.mixture(phi, list(zip(weights, picks)), True)
expect(np.max(np.abs(
    mix_ref - gp.mixed_oracle(spec, gp_basis(BASES["box-sine"]), 3).matrix))
    < 1e-12, "mixture matches mixed_oracle")

# -- every check passes a correct output and rejects a corrupted one ----------

occ = gp.OccupationVector((1, 1, 0, 1))
prep = gp.prepare_slater(occ, gp_basis(BASES["box-sine"]), 3, CDF)
target = ref.symmetrized_state(phi, (1, 1, 0, 1), True)
expect(passes(checks.check_pure(prep.vector, target, checks.PURE_TOL,
                                prep.report.error_bound)
              + checks.check_exchange(prep.vector, 3, 3, True)),
       "prepared determinant passes the pure and exchange checks")
flipped = prep.vector.copy()
flipped[np.argmax(np.abs(flipped))] *= -1
expect(not passes(checks.check_pure(flipped, target, checks.PURE_TOL)),
       "one flipped amplitude sign fails the infidelity check")
expect(not passes(checks.check_pure(flipped, target, 1.0, 1e-9)),
       "one flipped amplitude sign fails the error-bound check")
expect(not passes(checks.check_exchange(flipped, 3, 3, True)),
       "one flipped amplitude sign fails the exchange check")
boson = ref.symmetrized_state(phi, (1, 1, 0, 1), False)
expect(not passes(checks.check_exchange(boson, 3, 3, True)),
       "a symmetric state fails the fermionic exchange check")
expect(passes(checks.check_exchange(boson, 3, 3, False)),
       "a symmetric state passes the bosonic exchange check")

prep = gp.prepare_mixed(spec, gp_basis(BASES["box-sine"]), 3, CDF)
expect(passes(checks.check_mixture(prep.rho.matrix, mix_ref, weights)),
       "prepared mixture passes the mixture checks")
swapped = weights[[1, 0, 2]]
swapped_ref = ref.mixture(phi, list(zip(swapped, picks)), True)
bad = {n for n, _, _ in checks.failing(
    checks.check_mixture(prep.rho.matrix, swapped_ref, swapped))}
expect(bad == {"rho_elementwise"},
       "two swapped ensemble weights fail the elementwise check")
bad = {n for n, _, _ in checks.failing(
    checks.check_mixture(prep.rho.matrix, mix_ref, [0.5, 0.3, 0.2]))}
expect(bad == {"leading_eigenvalues"},
       "wrong ensemble weights fail the eigenvalue check")
bad = {n for n, _, _ in checks.failing(
    checks.check_mixture(1.01 * prep.rho.matrix, mix_ref, weights))}
expect("trace" in bad, "a rescaled density matrix fails the trace check")

tol = checks.irrational_phase_tol(2, 0.05)
expect(abs(tol - (1 - 2 * math.sqrt(0.9) / 1.9)) < 1e-15 and 1.38e-3 < tol
       < 1.39e-3, f"irrational-phase tolerance is {tol:.4g}")
ops = {op.seed: op for op in workloads.superposition(gp, 0)
       if op.config == "irrational-phase"}
expect(passes(ops[80].check(ops[80].call(gp))),
       "irrational-phase output on measurement seed 80 passes")
expect(passes(ops[82].check(ops[82].call(gp))),
       "irrational-phase output on measurement seed 82 (one retry) passes")
leaked = ops[98].check(ops[98].call(gp))
expect([n for n, _, _ in checks.failing(leaked)] == ["infidelity"],
       "leaked irrational-phase output on measurement seed 98 fails")
exact = workloads.superposition(gp, 0)[0]
prep = exact.call(gp)
expect(passes(exact.check(prep)), "exact-phase output passes")
prep.report.attempts = 2
expect(not passes(exact.check(prep)),
       "an exact-phase output that needed two attempts fails")

# -- BENCHMARK.json names what run.py prints ------------------------------------

spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
       "BENCHMARK.json end_to_end matches run.py")
expect({m["name"]: m["unit"] for m in spec["per_layer"]}
       == run.per_layer_units(), "BENCHMARK.json per_layer matches run.py")
expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
       "BENCHMARK.json workloads match workloads.py")
print("selftest passed")
