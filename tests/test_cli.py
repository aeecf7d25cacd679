"""CLI commands, config handling, artifacts, exit codes, determinism."""
import csv
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from gridprep.analysis import pure_infidelity
from gridprep.basis import BasisSet, IntegrationSpec
from gridprep.cli import SCHEMA, TASKS, _Required, main, read_orbital_csv, \
    write_table
from gridprep.discriminate import SymmetryOperator
from gridprep.errors import StructuralError, ValidationError
from helpers import outputs_under_blas_threads

BOX_BASIS = [
    {"family": "box-sine", "n": 1},
    {"family": "box-sine", "n": 2},
    {"family": "box-sine", "n": 3},
]
#: BOX_BASIS's energies 1, 4 and 9 at this t have the exact, distinct
#: phases 15/16, 12/16 and 7/16, which need no eps_pe.
BOX_EXACT_PE = {"t": 2 * float(np.pi) / 16}


#: Runs verify-bounds on the config named on the command line and prints
#: its report.txt; exits with the command's exit code.
VERIFY_REPORT = """
import sys
from pathlib import Path
from gridprep.cli import main
code = main(["verify-bounds", "--config", sys.argv[1], "--out", "out"])
print(Path("out", "report.txt").read_text(), end="")
sys.exit(code)
"""


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def run(args):
    return main(args)


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "occupation": "110", "basis": BOX_BASIS})
        assert run(["validate", "--config", cfg]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert run(["validate", "--config",
                    str(tmp_path / "nope.yaml")]) == 2

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("a: [unclosed")
        assert run(["validate", "--config", str(path)]) == 2

    def test_pauli_violation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "occupation": "2,1,0", "statistics": "fermionic",
            "basis": BOX_BASIS})
        assert run(["validate", "--config", cfg]) == 2
        assert "Pauli" in capsys.readouterr().err

    # a value inside a section is named by its path; the ids keep the
    # section's name
    @pytest.mark.parametrize("command, key, cfg", [
        ("validate", "l",
         {"l": "three", "occupation": "110", "basis": BOX_BASIS}),
        ("validate", "occupation",
         {"l": 3, "occupation": "1a0", "basis": BOX_BASIS}),
        pytest.param(
            "validate", "integration.epsilon_i",
            {"l": 3, "basis": BOX_BASIS, "integration": {"epsilon_i": "tiny"}},
            id="validate-integration-cfg2"),
        ("prepare-orbital", "orbital",
         {"l": 3, "orbital": 7, "basis": BOX_BASIS[:1]}),
        pytest.param(
            "validate", "superposition[0].amplitude",
            {"l": 3, "basis": BOX_BASIS, "superposition": [
                {"amplitude": [0.6], "occupation": "110"},
                {"amplitude": 0.8, "occupation": "011"}]},
            id="validate-superposition-cfg4"),
        pytest.param(
            "validate", "mixed.thermal.components",
            {"l": 3, "basis": BOX_BASIS[:2],
             "mixed": {"thermal": {"beta": 1.0}}},
            id="validate-mixed-cfg5"),
        pytest.param(
            "validate", "phase_estimation.t",
            {"l": 3, "basis": BOX_BASIS, "phase_estimation": {"t": "fast"}},
            id="validate-phase_estimation-cfg6"),
        pytest.param(
            "validate", "integration.seed",
            {"l": 3, "basis": BOX_BASIS, "integration": {"seed": 1.5}},
            id="validate-integration-cfg7"),
        ("validate", "orbital",
         {"l": 3, "orbital": 7, "basis": BOX_BASIS[:1]}),
        ("validate", "task", {"l": 3, "task": "foo", "basis": BOX_BASIS}),
        ("verify-bounds", "task",
         {"l": 3, "task": "foo", "basis": BOX_BASIS}),
        ("validate", "max_attempts",
         {"l": 3, "max_attempts": "many", "basis": BOX_BASIS}),
        ("validate", "max_attempts",
         {"l": 3, "max_attempts": 0, "basis": BOX_BASIS}),
        ("prepare-superposition", "max_attempts",
         {"l": 3, "max_attempts": 0, "basis": BOX_BASIS, "superposition": [
             {"amplitude": 0.6, "occupation": "110"},
             {"amplitude": 0.8, "occupation": "011"}]}),
        # an integer key does not truncate a fraction
        pytest.param(
            "prepare-slater", "l",
            {"l": 3.7, "occupation": "110", "basis": BOX_BASIS},
            id="prepare-slater-l-fraction"),
        # a count below 1 is rejected where the schema reads it
        pytest.param(
            "prepare-slater", "l",
            {"l": 0, "occupation": "110", "basis": BOX_BASIS},
            id="prepare-slater-l-zero"),
        pytest.param(
            "prepare-slater", "basis[1].n",
            {"l": 3, "occupation": "110", "basis": [
                BOX_BASIS[0], {"family": "box-sine", "n": 2.9},
                BOX_BASIS[2]]},
            id="prepare-slater-basis-n-fraction"),
        # a YAML boolean is not read as 1 or 1.0
        pytest.param(
            "prepare-orbital", "l", {"l": True, "basis": BOX_BASIS[:1]},
            id="prepare-orbital-l-boolean"),
        pytest.param(
            "prepare-orbital", "basis[0].n",
            {"l": 3, "basis": [{"family": "box-sine", "n": True}]},
            id="prepare-orbital-basis-n-boolean"),
        pytest.param(
            "prepare-orbital", "length",
            {"l": 3, "length": True, "basis": BOX_BASIS[:1]},
            id="prepare-orbital-length-boolean"),
        pytest.param(
            "validate", "superposition[0].amplitude",
            {"l": 3, "basis": BOX_BASIS, "superposition": [
                {"amplitude": [True, 0], "occupation": "110"}]},
            id="validate-superposition-amplitude-boolean"),
        pytest.param(
            "validate", "phase_estimation.symmetry.step",
            {"l": 3, "basis": BOX_BASIS, "phase_estimation": {
                "symmetry": {"kind": "cyclic-shift", "step": 1.5}}},
            id="validate-phase_estimation-step-fraction"),
        # a NaN amplitude, a NaN weight and an infinite beta are rejected
        # where they are read
        pytest.param(
            "prepare-superposition", "superposition",
            {"l": 3, "basis": BOX_BASIS, "superposition": [
                {"amplitude": float("nan"), "occupation": "110"},
                {"amplitude": 0.8, "occupation": "011"}]},
            id="prepare-superposition-nan-amplitude"),
        pytest.param(
            "prepare-mixed", "mixed",
            {"l": 3, "basis": BOX_BASIS, "mixed": {"components": [
                {"probability": float("nan"), "occupation": "110"},
                {"probability": 1.0, "occupation": "011"}]}},
            id="prepare-mixed-nan-probability"),
        pytest.param(
            "prepare-mixed", "mixed",
            {"l": 3, "basis": BOX_BASIS, "mixed": {"thermal": {
                "beta": float("inf"), "components": [
                    {"energy": 0.0, "occupation": "110"},
                    {"energy": 1.0, "occupation": "011"}]}}},
            id="prepare-mixed-infinite-beta"),
    ])
    def test_malformed_value_names_its_key(self, tmp_path, capsys, command,
                                           key, cfg):
        path = write_config(tmp_path, "c.yaml", cfg)
        assert run([command, "--config", path,
                    "--out", str(tmp_path / "out")]) == 2
        assert f"error: {key}:" in capsys.readouterr().err

    # validate rejects what the command rejects, and both name the key
    @pytest.mark.parametrize("command, key, cfg", [
        pytest.param(
            "prepare-slater", "occupation",
            {"l": 3, "occupation": "1001", "basis": BOX_BASIS},
            id="slater"),
        pytest.param(
            "verify-bounds", "occupation",
            {"l": 3, "occupation": "1001", "basis": BOX_BASIS},
            id="verify-bounds"),
        pytest.param(
            "prepare-mixed", "mixed.components[1].occupation",
            {"l": 3, "basis": BOX_BASIS, "mixed": {"components": [
                {"probability": 0.5, "occupation": "0110"},
                {"probability": 0.5, "occupation": "1001"}]}},
            id="mixed"),
        pytest.param(
            "prepare-mixed", "mixed.thermal.components[0].occupation",
            {"l": 3, "basis": BOX_BASIS, "mixed": {"thermal": {
                "beta": 1.0, "components": [
                    {"energy": 0.0, "occupation": "1001"},
                    {"energy": 1.0, "occupation": "0110"}]}}},
            id="mixed-thermal"),
        pytest.param(
            "prepare-superposition", "superposition",
            {"l": 3, "basis": BOX_BASIS, "superposition": [
                {"amplitude": 0.6, "occupation": "1100"},
                {"amplitude": 0.8, "occupation": "1010"}]},
            id="superposition"),
        pytest.param(
            "prepare-two-species", "species_b",
            {"l": 2, "basis": BOX_BASIS[:2],
             "species_a": {"occupation": "11"},
             "species_b": {"occupation": "001"}},
            id="two-species"),
        pytest.param(
            "sweep", "sweep.l[0]",
            {"l": 3, "occupation": "110", "basis": BOX_BASIS,
             "sweep": {"l": [0, 3]}},
            id="sweep-l"),
        pytest.param(
            "sweep", "sweep.occupations[0]",
            {"l": 3, "occupation": "110", "basis": BOX_BASIS,
             "sweep": {"occupations": ["1x0"]}},
            id="sweep-occupation"),
        # the sweep occupation is checked against the basis by the reader
        # of its cell's task, where sweep named the top-level occupation
        pytest.param(
            "sweep", "sweep.occupations[0]",
            {"l": 3, "occupation": "110", "basis": BOX_BASIS,
             "sweep": {"occupations": ["1001"]}},
            id="sweep-occupation-outside-basis"),
        # superposition reads no occupation: sweep printed identical rows
        # labelled with occupations it never prepared
        pytest.param(
            "sweep", "sweep.occupations",
            {"l": 2, "basis": BOX_BASIS, "superposition": [
                {"amplitude": 0.6, "occupation": "110"},
                {"amplitude": 0.8, "occupation": "011"}],
             "phase_estimation": BOX_EXACT_PE,
             "sweep": {"occupations": ["110", "011"]}},
            id="sweep-occupations-on-superposition"),
        # the readouts are built as the driver builds them: plane waves
        # k = +-1 are not eigenvectors of the reflection, and 3 orbitals do
        # not fit on the 2 sites of l = 1
        pytest.param(
            "prepare-superposition", "phase_estimation.symmetry",
            {"l": 3, "basis": [
                {"family": "ring-plane-wave", "k": k, "energy": float(k * k)}
                for k in (0, 1, -1)],
             "superposition": [{"amplitude": 0.6, "occupation": "110"},
                               {"amplitude": 0.8, "occupation": "101"}],
             "phase_estimation": {"t": 2 * float(np.pi) / 4,
                                  "symmetry": {"kind": "reflection"}}},
            id="superposition-orbitals-not-symmetry-eigenvectors"),
        pytest.param(
            "prepare-superposition", "basis",
            {"l": 1, "basis": BOX_BASIS,
             "superposition": [{"amplitude": 0.6, "occupation": "110"},
                               {"amplitude": 0.8, "occupation": "011"}],
             "phase_estimation": BOX_EXACT_PE},
            id="superposition-basis-wider-than-the-grid"),
    ])
    def test_validate_rejects_what_the_command_rejects(self, tmp_path,
                                                       capsys, command, key,
                                                       cfg):
        path = write_config(tmp_path, "c.yaml", cfg)
        for args in (["validate"], [command, "--out", str(tmp_path / "o")]):
            assert run([*args, "--config", path]) == 2
            assert f"error: {key}:" in capsys.readouterr().err

    def test_unoccupied_orbitals_past_the_basis_pass(self, tmp_path):
        # the drivers' rule: only an occupied orbital must lie in the basis
        path = write_config(tmp_path, "c.yaml", {
            "l": 3, "occupation": "1100", "basis": BOX_BASIS})
        assert run(["validate", "--config", path]) == 0
        assert run(["prepare-slater", "--config", path,
                    "--out", str(tmp_path / "o")]) == 0

    def test_validate_writes_nothing(self, tmp_path):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "occupation": "110", "basis": BOX_BASIS})
        assert run(["validate", "--config", cfg,
                    "--out", str(tmp_path / "newdir")]) == 0
        assert not (tmp_path / "newdir").exists()

    def test_readme_examples_validate(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        assert len(blocks) >= 5
        (tmp_path / "orb.csv").write_text(
            "index,re,im\n0,0.5,0\n1,0.5,0\n2,0.5,0\n3,0.5,0\n")
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme{i}.yaml"
            path.write_text(block)
            assert run(["validate", "--config", str(path)]) == 0, block


class TestPrepareCommands:
    def test_prepare_orbital_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 6, "basis": [{"family": "box-sine", "n": 1}],
            "integration": {"backend": "analytic-cdf", "epsilon_i": 1e-9}})
        out = tmp_path / "out"
        assert run(["prepare-orbital", "--config", cfg,
                    "--out", str(out)]) == 0
        assert (out / "report.txt").exists()
        assert (out / "report.csv").exists()
        rows = list(csv.reader((out / "state.csv").open()))
        assert rows[0] == ["index", "re", "im"]
        assert len(rows) == 65

    def test_prepare_slater_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "occupation": "110", "basis": BOX_BASIS})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(["prepare-slater", "--config", cfg, "--seed", "5",
                    "--out", str(out1)]) == 0
        assert run(["prepare-slater", "--config", cfg, "--seed", "5",
                    "--out", str(out2)]) == 0
        for name in ("report.csv", "state.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_prepare_superposition(self, tmp_path):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "statistics": "fermionic",
            "basis": [{"family": "box-sine", "n": n, "energy": float(n - 1)}
                      for n in (1, 2, 3)],
            "superposition": [
                {"amplitude": 0.6, "occupation": "110"},
                {"amplitude": 0.8, "occupation": "011"},
            ],
            "phase_estimation": {"t": 2 * float(np.pi) / 4}})
        out = tmp_path / "out"
        assert run(["prepare-superposition", "--config", cfg, "--seed", "1",
                    "--out", str(out)]) == 0
        assert (out / "state.csv").exists()

    @pytest.mark.parametrize("statistics, occupations", [
        ("fermionic", ["110", "011"]),
        ("bosonic", ["2,0,0", "0,2,0"]),
    ])
    def test_superposition_on_wider_basis(self, tmp_path, statistics,
                                          occupations):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "statistics": statistics,
            "basis": [{"family": "box-sine", "n": n, "energy": float(n - 1)}
                      for n in (1, 2, 3, 4)],
            "superposition": [
                {"amplitude": a, "occupation": occ}
                for a, occ in zip((0.6, 0.8), occupations)],
            "phase_estimation": {"t": 2 * float(np.pi) / 8}})
        assert run(["prepare-superposition", "--config", cfg, "--seed", "2",
                    "--out", str(tmp_path / "out")]) == 0

    def test_degenerate_superposition_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "statistics": "fermionic",
            "basis": [
                {"family": "ring-plane-wave", "k": 0, "energy": 0.0},
                {"family": "ring-plane-wave", "k": 1, "energy": 1.0},
                {"family": "ring-plane-wave", "k": -1, "energy": 1.0},
            ],
            "superposition": [
                {"amplitude": 0.6, "occupation": "110"},
                {"amplitude": 0.8, "occupation": "101"},
            ],
            "phase_estimation": {"t": 2 * float(np.pi) / 4}})
        for args in (["validate"],
                     ["prepare-superposition", "--out", str(tmp_path / "o")]):
            assert run([*args, "--config", cfg]) == 3
            err = capsys.readouterr().err
            assert "1.0" in err  # names the colliding energies

    def test_prepare_mixed_thermal(self, tmp_path):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "statistics": "fermionic",
            "basis": BOX_BASIS[:2],
            "mixed": {"thermal": {"beta": 1.0, "components": [
                {"energy": 0.0, "occupation": "10"},
                {"energy": 1.0, "occupation": "01"},
            ]}}})
        out = tmp_path / "out"
        assert run(["prepare-mixed", "--config", cfg,
                    "--out", str(out)]) == 0
        rows = list(csv.reader((out / "rho.csv").open()))
        assert rows[0] == ["row", "col", "re", "im"]
        # reconstruct the trace: Gibbs weights sum to 1
        trace = sum(float(r[2]) for r in rows[1:] if r[0] == r[1])
        assert trace == pytest.approx(1.0, abs=1e-9)

    def test_prepare_two_species(self, tmp_path):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 2, "basis": BOX_BASIS[:2],
            "species_a": {"occupation": "11"},
            "species_b": {"occupation": "10"}})
        out = tmp_path / "out"
        assert run(["prepare-two-species", "--config", cfg,
                    "--out", str(out)]) == 0
        assert (out / "state.csv").exists()

    def test_qubit_cap_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRIDPREP_QUBIT_CAP", "4")
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "occupation": "110", "basis": BOX_BASIS})
        assert run(["prepare-slater", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 4

    @pytest.mark.parametrize("command", [
        "validate", "prepare-orbital", "prepare-slater",
        "prepare-superposition", "prepare-two-species", "prepare-mixed"])
    def test_monte_carlo_sample_cap_exit_code(self, tmp_path, capsys,
                                              command):
        # epsilon_i = 1e-6 on [0, 1] needs 960364705174 samples per
        # integral; the integration section is refused as it is read
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 2, "basis": [{"family": "box-sine", "n": 1}],
            "integration": {"backend": "monte-carlo", "epsilon_i": 1e-6,
                            "bounds": [0.0, 1.0]}})
        assert run([command, "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "integration.epsilon_i" in err and "960364705174" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", [171, 200])
    def test_hermite_index_past_the_double_range(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 4, "basis": [{"family": "harmonic-hermite", "n": n}]})
        assert run(["prepare-orbital", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert "not finite on the grid" in capsys.readouterr().err

    def test_superposition_cap_checked_before_the_readouts(
            self, tmp_path, monkeypatch, capsys):
        # 3 + 2 x 20 qubits before the readouts, against the cap of 26:
        # found before grid_matrix(20), 2^20 rows, is sampled
        def grid_matrix(self, l):
            raise AssertionError("readouts built before the qubit cap")

        monkeypatch.delenv("GRIDPREP_QUBIT_CAP", raising=False)
        monkeypatch.setattr(BasisSet, "grid_matrix", grid_matrix)
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 20, "statistics": "fermionic",
            "basis": [{"family": "box-sine", "n": n, "energy": float(n - 1)}
                      for n in (1, 2, 3)],
            "superposition": [
                {"amplitude": 0.6, "occupation": "110"},
                {"amplitude": 0.8, "occupation": "011"},
            ],
            "phase_estimation": BOX_EXACT_PE})
        for args in (["validate"],
                     ["prepare-superposition", "--out", str(tmp_path / "o")]):
            assert run([*args, "--config", cfg]) == 4
            assert "43 qubits" in capsys.readouterr().err

    def test_bad_qubit_cap_is_config_error(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setenv("GRIDPREP_QUBIT_CAP", "lots")
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "occupation": "110", "basis": BOX_BASIS})
        assert run(["prepare-slater", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert "GRIDPREP_QUBIT_CAP" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_unusable_out_is_config_error(self, tmp_path, capsys, out):
        # an existing file, and a path through one
        (tmp_path / "afile").write_text("")
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "occupation": "110", "basis": BOX_BASIS})
        assert run(["prepare-slater", "--config", cfg,
                    "--out", str(tmp_path / out)]) == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["prepare-slater", "verify-bounds"])
    def test_error_before_writing_leaves_no_out(self, tmp_path, capsys,
                                                command):
        # found by the preparation, after the config passed its schema
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "occupation": "1001", "basis": BOX_BASIS})
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        assert "outside the basis" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fault",[KeyError("particle0"),
                                       StructuralError("bad layout")])
    def test_internal_fault_propagates(self, tmp_path, monkeypatch, fault):
        def prepare_slater(*args, **kwargs):
            raise fault
        monkeypatch.setattr("gridprep.cli.prepare_slater", prepare_slater)
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "occupation": "110", "basis": BOX_BASIS})
        with pytest.raises(type(fault)):
            run(["prepare-slater", "--config", cfg,
                 "--out", str(tmp_path / "out")])


class TestVerifyAndSweep:
    def test_verify_bounds_pass(self, tmp_path):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 6, "basis": [{"family": "box-sine", "n": 1}],
            "integration": {"backend": "analytic-cdf", "epsilon_i": 1e-6}})
        out = tmp_path / "out"
        assert run(["verify-bounds", "--config", cfg,
                    "--out", str(out)]) == 0
        assert "[ok]" in (out / "report.txt").read_text()

    def test_verify_bounds_with_inexact_phase_estimation(self, tmp_path):
        # irrational phases at eps_pe = 0.05: the bound adds the angles of
        # the load term and of 1 - 2 sqrt(1 - d) / (2 - d), d = m eps_pe
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 2, "statistics": "fermionic",
            "basis": [
                {"family": "box-sine", "n": 1, "energy": 0.0},
                {"family": "box-sine", "n": 2, "energy": float(np.sqrt(2))},
                {"family": "box-sine", "n": 3, "energy": float(np.sqrt(5))}],
            "superposition": [{"amplitude": 0.6, "occupation": "110"},
                              {"amplitude": 0.8, "occupation": "101"}],
            "phase_estimation": {"t": float(2 * np.pi * 0.3 / np.sqrt(2)),
                                 "eps_pe": 0.05},
            "integration": {"backend": "analytic-cdf", "epsilon_i": 1e-9}})
        out = tmp_path / "out"
        assert run(["verify-bounds", "--config", cfg, "--seed", "3",
                    "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "error bound: 0.00139008187252" in report
        assert "[ok]" in report

    # the default t gives energies 1, 4 and 9 the phases 0.91, 0.64 and
    # 0.19, which no readout width reads exactly; sweep exited 3 with an
    # infidelity of 0.0311 against a bound of 0.03 that has no term for a
    # misread
    def test_inexact_phases_need_eps_pe(self, tmp_path, capsys):
        cfg = {"l": 2, "basis": BOX_BASIS, "superposition": [
            {"amplitude": 0.6, "occupation": "110"},
            {"amplitude": 0.8, "occupation": "011"}], "sweep": {"l": [2]}}
        path = write_config(tmp_path, "c.yaml", cfg)
        out = str(tmp_path / "out")
        for command in ("validate", "verify-bounds", "sweep",
                        "prepare-superposition"):
            assert run([command, "--config", path, "--seed", "1",
                        "--out", out]) == 2
            assert capsys.readouterr().err.startswith(
                "error: phase_estimation: eps_pe: ")
        # with eps_pe the bound covers the misread
        path = write_config(tmp_path, "d.yaml", {
            **cfg, "phase_estimation": {"eps_pe": 0.05}})
        for command in ("verify-bounds", "sweep"):
            assert run([command, "--config", path, "--seed", "1",
                        "--out", out]) == 0

    @pytest.mark.parametrize("cfg", [
        {"task": "orbital", "orbital": 2, "l": 18, "basis": BOX_BASIS},
        {"l": 5, "basis": BOX_BASIS,
         "mixed": {"thermal": {"beta": 0.7, "components": [
             {"energy": 1.0, "occupation": "110"},
             {"energy": 2.0, "occupation": "101"},
             {"energy": 3.0, "occupation": "011"}]}}},
    ], ids=["orbital-l18", "mixed-l5-m2"])
    def test_verify_bounds_report_does_not_depend_on_blas_threads(
            self, tmp_path, cfg):
        path = write_config(tmp_path, "c.yaml", cfg)
        cwds = [tmp_path / "1", tmp_path / "2"]
        for cwd in cwds:
            cwd.mkdir()
        outputs = outputs_under_blas_threads(["-c", VERIFY_REPORT, path],
                                             cwds)
        assert "[ok]" in outputs[0]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("cfg", [
        {"l": 3, "basis": BOX_BASIS,
         "species_a": {"occupation": "110"},
         "species_b": {"occupation": "2,0,0", "statistics": "bosonic"}},
        {"l": 3,
         "species_a": {"occupation": "110", "basis": BOX_BASIS},
         "species_b": {"occupation": "011", "basis": [
             {"family": "ring-plane-wave", "k": k} for k in (0, 1, -1)]}},
    ], ids=["top-level-basis", "own-bases"])
    def test_two_species_oracle(self, tmp_path, cfg):
        path = write_config(tmp_path, "c.yaml", cfg)
        out = tmp_path / "out"
        assert run(["verify-bounds", "--config", path,
                    "--out", str(out)]) == 0
        rows = dict(csv.reader((out / "report.csv").open()))
        assert float(rows["infidelity"]) <= float(rows["error_bound"])
        assert rows["bound:infidelity"].endswith(":ok")
        # the oracle tells the species apart: read with species a and b
        # swapped, it misses the prepared state by more than the bound
        swapped = {**cfg, "species_a": cfg["species_b"],
                   "species_b": cfg["species_a"]}
        driver, _ = TASKS["two-species"](cfg, tmp_path, None)
        _, oracle = TASKS["two-species"](swapped, tmp_path, None)
        prepared = driver(cfg["l"], IntegrationSpec(epsilon_i=0.01))
        assert pure_infidelity(prepared.vector, oracle(cfg["l"])) > \
            prepared.report.error_bound

    def test_sweep_grid(self, tmp_path):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 4, "statistics": "fermionic", "noise": "adversarial",
            "basis": BOX_BASIS,
            "sweep": {"l": [4, 6], "epsilon_i": [1e-2, 1e-3],
                      "occupations": ["100", "110", "111"]}})
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3 * 2 * 2  # header + one row per cell
        assert all("pass" in r for r in rows[1:])

    def test_sweep_labels_only_the_occupation_it_prepares(self, tmp_path):
        # the orbital task ignores `occupation`: its rows were labelled 110
        cfg = write_config(tmp_path, "c.yaml", {
            "task": "orbital", "l": 3, "occupation": "110",
            "basis": BOX_BASIS, "sweep": {"l": [2, 3]}})
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = list(csv.reader((out / "report.csv").open()))[1:]
        assert [(r[0], r[3]) for r in rows] == [("", "1"), ("", "1")]

    def test_cost_table(self, tmp_path):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "occupation": "10", "basis": BOX_BASIS[:2],
            "sweep": {"l": [3, 4, 5, 6]}})
        out = tmp_path / "out"
        assert run(["cost-table", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "report.csv").read_text()
        assert text.splitlines()[-1].startswith("exponent,")


class TestTabulatedOrbitals:
    def test_round_trip_through_csv(self, tmp_path):
        table = np.array([0.1, 0.5, 0.7, 0.5]) + 0.1j
        path = tmp_path / "orb.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "re", "im"])
            for i, v in enumerate(table):
                w.writerow([i, v.real, v.imag])
        loaded = read_orbital_csv(path)
        np.testing.assert_allclose(loaded, table)

    def test_non_power_of_two_rejected(self, tmp_path):
        path = tmp_path / "orb.csv"
        path.write_text("0,1,0\n1,1,0\n2,1,0\n")
        with pytest.raises(ValidationError):
            read_orbital_csv(path)

    def test_prepare_from_tabulated(self, tmp_path):
        path = tmp_path / "orb.csv"
        path.write_text("index,re,im\n0,0.5,0\n1,0.5,0\n2,0.5,0\n3,0.5,0\n")
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 2, "basis": [{"family": "tabulated", "path": "orb.csv"}]})
        out = tmp_path / "out"
        assert run(["prepare-orbital", "--config", cfg,
                    "--out", str(out)]) == 0
        rows = list(csv.reader((out / "state.csv").open()))
        vals = [float(r[1]) for r in rows[1:]]
        assert vals == pytest.approx([0.5] * 4)

    # a non-integer index past the first row was skipped as a header, so
    # a stray row in a complete table validated
    @pytest.mark.parametrize("text, row", [
        ("index,re,im\n0,0.5,0\n1,0.5,0\nx3,0.9,0\n2,0.5,0\n3,0.5,0\n", 4),
        ("0,0.5,0\n1,0.5,0\nindex,re,im\n2,0.5,0\n3,0.5,0\n", 3),
    ], ids=["stray-row", "late-header"])
    @pytest.mark.parametrize("command", ["validate", "prepare-orbital"])
    def test_only_the_first_row_may_be_a_header(self, tmp_path, capsys,
                                                command, text, row):
        (tmp_path / "orb.csv").write_text(text)
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 2, "basis": [{"family": "tabulated", "path": "orb.csv"}]})
        assert run([command, "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: basis[0]: ")
        assert f"orb.csv: row {row}: " in err

    # the rows were a dict by index, so the last of two rows 1 was loaded
    # and the table of four distinct indices validated
    @pytest.mark.parametrize("command", ["validate", "prepare-orbital"])
    def test_repeated_index_rejected(self, tmp_path, capsys, command):
        (tmp_path / "orb.csv").write_text(
            "index,re,im\n0,0.5,0\n1,0.5,0\n1,0.9,0\n2,0.5,0\n3,0.5,0\n")
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 2, "basis": [{"family": "tabulated", "path": "orb.csv"}]})
        assert run([command, "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: basis[0]: ")
        assert "orb.csv: row 4: index 1 repeats an earlier row" in err


TWO_SPECIES = {"l": 2, "basis": BOX_BASIS[:2],
               "species_a": {"occupation": "11"},
               "species_b": {"occupation": "10"}}


class TestConfigSchema:
    @pytest.mark.parametrize("path, cfg", [
        ("lenght", {"l": 3, "lenght": 2.0, "basis": BOX_BASIS}),
        ("integration.epsilon-i",
         {"l": 3, "basis": BOX_BASIS, "integration": {"epsilon-i": 1e-9}}),
        ("basis[1].site",
         {"l": 3, "basis": [{"family": "box-sine", "n": 1},
                            {"family": "kronecker-delta", "site": 2}]}),
        ("sweep.l[1]",
         {"l": 3, "occupation": "10", "basis": BOX_BASIS[:2],
          "sweep": {"l": [3, "four"]}}),
        ("superposition[0]",
         {"l": 3, "basis": BOX_BASIS, "superposition": [0.6, 0.8]}),
        ("basis[0].family", {"l": 3, "basis": [{"n": 1}]}),
        ("phase_estimation.symmetry.kind",
         {"l": 3, "basis": BOX_BASIS,
          "phase_estimation": {"symmetry": {"step": 1}}}),
        ("integration", {"l": 3, "basis": BOX_BASIS, "integration": 0.01}),
        ("basis", {"l": 3, "basis": {"family": "box-sine"}}),
        ("species_a.length",
         {**TWO_SPECIES, "species_a": {"occupation": "11", "length": 2.0}}),
        ("config", ["l", 3]),
        ("l", {"l": float("inf"), "basis": BOX_BASIS}),
        ("integration",
         {"l": 3, "basis": BOX_BASIS, "integration": {
             "backend": "monte-carlo", "bounds": [0.0, 1.0, 2.0]}}),
        ("basis[1].family",
         {"l": 3, "basis": [BOX_BASIS[0], {"family": "box-cosine"}]}),
    ])
    @pytest.mark.parametrize("command", ["validate", "prepare-orbital"])
    def test_malformed_config_names_its_path(self, tmp_path, capsys, command,
                                             path, cfg):
        out = tmp_path / "out"
        assert run([command, "--config", write_config(tmp_path, "c.yaml", cfg),
                    "--out", str(out)]) == 2
        assert f"error: {path}:" in capsys.readouterr().err
        assert not out.exists()

    # a zero Hermite width made a NaN state that verify-bounds passed, and
    # a zero length divided by zero
    @pytest.mark.parametrize("cfg", [
        {"l": 3, "basis": [{"family": "harmonic-hermite", "width": 0.0}]},
        {"l": 3, "length": 0.0, "basis": [{"family": "box-sine"}]},
    ], ids=["hermite-width", "length"])
    @pytest.mark.parametrize("command", ["validate", "prepare-orbital",
                                         "verify-bounds"])
    def test_orbital_scale_must_be_positive(self, tmp_path, capsys, command,
                                            cfg):
        out = tmp_path / "out"
        assert run([command, "--config", write_config(tmp_path, "c.yaml", cfg),
                    "--out", str(out)]) == 2
        assert "error: basis[0]:" in capsys.readouterr().err
        assert not (out / "state.csv").exists()
        assert not out.exists()

    # a basis entry is its family constructor's keyword arguments; the CLI
    # read only the keys it looked up, so each of these prepared box-sine
    # n = 1 (or ring k = 0) and validated
    @pytest.mark.parametrize("basis, index, key", [
        ([{"family": "box-sine", "k": 3}], 0, "k"),
        ([BOX_BASIS[0], {"family": "ring-plane-wave", "n": 2}], 1, "n"),
        ([BOX_BASIS[0], {"family": "box-sine", "width": 0.1}], 1, "width"),
        ([{"family": "kronecker-delta", "x0": 0.5, "path": "orb.csv"}], 0,
         "path"),
    ], ids=["box-sine-k", "ring-n", "box-sine-width", "delta-path"])
    @pytest.mark.parametrize("command", ["validate", "prepare-orbital"])
    def test_key_its_family_does_not_take(self, tmp_path, capsys, command,
                                          basis, index, key):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "c.yaml", {"l": 3, "basis": basis})
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: basis[{index}]: ")
        assert f"keyword argument '{key}'" in err
        assert not out.exists()

    def test_tabulated_entry_needs_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 2, "basis": [BOX_BASIS[0], {"family": "tabulated"}]})
        assert run(["validate", "--config", cfg]) == 2
        assert capsys.readouterr().err == \
            "error: basis[1]: missing key 'path'\n"

    def test_null_value_counts_as_absent(self, tmp_path):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "occupation": "110", "basis": BOX_BASIS,
            "integration": None, "noise": None, "orbital": None})
        assert run(["validate", "--config", cfg]) == 0

    @pytest.mark.parametrize("command", ["validate", "verify-bounds"])
    def test_noise_has_one_value(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "noise": "adversarail",
            "basis": [{"family": "box-sine", "n": 1}]})
        assert run([command, "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert "error: noise:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-bounds", "sweep",
                                         "cost-table"])
    def test_two_species_config_is_checked_against_its_oracle(
            self, tmp_path, command):
        cfg = write_config(tmp_path, "c.yaml",
                           {**TWO_SPECIES, "sweep": {"l": [2, 3]}})
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", str(out)]) == 0
        if command == "verify-bounds":
            rows = dict(csv.reader((out / "report.csv").open()))
            assert rows["bound:infidelity"].endswith(":ok")

    @pytest.mark.parametrize("task, cfg", [
        ("superposition", {"l": 2, "basis": BOX_BASIS, "superposition": [
            {"amplitude": 0.6, "occupation": "110"},
            {"amplitude": 0.8, "occupation": "011"}],
            "phase_estimation": BOX_EXACT_PE}),
        ("mixed", {"l": 2, "basis": BOX_BASIS[:2], "mixed": {"components": [
            {"probability": 0.5, "occupation": "10"},
            {"probability": 0.5, "occupation": "01"}]}}),
        ("two-species", TWO_SPECIES),
    ], ids=["superposition", "mixed", "two-species"])
    def test_noise_on_a_task_that_takes_none(self, tmp_path, capsys, task,
                                             cfg):
        # these drivers take no ratio perturbation: the oracle commands ran
        # noise-free and printed the bound as held
        path = write_config(tmp_path, "c.yaml", {
            **cfg, "noise": "adversarial", "sweep": {"l": [2, 3]}})
        out = str(tmp_path / "out")
        for command in ("validate", "verify-bounds", "sweep", "cost-table"):
            assert run([command, "--config", path, "--out", out]) == 2
            assert "error: noise:" in capsys.readouterr().err
        # preparing without the oracle ignores noise, as before
        assert run([f"prepare-{task}", "--config", path, "--out", out]) == 0

    def test_species_takes_what_it_lacks_from_the_top_level(self, tmp_path):
        # species_b's delta at x0 = 1.5 lies on the top-level length-2 grid;
        # species_a's doubly occupied orbital needs top-level bosonic
        # statistics
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 2, "length": 2.0, "statistics": "bosonic",
            "basis": BOX_BASIS[:2],
            "species_a": {"occupation": "2,0"},
            "species_b": {
                "occupation": "1", "statistics": "fermionic",
                "basis": [{"family": "kronecker-delta", "x0": 1.5}]}})
        out = tmp_path / "out"
        assert run(["prepare-two-species", "--config", cfg,
                    "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "particles: 3 (bosonic+fermionic)" in report

    def test_builds_take_exactly_their_fields(self):
        for build, (_, fields) in [
                (IntegrationSpec, SCHEMA["integration"]),
                (SymmetryOperator, SCHEMA["phase_estimation"]["symmetry"])]:
            assert set(fields) == {f.name for f in dataclasses.fields(build)}

    def test_readme_key_reference_matches_schema(self):
        def paths(node, path, seen):
            # a node met before (species_b is species_a's schema) is listed
            # under its own key but not expanded again
            node = node.schema if isinstance(node, _Required) else node
            node = node[1] if isinstance(node, tuple) else node
            if isinstance(node, list):
                yield from paths(node[0], f"{path}[i]", seen)
            elif isinstance(node, dict) and id(node) not in seen:
                seen.add(id(node))
                for key, sub in node.items():
                    at = f"{path}.{key}" if path else key
                    yield at
                    yield from paths(sub, at, seen)

        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        section = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
        listed = re.findall(r"^\| `([^`]+)` \|", section, re.M)
        assert sorted(listed) == sorted(paths(SCHEMA, "", set()))
        assert len(listed) == len(set(listed))


def test_write_table_prints_negative_zero_as_zero(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["index", "re", "im"],
                [np.arange(2), np.array([-0.0, 1.5]), np.array([0.0, -0.0])])
    rows = list(csv.reader(path.open()))
    assert rows == [["index", "re", "im"], ["0", "0", "0"], ["1", "1.5", "0"]]
