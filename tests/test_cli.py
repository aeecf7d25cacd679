"""CLI commands, config handling, artifacts, exit codes, determinism."""
import csv

import numpy as np
import pytest
import yaml

from gridprep.cli import main, read_orbital_csv
from gridprep.errors import ValidationError

BOX_BASIS = [
    {"family": "box-sine", "n": 1},
    {"family": "box-sine", "n": 2},
    {"family": "box-sine", "n": 3},
]


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
        assert run(["prepare-superposition", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 3
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

    def test_bad_qubit_cap_is_config_error(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setenv("GRIDPREP_QUBIT_CAP", "lots")
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 3, "occupation": "110", "basis": BOX_BASIS})
        assert run(["prepare-slater", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2
        assert "GRIDPREP_QUBIT_CAP" in capsys.readouterr().err


class TestVerifyAndSweep:
    def test_verify_bounds_pass(self, tmp_path):
        cfg = write_config(tmp_path, "c.yaml", {
            "l": 6, "basis": [{"family": "box-sine", "n": 1}],
            "integration": {"backend": "analytic-cdf", "epsilon_i": 1e-6}})
        out = tmp_path / "out"
        assert run(["verify-bounds", "--config", cfg,
                    "--out", str(out)]) == 0
        assert "[ok]" in (out / "report.txt").read_text()

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
