"""Golden CLI artifacts: the SHA-256 of every file a command writes, for
the README configs at fixed seeds.

The hashes pin "same config and seed give byte-identical artifacts", so a
refactor that changes any digit of a report or a state shows up here.  The
README sweep is shrunk from l = 4, 6 to l = 3, 4 so its l = 6, "111" cell
(24 qubits) does not dominate the suite.
"""
import hashlib

import pytest
import yaml

from gridprep.cli import main

BOX3 = [
    {"family": "box-sine", "n": 1, "energy": 0.0},
    {"family": "box-sine", "n": 2, "energy": 1.0},
    {"family": "box-sine", "n": 3, "energy": 2.0},
]
RING = [
    {"family": "ring-plane-wave", "k": 0, "energy": 0.0},
    {"family": "ring-plane-wave", "k": 1, "energy": 1.0},
    {"family": "ring-plane-wave", "k": -1, "energy": 1.0},
]
SLATER = {
    "l": 6, "statistics": "fermionic", "occupation": "110", "basis": BOX3,
    "integration": {"backend": "analytic-cdf", "epsilon_i": 1e-9},
}
RING_SUPERPOSITION = {
    "l": 3, "statistics": "fermionic", "basis": RING,
    "superposition": [{"amplitude": 0.6, "occupation": "110"},
                      {"amplitude": 0.8, "occupation": "101"}],
    "phase_estimation": {"t": 1.5707963267948966,
                         "symmetry": {"kind": "cyclic-shift", "step": 1}},
}
THERMAL = {
    "l": 3, "basis": BOX3[:2],
    "mixed": {"thermal": {"beta": 1.0, "components": [
        {"energy": 0.0, "occupation": "10"},
        {"energy": 1.0, "occupation": "01"},
    ]}},
}
ORBITAL_CSV = "index,re,im\n0,0.1,0.2\n1,0.5,0\n2,0.7,-0.1\n3,0.5,0.3\n"

#: name -> (command, config, seed)
CASES = {
    "orbital-tabulated": ("prepare-orbital", {
        "l": 2, "basis": [{"family": "tabulated", "path": "orb.csv"}]}, 3),
    "slater": ("prepare-slater", SLATER, 7),
    "superposition-ring": ("prepare-superposition", RING_SUPERPOSITION, 1),
    "superposition-bosonic": ("prepare-superposition", {
        "l": 3, "statistics": "bosonic", "basis": BOX3,
        "superposition": [{"amplitude": [0.6, 0.0], "occupation": "2,0,0"},
                          {"amplitude": [0.0, 0.8], "occupation": "0,2,0"}],
        "phase_estimation": {"t": 1.5707963267948966}}, 2),
    "two-species": ("prepare-two-species", {
        "l": 3, "basis": BOX3,
        "species_a": {"occupation": "110"},
        "species_b": {"occupation": "2,0,0", "statistics": "bosonic"}}, 4),
    "mixed-thermal": ("prepare-mixed", THERMAL, 5),
    "mixed-l4-m2": ("prepare-mixed", {
        "l": 4, "basis": BOX3,
        "mixed": {"thermal": {"beta": 0.7, "components": [
            {"energy": 1.0, "occupation": "110"},
            {"energy": 2.0, "occupation": "101"},
            {"energy": 3.0, "occupation": "011"},
        ]}}}, 6),
    "verify-bounds-adversarial": ("verify-bounds", {
        **SLATER, "l": 4, "noise": "adversarial",
        "integration": {"backend": "analytic-cdf", "epsilon_i": 1e-3}}, 8),
    "verify-bounds-orbital": ("verify-bounds", {
        "task": "orbital", "orbital": 1, "l": 5, "basis": BOX3,
        "integration": {"backend": "monte-carlo", "epsilon_i": 0.05,
                        "delta": 0.1, "bounds": [0.0, 1.0]}}, 9),
    "verify-bounds-superposition": ("verify-bounds", RING_SUPERPOSITION, 1),
    "verify-bounds-mixed": ("verify-bounds", THERMAL, 5),
    "sweep": ("sweep", {
        "l": 4, "statistics": "fermionic", "noise": "adversarial",
        "basis": [{"family": "box-sine", "n": n} for n in (1, 2, 3)],
        "sweep": {"l": [3, 4], "epsilon_i": [1.0e-2, 1.0e-3],
                  "occupations": ["100", "110", "111"]}}, 10),
    "cost-table": ("cost-table", {
        "l": 3, "occupation": "10", "basis": BOX3[:2],
        "sweep": {"l": [3, 4, 5, 6]}}, 11),
}

ARTIFACTS = ("report.txt", "report.csv", "state.csv", "rho.csv")

GOLDEN = {
    "cost-table": {
        "report.csv":
            "2bc2da2caa4c13811998b42be1a77bdcf3e069380aa617cb1a333d47e738d56c",
        "report.txt":
            "2bc2da2caa4c13811998b42be1a77bdcf3e069380aa617cb1a333d47e738d56c",
    },
    "mixed-l4-m2": {
        "report.csv":
            "54ebd709a8d57a5b60c263bf37b418cbf3b3b861df7c2b1f4c71cc18c3d24149",
        "report.txt":
            "6ae700f6f1aae9f8773c2f63e5a0fa311dc5e82aa1b94285f758826a30876ca3",
        "rho.csv":
            "ef0e3e71b91849e18a597e5ef09aa35e708f7a2f2c1b43a501211a0dbaa353fb",
    },
    "mixed-thermal": {
        "report.csv":
            "d99ae0ad8dafcf443d3deae9b6f7bfe47f08cd87c0ed92b5ce7b930f1d049daa",
        "report.txt":
            "cf2c689a5a7d8cbd997aef1d192e6e2915cf6b34efc169ab02453dc00958301f",
        "rho.csv":
            "6eb21529a791dfded9bcc13f5c1fe50be75f33315365c96054ce5abbf45fbf79",
    },
    "orbital-tabulated": {
        "report.csv":
            "b0775ff2ce80313c2b509df9e5588f3f65fdce24a88168f51b651c979e2f679c",
        "report.txt":
            "7270f32a12f41bc42767f47e46550015fc66267b7de8f279d4841d044c476b72",
        "state.csv":
            "bd9f78093488e8ca8ad94ec7896f40dfe8b02e6d6748bd393f945d3942d1b315",
    },
    "slater": {
        "report.csv":
            "b5da83bfe87cb62cd874fd48c12936cd001ec62b0e8375d8603ed4ff0ee0aa6f",
        "report.txt":
            "e1f5570986be84bad5dbb1d7c121d36ff70aa4d1fcae73143b1b1ebd7572b5af",
        "state.csv":
            "b8214afe986ec641637816ea7b219b13ea776eb9c44f856a9a0f5d8a1f3395c7",
    },
    "superposition-bosonic": {
        "report.csv":
            "4b82e45709867edc1ca456026f99561d959da5a02b6296d8e871727300b860dc",
        "report.txt":
            "89032a87d84236075212bca2946d01f591885221a005b79a2ee3b27b31af3cae",
        "state.csv":
            "2a895781118b2d0aa6e61ddef348ee150eee81d60a6e5303aeece0232dd0c09c",
    },
    "superposition-ring": {
        "report.csv":
            "bad63c379044c9902df9e1c4790577df987474c7270b01fe9873789f33d0f73a",
        "report.txt":
            "ca797d71aa8a183ee8552adfde242d46bdce5317c105ef361a5fe1f90aaf84ba",
        "state.csv":
            "8c9adc649d6e3ad7e9c9f38a5b1a9ab4b954cba321595d0669211d019fc0fcd9",
    },
    "sweep": {
        "report.csv":
            "1e0b532156f1610b3b95a7ed954086afe536e8758aa3a7e106036b80b4a165b3",
        "report.txt":
            "1e0b532156f1610b3b95a7ed954086afe536e8758aa3a7e106036b80b4a165b3",
    },
    "two-species": {
        "report.csv":
            "92eaa57c7f0f420059b08cec31ef070040c901b0027fa2fd09f7502e305919a2",
        "report.txt":
            "6c1ffaa280dde083dde308ccf176778ab947d1ca01f73d261af6bde728d732d1",
        "state.csv":
            "c626e58632d4582474fef92b83808fede410f6ea1479a885c79e6931dc8df924",
    },
    "verify-bounds-adversarial": {
        "report.csv":
            "80d0bf5202a5c346de61c1c406c3add3ef30ca711aacf16cd27ffa7ce1bcdbdd",
        "report.txt":
            "0f66d75fda8617cd6c6009f7ae200e782f9de0a4ada785c221cc75367ce93169",
        "state.csv":
            "7854d94e83d3b10cf70958ee2f045e3aeb06e36a30980d21ab56287ca90f52e2",
    },
    "verify-bounds-mixed": {
        "report.csv":
            "62a5a64cf43a494eb01ca22f99d34e9c274985920ac49798d3432865b4c62568",
        "report.txt":
            "fdc6b56fe94173bf46f86e24baa734b4cccd8d1bb0cb4e6d7072d2fc01360e64",
        "rho.csv":
            "6eb21529a791dfded9bcc13f5c1fe50be75f33315365c96054ce5abbf45fbf79",
    },
    "verify-bounds-orbital": {
        "report.csv":
            "a105f38c5b506858a8a17577740498d04062568a6a88308d0f020fb25404313f",
        "report.txt":
            "62f70d099871086b2ce4fbcafa1879e89d59ee028aec50af058a6857c7bbbcbb",
        "state.csv":
            "a6e5c6542a859c4be79a1c3453265400c1c6d29a83e13c4b37e5de691b1ba140",
    },
    "verify-bounds-superposition": {
        "report.csv":
            "2a51a610472ae1174b1d1f74856688c725e28185799647bc529a9b7f13af0dbd",
        "report.txt":
            "62f7b0bbd4760a840eea945c3cb146ffa5789ec58ec886473e7efec56dc37bb2",
        "state.csv":
            "8c9adc649d6e3ad7e9c9f38a5b1a9ab4b954cba321595d0669211d019fc0fcd9",
    },
}


def run_case(tmp_path, name):
    command, cfg, seed = CASES[name]
    (tmp_path / "orb.csv").write_text(ORBITAL_CSV)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--seed", str(seed),
                 "--out", str(out)])
    hashes = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
              for f in ARTIFACTS if (out / f).exists()}
    return code, hashes


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden(tmp_path, name):
    code, hashes = run_case(tmp_path, name)
    assert code == 0
    assert hashes == GOLDEN[name]
