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
            "eaa24f7fd4b1191e21845be44a5cabdbc29f76f0271da8acba812a9ec7d5dcb6",
    },
    "mixed-thermal": {
        "report.csv":
            "d99ae0ad8dafcf443d3deae9b6f7bfe47f08cd87c0ed92b5ce7b930f1d049daa",
        "report.txt":
            "cf2c689a5a7d8cbd997aef1d192e6e2915cf6b34efc169ab02453dc00958301f",
        "rho.csv":
            "5435b60489ae844300e8cc988abf50edff3325f33fa9e0d743cd81c4ec4e0fc9",
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
            "0af20d319b6645cfc3b225b560b26f20651b1f175194457f4acf40cdce119794",
        "report.txt":
            "e23d175b776dc37fee8378a5ec0752596e08c8e407a03d7dc72c19351a6b4f89",
        "state.csv":
            "7ec0b70a598a0c243cbf678f531e9e6fe42649e696ba9caa4943d66f32668855",
    },
    "superposition-bosonic": {
        "report.csv":
            "5586afe1f136ff7ea6b99cce1e16a5c78dcc2d137e96c288044a0f373b04a9e1",
        "report.txt":
            "01d13e532cabf4eecc37988f6e3534da4dbfbc52bc354ff5acebc60276b4350d",
        "state.csv":
            "c3986fa2e2643f7bcac1d45da80619d728957ae599a0938f8d2f0222328e28b0",
    },
    "superposition-ring": {
        "report.csv":
            "0ddc51a110a93bab69f71f852b99dbf358d66c304420e7a3add6c3a394c7a69e",
        "report.txt":
            "402d861e50c7394aaae117fd6abdf1610c25cb05d116d5084970c4572c63f6a6",
        "state.csv":
            "7779f276f9b2c46038d1f906b5ed84730a319b144237583b9e69d00525d77a27",
    },
    "sweep": {
        "report.csv":
            "0dcc51617e5a7f654cac256637413ffe72cb29e6a93d2d5c811f5a8fce4cc1b4",
        "report.txt":
            "0dcc51617e5a7f654cac256637413ffe72cb29e6a93d2d5c811f5a8fce4cc1b4",
    },
    "two-species": {
        "report.csv":
            "92eaa57c7f0f420059b08cec31ef070040c901b0027fa2fd09f7502e305919a2",
        "report.txt":
            "6c1ffaa280dde083dde308ccf176778ab947d1ca01f73d261af6bde728d732d1",
        "state.csv":
            "87ae624040099110e21a7391de87c2db15a566dd39931bea2afb1b405d296490",
    },
    "verify-bounds-adversarial": {
        "report.csv":
            "41f48b3e4567f464b7f37473a97c38b3fd243758ffd39479e0b3cbc8e3b8613f",
        "report.txt":
            "618bce63983961590826d0128a9cdf1f87527613c5adf90b5b84b629c8b47ed9",
        "state.csv":
            "aa5d4e5300f7d4ad6711e0c0e99f963d4cea3a49600399587c98bac3b3d89019",
    },
    "verify-bounds-mixed": {
        "report.csv":
            "f29b609bb54c3859ef1ce01e00c0c60dffc14a24f8b1213ecf0ff8ae927fab6d",
        "report.txt":
            "8f4039d297d8cc43039f67c3a114ff1ea440f67a8a22178f29175a8378182d98",
        "rho.csv":
            "5435b60489ae844300e8cc988abf50edff3325f33fa9e0d743cd81c4ec4e0fc9",
    },
    "verify-bounds-orbital": {
        "report.csv":
            "a105f38c5b506858a8a17577740498d04062568a6a88308d0f020fb25404313f",
        "report.txt":
            "62f70d099871086b2ce4fbcafa1879e89d59ee028aec50af058a6857c7bbbcbb",
        "state.csv":
            "169e24c47902eaa598b39c6598deee8f062a444de712db725e8dbeffe5e37e45",
    },
    "verify-bounds-superposition": {
        "report.csv":
            "e7ff82122ac70f623eed7f4de269f01ee991b869f3456fb8a3c2ffd2b6218621",
        "report.txt":
            "6815724d0c2b851dc83c256fb5c6210b15df13087ef811020cc65d21ecd148de",
        "state.csv":
            "7779f276f9b2c46038d1f906b5ed84730a319b144237583b9e69d00525d77a27",
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
