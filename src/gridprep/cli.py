"""Command-line driver.

Usage: gridprep <command> --config <path> [--seed N] [--out DIR]

Commands: validate, prepare-orbital, prepare-slater, prepare-superposition,
prepare-two-species, prepare-mixed, verify-bounds, sweep, cost-table.

Artifacts land in the output directory: report.txt and report.csv always;
state.csv (index, re, im) for pure-state preparations; rho.csv
(row, col, re, im) for mixed-state preparations.  State and rho entries,
infidelities, bounds and fitted exponents have 12 significant digits;
report counters print at full precision.  Identical runs produce
bit-identical files.

Exit codes: 0 success, 2 configuration/validation error (the message
names the path of the offending config key, such as
superposition[1].amplitude, or --out when it cannot be a directory),
3 pipeline error (degeneracy, retry budget, bound violation), 4 resource
limit.  An internal fault is not mapped: it propagates with its
traceback, exit code 1.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import operator
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from . import basis as basis_mod
from .analysis import (
    BoundCheck,
    CostRow,
    cost_table,
    cost_table_text,
    format_float,
    mixed_infidelity,
    pure_infidelity,
)
from .assemble import OccupationVector, slater_oracle
from .basis import BasisSet, IntegrationSpec, Orbital
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
from .discriminate import SymmetryOperator
from .errors import PipelineError, ResourceError, ValidationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3
EXIT_RESOURCE = 4

#: Rows rendered per format operation when writing state.csv and rho.csv.
CSV_BLOCK_ROWS = 1 << 16


class _Required(NamedTuple):  # see SCHEMA
    schema: object


def _read(value, schema, path: str):
    """`value` read by `schema` (see SCHEMA); a null value counts as
    absent, and a list reads as a tuple.  An unknown or missing key, a
    value its cast or build rejects, or a misshapen section raises a
    ValidationError that names its path, such as superposition[1].amplitude.
    """
    if isinstance(schema, _Required):
        schema = schema.schema
    kind = {dict: "mapping", list: "list"}.get(type(schema))
    if kind and not isinstance(value, type(schema)):
        raise ValidationError(
            f"{path or 'config'}: must be a {kind}, not {value!r}")
    if isinstance(schema, dict):
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in schema:
                raise ValidationError(f"{prefix}{key}: unknown key")
        for key, item in schema.items():
            if isinstance(item, _Required) and value.get(key) is None:
                raise ValidationError(f"{prefix}{key}: missing required key")
        return {key: _read(item, schema[key], f"{prefix}{key}")
                for key, item in value.items() if item is not None}
    if isinstance(schema, list):
        return tuple(_read(item, schema[0], f"{path}[{i}]")
                     for i, item in enumerate(value))
    if isinstance(schema, tuple):
        build, fields = schema
        value, schema = _read(value, fields, path), lambda kw: build(**kw)
    with _reading(path):
        if isinstance(value, bool):  # YAML's true: no key is a flag
            raise TypeError(f"{value!r} is a boolean; no key takes one")
        if not isinstance(schema, set):
            return schema(value)
        if value not in schema:
            raise ValueError(f"{value!r} is not one of {sorted(schema)}")
        return value


@contextmanager
def _reading(key: str):
    """Re-raise what a malformed value raises while config section `key`
    is read as a ValidationError that names the key.
    """
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{key}: missing key {exc}") from exc
    except (AttributeError, IndexError, OverflowError, TypeError,
            ValueError, ValidationError) as exc:
        raise ValidationError(f"{key}: {exc}") from exc


def _amplitude(value) -> complex:
    """Cast of a number, or of [re, im] with neither part a boolean."""
    if isinstance(value, list):
        if len(value) != 2 or any(isinstance(v, bool) for v in value):
            raise ValueError(f"{value!r} must be a number or [re, im]")
        return complex(float(value[0]), float(value[1]))
    return complex(float(value), 0.0)


#: The CLI's integration spec: IntegrationSpec with epsilon_i = 0.01.
_integration = partial(IntegrationSpec, epsilon_i=0.01)


def read_orbital_csv(path: Path) -> np.ndarray:
    """Tabulated orbital: rows of (index, re, im); a header row is allowed.
    Indices must form 0..2^l-1 for some l.  An unreadable file or a
    malformed value raises ValidationError.
    """
    rows = {}
    try:
        with open(path, newline="") as fh:
            for rec in csv.reader(fh):
                if not rec:
                    continue
                try:
                    i = int(rec[0])
                except ValueError:
                    continue  # header
                if len(rec) < 3:
                    raise ValidationError(
                        f"{path}: rows need (index, re, im), got {rec}"
                    )
                rows[i] = float(rec[1]) + 1j * float(rec[2])
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    n = len(rows)
    if n == 0 or n & (n - 1):
        raise ValidationError(
            f"{path}: table length {n} is not a power of two"
        )
    if sorted(rows) != list(range(n)):
        raise ValidationError(f"{path}: indices must cover 0..{n - 1}")
    return np.array([rows[i] for i in range(n)])


def _build_orbital(entry: dict, length: float, config_dir: Path) -> Orbital:
    family = entry["family"]
    kw = {"energy": entry["energy"]} if "energy" in entry else {}
    if family == "uniform":
        return basis_mod.uniform(length, **kw)
    if family == "box-sine":
        return basis_mod.box_sine(entry.get("n", 1), length, **kw)
    if family == "ring-plane-wave":
        return basis_mod.ring_plane_wave(entry.get("k", 0), length, **kw)
    if family == "harmonic-hermite":
        return basis_mod.harmonic_hermite(
            entry.get("n", 0), length, width=entry.get("width"), **kw)
    if family == "kronecker-delta":
        return basis_mod.kronecker_delta(entry["x0"], length, **kw)
    if family == "tabulated":
        table = read_orbital_csv(config_dir / entry["path"])
        return basis_mod.tabulated(table, length, **kw)
    raise ValidationError(f"unknown orbital family {family!r}")


def _build_basis(cfg: dict, config_dir: Path) -> BasisSet:
    if not cfg.get("basis"):
        raise ValidationError("config needs a 'basis' orbital list")
    length = cfg.get("length", 1.0)
    with _reading("basis"):
        return BasisSet([_build_orbital(e, length, config_dir)
                         for e in cfg["basis"]])


def _build_superposition(cfg: dict, bas: BasisSet | None) -> FockSuperposition:
    raw = cfg.get("superposition")
    if not raw:
        raise ValidationError("config needs a 'superposition' term list")
    with _reading("superposition"):
        sup = FockSuperposition.from_strings(
            [(t["amplitude"], t["occupation"]) for t in raw],
            cfg.get("statistics", "fermionic"))
        return sup if bas is None else sup.check_basis(bas)


def _build_mixed(cfg: dict, bas: BasisSet | None) -> MixedSpec:
    raw = cfg.get("mixed")
    if not raw:
        raise ValidationError("config needs a 'mixed' section")
    statistics = cfg.get("statistics", "fermionic")
    key = "thermal.components" if "thermal" in raw else "components"
    with _reading("mixed"):
        if "thermal" in raw:
            th = raw["thermal"]
            pairs = [(c["energy"], c["occupation"]) for c in th["components"]]
            mix = MixedSpec.thermal(th["beta"], pairs, statistics)
        elif raw.get("components"):
            mix = MixedSpec.from_probabilities([(c["probability"], c[
                "occupation"]) for c in raw["components"]], statistics)
        else:
            raise ValidationError("needs 'components' or 'thermal'")
    for i, (_, occ) in enumerate(mix.components if bas else ()):
        with _reading(f"mixed.{key}[{i}].occupation"):
            occ.check_basis(bas)
    return mix


def _build_species(cfg: dict, config_dir: Path):
    """(occupation, basis) of `species_a` and of `species_b`.  A section
    takes the top-level length, and the top-level statistics and basis
    when it has none of its own.
    """
    if "species_a" not in cfg or "species_b" not in cfg:
        raise ValidationError(
            "config needs 'species_a' and 'species_b' sections"
        )
    sections = []
    for key in ("species_a", "species_b"):
        with _reading(key):
            sec = {**cfg, **cfg[key]}
            bas = _build_basis(sec, config_dir)
            sections.append((_occupation(sec, bas), bas))
    return sections


def _require_l(cfg: dict) -> int:
    if "l" not in cfg:
        raise ValidationError("config needs grid width 'l'")
    if cfg["l"] < 1:
        raise ValidationError("l: grid width must be >= 1")
    return cfg["l"]


def write_table(path: Path, header: list[str], columns) -> None:
    """CSV of integer and float columns, byte-identical to csv.writer rows
    with every float rendered by format_float ("%.12g", CRLF line ends)
    and -0.0 as 0.  Each block of rows is rendered by one format operation.
    """
    fmt = ",".join("%d" if c.dtype.kind in "iu" else "%.12g"
                   for c in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, columns[0].size, CSV_BLOCK_ROWS):
            # + 0 turns -0.0 into 0.0 and leaves integers integers
            block = [(c[start:start + CSV_BLOCK_ROWS] + 0).tolist()
                     for c in columns]
            fh.write(fmt * len(block[0])
                     % tuple(itertools.chain.from_iterable(zip(*block))))


def _make_out(out_dir: Path) -> None:
    """Create `--out` when there is something to write, so a config error
    found before then leaves no directory behind.
    """
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path through one
        raise ValidationError(f"--out {out_dir}: {exc.strerror}") from exc


def _emit(out_dir: Path, prepared: PreparedState) -> int:
    """Write the artifacts, print the report, and return the exit code."""
    _make_out(out_dir)
    report, vector, rho = prepared.report, prepared.vector, prepared.rho
    (out_dir / "report.txt").write_text(report.to_text())
    with open(out_dir / "report.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([("key", "value"), *report.to_rows()])
    if vector is not None:
        write_table(out_dir / "state.csv", ["index", "re", "im"],
                    [np.arange(vector.size), vector.real, vector.imag])
    if rho is not None:
        d, values = rho.dim, rho.matrix.ravel()
        write_table(out_dir / "rho.csv", ["row", "col", "re", "im"],
                    [np.repeat(np.arange(d), d), np.tile(np.arange(d), d),
                     values.real, values.imag])
    print(report.to_text(), end="")
    return EXIT_OK if report.all_bounds_hold() else EXIT_PIPELINE


def _emit_text(out_dir: Path, text: str, ok: bool = True) -> int:
    """Write `text` as both reports, print it, and return the exit code."""
    _make_out(out_dir)
    for name in ("report.csv", "report.txt"):
        (out_dir / name).write_text(text)
    print(text, end="")
    return EXIT_OK if ok else EXIT_PIPELINE


def _occupation(cfg: dict, bas: BasisSet | None) -> OccupationVector:
    if "occupation" not in cfg:
        raise ValidationError("config needs an 'occupation' string")
    with _reading("occupation"):
        occ = OccupationVector.parse(cfg["occupation"],
                                     cfg.get("statistics", "fermionic"))
        return occ if bas is None else occ.check_basis(bas)


def _noise_perturb(cfg: dict, spec: IntegrationSpec):
    """Worst-sign constant ratio perturbation of magnitude epsilon_i,
    enabled by `noise: adversarial`.
    """
    eps = spec.epsilon_i
    return (lambda i, k, ratio: ratio - eps) if "noise" in cfg else None


def _orbital(cfg: dict, bas: BasisSet) -> Orbital:
    index = cfg.get("orbital", 0)
    if not 0 <= index < bas.size:
        raise ValidationError(
            f"orbital: index {index} is outside the {bas.size}-orbital basis")
    return bas.orbitals[index]


def _max_attempts(cfg: dict) -> int:
    n = cfg.get("max_attempts", 20)
    if n < 1:
        raise ValidationError(f"max_attempts: {n} is not at least 1")
    return n


def _task_orbital(cfg, bas, l, spec, seed, perturb):
    orbital = _orbital(cfg, bas)
    prepared = prepare_orbital(orbital, l, spec, ratio_perturb=perturb)
    return prepared, lambda: pure_infidelity(prepared.vector,
                                             orbital.grid_values(l))


def _task_slater(cfg, bas, l, spec, seed, perturb):
    occ = _occupation(cfg, bas)
    prepared = prepare_slater(occ, bas, l, spec, ratio_perturb=perturb)
    return prepared, lambda: pure_infidelity(prepared.vector,
                                             slater_oracle(occ, bas, l))


def _task_superposition(cfg, bas, l, spec, seed, perturb):
    sup = _build_superposition(cfg, bas)
    prepared = prepare_superposition(
        sup, bas, l, spec, **cfg.get("phase_estimation", {}), seed=seed,
        max_attempts=_max_attempts(cfg),
    )
    return prepared, lambda: pure_infidelity(
        prepared.vector, superposition_oracle(sup, bas, l))


def _task_mixed(cfg, bas, l, spec, seed, perturb):
    mix = _build_mixed(cfg, bas)
    prepared = prepare_mixed(mix, bas, l, spec)
    return prepared, lambda: mixed_infidelity(prepared.rho,
                                              mixed_oracle(mix, bas, l))


#: task -> builder that reads the rest of its inputs from the config and
#: runs one preparation; it returns the prepared state and a function
#: computing the infidelity against the task's brute-force oracle.
TASKS = {
    "orbital": _task_orbital,
    "slater": _task_slater,
    "superposition": _task_superposition,
    "mixed": _task_mixed,
}

#: Cast of an integer key: 3.7 raises instead of truncating to 3.
_integer = operator.index
#: One basis orbital; which keys apply depends on its family.
_ORBITAL = {"family": _Required(str), "energy": float, "n": _integer,
            "k": _integer, "width": float, "x0": float, "path": str}
#: A species section; what it lacks comes from the top level.
_SPECIES = {"occupation": _Required(str), "statistics": str,
            "basis": [_ORBITAL]}

#: Every key a config may hold, read by `_read`.  A dict is a mapping of
#: keys, a one-item list a list of that item, a (build, dict) pair the
#: object build(**mapping) makes, and anything else a cast applied to the
#: value.  `_Required` marks a key its mapping must hold.  README's
#: config-key reference lists the same paths with types and defaults.
SCHEMA = {
    "task": set(TASKS), "l": _integer, "length": float, "statistics": str,
    "occupation": str, "orbital": _integer, "max_attempts": _integer,
    "noise": {"adversarial"}, "basis": [_ORBITAL],
    "integration": (_integration, {
        "backend": str, "epsilon_i": float, "delta": float, "sigma2": float,
        "bounds": [float], "seed": _integer}),
    "phase_estimation": {"t": float, "eps_pe": float, "symmetry": (
        SymmetryOperator, {"kind": _Required(str), "step": _integer})},
    "superposition": [{"amplitude": _Required(_amplitude),
                       "occupation": _Required(str)}],
    "mixed": {
        "thermal": {"beta": _Required(float), "components": _Required(
            [{"energy": _Required(float), "occupation": _Required(str)}])},
        "components": [{"probability": _Required(float),
                        "occupation": _Required(str)}]},
    "species_a": _SPECIES, "species_b": _SPECIES,
    "sweep": {"l": [_integer], "epsilon_i": [float], "occupations": [str]},
}


def _prepare(task: str, cfg: dict, config_dir: Path, seed: int | None,
             noisy: bool = False):
    """Run TASKS[task]; `noisy` applies the config's noise model."""
    l = _require_l(cfg)
    spec = cfg["integration"]
    return TASKS[task](cfg, _build_basis(cfg, config_dir), l, spec, seed,
                       _noise_perturb(cfg, spec) if noisy else None)


def _task_name(cfg: dict) -> str:
    """The config's 'task', inferred from its sections when absent; no
    task's oracle checks a two-species config.
    """
    if "task" in cfg:
        return cfg["task"]
    if "species_a" in cfg or "species_b" in cfg:
        raise ValidationError("species_a: no oracle checks two species; "
                              "name the 'task' to verify instead")
    for key, task in (("superposition", "superposition"), ("mixed", "mixed"),
                      ("occupation", "slater")):
        if key in cfg:
            return task
    return "orbital"


def _run_preparation(cfg: dict, config_dir: Path, seed: int | None):
    """Run the config's task with its noise model and record the
    infidelity against the oracle; used by verify-bounds, sweep, and
    cost-table.
    """
    prepared, infidelity = _prepare(_task_name(cfg), cfg, config_dir, seed,
                                    noisy=True)
    prepared.report.infidelity = infidelity()
    return prepared


def cmd_validate(cfg, config_dir, seed, out_dir):
    # SCHEMA read every key; build each section present, as commands do,
    # occupations checked against the basis when there is one
    bas = _build_basis(cfg, config_dir) if "basis" in cfg else None
    if bas:
        _orbital(cfg, bas)
    if "l" in cfg:
        _require_l(cfg)
    _max_attempts(cfg)
    for key, build in (("superposition", _build_superposition),
                       ("mixed", _build_mixed), ("occupation", _occupation)):
        if key in cfg:
            build(cfg, bas)
    if "species_a" in cfg or "species_b" in cfg:
        _build_species(cfg, config_dir)
    if "sweep" in cfg:
        _sweep_axes(cfg)
    print("config ok")
    return EXIT_OK


def _prepare_command(task: str):
    """prepare-<task>: run one preparation, without noise or oracle."""
    def command(cfg, config_dir, seed, out_dir):
        prepared, _ = _prepare(task, cfg, config_dir, seed)
        return _emit(out_dir, prepared)
    return command


def cmd_prepare_two_species(cfg, config_dir, seed, out_dir):
    l = _require_l(cfg)
    spec = cfg["integration"]
    (occ_a, bas_a), (occ_b, bas_b) = _build_species(cfg, config_dir)
    prepared = prepare_two_species(occ_a, occ_b, bas_a, bas_b, l, spec)
    return _emit(out_dir, prepared)


def cmd_verify_bounds(cfg, config_dir, seed, out_dir):
    prepared = _run_preparation(cfg, config_dir, seed)
    report = prepared.report
    report.bound_checks.append(BoundCheck(
        name="infidelity",
        measured=report.infidelity,
        bound=report.error_bound,
    ))
    return _emit(out_dir, prepared)


def _sweep_axes(cfg):
    """The sweep's l values, integration specs (None: the config's own)
    and occupations (None: the config's own).
    """
    sweep = cfg.get("sweep")
    if not sweep:
        raise ValidationError("config needs a 'sweep' section")
    ls = sweep.get("l") or (cfg.get("l"),)
    if None in ls:
        raise ValidationError("sweep: needs 'l' values (or a top-level l)")
    with _reading("sweep.epsilon_i"):
        specs = [replace(cfg["integration"], epsilon_i=eps)
                 for eps in sweep.get("epsilon_i", ())]
    for i, l in enumerate(sweep.get("l", ())):
        if l < 1:
            raise ValidationError(f"sweep.l[{i}]: grid width must be >= 1")
    for i, occ in enumerate(sweep.get("occupations", ())):
        with _reading(f"sweep.occupations[{i}]"):
            OccupationVector.parse(occ, cfg.get("statistics", "fermionic"))
    return ls, specs or [None], (sweep.get("occupations")
                                 or (cfg.get("occupation"),))


def _sweep_cells(cfg, config_dir, seed):
    """Cartesian product of sweep axes (l, epsilon_i, occupations); every
    cell runs one preparation with its own sub-config.
    """
    ls, specs, occs = _sweep_axes(cfg)
    cells = []
    for occ, l, spec in itertools.product(occs, ls, specs):
        cell = {"l": l, "occupation": occ, "integration": spec}
        sub = {**cfg, **{k: v for k, v in cell.items() if v is not None}}
        prepared = _run_preparation(sub, config_dir, seed)
        cells.append((occ, l, spec and spec.epsilon_i, prepared))
    return cells


def cmd_sweep(cfg, config_dir, seed, out_dir):
    cells = _sweep_cells(cfg, config_dir, seed)
    lines = ["occupation,l,epsilon_i,m,qubits,infidelity,error_bound,"
             "bound_ok,integral_requests,rotation_applications"]
    all_ok = True
    for occ, l, eps, prepared in cells:
        r = prepared.report
        ok = BoundCheck("infidelity", r.infidelity, r.error_bound).satisfied
        all_ok &= ok
        lines.append(",".join([
            str(occ if occ is not None else ""),
            str(l),
            format_float(eps) if eps is not None else "",
            str(r.m), str(r.qubits),
            format_float(r.infidelity), format_float(r.error_bound),
            "pass" if ok else "FAIL",
            str(r.counters.get("integral_requests", 0)),
            str(r.counters.get("rotation_applications", 0)),
        ]))
    return _emit_text(out_dir, "\n".join(lines) + "\n", all_ok)


def cmd_cost_table(cfg, config_dir, seed, out_dir):
    cells = _sweep_cells(cfg, config_dir, seed)
    if len(cells) < 2:
        raise ValidationError("cost table needs at least two sweep cells")
    cost_rows = []
    for _, l, _, prepared in cells:
        costs = {
            k: prepared.report.counters[k]
            for k in ("integral_requests", "rotation_applications")
            if k in prepared.report.counters
        }
        cost_rows.append(CostRow(parameter=1 << l, costs=costs))
    exponents = cost_table(cost_rows)
    return _emit_text(out_dir, cost_table_text(cost_rows, exponents))


COMMANDS = {
    "validate": cmd_validate,
    "prepare-orbital": _prepare_command("orbital"),
    "prepare-slater": _prepare_command("slater"),
    "prepare-superposition": _prepare_command("superposition"),
    "prepare-two-species": cmd_prepare_two_species,
    "prepare-mixed": _prepare_command("mixed"),
    "verify-bounds": cmd_verify_bounds,
    "sweep": cmd_sweep,
    "cost-table": cmd_cost_table,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridprep",
        description="grid-based many-particle state preparation emulator",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True,
                        help="YAML configuration file")
    parser.add_argument("--seed", type=int, default=None,
                        help="measurement / sampling seed")
    parser.add_argument("--out", default=".",
                        help="output directory (created if missing)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config_path = Path(args.config)
    try:
        if not config_path.is_file():
            raise ValidationError(f"config file not found: {config_path}")
        try:
            cfg = _read(yaml.safe_load(config_path.read_text()), SCHEMA, "")
        except yaml.YAMLError as exc:
            raise ValidationError(f"malformed YAML: {exc}") from exc
        spec = cfg.get("integration", _integration())
        cfg["integration"] = (spec if args.seed is None
                              else replace(spec, seed=args.seed))
        return COMMANDS[args.command](cfg, config_path.parent, args.seed,
                                      Path(args.out))
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
