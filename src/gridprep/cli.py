"""Command-line driver.

Usage: gridprep <command> --config <path> [--seed N] [--out DIR]

Commands: validate, prepare-orbital, prepare-slater, prepare-superposition,
prepare-two-species, prepare-mixed, verify-bounds, sweep, cost-table.

Every command goes through one task table, TASKS: orbital, slater,
superposition, mixed and two-species.  A task reads its inputs from the
config and returns its driver and its brute-force oracle.  prepare-<task>
runs the driver; verify-bounds, sweep and cost-table run the config's task
(named by 'task', else inferred from its sections) and check it against
the oracle; validate reads every task whose section is present.

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
from .basis import FAMILIES, BasisSet, IntegrationSpec
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
from .discriminate import PhaseEstimationConfig, SymmetryOperator, \
    energy_phases
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
    """Tabulated orbital: rows of (index, re, im), of which only the first
    may be a header.  Indices must form 0..2^l-1 for some l, each once.  An
    unreadable file, or a malformed or repeated row (named by its number),
    raises ValidationError.
    """
    try:
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    rows = {}
    for row, rec in enumerate(records, 1):
        if not rec:
            continue
        with _reading(f"{path}: row {row}"):
            try:
                index = int(rec[0])
            except ValueError:
                if row == 1:
                    continue  # header
                raise
            if len(rec) < 3:
                raise ValueError(f"rows need (index, re, im), got {rec}")
            if index in rows:
                raise ValueError(f"index {index} repeats an earlier row")
            rows[index] = float(rec[1]) + 1j * float(rec[2])
    n = len(rows)
    if n == 0 or n & (n - 1):
        raise ValidationError(
            f"{path}: table length {n} is not a power of two")
    if sorted(rows) != list(range(n)):
        raise ValidationError(f"{path}: indices must cover 0..{n - 1}")
    return np.array([rows[i] for i in range(n)])


def _build_basis(cfg: dict, config_dir: Path) -> BasisSet:
    """Entry i, read under basis[i], is `family` and its constructor's
    keywords, but a tabulated entry's `path` names the CSV file of `values`.
    """
    if not cfg.get("basis"):
        raise ValidationError("config needs a 'basis' orbital list")
    orbitals = []
    for i, entry in enumerate(cfg["basis"]):
        kw = dict(entry, length=cfg.get("length", 1.0))
        family = kw.pop("family")
        with _reading(f"basis[{i}]"):
            if family == "tabulated":
                kw["values"] = read_orbital_csv(config_dir / kw.pop("path"))
            orbitals.append(FAMILIES[family](**kw))
    return BasisSet(orbitals)


def _require_l(cfg: dict) -> int:
    if "l" not in cfg:
        raise ValidationError("config needs grid width 'l'")
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


def _occupation(cfg: dict, bas: BasisSet) -> OccupationVector:
    if "occupation" not in cfg:
        raise ValidationError("config needs an 'occupation' string")
    with _reading("occupation"):
        return OccupationVector.parse(
            cfg["occupation"], cfg.get("statistics", "fermionic"),
        ).check_basis(bas)


# A task reads its inputs from the config, building its own basis or
# bases, and returns (driver, oracle): driver(l, spec) runs one preparation
# (orbital and slater also take ratio_perturb=), and oracle(l) is the
# brute-force reference it is checked against.

def _task_orbital(cfg, config_dir, seed):
    bas, index = _build_basis(cfg, config_dir), cfg.get("orbital", 0)
    if not 0 <= index < bas.size:
        raise ValidationError(
            f"orbital: index {index} is outside the {bas.size}-orbital basis")
    orbital = bas.orbitals[index]
    return partial(prepare_orbital, orbital), orbital.grid_values


def _task_slater(cfg, config_dir, seed):
    bas = _build_basis(cfg, config_dir)
    occ = _occupation(cfg, bas)
    return partial(prepare_slater, occ, bas), partial(slater_oracle, occ, bas)


def _task_superposition(cfg, config_dir, seed):
    bas = _build_basis(cfg, config_dir)
    if not cfg.get("superposition"):
        raise ValidationError("config needs a 'superposition' term list")
    with _reading("superposition"):
        sup = FockSuperposition.from_strings(
            [(t["amplitude"], t["occupation"]) for t in cfg["superposition"]],
            cfg.get("statistics", "fermionic")).check_basis(bas)
    pe = cfg.get("phase_estimation", {})
    with _reading("phase_estimation"):
        energy_phases(bas.energies, pe.get("t"), pe.get("eps_pe"))
    if "l" in cfg:  # the readouts the driver builds, as it builds them
        sup.check_cap(cfg["l"])
        with _reading("basis"):
            bas.grid_matrix(cfg["l"])
        with _reading("phase_estimation.symmetry" if "symmetry" in pe
                      else "phase_estimation"):
            PhaseEstimationConfig.build(bas, cfg["l"], **pe)
    driver = partial(prepare_superposition, sup, bas, **pe, seed=seed,
                     max_attempts=cfg.get("max_attempts", 20))
    return driver, partial(superposition_oracle, sup, bas)


def _task_mixed(cfg, config_dir, seed):
    bas = _build_basis(cfg, config_dir)
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
    for i, (_, occ) in enumerate(mix.components):
        with _reading(f"mixed.{key}[{i}].occupation"):
            occ.check_basis(bas)
    return partial(prepare_mixed, mix, bas), partial(mixed_oracle, mix, bas)


def _task_two_species(cfg, config_dir, seed):
    """A species section takes the top-level length, and the top-level
    statistics and basis when it has none of its own.  Species a is least
    significant in the prepared vector, so the oracle is the Kronecker
    product of species b's Slater oracle with species a's.
    """
    if "species_a" not in cfg or "species_b" not in cfg:
        raise ValidationError(
            "config needs 'species_a' and 'species_b' sections")
    species = []
    for key in ("species_a", "species_b"):
        with _reading(key):
            sec = {**cfg, **cfg[key]}
            bas = _build_basis(sec, config_dir)
            species.append((_occupation(sec, bas), bas))
    (occ_a, bas_a), (occ_b, bas_b) = species
    return (partial(prepare_two_species, occ_a, occ_b, bas_a, bas_b),
            lambda l: np.kron(slater_oracle(occ_b, bas_b, l),
                              slater_oracle(occ_a, bas_a, l)))


#: task -> reader of its inputs (see above); every command runs through it.
TASKS = {
    "orbital": _task_orbital,
    "slater": _task_slater,
    "superposition": _task_superposition,
    "mixed": _task_mixed,
    "two-species": _task_two_species,
}

#: The tasks whose drivers take the `noise` model.
_NOISY_TASKS = ("orbital", "slater")

#: (config section, the task that reads it), in the order that picks the
#: task of a config without a 'task' key.
_SECTIONS = (("species_a", "two-species"), ("species_b", "two-species"),
             ("superposition", "superposition"), ("mixed", "mixed"),
             ("occupation", "slater"), ("basis", "orbital"))

#: Cast of an integer key: 3.7 raises instead of truncating to 3.
_integer = operator.index


def _count(value) -> int:
    """Cast of an integer key that must be at least 1."""
    if _integer(value) < 1:
        raise ValueError(f"{value} is not at least 1")
    return value


#: One basis orbital; its family's constructor takes the other keys.
_ORBITAL = {"family": _Required(set(FAMILIES)), "energy": float,
            "n": _integer, "k": _integer, "width": float, "x0": float,
            "path": str}
#: A species section; what it lacks comes from the top level.
_SPECIES = {"occupation": _Required(str), "statistics": str,
            "basis": [_ORBITAL]}

#: Every key a config may hold, read by `_read`.  A dict is a mapping of
#: keys, a one-item list a list of that item, a (build, dict) pair the
#: object build(**mapping) makes, and anything else a cast applied to the
#: value.  `_Required` marks a key its mapping must hold.  README's
#: config-key reference lists the same paths with types and defaults.
SCHEMA = {
    "task": set(TASKS), "l": _count, "length": float, "statistics": str,
    "occupation": str, "orbital": _integer, "max_attempts": _count,
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
    "sweep": {"l": [_count], "epsilon_i": [float], "occupations": [str]},
}


def _task_name(cfg: dict) -> str:
    """The config's 'task', else that of its first section in _SECTIONS."""
    return cfg.get("task") or next(
        (task for key, task in _SECTIONS if key in cfg), "orbital")


def _oracle_task(cfg: dict) -> str:
    """The task verify-bounds, sweep and cost-table check.  `noise` on a
    task whose driver takes none is a config error, not a noise-free run.
    """
    task = _task_name(cfg)
    if "noise" in cfg and task not in _NOISY_TASKS:
        raise ValidationError(f"noise: the {task} task takes no noise model")
    return task


def _verified(cfg: dict, read, l: int, spec: IntegrationSpec):
    """Run the (driver, oracle) pair a task read at (l, spec) with the
    config's noise model, and record the infidelity against the oracle.
    """
    driver, oracle = read
    # noise: adversarial shifts every split ratio by -epsilon_i
    noise = ({"ratio_perturb": lambda i, k, ratio: ratio - spec.epsilon_i}
             if "noise" in cfg else {})
    prepared = driver(l, spec, **noise)
    reference = oracle(l)
    prepared.report.infidelity = (
        pure_infidelity(prepared.vector, reference) if prepared.rho is None
        else mixed_infidelity(prepared.rho, reference))
    return prepared


def cmd_validate(cfg, config_dir, seed, out_dir):
    # SCHEMA read every key; reading a task's inputs, as its commands do,
    # checks them: every task whose section is present, and the orbital on
    # a basis
    for task in dict.fromkeys(task for key, task in _SECTIONS if key in cfg):
        TASKS[task](cfg, config_dir, seed)
    _oracle_task(cfg)
    if "sweep" in cfg:
        _sweep_axes(cfg, config_dir, seed)
    print("config ok")
    return EXIT_OK


def _prepare_command(task: str):
    """prepare-<task>: run one preparation, without noise or oracle."""
    def command(cfg, config_dir, seed, out_dir):
        l = _require_l(cfg)
        driver, _ = TASKS[task](cfg, config_dir, seed)
        return _emit(out_dir, driver(l, cfg["integration"]))
    return command


def cmd_verify_bounds(cfg, config_dir, seed, out_dir):
    task = _oracle_task(cfg)
    l = _require_l(cfg)
    prepared = _verified(cfg, TASKS[task](cfg, config_dir, seed), l,
                         cfg["integration"])
    report = prepared.report
    report.bound_checks.append(
        BoundCheck("infidelity", report.infidelity, report.error_bound))
    return _emit(out_dir, prepared)


def _sweep_axes(cfg, config_dir, seed):
    """The sweep's l values, its integration specs (None: the config's
    own), and (occupation label, what the task read with it) pairs: one
    per sweep occupation, else one for the config as it is.
    """
    sweep = cfg.get("sweep")
    if not sweep:
        raise ValidationError("config needs a 'sweep' section")
    ls = sweep.get("l") or (cfg.get("l"),)
    if None in ls:
        raise ValidationError("sweep: needs 'l' values (or a top-level l)")
    with _reading("sweep.epsilon_i"):
        specs = [replace(cfg["integration"], epsilon_i=eps)
                 for eps in sweep.get("epsilon_i", ())] or [None]
    occs = sweep.get("occupations")
    # a cell's task is inferred with the cell's occupation in the config
    task = _oracle_task({**cfg, "occupation": occs[0]} if occs else cfg)
    if not occs:  # slater is the one task that reads `occupation`
        label = cfg.get("occupation") if task == "slater" else None
        return ls, specs, [(label, TASKS[task](cfg, config_dir, seed))]
    if task != "slater":
        raise ValidationError(
            f"sweep.occupations: the {task} task reads no occupation")
    _build_basis(cfg, config_dir)  # a basis error is not the occupations'
    reads = []
    for i, occ in enumerate(occs):
        with _reading(f"sweep.occupations[{i}]"):
            reads.append((occ, TASKS[task]({**cfg, "occupation": occ},
                                           config_dir, seed)))
    return ls, specs, reads


def _sweep_cells(cfg, config_dir, seed):
    """Cartesian product of sweep axes (occupations, l, epsilon_i); every
    cell runs one verified preparation.
    """
    ls, specs, reads = _sweep_axes(cfg, config_dir, seed)
    cells = []
    for (occ, read), l, spec in itertools.product(reads, ls, specs):
        prepared = _verified(cfg, read, l, spec or cfg["integration"])
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
    cost_rows = [CostRow(parameter=1 << l, costs={
        k: v for k, v in prepared.report.counters.items()
        if k in ("integral_requests", "rotation_applications")})
        for _, l, _, prepared in cells]
    return _emit_text(out_dir,
                      cost_table_text(cost_rows, cost_table(cost_rows)))


COMMANDS = {
    "validate": cmd_validate,
    "prepare-orbital": _prepare_command("orbital"),
    "prepare-slater": _prepare_command("slater"),
    "prepare-superposition": _prepare_command("superposition"),
    "prepare-two-species": _prepare_command("two-species"),
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
