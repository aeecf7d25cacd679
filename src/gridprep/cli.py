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
names the offending config key, or --out when it cannot be a directory), 3 pipeline error (degeneracy, retry
budget, bound violation), 4 resource limit.  An internal fault is not
mapped: it propagates with its traceback, exit code 1.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import operator
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import yaml

from . import basis as basis_mod
from .analysis import (
    BoundCheck,
    CostRow,
    PreparationReport,
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


@contextmanager
def _reading(key: str):
    """Re-raise what a malformed value raises while config section `key`
    is read as a ValidationError that names the key.
    """
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{key}: missing key {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError,
            ValidationError) as exc:
        raise ValidationError(f"{key}: {exc}") from exc


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
    family = entry.get("family")
    if family is None:
        raise ValidationError("orbital entry needs a 'family'")
    energy = entry.get("energy")
    if energy is not None:
        energy = float(energy)
    if family == "uniform":
        return basis_mod.uniform(length, energy=energy or 0.0)
    if family == "box-sine":
        return basis_mod.box_sine(int(entry.get("n", 1)), length,
                                  energy=energy)
    if family == "ring-plane-wave":
        return basis_mod.ring_plane_wave(int(entry.get("k", 0)), length,
                                         energy=energy)
    if family == "harmonic-hermite":
        return basis_mod.harmonic_hermite(
            int(entry.get("n", 0)), length,
            width=entry.get("width"), energy=energy)
    if family == "kronecker-delta":
        if "site" in entry:
            raise ValidationError(
                "kronecker-delta takes 'x0', not a raw site; use x0 = "
                "site * length / 2^l"
            )
        return basis_mod.kronecker_delta(float(entry["x0"]), length,
                                         energy=energy or 0.0)
    if family == "tabulated":
        table = read_orbital_csv(config_dir / entry["path"])
        return basis_mod.tabulated(table, length, energy=energy or 0.0)
    raise ValidationError(f"unknown orbital family {family!r}")


def _build_basis(cfg: dict, config_dir: Path) -> BasisSet:
    entries = cfg.get("basis")
    if not entries:
        raise ValidationError("config needs a 'basis' orbital list")
    with _reading("length"):
        length = float(cfg.get("length", 1.0))
    with _reading("basis"):
        return BasisSet([_build_orbital(e, length, config_dir)
                         for e in entries])


def _optional(raw: dict, key: str, cast):
    return None if raw.get(key) is None else cast(raw[key])


def _build_integration(cfg: dict, seed: int | None) -> IntegrationSpec:
    with _reading("integration"):
        raw = cfg.get("integration", {}) or {}
        bounds = raw.get("bounds")
        return IntegrationSpec(
            backend=raw.get("backend", "analytic-cdf"),
            epsilon_i=float(raw.get("epsilon_i", 0.01)),
            delta=float(raw.get("delta", 0.05)),
            sigma2=_optional(raw, "sigma2", float),
            bounds=(tuple(float(b) for b in bounds)
                    if bounds is not None else None),
            seed=(seed if seed is not None
                  else _optional(raw, "seed", operator.index)),
        )


def _build_phase_estimation(cfg: dict) -> dict:
    """`prepare_superposition`'s t, eps_pe and symmetry arguments."""
    with _reading("phase_estimation"):
        raw = cfg.get("phase_estimation", {}) or {}
        sym = raw.get("symmetry")
        return {
            "t": _optional(raw, "t", float),
            "eps_pe": _optional(raw, "eps_pe", float),
            "symmetry": None if sym is None else SymmetryOperator(
                kind=sym["kind"], step=int(sym.get("step", 1))),
        }


def _amplitude(value) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValidationError(
                f"amplitude {value!r} must be a number or [re, im]")
        return complex(float(value[0]), float(value[1]))
    return complex(float(value), 0.0)


def _build_superposition(cfg: dict) -> FockSuperposition:
    raw = cfg.get("superposition")
    if not raw:
        raise ValidationError("config needs a 'superposition' term list")
    with _reading("superposition"):
        return FockSuperposition.from_strings(
            [(_amplitude(t["amplitude"]), str(t["occupation"])) for t in raw],
            cfg.get("statistics", "fermionic"),
        )


def _build_mixed(cfg: dict) -> MixedSpec:
    raw = cfg.get("mixed")
    if not raw:
        raise ValidationError("config needs a 'mixed' section")
    statistics = cfg.get("statistics", "fermionic")
    with _reading("mixed"):
        if "thermal" in raw:
            th = raw["thermal"]
            pairs = [(float(c["energy"]), str(c["occupation"]))
                     for c in th["components"]]
            return MixedSpec.thermal(float(th["beta"]), pairs, statistics)
        comps = raw.get("components")
        if not comps:
            raise ValidationError("needs 'components' or 'thermal'")
        return MixedSpec.from_probabilities(
            [(float(c["probability"]), str(c["occupation"])) for c in comps],
            statistics,
        )


def _build_species(cfg: dict, config_dir: Path):
    """(occupation, basis) of `species_a` and of `species_b`; a section
    without its own basis uses the top-level one.
    """
    if "species_a" not in cfg or "species_b" not in cfg:
        raise ValidationError(
            "config needs 'species_a' and 'species_b' sections"
        )
    sections = []
    for key in ("species_a", "species_b"):
        with _reading(key):
            sec = cfg[key]
            bas = _build_basis(sec if "basis" in sec else cfg, config_dir)
            sections.append((_occupation(sec), bas))
    return sections


def _require_l(cfg: dict) -> int:
    if "l" not in cfg:
        raise ValidationError("config needs grid width 'l'")
    with _reading("l"):
        l = int(cfg["l"])
    if l < 1:
        raise ValidationError("grid width l must be >= 1")
    return l


def write_report(out_dir: Path, report: PreparationReport) -> None:
    (out_dir / "report.txt").write_text(report.to_text())
    with open(out_dir / "report.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["key", "value"])
        w.writerows(report.to_rows())


def write_table(path: Path, header: list[str], columns) -> None:
    """CSV of integer and float columns, byte-identical to csv.writer rows
    with every float rendered by format_float ("%.12g", CRLF line ends).
    Each block of rows is rendered by one format operation.
    """
    fmt = ",".join("%d" if c.dtype.kind in "iu" else "%.12g"
                   for c in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, columns[0].size, CSV_BLOCK_ROWS):
            block = [c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns]
            fh.write(fmt * len(block[0])
                     % tuple(itertools.chain.from_iterable(zip(*block))))


def write_state(out_dir: Path, vector: np.ndarray) -> None:
    write_table(out_dir / "state.csv", ["index", "re", "im"],
                [np.arange(vector.size), vector.real, vector.imag])


def write_rho(out_dir: Path, rho) -> None:
    d = rho.dim
    values = rho.matrix.ravel()
    write_table(out_dir / "rho.csv", ["row", "col", "re", "im"],
                [np.repeat(np.arange(d), d), np.tile(np.arange(d), d),
                 values.real, values.imag])


def _emit(out_dir: Path, prepared: PreparedState) -> int:
    """Write the artifacts, print the report, and return the exit code."""
    report = prepared.report
    write_report(out_dir, report)
    if prepared.vector is not None:
        write_state(out_dir, prepared.vector)
    if prepared.rho is not None:
        write_rho(out_dir, prepared.rho)
    print(report.to_text(), end="")
    return EXIT_OK if report.all_bounds_hold() else EXIT_PIPELINE


def _occupation(cfg: dict) -> OccupationVector:
    if "occupation" not in cfg:
        raise ValidationError("config needs an 'occupation' string")
    with _reading("occupation"):
        return OccupationVector.parse(str(cfg["occupation"]),
                                      cfg.get("statistics", "fermionic"))


def _noise_perturb(cfg: dict, spec: IntegrationSpec):
    """Worst-sign constant ratio perturbation of magnitude epsilon_i,
    enabled by `noise: adversarial`.
    """
    if cfg.get("noise") != "adversarial":
        return None
    eps = spec.epsilon_i
    return lambda i, k, ratio: ratio - eps


def _orbital(cfg: dict, bas: BasisSet) -> Orbital:
    with _reading("orbital"):
        index = int(cfg.get("orbital", 0))
        if not 0 <= index < bas.size:
            raise ValidationError(
                f"index {index} is outside the {bas.size}-orbital basis")
    return bas.orbitals[index]


def _max_attempts(cfg: dict) -> int:
    with _reading("max_attempts"):
        max_attempts = int(cfg.get("max_attempts", 20))
        if max_attempts < 1:
            raise ValidationError(f"{max_attempts} is not at least 1")
    return max_attempts


def _task_orbital(cfg, bas, l, spec, seed, perturb):
    orbital = _orbital(cfg, bas)
    prepared = prepare_orbital(orbital, l, spec, ratio_perturb=perturb)
    return prepared, lambda: pure_infidelity(prepared.vector,
                                             orbital.grid_values(l))


def _task_slater(cfg, bas, l, spec, seed, perturb):
    occ = _occupation(cfg)
    prepared = prepare_slater(occ, bas, l, spec, ratio_perturb=perturb)
    return prepared, lambda: pure_infidelity(prepared.vector,
                                             slater_oracle(occ, bas, l))


def _task_superposition(cfg, bas, l, spec, seed, perturb):
    sup = _build_superposition(cfg)
    prepared = prepare_superposition(
        sup, bas, l, spec, **_build_phase_estimation(cfg), seed=seed,
        max_attempts=_max_attempts(cfg),
    )
    return prepared, lambda: pure_infidelity(
        prepared.vector, superposition_oracle(sup, bas, l))


def _task_mixed(cfg, bas, l, spec, seed, perturb):
    mix = _build_mixed(cfg)
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


def _prepare(task: str, cfg: dict, config_dir: Path, seed: int | None,
             noisy: bool = False):
    """Run TASKS[task]; `noisy` applies the config's noise model."""
    l = _require_l(cfg)
    spec = _build_integration(cfg, seed)
    return TASKS[task](cfg, _build_basis(cfg, config_dir), l, spec, seed,
                       _noise_perturb(cfg, spec) if noisy else None)


def _task_name(cfg: dict) -> str:
    """The config's 'task', inferred from its sections when absent."""
    task = cfg.get("task")
    if task is None:
        if "superposition" in cfg:
            task = "superposition"
        elif "mixed" in cfg:
            task = "mixed"
        elif "occupation" in cfg:
            task = "slater"
        else:
            task = "orbital"
    if not isinstance(task, str) or task not in TASKS:
        raise ValidationError(f"task: unknown task {task!r}")
    return task


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
    # read every section that is present, through the readers the commands
    # use, so malformed ones are rejected
    if "basis" in cfg:
        _orbital(cfg, _build_basis(cfg, config_dir))
    if "l" in cfg:
        _require_l(cfg)
    _task_name(cfg)
    _max_attempts(cfg)
    _build_integration(cfg, seed)
    if "superposition" in cfg:
        _build_superposition(cfg)
    if "mixed" in cfg:
        _build_mixed(cfg)
    if "occupation" in cfg:
        _occupation(cfg)
    if "species_a" in cfg or "species_b" in cfg:
        _build_species(cfg, config_dir)
    if "sweep" in cfg:
        _sweep_axes(cfg)
    _build_phase_estimation(cfg)
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
    spec = _build_integration(cfg, seed)
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
    """The sweep's l values, epsilon_i values (None: the config's own) and
    occupations (None: the config's own).
    """
    sweep = cfg.get("sweep")
    if not sweep:
        raise ValidationError("config needs a 'sweep' section")
    with _reading("sweep"):
        ls = sweep.get("l") or [cfg.get("l")]
        if any(v is None for v in ls):
            raise ValidationError("sweep needs 'l' values (or a top-level l)")
        epss = [None if v is None else float(v)
                for v in sweep.get("epsilon_i") or [None]]
        return ([int(v) for v in ls], epss,
                sweep.get("occupations") or [cfg.get("occupation")])


def _sweep_cells(cfg, config_dir, seed):
    """Cartesian product of sweep axes (l, epsilon_i, occupations); every
    cell runs one preparation with its own sub-config.
    """
    ls, epss, occs = _sweep_axes(cfg)
    cells = []
    for occ in occs:
        for l in ls:
            for eps in epss:
                sub = dict(cfg)
                sub["l"] = l
                if occ is not None:
                    sub["occupation"] = occ
                if eps is not None:
                    integ = dict(sub.get("integration", {}) or {})
                    integ["epsilon_i"] = eps
                    sub["integration"] = integ
                prepared = _run_preparation(sub, config_dir, seed)
                cells.append((occ, l, eps, prepared))
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
    text = "\n".join(lines) + "\n"
    (out_dir / "report.csv").write_text(text)
    (out_dir / "report.txt").write_text(text)
    print(text, end="")
    return EXIT_OK if all_ok else EXIT_PIPELINE


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
    text = cost_table_text(cost_rows, exponents)
    (out_dir / "report.csv").write_text(text)
    (out_dir / "report.txt").write_text(text)
    print(text, end="")
    return EXIT_OK


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
            cfg = yaml.safe_load(config_path.read_text())
        except yaml.YAMLError as exc:
            raise ValidationError(f"malformed YAML: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ValidationError("config must be a YAML mapping")
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # an existing file, or a path through one
            raise ValidationError(f"--out {out_dir}: {exc.strerror}") from exc
        return COMMANDS[args.command](cfg, config_path.parent, args.seed,
                                      out_dir)
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
