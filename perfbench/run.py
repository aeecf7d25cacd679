"""gridprep benchmark: four closed-loop workloads through the public
`gridprep.prepare_*` functions, every output checked against references
computed without gridprep.

    python3 perfbench/run.py --workload orbital --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports gridprep from ./src.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones from spans around
gridprep's public functions.  Each run also writes its result, failures and
(when traced) spans to perfbench/out/.  See perfbench/README.md.
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the figures then do not depend on what else the machine
# runs, and every workload sees the same setting.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIB = float(1 << 20)
#: Set-up is measured this many times per run (this process plus fresh
#: processes that stop after set-up), and the median reported.
SETUP_SAMPLES = 3
MODULES = ("analysis", "assemble", "basis", "cli", "compose", "discriminate",
           "errors", "loader", "statevec")

END_TO_END = {
    "setup_s": "s",
    "preps_per_s": "1/s",
    "prep_s_p50": "s",
    "peak_rss_mib": "MiB",
    "state_mib": "MiB",
}

#: Span totals divided by the number of preparations in the traced run.
SPAN_METRICS = [
    ("loader.load_orbital", "self_s"), ("loader.load_orbital", "calls"),
    ("basis.Orbital.grid_values", "s"), ("loader.load_orbital", "amp_mib"),
    ("loader.apply_phases", "s"), ("statevec.QuantumState.segment_is_blank", "s"),
    ("statevec.extract_segment_vector", "s"),
    ("assemble.generate_permutation_superposition", "s"),
    ("assemble.apply_rank_to_permutation", "s"),
    ("assemble.sort_and_entangle", "s"), ("assemble.antisymmetrize", "amp_mib"),
    ("discriminate.phase_estimate", "self_s"),
    ("discriminate.phase_estimate", "calls"),
    ("statevec.apply_unitary_on_segment", "self_s"),
    ("statevec.apply_unitary_on_segment", "calls"),
    ("statevec.apply_unitary_on_segment", "amp_mib"),
    ("statevec.check_unitary", "s"), ("statevec.qft", "self_s"),
    ("basis.BasisSet.fock_unitary", "s"),
    ("discriminate.identify_and_decrement", "self_s"),
    ("discriminate.verify_uncomputation", "s"),
    ("statevec.measure_segment", "s"),
    ("discriminate.PhaseEstimationConfig.build", "s"),
    ("basis.BasisSet.grid_matrix", "s"),
    ("statevec.partial_trace", "self_s"), ("statevec.DensityMatrix", "s"),
    ("compose.prepare_orbital", "self_s"), ("compose.prepare_slater", "self_s"),
    ("compose.prepare_superposition", "self_s"),
    ("compose.prepare_mixed", "self_s"),
]
SPAN_UNITS = {"s": "s/prep", "self_s": "s/prep", "calls": "calls/prep",
              "amp_mib": "MiB/prep"}
#: Per-layer metrics that are not span totals, with their units.
COUNT_METRICS = {
    "loader.integral_evaluations": "count/prep",
    "loader.rotation_applications": "count/prep",
    "assemble.comparators": "count/prep",
    "discriminate.attempts": "count/prep",
    "discriminate.retries": "count/prep",
    "discriminate.attempt_yield": "ratio",
    "statevec.max_state_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{base}.{field}": SPAN_UNITS[field]
             for base, field in SPAN_METRICS}
    units.update(COUNT_METRICS)
    units.update({f"{m}.lines": "lines" for m in MODULES})
    units["src.lines"] = "lines"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["orbital", "slater", "superposition", "mixed"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and print its duration")
    return p.parse_args(argv)


def import_gridprep():
    """gridprep from this checkout's src/, never an installed copy."""
    package = SRC / "gridprep"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a gridprep checkout")
    sys.path.insert(0, str(SRC))
    import gridprep

    if Path(gridprep.__file__).resolve().parent != package:
        sys.exit(f"error: imported gridprep from {gridprep.__file__}")
    return gridprep


def set_up(workload: str, seed: int):
    """Imports, input and reference generation, basis construction, and one
    untimed warm-up preparation per configuration.
    """
    gp = import_gridprep()
    import workloads

    ops = workloads.WORKLOADS[workload](gp, seed)
    warmed = set()
    for op in ops:
        if op.warmup_group in warmed:
            continue
        warmed.add(op.warmup_group)
        try:
            op.call(gp)
        except Exception:  # the timed rounds count and report it
            pass
    return gp, ops, time.perf_counter() - T0


class Tally:
    """What the timed rounds produced."""

    def __init__(self):
        self.attempted = 0
        self.prep_s: list[float] = []
        #: preparations per second of preparation time, one per round
        self.round_rates: list[float] = []
        self.state_mib = 0.0
        self.counters: dict[str, float] = {}
        self.failures: dict[tuple, dict] = {}

    def fail(self, op, check, value, limit):
        key = (op.config, op.seed, check)
        row = self.failures.setdefault(key, {
            "config": op.config, "seed": op.seed, "check": check,
            "value": value, "limit": limit, "known_fault": op.known_fault,
            "count": 0})
        row["count"] += 1

    @property
    def failed(self) -> int:
        return sum(row["count"] for row in self.failures.values())

    @property
    def correct(self) -> bool:
        """False when anything failed other than the known fault: an
        irrational-phase output outside its tolerance.
        """
        return all(row["known_fault"] and row["check"] == "infidelity"
                   for row in self.failures.values())

    def count(self, report):
        c = self.counters
        for key in ("integral_evaluations", "rotation_applications",
                    "comparators"):
            c[key] = c.get(key, 0) + report.counters.get(key, 0)
        if report.kind == "superposition":
            c["returned"] = c.get("returned", 0) + 1
            c["attempts"] = c.get("attempts", 0) + report.attempts
            c["retries"] = c.get("retries", 0) + report.retries


def run_rounds(gp, ops, seconds: float, tracer=None) -> Tally:
    """Repeat whole rounds of `ops` until `seconds` have passed."""
    import checks

    tally = Tally()
    start = time.perf_counter()
    while True:
        first = len(tally.prep_s)
        for op in ops:
            tally.attempted += 1
            if tracer is not None:
                tracer.op = tally.attempted
            t = time.perf_counter()
            try:
                prep = op.call(gp)
            except Exception as exc:
                tally.fail(op, f"raised {type(exc).__name__}: {exc}", None,
                           None)
                continue
            tally.prep_s.append(time.perf_counter() - t)
            tally.count(prep.report)
            for array in (getattr(prep.state, "amplitudes", None),
                          getattr(prep.rho, "matrix", None)):
                if array is not None:
                    tally.state_mib = max(tally.state_mib, array.nbytes / MIB)
            try:
                bad = checks.failing(op.check(prep))
            except Exception as exc:
                bad = [(f"check raised {type(exc).__name__}: {exc}", None,
                        None)]
            for name, value, limit in bad:
                tally.fail(op, name, value, limit)
            del prep
        done = tally.prep_s[first:]
        if done:
            tally.round_rates.append(len(done) / sum(done))
        if time.perf_counter() - start >= seconds:
            return tally


def setup_samples(args, own: float) -> list[float]:
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=150, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def end_to_end(args, tally: Tally, own_setup: float) -> dict:
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setup_samples(args, own_setup)),
        "preps_per_s": statistics.median(tally.round_rates),
        "prep_s_p50": statistics.median(tally.prep_s),
        "peak_rss_mib": peak_rss,
        "state_mib": tally.state_mib,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def line_count(path: Path) -> int:
    return path.read_text().count("\n")


def per_layer(tally: Tally, tracer) -> dict:
    preps = len(tally.prep_s)
    totals = tracer.totals()
    c = tally.counters
    values = {f"{base}.{field}": totals.get(base, {}).get(field, 0.0) / preps
              for base, field in SPAN_METRICS}
    values.update({
        "loader.integral_evaluations": c.get("integral_evaluations", 0) / preps,
        "loader.rotation_applications":
            c.get("rotation_applications", 0) / preps,
        "assemble.comparators": c.get("comparators", 0) / preps,
        "discriminate.attempts": c.get("attempts", 0) / preps,
        "discriminate.retries": c.get("retries", 0) / preps,
        # preparations returned per attempt; 0 when nothing is attempted
        "discriminate.attempt_yield":
            c.get("returned", 0) / c["attempts"] if c.get("attempts") else 0.0,
        "statevec.max_state_mib": tracer.max_state_mib,
    })
    package = SRC / "gridprep"
    values.update({f"{m}.lines": line_count(package / f"{m}.py")
                   for m in MODULES})
    values["src.lines"] = sum(line_count(p) for p in package.glob("*.py"))
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    gp, ops, setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(gp)
    wall = time.perf_counter()
    tally = run_rounds(gp, ops, args.seconds, tracer)
    wall = time.perf_counter() - wall
    if not tally.prep_s:
        for row in tally.failures.values():
            print(f"{row['config']}: {row['check']}", file=sys.stderr)
        sys.exit("error: no preparation completed, so there is nothing to "
                 "time")

    metrics = (per_layer(tally, tracer) if tracer is not None
               else end_to_end(args, tally, setup_s))
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}

    for row in tally.failures.values():
        print(f"FAILED workload={args.workload} config={row['config']!r} "
              f"seed={row['seed']} check={row['check']} value={row['value']} "
              f"limit={row['limit']} times={row['count']}"
              + (" (known fault)" if row["known_fault"] else ""))
    print(f"{args.workload}: attempted {tally.attempted}, failed "
          f"{tally.failed}, timed rounds {tally.attempted // len(ops)}, "
          f"wall {wall:.2f} s")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "blas_threads": BLAS_THREADS, "rounds_wall_s": wall,
              "result": result, "failures": list(tally.failures.values()),
              "prep_s": tally.prep_s, "round_rates": tally.round_rates}
    if tracer is not None:
        record["layer_totals"] = tracer.totals()
        record["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
