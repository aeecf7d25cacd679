"""Compare the golden CLI artifacts of two source trees by value.

`test_golden.py` pins the bytes of every artifact.  When a change moves a
hash, this script says whether the move is rounding noise.  It runs every
case of `test_golden.CASES` with the `src/` of a base commit (exported by
`git archive` into a temporary directory) and with the working tree's
`src/`, parses both sets of artifacts, and requires:

* the same exit code, the same files, the same text around every number,
  and the same CSV headers and row shapes (a bound-check cell below
  counting as its three parts);
* equal strings, and integers (indices, attempts, retries, counters)
  equal by value, so -0 and 0 agree;
* every other number in a bound field (a CSV column, report key or report
  label that contains "bound") equal as printed;
* a bound check in a key,value report, `bound:<check>,<measured><=<bound>:
  <status>`, judged part by part as `report.txt` judges its `measured ...
  <= bound ... [status]` line: the measured value as any other number, the
  bound as printed and the status as an exact string;
* every other number (amplitudes, rho entries, infidelities, float
  diagnostics) equal within 1e-12 absolute.

Run it from the repository root:

    python tests/golden_compare.py [--base REV] [CASE ...]

It prints one line per artifact and exits 1 if any artifact disagrees.
"""
from __future__ import annotations

import argparse
import csv
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import yaml

# test_golden imports gridprep, which a plain script run finds under src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from test_golden import ARTIFACTS, CASES, ORBITAL_CSV  # noqa: E402

TOL = 1e-12
NUMBER = re.compile(
    r"(?<![\w.])([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)(?![\w.])")
INTEGER = re.compile(r"[-+]?\d+")
BOUND_CHECK = re.compile(r"bound:(.*)")
BOUND_CELL = re.compile(r"(.*)<=(.*):(.*)")
RUNNER = ("import sys; from gridprep.cli import main; "
          "sys.exit(main(sys.argv[1:]))")


def compare_value(field: str, old: str, new: str) -> float | None:
    """The tolerated |difference| of two printed values of one field, or
    None if they disagree.
    """
    if old == new:
        return 0.0
    if INTEGER.fullmatch(old) and INTEGER.fullmatch(new):
        return 0.0 if int(old) == int(new) else None
    if "bound" in field.lower():
        return None
    try:
        diff = abs(float(old) - float(new))
    except ValueError:
        return None
    return diff if diff <= TOL else None


def _fields(name: str, text: str) -> tuple[list, list[tuple[str, str]]]:
    """An artifact's layout, which must match exactly, and its (field,
    value) pairs in order.  A CSV cell's field is its column header, or its
    key in a key,value table; a CSV layout is the header and, per row, the
    number of pairs of each cell, so a bound-check cell cannot lose a part.
    A number in a text report takes the text before it on its line as its
    field.
    """
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text))
        keyed = header == ["key", "value"]
        layout, values = [header], []
        for row in rows:
            cells = [_cell(row[0], v) if keyed and c else
                     [(header[c] if c < len(header) else "", v)]
                     for c, v in enumerate(row)]
            layout.append([len(pairs) for pairs in cells])
            values += [pair for pairs in cells for pair in pairs]
        return layout, values
    parts = NUMBER.split(text)
    labels = [p.rsplit("\n", 1)[-1] for p in parts[0:-1:2]]
    return parts[0::2], list(zip(labels, parts[1::2]))


def _cell(key: str, value: str) -> list[tuple[str, str]]:
    """The (field, value) pairs of one key,value cell: a bound check's
    measured value (in a field without "bound"), its bound and its status
    (both in bound fields), or the cell as it stands.
    """
    check, cell = BOUND_CHECK.fullmatch(key), BOUND_CELL.fullmatch(value)
    if not (check and cell):
        return [(key, value)]
    measured, bound, status = cell.groups()
    return [(f"{check[1]} measured", measured), (key, bound),
            (f"{key} status", status)]


def compare_file(name: str, old: str, new: str) -> tuple[list[str], float]:
    """Disagreements between two versions of one artifact, and the largest
    tolerated difference between them.
    """
    old_layout, old_values = _fields(name, old)
    new_layout, new_values = _fields(name, new)
    if old_layout != new_layout:
        return ["layout or text differs"], 0.0
    problems, largest = [], 0.0
    for (field, a), (_, b) in zip(old_values, new_values):
        diff = compare_value(field, a, b)
        if diff is None:
            problems.append(f"{field.strip()!r}: {a} -> {b}")
        else:
            largest = max(largest, diff)
    return problems, largest


def compare_case(old, new) -> list[tuple[bool, str]]:
    """(ok, message) per artifact of one case; `old` and `new` are
    (exit code, {file name: text}) as `run_cases` returns them.
    """
    (old_code, old_files), (new_code, new_files) = old, new
    lines = []
    if old_code != new_code:
        lines.append((False, f"exit code {old_code} -> {new_code}"))
    for name in sorted(old_files.keys() | new_files.keys()):
        if name not in old_files or name not in new_files:
            lines.append((False, f"{name}: written on one side only"))
        elif old_files[name] == new_files[name]:
            lines.append((True, f"{name}: identical"))
        else:
            problems, largest = compare_file(name, old_files[name],
                                             new_files[name])
            lines += [(False, f"{name}: {p}") for p in problems[:5]]
            if len(problems) > 5:
                lines.append((False, f"{name}: {len(problems) - 5} more"))
            if not problems:
                lines.append((True, f"{name}: equal within {TOL:g} "
                                    f"(largest difference {largest:.3g})"))
    return lines


def run_cases(src: Path, names, workdir: Path) -> dict:
    """Run each named case with the gridprep package under `src` in a
    fresh interpreter: {name: (exit code, {artifact name: text})}.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = {}
    for name in names:
        command, cfg, seed = CASES[name]
        case_dir = workdir / name
        case_dir.mkdir(parents=True)
        (case_dir / "orb.csv").write_text(ORBITAL_CSV)
        (case_dir / "config.yaml").write_text(yaml.safe_dump(cfg))
        out = case_dir / "out"
        code = subprocess.run(
            [sys.executable, "-c", RUNNER, command, "--config", "config.yaml",
             "--seed", str(seed), "--out", str(out)],
            cwd=case_dir, env=env, stdout=subprocess.DEVNULL).returncode
        runs[name] = (code, {f: (out / f).read_bytes().decode()
                             for f in ARTIFACTS if (out / f).exists()})
    return runs


def export_src(repo: Path, rev: str, dest: Path) -> Path:
    """`src/` of commit `rev`, extracted under `dest`."""
    tar = subprocess.run(["git", "-C", str(repo), "archive", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="commit to compare against (default: HEAD)")
    parser.add_argument("cases", nargs="*",
                        help="case names (default: every golden case)")
    args = parser.parse_args(argv)
    names = args.cases or sorted(CASES)
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        parser.error(f"unknown cases {unknown}")
    repo = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base_src = export_src(repo, args.base, tmp / "base")
        old = run_cases(base_src, names, tmp / "old")
        new = run_cases(repo / "src", names, tmp / "new")
    failed = False
    print(f"golden artifacts, {args.base} -> working tree")
    for name in names:
        for ok, message in compare_case(old[name], new[name]):
            failed |= not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {message}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
