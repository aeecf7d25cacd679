"""The golden comparator's value rules, on real artifacts with planted
changes.  Needs no git: both sides come from the working tree.
"""
import re
from pathlib import Path

import pytest

from golden_compare import compare_case, compare_file, run_cases

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def ring(tmp_path_factory):
    runs = run_cases(SRC, ["superposition-ring"],
                     tmp_path_factory.mktemp("golden"))
    return runs["superposition-ring"]


@pytest.fixture(scope="module")
def checked(tmp_path_factory):
    runs = run_cases(SRC, ["verify-bounds-superposition"],
                     tmp_path_factory.mktemp("golden"))
    return runs["verify-bounds-superposition"]


def _planted(run, name, pattern, replacement):
    code, files = run
    text, n = re.subn(pattern, replacement, files[name])
    assert n == 1
    return code, {**files, name: text}


def test_identical_runs_agree(ring):
    lines = compare_case(ring, ring)
    assert [ok for ok, _ in lines] == [True] * 3
    assert all(message.endswith("identical") for _, message in lines)


@pytest.mark.parametrize("name, pattern, replacement, ok", [
    # rounding noise in an amplitude and in float diagnostics passes
    ("state.csv", r"\n0,0,0\r", "\n0,1e-17,0\r", True),
    # a zero that only changes sign is the same value
    ("state.csv", r"\n0,0,0\r", "\n0,-0,0\r", True),
    ("report.txt", r"max_ambiguous_mass: \S+", "max_ambiguous_mass: 3e-30",
     True),
    ("report.csv", r"symmetrization_norm,[^\r]+",
     "symmetrization_norm,0.9999999999999", True),
    # a 1e-9 amplitude change fails
    ("state.csv", r"\n4,([^,]+),",
     lambda m: f"\n4,{float(m[1]) + 1e-9!r},", False),
    # a changed attempt count fails, in either report
    ("report.csv", r"attempts,1\r", "attempts,2\r", False),
    ("report.txt", r"attempts: 1 \(", "attempts: 2 (", False),
    # a bound must match as printed, even 1e-13 apart
    ("report.csv", r"error_bound,0\.045\r", "error_bound,0.0450000000001\r",
     False),
    ("report.txt", r"error bound: 0\.045", "error bound: 0.0450000000001",
     False),
    # text around the numbers must match
    ("report.txt", r"\(fermionic\)", "(bosonic)", False),
])
def test_planted_change(ring, name, pattern, replacement, ok):
    lines = compare_case(ring, _planted(ring, name, pattern, replacement))
    assert all(passed for passed, _ in lines) == ok
    if not ok:
        assert any(message.startswith(name) for passed, message in lines
                   if not passed)


@pytest.mark.parametrize("replacement, ok", [
    # the measured value of a bound check is a number like any other
    ("bound:infidelity,1e-16<=0.045:ok", True),
    ("bound:infidelity,1e-09<=0.045:ok", False),
    # its bound must match as printed, and its status as a string
    ("bound:infidelity,0<=0.0450000000001:ok", False),
    ("bound:infidelity,0<=0.045:FAIL", False),
    # a cell that lost its bound and status does not match by its value
    ("bound:infidelity,0", False),
])
def test_planted_bound_check_cell(checked, replacement, ok):
    # the run prints a measured value within rounding of 0 (0 or 2.2e-16),
    # which the planted 0 only moves by noise
    planted = _planted(checked, "report.csv",
                       r"bound:infidelity,[^<,\r]+<=0\.045:ok", replacement)
    lines = compare_case(checked, planted)
    assert all(passed for passed, _ in lines) == ok
    if not ok:
        assert any(message.startswith("report.csv") for passed, message
                   in lines if not passed)


def test_exit_code_and_files_must_match(ring):
    code, files = ring
    lines = compare_case(ring, (code + 3, {"report.txt": files["report.txt"]}))
    failures = [message for ok, message in lines if not ok]
    assert "exit code 0 -> 3" in failures
    assert "state.csv: written on one side only" in failures


def test_bound_check_line():
    old = "  bound checks:\n    infidelity: measured 0 <= bound 0.045 [ok]\n"
    noisy = old.replace("measured 0", "measured 1.1e-16")
    assert compare_file("report.txt", old, noisy) == ([], 1.1e-16)
    problems, _ = compare_file("report.txt", old,
                               old.replace("bound 0.045", "bound 0.046"))
    assert len(problems) == 1 and "0.046" in problems[0]
