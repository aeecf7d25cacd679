"""Module boundaries: only `statevec` knows where a segment's bits sit, and
only it draws measurement outcomes.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gridprep"


def _modules_other_than_statevec(matches):
    """The modules but `statevec` with an AST node that `matches`."""
    return sorted(
        path.name for path in PACKAGE.glob("*.py")
        if path.name != "statevec.py"
        and any(matches(node)
                for node in ast.walk(ast.parse(path.read_text()))))


def test_only_statevec_reads_segment_offsets():
    # every other module addresses a register by name and value
    assert _modules_other_than_statevec(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "offset") == []


def test_only_statevec_draws_outcomes():
    # every other module draws through `statevec.born_draw`
    assert _modules_other_than_statevec(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "choice") == []
