"""Module boundaries: only `statevec` knows where a segment's bits sit."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gridprep"


def test_only_statevec_reads_segment_offsets():
    # every other module addresses a register by name and value
    readers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if path.name != "statevec.py"
        and any(isinstance(node, ast.Attribute) and node.attr == "offset"
                for node in ast.walk(ast.parse(path.read_text()))))
    assert readers == []
