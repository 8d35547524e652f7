"""List the lines of ``src/moeqkd`` that a pytest selection never runs.

Usage, from the repository root:

    PYTHONPATH=src python tests/line_map.py [PYTEST_ARGS...]

With no arguments it runs ``tests/test_golden.py``, the byte pins. The
selection runs in this process under a ``sys.settrace`` line tracer (stdlib
only), so it is several times slower than plain pytest. The report gives,
per module, how many executable lines ran and the ranges of those that did
not. Lines inside a ``raise`` statement are left out of both counts: they are
guards, and a pin is not expected to reach them. The exit code is pytest's.

This file is not a test module; pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "moeqkd"


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _raise_lines(tree: ast.AST) -> set[int]:
    return {line for node in ast.walk(tree) if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


def executable_lines(path: Path) -> set[int]:
    """Lines that carry bytecode, less those inside ``raise`` statements."""
    source = path.read_text()
    code = compile(source, str(path), "exec")
    return _code_lines(code) - _raise_lines(ast.parse(source))


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(args: list[str]) -> int:
    prefix = str(SRC) + "/"
    hit: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        if event == "line":
            hit.setdefault(name, set()).add(frame.f_lineno)
        return trace

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main([*(args or ["tests/test_golden.py"]), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_run = total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        ran = lines & hit.get(str(path), set())
        missed = sorted(lines - ran)
        total_run, total = total_run + len(ran), total + len(lines)
        print(f"{path.relative_to(ROOT)}: {len(ran)}/{len(lines)} run"
              + (f"; not run: {_ranges(missed)}" if missed else ""))
    print(f"total: {total_run}/{total} executable lines run, raise statements excluded")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
