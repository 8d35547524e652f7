"""Check that every line of ``src/moeqkd`` the byte pins leave unrun has an
owner test, or list the lines a pytest selection never runs.

Usage, from the repository root:

    PYTHONPATH=src python tests/line_map.py                  # the gate
    PYTHONPATH=src python tests/line_map.py PYTEST_ARGS...   # a report

Selections run in this process under a ``sys.settrace`` line tracer (stdlib
only), several times slower than plain pytest. Lines inside a ``raise``
statement are left out: they are guards, and a pin is not expected to reach
them. A report gives, per module, how many executable lines ran and the
ranges of those that did not; its exit code is pytest's.

The gate runs ``tests/test_golden.py`` and compares the lines it leaves unrun
with the allowlist ``tests/unpinned.txt``. An entry reads

    module | function | line text | owner test

where the function is the qualified name of the innermost ``def`` or
``class`` around the line (``<module>`` outside any), the text is the
stripped source line, and the owner is a pytest node id, without parameters
to stand for all of them. Keys carry no line numbers, so an edit elsewhere
in a file does not move them; lines that share a key share its entries. The
gate then traces only the owner tests, filing each line under the test that
runs it, and fails on:

* a line no pin runs and no entry names (a new unpinned line);
* an entry that names no such line (a stale entry);
* an owner that runs none of its key's lines, or a line of a key that none
  of its owners runs.

An owner marked ``(subprocess)`` runs its line in a child process, which the
tracer cannot see: it must still pass, but its line is not checked. The exit
code is 1 on any of these failures or a failing test, else 0.

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
ALLOWLIST = ROOT / "tests" / "unpinned.txt"
SUBPROCESS = " (subprocess)"


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


def _scopes(node: ast.AST, name: str = "", out: dict | None = None) -> dict[int, str]:
    """Line -> qualified name of the innermost def or class around it."""
    out = {} if out is None else out
    for child in ast.iter_child_nodes(node):
        inner = name
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{name}.{child.name}" if name else child.name
            out.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1), inner))
        _scopes(child, inner, out)
    return out


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


class _Tracer:
    """Line tracer over ``src/moeqkd``, filing each hit under the test that
    is running (or "" outside any test), as a pytest plugin."""

    def __init__(self):
        self.prefix = str(SRC) + "/"
        self.hit: dict[str, set[tuple[str, int]]] = {}
        self._now = self.hit.setdefault("", set())

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        if event == "line":
            self._now.add((name, frame.f_lineno))
        return self

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(self, item):
        self._now = self.hit.setdefault(item.nodeid, set())
        try:
            return (yield)
        finally:
            self._now = self.hit[""]

    def run(self, args: list[str]) -> int:
        threading.settrace(self)
        sys.settrace(self)
        try:
            return int(pytest.main([*args, "-q", "-p", "no:cacheprovider"], plugins=[self]))
        finally:
            sys.settrace(None)
            threading.settrace(None)

    def lines(self, tests=None) -> set[tuple[str, int]]:
        """Every hit, or the hits of the named tests and their parametrizations."""
        return set().union(*(hits for test, hits in self.hit.items() if tests is None
                             or test.split("[")[0] in tests or test in tests))


def unrun(ran: set[tuple[str, int]], report: bool = False) -> dict[tuple, set]:
    """Key (module, function, text) -> (path, line) of each executable line not run."""
    out: dict[tuple, set[tuple[str, int]]] = {}
    total_run = total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text, scope = source.splitlines(), _scopes(ast.parse(source))
        lines = executable_lines(path)
        missed = sorted(line for line in lines if (str(path), line) not in ran)
        for line in missed:
            key = (path.stem, scope.get(line, "<module>"), text[line - 1].strip())
            out.setdefault(key, set()).add((str(path), line))
        total_run, total = total_run + len(lines) - len(missed), total + len(lines)
        if report:
            print(f"{path.relative_to(ROOT)}: {len(lines) - len(missed)}/{len(lines)} run"
                  + (f"; not run: {_ranges(missed)}" if missed else ""))
    if report:
        print(f"total: {total_run}/{total} executable lines run, raise statements excluded")
    return out


def _where(lines) -> str:
    return ", ".join(f"{Path(p).relative_to(ROOT)}:{line}" for p, line in sorted(lines))


def allowlist() -> dict[tuple, set[str]]:
    """Key (module, function, text) -> its owner tests, from ``tests/unpinned.txt``."""
    out: dict[tuple, set[str]] = {}
    for raw in ALLOWLIST.read_text().splitlines():
        if raw.strip() and not raw.startswith("#"):
            head, owner = raw.rsplit(" | ", 1)
            out.setdefault(tuple(head.split(" | ", 2)), set()).add(owner.strip())
    return out


def gate() -> int:
    pins = _Tracer()
    status = pins.run(["tests/test_golden.py"])
    missed = unrun(pins.lines(), report=True)
    entries = allowlist()
    owners = sorted({o.removesuffix(SUBPROCESS) for group in entries.values() for o in group})
    tracer = _Tracer()
    status = tracer.run(owners) or status

    failures = [f"no entry: {' | '.join(key)} ({_where(where)})"
                for key, where in missed.items() if key not in entries]
    for key, group in entries.items():
        label = " | ".join(key)
        if key not in missed:
            failures.append(f"stale entry, a pin runs it or it is gone: {label}")
            continue
        left = set(missed[key])
        for owner in sorted(o for o in group if not o.endswith(SUBPROCESS)):
            ran = tracer.lines({owner})
            if not ran & missed[key]:
                failures.append(f"owner runs none of its lines: {label} | {owner}")
            left -= ran
        if left and not any(o.endswith(SUBPROCESS) for o in group):
            failures.append(f"no owner runs {_where(left)}: {label}")
    for line in failures:
        print(f"GATE: {line}")
    print(f"gate: {sum(map(len, missed.values()))} unpinned lines under {len(missed)} keys, "
          f"{len(entries)} allowlisted, {len(owners)} owner tests; {len(failures)} failures")
    return 1 if failures or status else 0


def main(args: list[str]) -> int:
    if not args:
        return gate()
    tracer = _Tracer()
    status = tracer.run(args)
    unrun(tracer.lines(), report=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
