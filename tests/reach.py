"""Reach check: run tier-1 under a ``sys.settrace`` line tracer and fail when
a statement of ``src/corrmatch`` never runs.

    PYTHONPATH=src python tests/reach.py [extra pytest arguments]

A statement is a line that holds bytecode in the module's compiled code
objects.  ``hypothesis`` is derandomized for this run only (the ``reach``
profile, with no example database and no deadline, since the tracer slows
every example), so every run draws the same examples and reaches the same
statements.  A statement that no test can execute goes in ``ALLOWED`` with
its reason; an allowed statement that runs, or no longer exists, fails the
check too, so the list stays exact.  Lines run in a subprocess (the
acceptance module's CLI run) are not counted.  The exit status is pytest's
when the tests fail, else 1 for a miss and 0 for none.
"""
import os
import sys
import threading
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "corrmatch"

# (file, statement text) -> why no test executes it.
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "the __main__ guard's body runs only when the module is "
                                    "a script; the tests call cli.main in-process",
}


def statement_lines(path: Path) -> set[int]:
    """The lines holding bytecode in the module and every code object it nests."""
    codes, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0 or None: no line
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


class DerandomizedHypothesis:
    """Loads the ``reach`` profile before any test module builds its settings.
    (Importing ``hypothesis`` before ``pytest.main`` would make pytest warn
    that it cannot rewrite the plugin's module, and warnings are errors.)"""

    @pytest.hookimpl(tryfirst=True)
    def pytest_configure(self, config):
        from hypothesis import settings
        settings.register_profile("reach", derandomize=True, database=None, deadline=None)
        settings.load_profile("reach")


def traced_pytest(args) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines executed in each ``src/corrmatch`` file."""
    hits = {str(path): set() for path in SRC.glob("*.py")}
    owner = {}  # co_filename -> its hit set, or None outside src/corrmatch

    def line_tracer(frame, event, arg):
        if event == "line":
            owner[frame.f_code.co_filename].add(frame.f_lineno)
        return line_tracer

    def call_tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            owner[name] = hits.get(os.path.realpath(name))
        return line_tracer if owner[name] is not None else None

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *args],
                           plugins=[DerandomizedHypothesis()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    loaded = Path(sys.modules["corrmatch"].__file__).resolve().parent
    if loaded != SRC:
        sys.exit(f"reach: the tests imported corrmatch from {loaded}, not {SRC}")
    return int(code), hits


def main(args) -> int:
    code, hits = traced_pytest(args)
    if code:
        print(f"reach: tier-1 failed under the tracer (pytest exit {code})")
        return code
    missed, allowed_seen, total = [], set(), 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        statements = statement_lines(path)
        total += len(statements)
        for line in sorted(statements - hits[str(path)]):
            key = (path.name, source[line - 1].strip())
            if key in ALLOWED:
                allowed_seen.add(key)
            else:
                missed.append(f"{path.relative_to(SRC.parent.parent)}:{line}: never executed: "
                              f"{key[1]}")
    stale = [f"allowlisted statement {key} executed or gone: remove it from ALLOWED"
             for key in sorted(ALLOWED.keys() - allowed_seen)]
    print(f"reach: {total - len(missed) - len(allowed_seen)} of {total} statements in "
          f"{SRC.relative_to(SRC.parent.parent)} executed, {len(allowed_seen)} allowlisted")
    for problem in missed + stale:
        print(f"reach: {problem}")
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
