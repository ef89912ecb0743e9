"""No library module writes the process environment.

``ServeService`` runs launches for different query classes on a thread
pool, and they all share ``os.environ``: a module that writes it can
change what a launch on another thread sees.  Only the CLI entry point
(``repro/__main__.py``) may export options into the environment, before
any launch starts.  This test scans every other module's AST for an
environment write.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules allowed to write the environment.
ALLOWED = {SRC / "__main__.py"}

#: ``os.environ`` methods that mutate it.
MUTATING_METHODS = {"pop", "popitem", "update", "setdefault", "clear",
                    "__setitem__", "__delitem__"}


def _is_environ(node) -> bool:
    """``os.environ`` or a bare ``environ`` (``from os import environ``)."""
    return (isinstance(node, ast.Attribute) and node.attr == "environ") \
        or (isinstance(node, ast.Name) and node.id == "environ")


def env_writes(source: str):
    """Line numbers of every environment write in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        if any(isinstance(t, ast.Subscript) and _is_environ(t.value)
               for t in targets):
            lines.append(node.lineno)
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            func = node.func
            if func.attr in MUTATING_METHODS and _is_environ(func.value):
                lines.append(node.lineno)
            elif func.attr in ("putenv", "unsetenv") \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "os":
                lines.append(node.lineno)
    return lines


WRITES = {
    "setitem": "os.environ['X'] = '1'",
    "augassign": "os.environ['X'] += '1'",
    "delitem": "del os.environ['X']",
    "pop": "os.environ.pop('X', None)",
    "update": "os.environ.update(X='1')",
    "setdefault": "os.environ.setdefault('X', '1')",
    "clear": "os.environ.clear()",
    "putenv": "os.putenv('X', '1')",
    "unsetenv": "os.unsetenv('X')",
    "bare_environ": "environ['X'] = '1'",
}

READS = {
    "get": "os.environ.get('X')",
    "getitem": "value = os.environ['X']",
    "contains": "'X' in os.environ",
    "copy": "dict(os.environ)",
}


@pytest.mark.parametrize("snippet", list(WRITES.values()), ids=list(WRITES))
def test_scanner_catches_each_write_form(snippet):
    assert env_writes(snippet) == [1]


@pytest.mark.parametrize("snippet", list(READS.values()), ids=list(READS))
def test_scanner_ignores_reads(snippet):
    assert env_writes(snippet) == []


def test_library_modules_never_write_the_environment():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in ALLOWED:
            continue
        for line in env_writes(path.read_text()):
            offenders.append(f"{path.relative_to(SRC.parent)}:{line}")
    assert not offenders, (
        "library modules must not write os.environ (pass configuration "
        "explicitly instead): " + ", ".join(offenders))
