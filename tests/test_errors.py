"""The error contract: argument errors are DivboundErrors that stay ValueErrors."""

import ast
from pathlib import Path

import pytest

import divbound
from divbound.errors import DivboundError, InvalidArgument

SOURCES = sorted(Path(divbound.__file__).parent.glob("*.py"))


def _bare_raises(path):
    """(line, class name) of each ``raise ValueError(...)`` or
    ``raise TypeError(...)`` in the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted(
        (node.lineno, node.exc.func.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id in ("ValueError", "TypeError")
    )


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"bounds.py", "cli.py", "generators.py", "simplex.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_argument_errors(path):
    # argument errors raise InvalidArgument, so callers can catch every
    # package error as a DivboundError and still as a ValueError
    assert _bare_raises(path) == []


def test_lint_finds_bare_raises(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x):\n    if x:\n        raise ValueError('x')\n    raise TypeError(x)\n")
    assert _bare_raises(bad) == [(3, "ValueError"), (4, "TypeError")]


def test_invalid_argument_is_both():
    assert issubclass(InvalidArgument, DivboundError)
    assert issubclass(InvalidArgument, ValueError)
    assert divbound.InvalidArgument is InvalidArgument and "InvalidArgument" in divbound.__all__
