"""The package's public surface."""

import ast
from pathlib import Path

import gumbeltail
from gumbeltail import errors


def test_all_names_resolve():
    missing = [name for name in gumbeltail.__all__ if not hasattr(gumbeltail, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(gumbeltail.__all__) == len(set(gumbeltail.__all__))


def test_error_types():
    defined = sorted(name for name, value in vars(errors).items()
                     if isinstance(value, type) and value.__module__ == errors.__name__)
    assert defined == ["AuxNotVanishing", "DomainError", "GumbelTailError"]
    assert issubclass(gumbeltail.DomainError, gumbeltail.GumbelTailError)
    assert issubclass(gumbeltail.DomainError, ValueError)


def test_package_raises_only_its_own_errors():
    # every named raise in the package is a DomainError, a GumbelTailError
    # or the CLI's usage error; a bare re-raise names nothing
    allowed = {"DomainError", "GumbelTailError", "_UsageError"}
    found = []
    for path in sorted(Path(gumbeltail.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                found.append((path.name, node.lineno, name))
    assert found
    assert [entry for entry in found if entry[2] not in allowed] == []
