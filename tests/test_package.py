"""The package's public surface."""

import ast
import dataclasses
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



ROOT = Path(__file__).resolve().parent.parent
# public names that no program reads, each kept on purpose
READ_ONLY_BY_TESTS = {
    # the sort-then-transform reference path the engine's fast path is tested against
    "inverse_transform",
    # the paper's iterated-log norming factor c_n
    "iterated_c_n",
}


def _names_read(tree) -> set:
    """Every name the module loads, bare or as an attribute, except inside
    the body of the def or class that defines it."""
    read = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in defining:
                read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return read


def _program_reads() -> set:
    """Every name read by the programs in src/, scripts/ and bench/; the
    package's re-export in __init__.py does not count as a read."""
    files = [path for directory in ("src/gumbeltail", "scripts", "bench")
             for path in sorted((ROOT / directory).glob("*.py"))
             if path.name != "__init__.py"]
    assert len(files) > 10
    read = set()
    for path in files:
        read |= _names_read(ast.parse(path.read_text(encoding="utf-8")))
    return read


def test_every_public_name_is_read_by_a_program():
    # a public name that only tests read is surface to delete
    read = _program_reads()
    unread = sorted(set(gumbeltail.__all__) - read - READ_ONLY_BY_TESTS)
    assert unread == []
    assert READ_ONLY_BY_TESTS <= set(gumbeltail.__all__) - read


def test_every_model_field_is_read_by_a_program():
    # a field that no program reads is a concept to delete
    read = _program_reads()
    fields = {field.name for field in dataclasses.fields(gumbeltail.TailModel)}
    assert sorted(fields - read) == []
