"""The package's public surface."""

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
