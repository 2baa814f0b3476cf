"""Exception hierarchy and warning categories shared across the package."""

from __future__ import annotations


class GumbelTailError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GumbelTailError, ValueError):
    """An argument lies outside the mathematically valid range."""


class AuxNotVanishing(UserWarning):
    """The auxiliary scale function does not decay to zero at the tail."""
