"""Exception types shared across the package."""

from __future__ import annotations


class Error(Exception):
    """Base class for every error raised by this package."""


class DomainError(Error):
    """An argument lies outside the domain an operation is defined on."""


class RangeError(Error):
    """An index, length, or offset is out of range."""


class InsufficientWindowError(RangeError):
    """A window is too short for the requested block parse."""


class CapacityError(Error):
    """A computation would exceed a configured size cap."""


class PrimitivityError(Error):
    """An operation that needs a primitive substitution got a non-primitive one."""


class SeedError(Error):
    """A periodic seed is not admissible for the substitution."""


class StateError(Error):
    """An operation was applied to data that has not passed verification."""


class ConsistencyError(Error):
    """Derived data contradicts the language it is supposed to live in."""


class PreconditionError(Error):
    """A documented precondition of the operation does not hold."""
