"""Error types shared across the package: one class per way a run can fail,
each with its own `welfair` exit code."""

from __future__ import annotations


class WelfairError(Exception):
    """Base class for all package errors."""


class ParamError(WelfairError):
    """A parameter or option violates its invariants (exit code 1)."""


class DataError(WelfairError):
    """The input data cannot be used: a file, a column, a cell, or data that
    leaves nothing to normalize or seed by (exit code 2)."""


class InternalInvariantError(WelfairError):
    """An internal consistency check failed, a failed HiGHS solve among them;
    indicates a bug, not bad input (exit code 3)."""
