"""Error types shared across the package."""

from __future__ import annotations


class WelfairError(Exception):
    """Base class for all package errors."""


class DataError(WelfairError):
    """A problem with input data (file, columns, cells)."""


class MissingColumnError(DataError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"column {column!r} not found in header")


class EmptyCellError(DataError):
    def __init__(self, column: str, row: int):
        self.column = column
        self.row = row
        super().__init__(f"empty cell in column {column!r} at data row {row}")


class NonNumericCellError(DataError):
    def __init__(self, column: str, row: int, value: str):
        self.column = column
        self.row = row
        self.value = value
        super().__init__(
            f"non-numeric value {value!r} in column {column!r} at data row {row}"
        )


class NonFiniteCellError(DataError):
    def __init__(self, column: str, row: int, value: str):
        self.column = column
        self.row = row
        self.value = value
        super().__init__(
            f"non-finite value {value!r} in column {column!r} at data row {row}"
        )


class SingleColorError(DataError):
    def __init__(self, column: str, color: str):
        self.column = column
        self.color = color
        super().__init__(
            f"group column {column!r} holds a single distinct value {color!r}; "
            "need at least two groups"
        )


class ParamError(WelfairError):
    """Parameters violate their invariants for the given instance."""


class NormalizationError(WelfairError):
    def __init__(self, k: int, message: str):
        self.k = k
        super().__init__(f"k={k}: {message}")


class CenterError(WelfairError):
    """Center selection cannot proceed (e.g. fewer distinct points than k)."""


class BruteForceSizeError(WelfairError):
    def __init__(self, k: int, n: int, limit: float):
        self.k = k
        self.n = n
        super().__init__(
            f"k^n = {k}^{n} exceeds the enumeration guard ({limit:g})"
        )


class InternalInvariantError(WelfairError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class LPError(InternalInvariantError):
    """A HiGHS solve failed. Both LPs are feasible and bounded by
    construction, so this is a program or solver fault, not bad input."""
