"""Exceptions shared across the package."""

from __future__ import annotations


class ConsistencyError(Exception):
    """Two independent computation routes disagreed.

    Carries a ``witness`` describing the first discrepancy (typically the
    nonzero difference in canonical form).
    """

    def __init__(self, message: str, witness: str | None = None):
        super().__init__(message if witness is None else f"{message}: {witness}")
        self.witness = witness


def require_equal(lhs, rhs, message: str) -> None:
    """Compare two routes; on disagreement raise with ``lhs - rhs`` as witness."""
    if lhs != rhs:
        raise ConsistencyError(message, witness=str(lhs - rhs))
