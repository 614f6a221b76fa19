"""Exceptions shared across the package, and the one bound on witness text."""

from __future__ import annotations

# Longest witness kept whole; a longer one keeps this many leading characters.
WITNESS_LIMIT = 2000


def bounded(text: str) -> str:
    """``text`` cut to its first ``WITNESS_LIMIT`` characters and the count of the rest."""
    cut = len(text) - WITNESS_LIMIT
    return text if cut <= 0 else f"{text[:WITNESS_LIMIT]} ... ({cut} more characters)"


class ConsistencyError(Exception):
    """Two independent computation routes disagreed.

    Carries a ``witness`` describing the first discrepancy (typically the
    nonzero difference in canonical form), bounded by ``bounded``.
    """

    def __init__(self, message: str, witness: str | None = None):
        witness = None if witness is None else bounded(witness)
        super().__init__(message if witness is None else f"{message}: {witness}")
        self.witness = witness


def require_equal(lhs, rhs, message: str) -> None:
    """Compare two routes; on disagreement raise with ``lhs - rhs`` as witness."""
    if lhs != rhs:
        raise ConsistencyError(message, witness=str(lhs - rhs))
