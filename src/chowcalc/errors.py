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


# Longest witness kept whole; a longer one keeps this many leading characters.
WITNESS_LIMIT = 2000


def require_equal(lhs, rhs, message: str) -> None:
    """Compare two routes; on disagreement raise with ``lhs - rhs`` as witness,
    cut to its first ``WITNESS_LIMIT`` characters and the count of the rest."""
    if lhs != rhs:
        witness = str(lhs - rhs)
        if len(witness) > WITNESS_LIMIT:
            cut = len(witness) - WITNESS_LIMIT
            witness = f"{witness[:WITNESS_LIMIT]} ... ({cut} more characters)"
        raise ConsistencyError(message, witness=witness)
