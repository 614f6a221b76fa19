"""Property tests draw the same examples on every run, keep no example
database, and keep hypothesis's source-constant cache out of the tree.
``mutated`` is the one source-mutation helper of the mutation tests."""

import inspect
import os
import tempfile
import textwrap

try:
    from hypothesis import settings
except ImportError:  # the rest of the suite runs without hypothesis
    pass
else:
    os.environ.setdefault(
        "HYPOTHESIS_STORAGE_DIRECTORY",
        os.path.join(tempfile.gettempdir(), "chowcalc-hypothesis"),
    )
    settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
    settings.load_profile("tier1")


def mutated(function, old: str, new: str):
    """A copy of ``function`` whose source has the one occurrence of ``old``
    replaced by ``new``, compiled in the namespace of its module."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old  # the mutated code is still there
    namespace = {}
    exec(source.replace(old, new), vars(inspect.getmodule(function)), namespace)
    return namespace[function.__name__]
