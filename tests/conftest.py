"""Property tests draw the same examples on every run, keep no example
database, and keep hypothesis's source-constant cache out of the tree."""

import os
import tempfile

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
