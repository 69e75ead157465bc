"""Shared pytest setup: property tests draw the same examples on every
run, write no example database, and keep Hypothesis's own files (which
it writes even without a database) out of the checkout."""

import tempfile
from pathlib import Path

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # only the property tests need hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "nilharm-hypothesis")
