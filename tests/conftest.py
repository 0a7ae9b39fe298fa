"""Set-up shared by every test module."""

import pytest

from rtikit import harness, reconstruction


@pytest.fixture(autouse=True)
def cold_memos():
    """Start each test with no kept precision term and no kept fixed-width
    operator, so that what a test computes, and what it traces or counts,
    does not depend on the tests that ran before it."""
    reconstruction._precision_term.cache_clear()
    harness._fixed_width_operator.cache_clear()
