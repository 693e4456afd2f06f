import tempfile
from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def scan_cache_dir(monkeypatch):
    """A fresh, empty scan-matrix cache directory for each test, removed
    afterwards, so the tests never read or write a user's cache (child
    processes inherit it through the environment)."""
    with tempfile.TemporaryDirectory(prefix="qnct-cache-") as path:
        monkeypatch.setenv("QNCT_CACHE_DIR", path)
        yield Path(path)
