import tempfile
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def shared_scan_cache():
    """One scan-matrix cache directory for the whole session, removed
    afterwards: a matrix one test builds, the next loads."""
    with tempfile.TemporaryDirectory(prefix="qnct-cache-") as path:
        yield path


@pytest.fixture(autouse=True)
def _scan_cache_env(monkeypatch, shared_scan_cache):
    """Point every test at the session's cache, so the tests never read or
    write a user's cache (child processes inherit it through the
    environment)."""
    monkeypatch.setenv("QNCT_CACHE_DIR", shared_scan_cache)


@pytest.fixture
def scan_cache_dir(monkeypatch):
    """A fresh, empty scan-matrix cache directory, removed afterwards, for
    a test that counts what the cache holds, builds or loads."""
    with tempfile.TemporaryDirectory(prefix="qnct-cache-") as path:
        monkeypatch.setenv("QNCT_CACHE_DIR", path)
        yield Path(path)
