import shutil
import tempfile

import pytest


def pytest_configure(config):
    """Point XDG_CACHE_HOME at a directory of this test session before any
    test module is imported, so the tests, and the interpreters they start,
    neither read nor fill the user's own kernel cache."""
    config.kernel_cache = tempfile.mkdtemp(prefix="coxmal-test-cache-")
    config.kernel_cache_env = pytest.MonkeyPatch()
    config.kernel_cache_env.setenv("XDG_CACHE_HOME", config.kernel_cache)


def pytest_unconfigure(config):
    config.kernel_cache_env.undo()
    shutil.rmtree(config.kernel_cache, ignore_errors=True)
