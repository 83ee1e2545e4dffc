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


@pytest.fixture
def fresh_coupling_table():
    """Clear the cached size-bias coupling table before and after a test
    that patches the star builder, so that the test sees its own stars and
    leaves no table built from them behind."""
    from coxmal.sizebias import _coupling_table

    _coupling_table.cache_clear()
    yield
    _coupling_table.cache_clear()


@pytest.fixture
def off_group_star(monkeypatch, fresh_coupling_table):
    """Patch the star builder so that row 0's star at every generator holds
    the entry n + 1: a window outside the group."""
    from coxmal import sizebias

    build = sizebias._ensure_right_batch

    def off_the_group(kind, W, i):
        S = build(kind, W, i)
        S[0] = W.shape[1] + 1
        return S

    monkeypatch.setattr(sizebias, "_ensure_right_batch", off_the_group)
