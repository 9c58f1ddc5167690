"""Per-test hang protection when pytest-timeout is not installed.

``pyproject.toml`` sets ``timeout`` for the pytest-timeout plugin.  Without
the plugin pytest ignores that setting and a hung test wedges the whole
run.  This fallback arms :func:`faulthandler.dump_traceback_later` with the
same limit around each test: a hang dumps every thread's stack and ends
the run with exit status 1.  With the plugin installed it does nothing.
"""

import faulthandler
import os

import pytest

try:
    import pytest_timeout  # noqa: F401
except ImportError:
    _HAVE_PLUGIN = False
else:
    _HAVE_PLUGIN = True

#: Per-test limit (seconds) when ``timeout`` is not configured.
DEFAULT_TIMEOUT_S = 300.0


if not _HAVE_PLUGIN:

    def pytest_addoption(parser):
        # Register the plugin's ini keys so pyproject's settings are read,
        # not warned about.
        parser.addini("timeout", "per-test hang limit in seconds", default=str(DEFAULT_TIMEOUT_S))
        parser.addini("timeout_method", "unused without pytest-timeout", default="thread")

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(item, nextitem):
        try:
            limit = float(item.config.getini("timeout") or 0)
        except ValueError:
            limit = DEFAULT_TIMEOUT_S
        if limit <= 0:
            return (yield)
        # Capture is suspended between test phases, so fd 2 is still the
        # terminal here; a duplicate keeps the dump visible after pytest
        # redirects fd 2 for the test itself.
        stream = os.fdopen(os.dup(2), "w")
        faulthandler.dump_traceback_later(limit, exit=True, file=stream)
        try:
            return (yield)
        finally:
            faulthandler.cancel_dump_traceback_later()
            stream.close()
