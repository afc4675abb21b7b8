"""Shared pytest configuration: a pytest-timeout fallback shim and the
hypothesis profiles.

Supervision tests exercise watchdogs and shutdown paths where the
failure mode of a regression is a *hang*, not an assertion — so they
carry ``@pytest.mark.timeout(n)``.  CI installs pytest-timeout and runs
with ``--timeout``; on dev boxes without the plugin this shim honors
the same marker via SIGALRM, so a deadlock still fails the test in
seconds instead of wedging the whole suite.

Property tests run under hypothesis' default profile.  The ``deep``
profile searches far more examples; select it with
``--hypothesis-profile=deep``.
"""

from __future__ import annotations

import signal

import pytest

try:
    from hypothesis import settings
except ImportError:         # hypothesis is a dev dependency
    pass
else:
    settings.register_profile("deep", max_examples=2000, deadline=None)


def _timeout_plugin_loaded(config) -> bool:
    return config.pluginmanager.hasplugin("timeout")


def pytest_configure(config):
    if not _timeout_plugin_loaded(config):
        config.addinivalue_line(
            "markers",
            "timeout(seconds): fail the test if it runs longer than "
            "``seconds`` (SIGALRM fallback when pytest-timeout is absent)")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("timeout")
    use_shim = (marker is not None
                and not _timeout_plugin_loaded(item.config)
                and hasattr(signal, "SIGALRM"))
    if not use_shim:
        yield
        return
    seconds = float(marker.args[0] if marker.args
                    else marker.kwargs.get("timeout", 60))

    def _alarm(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded {seconds:g}s (SIGALRM timeout shim)")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
