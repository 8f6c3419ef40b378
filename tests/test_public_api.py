"""The public surface: every exported name resolves and the package quickstart runs."""

import doctest

import repro
import repro.streamrule


def test_every_streamrule_export_resolves():
    # Includes the lazily resolved worker and query-server names.
    unresolved = [name for name in repro.streamrule.__all__ if getattr(repro.streamrule, name, None) is None]
    assert unresolved == []


def test_package_quickstart_runs():
    results = doctest.testmod(repro)
    assert results.attempted > 0
    assert results.failed == 0
