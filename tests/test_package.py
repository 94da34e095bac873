"""The package namespace: every lazily exported name resolves."""

import ladderspec


def test_every_exported_name_resolves():
    for name in ladderspec.__all__:
        assert getattr(ladderspec, name) is not None, name
