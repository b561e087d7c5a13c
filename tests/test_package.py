"""The package's public surface."""

from __future__ import annotations

import penney


def test_every_exported_name_resolves():
    assert [name for name in penney.__all__ if not hasattr(penney, name)] == []
    assert len(set(penney.__all__)) == len(penney.__all__)
