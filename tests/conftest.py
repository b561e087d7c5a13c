from __future__ import annotations

import pytest

from penney.patterns import SourceModel, parse_pattern, validate_pattern_set


@pytest.fixture
def fair():
    return SourceModel.from_text("H:1/2,T:1/2")


@pytest.fixture
def example_spec(fair):
    patterns = [parse_pattern(text, fair) for text in ("THH", "HTH", "HHT")]
    return validate_pattern_set(patterns, fair)
