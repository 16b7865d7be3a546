"""Tests for the consolidated mapping report."""

import pytest

from repro.analysis import mapping_report
from repro.core import CriticalEdgeMapper
from tests.conftest import random_instance


@pytest.fixture(scope="module")
def result():
    clustered, system = random_instance(5)
    return CriticalEdgeMapper(rng=5).map(clustered, system)


class TestMappingReport:
    def test_contains_all_sections(self, result):
        text = mapping_report(result)
        for needle in (
            "lower bound",
            "final mapping",
            "parallel metrics",
            "embedding quality",
            "critical structure",
            "speedup",
            "dilation",
        ):
            assert needle in text
        assert "--- schedule ---" not in text

    def test_gantt_optional(self, result):
        text = mapping_report(result, include_gantt=True)
        assert "--- schedule ---" in text
        assert "time |" in text

    def test_numbers_match_result(self, result):
        text = mapping_report(result)
        assert str(result.lower_bound) in text
        assert str(result.total_time) in text
