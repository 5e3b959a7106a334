"""Unit tests for the Opteron machine catalogue."""

import pytest

from repro.platform import OPTERON_CATALOGUE, machine


class TestCatalogue:
    def test_paper_models_present(self):
        # §5.1: "AMD Opterons 246, 248, 250, 252 and 275"
        for model in (246, 248, 250, 252, 275):
            assert f"opteron-{model}" in OPTERON_CATALOGUE

    def test_clock_ordering(self):
        # within the single-core 2xx line, clock rises with model number
        clocks = [machine(f"opteron-{m}").clock_ghz for m in (246, 248, 250, 252)]
        assert clocks == sorted(clocks)
        assert clocks[0] == 2.0 and clocks[-1] == 2.6

    def test_speed_equals_clock(self):
        for key, spec in OPTERON_CATALOGUE.items():
            assert spec.speed == spec.clock_ghz

    def test_unknown_key_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="opteron-246"):
            machine("opteron-999")

    def test_specs_are_frozen(self):
        spec = machine("opteron-246")
        with pytest.raises(Exception):
            spec.clock_ghz = 9.9
