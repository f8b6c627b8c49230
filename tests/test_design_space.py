"""Tests for the full design-space enumeration (beyond the paper's six)."""

import pytest

from repro.core.schemes import (
    ALL_STEPS,
    SCHEMES,
    STEP_DEPENDENCIES,
    MetadataStep,
    enumerate_valid_schemes,
)
from repro.core.crash import SecurePersistentSystem
from repro.core.simulator import run_scheme
from repro.energy.battery import estimate_scheme
from repro.workloads.synthetic import zipf_trace


@pytest.fixture(scope="module")
def space():
    return enumerate_valid_schemes()


class TestEnumeration:
    def test_exactly_nine_valid_schemes(self, space):
        """Five steps under Fig. 4's dependency order admit exactly nine
        dependency-closed early sets."""
        assert len(space) == 9

    def test_all_schemes_are_dependency_valid(self, space):
        for scheme in space:
            for step in scheme.early_steps:
                assert STEP_DEPENDENCIES[step] <= scheme.early_steps

    def test_paper_schemes_are_included_by_name(self, space):
        names = {s.name for s in space}
        assert set(SCHEMES) <= names

    def test_named_schemes_are_the_suffix_splits(self, space):
        """Sec. III: the six named schemes are exactly the valid splits
        whose late steps are a suffix of the chain, eager to lazy."""
        suffixes = {
            s.name
            for s in space
            if s.late_steps == frozenset(ALL_STEPS[len(ALL_STEPS) - s.laziness:])
        }
        assert suffixes == set(SCHEMES)
        assert list(SCHEMES) == ["nogap", "m", "cm", "bcm", "obcm", "cobcm"]
        assert [s.laziness for s in SCHEMES.values()] == [0, 1, 2, 3, 4, 5]

    def test_three_novel_schemes(self, space):
        novel = {s.name for s in space} - set(SCHEMES)
        assert novel == {"early_cb", "early_cox", "early_coxm"}

    def test_novel_scheme_definitions(self, space):
        by_name = {s.name: s for s in space}
        assert by_name["early_cb"].early_steps == {
            MetadataStep.COUNTER,
            MetadataStep.BMT_ROOT,
        }
        assert by_name["early_cox"].early_steps == {
            MetadataStep.COUNTER,
            MetadataStep.OTP,
            MetadataStep.CIPHERTEXT,
        }
        assert by_name["early_coxm"].early_steps == {
            MetadataStep.COUNTER,
            MetadataStep.OTP,
            MetadataStep.CIPHERTEXT,
            MetadataStep.MAC,
        }

    def test_laziest_first_ordering(self, space):
        laziness = [s.laziness for s in space]
        assert laziness == sorted(laziness, reverse=True)

    def test_enumeration_is_deterministic(self):
        a = [s.name for s in enumerate_valid_schemes()]
        b = [s.name for s in enumerate_valid_schemes()]
        assert a == b


class TestNovelSchemesWork:
    @pytest.fixture(scope="class")
    def novel(self):
        return [
            s for s in enumerate_valid_schemes() if s.name.startswith("early_")
        ]

    def test_timing_simulator_accepts_novel_schemes(self, novel):
        trace = zipf_trace(1500, 300, store_fraction=0.6, burst_length=2, seed=41)
        for scheme in novel:
            result = run_scheme(trace, scheme)
            assert result.cycles > 0

    def test_battery_model_accepts_novel_schemes(self, novel):
        for scheme in novel:
            estimate = estimate_scheme(scheme)
            assert estimate.supercap_mm3 > 0

    def test_crash_recovery_with_novel_schemes(self, novel):
        for scheme in novel:
            system = SecurePersistentSystem(scheme)
            for i in range(40):
                system.store(i, bytes([i]) * 64)
            system.crash()
            assert system.recover().ok, scheme.name

    def test_early_cb_battery_between_cm_and_bcm(self):
        """early_cb persists the BMT eagerly but not the OTP, so its
        battery need sits between CM's and BCM's."""
        by_name = {s.name: s for s in enumerate_valid_schemes()}
        cb = estimate_scheme(by_name["early_cb"]).supercap_mm3
        cm = estimate_scheme(by_name["cm"]).supercap_mm3
        bcm = estimate_scheme(by_name["bcm"]).supercap_mm3
        assert cm <= cb <= bcm
