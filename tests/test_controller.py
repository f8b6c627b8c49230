"""Tests for repro.core.controller — eager-step pricing and drain pricing."""

import pytest

from repro.core.controller import SecPBController, TimingCalibration
from repro.core.schemes import SPECTRUM_ORDER, get_scheme
from repro.core.secpb import SecPBEntry
from repro.security.metadata_cache import MetadataCaches
from repro.sim.config import SystemConfig


def controller(scheme_name, config=None):
    config = config if config is not None else SystemConfig()
    return SecPBController(config, get_scheme(scheme_name), MetadataCaches(config))


def warm_new_entry(ctl, block_addr=0, now=0.0):
    """Price a new entry with a warm counter cache and, under a BMF cut, a
    warm root cache (steady state).

    Returns the unblock cycles and the entry.
    """
    ctl.mdc.access_counter(block_addr)
    ctl.mdc.bmt_levels(block_addr)
    entry = SecPBEntry(block_addr)
    return ctl.price_new_entry(now, block_addr, entry), entry


class TestNewEntryLatencyOrdering:
    def test_eagerness_orders_unblock_latency(self):
        """More eager schemes take longer to raise the unblocking signal —
        the essence of Table IV."""
        latencies = {}
        for name in SPECTRUM_ORDER:
            latencies[name], _ = warm_new_entry(controller(name))
        assert (
            latencies["cobcm"]
            <= latencies["obcm"]
            <= latencies["bcm"]
            <= latencies["cm"]
            <= latencies["m"]
            <= latencies["nogap"]
        )
        assert latencies["cobcm"] == 0.0
        assert latencies["nogap"] > 320

    def test_cobcm_pays_nothing_early(self):
        cycles, entry = warm_new_entry(controller("cobcm"))
        assert cycles == 0.0
        assert not any(entry.valid.values())

    def test_obcm_pays_counter_plus_double_access(self):
        cycles, entry = warm_new_entry(controller("obcm"))
        # warm CTR$ hit (2) + increment (1) + second SecPB access (2)
        assert cycles == 5.0
        assert entry.valid["C"]

    def test_bcm_adds_aes_latency(self):
        bcm_cycles, _ = warm_new_entry(controller("bcm"))
        obcm_cycles, _ = warm_new_entry(controller("obcm"))
        assert bcm_cycles == pytest.approx(obcm_cycles - 2 + 40)

    def test_cm_exposes_bmt_root_update(self):
        """BCM -> CM is the paper's biggest jump: 8 x 40 cycles of BMT."""
        bcm_cycles, _ = warm_new_entry(controller("bcm"))
        cm_cycles, _ = warm_new_entry(controller("cm"))
        assert cm_cycles - bcm_cycles >= 320 - 40

    def test_m_adds_one_xor_cycle(self):
        cm_cycles, _ = warm_new_entry(controller("cm"))
        m_cycles, _ = warm_new_entry(controller("m"))
        assert m_cycles == cm_cycles + 1

    def test_nogap_adds_mac_latency(self):
        m_cycles, _ = warm_new_entry(controller("m"))
        nogap_cycles, _ = warm_new_entry(controller("nogap"))
        assert nogap_cycles == m_cycles + 40

    def test_counter_miss_flag(self):
        ctl = controller("obcm")
        entry = SecPBEntry(0)
        cycles = ctl.price_new_entry(0.0, 0, entry)  # cold CTR$
        assert ctl.mdc.stats.get("mdc.counter.misses") == 1
        assert cycles > 200


class TestOncePerResidencyOptimization:
    def test_coalesced_store_skips_value_independent_steps(self):
        """Sec. IV-A: counter/OTP/BMT run once per residency, so a
        coalesced store under CM is (almost) free."""
        ctl = controller("cm")
        entry = SecPBEntry(0)
        assert ctl.price_coalesced_store(0.0, entry) == 0.0

    def test_coalesced_store_nogap_pays_mac(self):
        ctl = controller("nogap")
        entry = SecPBEntry(0)
        assert ctl.price_coalesced_store(0.0, entry) >= ctl.calibration.xor_cycles

    def test_bmt_updates_counted_once_per_entry(self):
        ctl = controller("cm")
        bmt_updates, _ = ctl.metadata_counts(new_entries=1, coalesced=1, drains=0)
        assert bmt_updates == 1


class TestBmtEngineSerialization:
    def test_single_in_flight_bmt_update(self):
        """Sec. VI-B: the system is constrained to one in-flight BMT
        update; back-to-back new entries queue."""
        ctl = controller("cm")
        first, _ = warm_new_entry(ctl, block_addr=0, now=0.0)
        second, _ = warm_new_entry(ctl, block_addr=64, now=0.0)
        # Equal prices but for the second's wait on the BMT engine.
        assert second - first >= 320

    def test_bmf_hook_reduces_levels(self):
        full = controller("cm")
        dbmf = controller("cm", config=SystemConfig().with_bmf_cut(2))
        full_cycles, _ = warm_new_entry(full)
        dbmf_cycles, _ = warm_new_entry(dbmf)
        assert dbmf_cycles < full_cycles
        assert full_cycles - dbmf_cycles >= 6 * 40 - 40


class TestDrainPricing:
    def test_lazier_schemes_drain_slower(self):
        """Late steps move to the drain path: COBCM's drain does the most
        MC-side work."""
        services = {}
        for name in SPECTRUM_ORDER:
            ctl = controller(name)
            ctl.mdc.access_counter(0)  # warm
            services[name] = ctl.price_drain(0)
        assert (
            services["nogap"]
            <= services["m"]
            <= services["cm"]
            <= services["bcm"]
            <= services["obcm"]
            <= services["cobcm"]
        )

    def test_nogap_drain_is_transfer_only(self):
        ctl = controller("nogap")
        cal = ctl.calibration
        assert ctl.price_drain(0) == cal.drain_transfer_cycles

    def test_late_bmt_updates_counted_at_drain(self):
        ctl = controller("cobcm")
        bmt_updates, _ = ctl.metadata_counts(new_entries=0, coalesced=0, drains=2)
        assert bmt_updates == 2

    def test_drain_uses_forest_levels(self):
        flat = controller("cobcm", config=SystemConfig().with_bmf_cut(2))
        full = controller("cobcm")
        flat.mdc.bmt_levels(0)  # pin the subtree root
        assert flat.price_drain(0) < full.price_drain(0)


class TestCalibrationDefaults:
    def test_calibration_is_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            TimingCalibration().cpi_base = 1.0

    def test_custom_calibration_respected(self):
        cal = TimingCalibration(xor_cycles=10)
        config = SystemConfig()
        ctl = SecPBController(
            config, get_scheme("m"), MetadataCaches(config), calibration=cal
        )
        ctl.mdc.access_counter(0)
        entry = SecPBEntry(0)
        assert ctl.price_new_entry(0.0, 0, entry) >= 320 + 10


class TestCalibrationValidation:
    """A calibration no machine has is rejected when it is built."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cpi_base", -1.0),
            ("load_blocking_fraction", -2.0),
            ("xor_cycles", -1),
            ("counter_increment_cycles", -1),
            ("drain_transfer_cycles", -5),
            ("mc_hash_initiation_cycles", -1),
            ("mc_aes_initiation_cycles", -1),
            ("mac_pipeline_initiation_cycles", -24),
            ("mc_counter_fetch_cycles", -2),
            ("secpb_double_access_cycles", -2),
        ],
    )
    def test_negative_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TimingCalibration(**{field: value})

    @pytest.mark.parametrize("value", [1.5, float("nan")])
    def test_blocking_fraction_above_one_rejected(self, value):
        with pytest.raises(ValueError, match="load_blocking_fraction"):
            TimingCalibration(load_blocking_fraction=value)

    def test_nan_cpi_rejected(self):
        with pytest.raises(ValueError, match="cpi_base"):
            TimingCalibration(cpi_base=float("nan"))

    def test_every_field_is_checked(self):
        """Each field of the calibration has a case above."""
        import dataclasses

        checked = {
            "cpi_base", "load_blocking_fraction", "xor_cycles",
            "counter_increment_cycles", "drain_transfer_cycles",
            "mc_hash_initiation_cycles", "mc_aes_initiation_cycles",
            "mac_pipeline_initiation_cycles", "mc_counter_fetch_cycles",
            "secpb_double_access_cycles",
        }
        assert {f.name for f in dataclasses.fields(TimingCalibration)} == checked

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cpi_base": 0.1, "load_blocking_fraction": 0.3},
            {"cpi_base": 1.0, "load_blocking_fraction": 0.5},
            {"cpi_base": 0.0, "load_blocking_fraction": 0.0},
            {"load_blocking_fraction": 1.0},
            {"drain_transfer_cycles": 0},
            {"xor_cycles": 10},
        ],
    )
    def test_calibrations_in_use_stay_valid(self, kwargs):
        TimingCalibration(**kwargs)
