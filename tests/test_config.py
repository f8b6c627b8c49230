"""Tests for repro.sim.config — Table I encoding and validation."""

import dataclasses
import math

import pytest

from repro.sim.config import (
    CACHE_BLOCK_BYTES,
    DEFAULT_CONFIG,
    SECPB_SIZE_SWEEP,
    CacheConfig,
    NVMConfig,
    SecPBConfig,
    SecurityConfig,
    SystemConfig,
)


class TestCacheConfig:
    def test_l1_geometry_matches_table1(self):
        l1 = DEFAULT_CONFIG.l1
        assert l1.size_bytes == 64 * 1024
        assert l1.ways == 8
        assert l1.block_bytes == 64
        assert l1.access_cycles == 2
        assert l1.num_blocks == 1024
        assert l1.num_sets == 128

    def test_l2_l3_geometry_matches_table1(self):
        assert DEFAULT_CONFIG.l2.size_bytes == 512 * 1024
        assert DEFAULT_CONFIG.l2.ways == 16
        assert DEFAULT_CONFIG.l2.access_cycles == 20
        assert DEFAULT_CONFIG.l3.size_bytes == 4 * 1024**2
        assert DEFAULT_CONFIG.l3.ways == 32
        assert DEFAULT_CONFIG.l3.access_cycles == 30

    def test_metadata_caches_match_table1(self):
        for cache in (
            DEFAULT_CONFIG.counter_cache,
            DEFAULT_CONFIG.mac_cache,
            DEFAULT_CONFIG.bmt_cache,
        ):
            assert cache.size_bytes == 128 * 1024
            assert cache.ways == 8
            assert cache.access_cycles == 2

    def test_size_must_be_block_multiple(self):
        with pytest.raises(ValueError, match="not a multiple"):
            CacheConfig("bad", size_bytes=100, ways=2)

    def test_blocks_must_divide_into_ways(self):
        with pytest.raises(ValueError, match="not divisible"):
            CacheConfig("bad", size_bytes=64 * 3, ways=2)

    @pytest.mark.parametrize(
        "size_bytes, ways, block_bytes, match",
        [
            (0, 1, 64, "smaller than one"),
            (192, -1, 64, "ways"),
            (192, 0, 64, "ways"),
            (96 * 4, 2, 96, "power of two"),
            (0, 1, 0, "power of two"),
        ],
    )
    def test_geometry_no_cache_can_have_rejected(self, size_bytes, ways,
                                                 block_bytes, match):
        with pytest.raises(ValueError, match=match):
            CacheConfig("bad", size_bytes, ways, block_bytes=block_bytes)

    def test_smallest_geometry_accepted(self):
        one_line = CacheConfig("one", size_bytes=64, ways=1)
        assert (one_line.num_sets, one_line.ways) == (1, 1)

    def test_negative_access_latency_rejected(self):
        # No load's latency may exceed the memory round trip, which the
        # trace loop's non-speculative verification relies on.
        with pytest.raises(ValueError, match="negative access latency"):
            CacheConfig("bad", 64, 1, access_cycles=-1)
        assert CacheConfig("free", 64, 1, access_cycles=0).access_cycles == 0


class TestSecPBConfig:
    def test_defaults_match_table1(self):
        secpb = SecPBConfig()
        assert secpb.entries == 32
        assert secpb.access_cycles == 2
        assert secpb.high_watermark == 0.75

    def test_watermark_entries(self):
        secpb = SecPBConfig(entries=32)
        assert secpb.high_watermark_entries == 24
        assert secpb.low_watermark_entries == 12

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            SecPBConfig(entries=0)

    def test_rejects_inverted_watermarks(self):
        with pytest.raises(ValueError):
            SecPBConfig(high_watermark=0.5, low_watermark=0.6)

    def test_rejects_out_of_range_high_watermark(self):
        with pytest.raises(ValueError):
            SecPBConfig(high_watermark=1.5)

    @pytest.mark.parametrize("entries", SECPB_SIZE_SWEEP)
    def test_sweep_sizes_are_valid(self, entries):
        secpb = SecPBConfig(entries=entries)
        assert 0 < secpb.low_watermark_entries < secpb.high_watermark_entries <= entries


class TestSecurityConfig:
    def test_defaults_match_table1(self):
        sec = SecurityConfig()
        assert sec.bmt_levels == 8
        assert sec.mac_latency_cycles == 40
        assert sec.bmt_update_cycles == 320

    def test_bmt_update_cycles_scale_with_height(self):
        assert SecurityConfig(bmt_levels=2).bmt_update_cycles == 80
        assert SecurityConfig(bmt_levels=5).bmt_update_cycles == 200

    def test_no_forest_by_default(self):
        sec = SecurityConfig()
        assert sec.bmf_cut is None
        assert sec.bmf_root_cache_bytes == 4096

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"bmt_levels": 0}, "at least one level"),
            ({"bmt_levels": -2}, "at least one level"),
            ({"mac_latency_cycles": -40}, "mac_latency_cycles"),
            ({"mac_latency_cycles": math.inf}, "mac_latency_cycles"),
            ({"mac_latency_cycles": math.nan}, "mac_latency_cycles"),
            ({"aes_latency_cycles": -1}, "aes_latency_cycles"),
            ({"aes_latency_cycles": math.inf}, "aes_latency_cycles"),
            ({"bmf_cut": 0}, "BMF cut"),
            ({"bmf_cut": 9}, "BMF cut"),
            ({"bmt_levels": 2, "bmf_cut": 5}, "BMF cut"),
            ({"bmf_root_cache_bytes": 31}, "root digest"),
            ({"bmf_root_cache_bytes": 0}, "root digest"),
        ],
    )
    def test_no_machine_has_it(self, fields, match):
        with pytest.raises(ValueError, match=match):
            SecurityConfig(**fields)

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"bmt_levels": 2},
            {"bmt_levels": 5},
            {"bmt_levels": 1, "bmf_cut": 1},
            {"bmf_cut": 2},
            {"bmf_cut": 5},
            {"bmf_cut": 8},
            {"bmf_cut": 5, "bmf_root_cache_bytes": 1024},
            {"bmf_root_cache_bytes": 32},
            {"mac_latency_cycles": 0, "aes_latency_cycles": 0},
        ],
    )
    def test_values_in_use_accepted(self, fields):
        sec = SecurityConfig(**fields)
        assert all(getattr(sec, name) == value for name, value in fields.items())


class TestSystemConfig:
    def test_ns_to_cycles_at_4ghz(self):
        cfg = SystemConfig()
        assert cfg.ns_to_cycles(55.0) == 220
        assert cfg.ns_to_cycles(150.0) == 600

    def test_nvm_latencies(self):
        cfg = SystemConfig()
        assert cfg.nvm_read_cycles == 220
        assert cfg.nvm_write_cycles == 600

    def test_memory_round_trip_includes_all_levels(self):
        cfg = SystemConfig()
        assert cfg.memory_round_trip_cycles == 2 + 20 + 30 + 220

    def test_with_secpb_entries_returns_new_config(self):
        cfg = SystemConfig()
        bigger = cfg.with_secpb_entries(512)
        assert bigger.secpb.entries == 512
        assert cfg.secpb.entries == 32  # original unchanged
        assert bigger.l1 == cfg.l1

    def test_with_bmf_cut_returns_new_config(self):
        cfg = SystemConfig()
        dbmf = cfg.with_bmf_cut(2)
        assert (dbmf.security.bmf_cut, dbmf.security.bmf_root_cache_bytes) == (2, 4096)
        assert dbmf.security.bmt_levels == 8
        assert cfg.security.bmf_cut is None  # original unchanged
        assert cfg.with_bmf_cut(5, 1024).security.bmf_root_cache_bytes == 1024
        with pytest.raises(ValueError, match="BMF cut"):
            cfg.with_bmf_cut(9)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"clock_ghz": 0.0}, "clock_ghz"),
            ({"clock_ghz": -1.0}, "clock_ghz"),
            ({"clock_ghz": math.inf}, "clock_ghz"),
            ({"clock_ghz": math.nan}, "clock_ghz"),
            ({"store_buffer_entries": 0}, "store buffer"),
            ({"store_buffer_entries": -4}, "store buffer"),
        ],
    )
    def test_no_machine_has_it(self, fields, match):
        with pytest.raises(ValueError, match=match):
            SystemConfig(**fields)

    @pytest.mark.parametrize(
        "fields",
        [{"clock_ghz": 3.0}, {"clock_ghz": 4.0}, {"store_buffer_entries": 1}]
        + [{"store_buffer_entries": depth} for depth in (8, 16, 32, 64, 128)],
    )
    def test_values_in_use_accepted(self, fields):
        config = SystemConfig(**fields)
        assert all(getattr(config, name) == value for name, value in fields.items())

    def test_config_is_frozen(self):
        cfg = SystemConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.clock_ghz = 3.0

    def test_nvm_defaults(self):
        nvm = NVMConfig()
        assert nvm.read_ns == 55.0
        assert nvm.write_ns == 150.0
        assert nvm.write_queue_entries == 128

    @pytest.mark.parametrize("latency", [{"read_ns": -1.0}, {"write_ns": -0.5}])
    def test_negative_nvm_latency_rejected(self, latency):
        with pytest.raises(ValueError, match="non-negative"):
            NVMConfig(**latency)

    def test_block_size_constant(self):
        assert CACHE_BLOCK_BYTES == 64
