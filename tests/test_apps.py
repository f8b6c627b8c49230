"""Tests for repro.apps — persistent data structures with crash recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.hashmap import PersistentHashMap
from repro.apps.log import PersistentLog
from repro.apps.queue import PersistentQueue
from repro.core.crash import SecurePersistentSystem
from repro.core.schemes import get_scheme


class TestPersistentLog:
    def test_append_and_iterate(self):
        log = PersistentLog()
        log.append(b"alpha")
        log.append(b"bravo" * 20)  # spans blocks
        assert len(log) == 2
        assert list(log.records()) == [b"alpha", b"bravo" * 20]

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            PersistentLog().append(b"")

    def test_full_log_rejected(self):
        log = PersistentLog(capacity_blocks=1)
        log.append(b"x" * 50)
        with pytest.raises(ValueError, match="full"):
            log.append(b"y" * 50)

    def test_crash_recovery_roundtrip(self):
        log = PersistentLog()
        payloads = [f"record-{i}".encode() * (i % 3 + 1) for i in range(30)]
        for payload in payloads:
            log.append(payload)
        log.crash()
        recovered = PersistentLog.recover(log.system)
        assert recovered == payloads

    def test_recovery_detects_tampering(self):
        log = PersistentLog()
        log.append(b"genuine")
        log.crash()
        log.system.memory.tamper_data(log.data_base, b"\xff" * 64)
        with pytest.raises(RuntimeError, match="unrecoverable"):
            PersistentLog.recover(log.system)

    def test_empty_log_recovers_empty(self):
        log = PersistentLog()
        log.crash()
        assert PersistentLog.recover(log.system) == []

    @pytest.mark.parametrize("scheme_name", ["nogap", "bcm", "cobcm"])
    def test_recovery_under_multiple_schemes(self, scheme_name):
        log = PersistentLog(scheme=get_scheme(scheme_name))
        for i in range(10):
            log.append(bytes([i + 1]) * 10)
        log.crash()
        assert len(PersistentLog.recover(log.system)) == 10


class TestPersistentHashMap:
    def test_put_get_delete(self):
        table = PersistentHashMap(buckets=16)
        table.put(b"k1", b"v1")
        table.put(b"k2", b"v2")
        assert table.get(b"k1") == b"v1"
        assert len(table) == 2
        assert table.delete(b"k1")
        assert table.get(b"k1") is None
        assert not table.delete(b"k1")
        assert len(table) == 1

    def test_update_in_place(self):
        table = PersistentHashMap(buckets=8)
        table.put(b"k", b"v1")
        table.put(b"k", b"v2")
        assert table.get(b"k") == b"v2"
        assert len(table) == 1

    def test_collisions_probe_linearly(self):
        table = PersistentHashMap(buckets=4)
        for i in range(4):
            table.put(bytes([i + 1]), bytes([i + 65]))
        for i in range(4):
            assert table.get(bytes([i + 1])) == bytes([i + 65])

    def test_full_table_raises(self):
        table = PersistentHashMap(buckets=2)
        table.put(b"a", b"1")
        table.put(b"b", b"2")
        with pytest.raises(ValueError, match="full"):
            table.put(b"c", b"3")

    def test_tombstone_slots_reused(self):
        table = PersistentHashMap(buckets=2)
        table.put(b"a", b"1")
        table.put(b"b", b"2")
        table.delete(b"a")
        table.put(b"c", b"3")  # reuses the tombstone
        assert table.get(b"c") == b"3"
        assert table.get(b"b") == b"2"

    def test_size_limits_enforced(self):
        table = PersistentHashMap()
        with pytest.raises(ValueError):
            table.put(b"", b"v")
        with pytest.raises(ValueError):
            table.put(b"x" * 24, b"v")
        with pytest.raises(ValueError):
            table.put(b"k", b"v" * 33)

    def test_crash_recovery_roundtrip(self):
        table = PersistentHashMap(buckets=64)
        expected = {}
        for i in range(40):
            key = f"key-{i}".encode()
            value = f"value-{i}".encode()
            table.put(key, value)
            expected[key] = value
        for i in range(0, 40, 3):
            key = f"key-{i}".encode()
            table.delete(key)
            del expected[key]
        table.crash()
        assert PersistentHashMap.recover(table.system, buckets=64) == expected

    @given(
        st.lists(
            st.tuples(
                st.binary(min_size=1, max_size=8),
                st.binary(min_size=0, max_size=16),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_dict_semantics_through_crash(self, ops):
        """Property: after any put/delete sequence and a crash, recovery
        equals an in-memory dict driven by the same operations."""
        table = PersistentHashMap(buckets=128)
        model = {}
        for key, value, is_delete in ops:
            if is_delete:
                assert table.delete(key) == (key in model)
                model.pop(key, None)
            else:
                table.put(key, value)
                model[key] = value
        table.crash()
        assert PersistentHashMap.recover(table.system, buckets=128) == model


class TestPersistentQueue:
    def test_fifo_order(self):
        queue = PersistentQueue(slots=8)
        for i in range(5):
            queue.enqueue(bytes([i + 1]))
        assert [queue.dequeue() for _ in range(5)] == [
            bytes([i + 1]) for i in range(5)
        ]

    def test_wraparound(self):
        queue = PersistentQueue(slots=4)
        for i in range(4):
            queue.enqueue(bytes([i + 1]))
        queue.dequeue()
        queue.dequeue()
        queue.enqueue(b"\x05")
        queue.enqueue(b"\x06")
        assert len(queue) == 4
        assert queue.dequeue() == b"\x03"

    def test_full_and_empty_errors(self):
        queue = PersistentQueue(slots=1)
        queue.enqueue(b"x")
        with pytest.raises(ValueError, match="full"):
            queue.enqueue(b"y")
        queue.dequeue()
        with pytest.raises(IndexError, match="empty"):
            queue.dequeue()

    def test_oversize_item_rejected(self):
        with pytest.raises(ValueError):
            PersistentQueue().enqueue(b"z" * 64)

    def test_crash_recovery_reflects_acknowledged_ops(self):
        queue = PersistentQueue(slots=16)
        for i in range(10):
            queue.enqueue(bytes([i + 1]))
        for _ in range(4):
            queue.dequeue()
        queue.crash()
        head, tail, items = PersistentQueue.recover(queue.system, slots=16)
        assert (head, tail) == (4, 10)
        assert items == [bytes([i + 1]) for i in range(4, 10)]

    def test_shared_system_multiple_structures(self):
        """Log + map + queue coexisting in one persistent address space."""
        system = SecurePersistentSystem(get_scheme("cobcm"))
        log = PersistentLog(system=system, base_block=0, capacity_blocks=32)
        table = PersistentHashMap(buckets=16, system=system, base_block=64)
        queue = PersistentQueue(slots=8, system=system, base_block=128)
        log.append(b"hello")
        table.put(b"k", b"v")
        queue.enqueue(b"item")
        system.crash()
        assert PersistentLog.recover(system, base_block=0) == [b"hello"]
        assert PersistentHashMap.recover(system, buckets=16, base_block=64) == {
            b"k": b"v"
        }
        _, _, items = PersistentQueue.recover(system, slots=8, base_block=128)
        assert items == [b"item"]
