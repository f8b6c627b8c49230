"""Tests for repro.core.coherence — multi-SecPB directory and migration."""

import pytest

from repro.core.coherence import CoherenceError, SecPBDirectory
from repro.core.schemes import COBCM, NOGAP, MetadataStep
from repro.core.secpb import SecPB
from repro.sim.config import SecPBConfig


def make_directory(cores=2, scheme=NOGAP, entries=8):
    secpbs = [SecPB(SecPBConfig(entries=entries), scheme) for _ in range(cores)]
    return SecPBDirectory(secpbs, scheme)


class TestOwnership:
    def test_local_write_claims_ownership(self):
        directory = make_directory()
        directory.local_write(0, 0x10, b"a" * 64)
        assert directory.owner_of(0x10) == 0
        directory.check_no_replication()

    def test_no_owner_initially(self):
        assert make_directory().owner_of(0x10) is None

    def test_empty_directory_rejected(self):
        with pytest.raises(ValueError):
            SecPBDirectory([], NOGAP)

    def test_invalid_core_rejected(self):
        directory = make_directory(cores=2)
        with pytest.raises(IndexError):
            directory.local_write(5, 0x10)


class TestRemoteWrite:
    def test_write_migrates_entry(self):
        """Sec. IV-C: a remote write migrates the entry; no replication."""
        directory = make_directory()
        directory.local_write(0, 0x10, b"a" * 64)
        directory.local_write(1, 0x10, b"b" * 64)
        assert directory.owner_of(0x10) == 1
        assert directory.secpbs[0].lookup(0x10) is None
        entry = directory.secpbs[1].lookup(0x10)
        assert entry.plaintext == b"b" * 64
        directory.check_no_replication()

    def test_migration_preserves_value_independent_metadata(self):
        """The requesting core does not redo counter/OTP/BMT (Sec. IV-C-c)."""
        directory = make_directory(scheme=NOGAP)
        entry = directory.local_write(0, 0x10, b"a" * 64)
        for step in MetadataStep:
            entry.mark(step)
        report = directory.migrate(0x10, to_core=1)
        migrated = directory.secpbs[1].lookup(0x10)
        assert migrated.is_marked(MetadataStep.COUNTER)
        assert migrated.is_marked(MetadataStep.OTP)
        assert migrated.is_marked(MetadataStep.BMT_ROOT)
        assert not migrated.is_marked(MetadataStep.CIPHERTEXT)
        assert not migrated.is_marked(MetadataStep.MAC)
        assert not report.value_independent_recomputed
        assert report.value_dependent_recomputed  # NoGap is eager on Dc/M

    def test_lazy_scheme_migration_needs_no_recompute(self):
        directory = make_directory(scheme=COBCM)
        directory.local_write(0, 0x10, b"a" * 64)
        report = directory.migrate(0x10, to_core=1)
        assert not report.value_dependent_recomputed

    def test_migrate_unowned_block_rejected(self):
        with pytest.raises(CoherenceError, match="no SecPB owns"):
            make_directory().migrate(0x10, to_core=1)

    def test_migrate_to_current_owner_rejected(self):
        directory = make_directory()
        directory.local_write(0, 0x10)
        with pytest.raises(CoherenceError, match="already owned"):
            directory.migrate(0x10, to_core=0)

    def test_migration_into_full_secpb_drains_first(self):
        directory = make_directory(entries=2)
        directory.local_write(0, 0x10, b"a" * 64)
        directory.local_write(1, 0x20)
        directory.local_write(1, 0x30)
        directory.migrate(0x10, to_core=1)
        assert directory.secpbs[1].occupancy == 2
        assert directory.stats.get("coherence.migration_drains") == 1

    def test_migration_accumulates_write_counts(self):
        directory = make_directory()
        directory.local_write(0, 0x10, b"a" * 64)
        directory.local_write(0, 0x10, b"b" * 64)
        directory.local_write(1, 0x10, b"c" * 64)
        entry = directory.secpbs[1].lookup(0x10)
        assert entry.writes == 3


class TestRemoteRead:
    def test_read_flushes_owner_entry(self):
        """Sec. IV-C: a remote read flushes the entry to PM and forwards
        the data; the block leaves the SecPB domain."""
        directory = make_directory()
        directory.local_write(0, 0x10, b"z" * 64)
        data = directory.remote_read(1, 0x10)
        assert data == b"z" * 64
        assert directory.owner_of(0x10) is None
        assert directory.secpbs[0].lookup(0x10) is None
        assert directory.stats.get("coherence.read_flushes") == 1

    def test_read_of_unowned_block_is_noop(self):
        directory = make_directory()
        assert directory.remote_read(1, 0x10) is None

    def test_owner_reading_own_block_is_noop(self):
        directory = make_directory()
        directory.local_write(0, 0x10, b"z" * 64)
        assert directory.remote_read(0, 0x10) is None
        assert directory.owner_of(0x10) == 0


class TestReplicationAudit:
    def test_audit_detects_manual_replication(self):
        directory = make_directory()
        directory.secpbs[0].write(0x10)
        directory.secpbs[1].write(0x10)
        with pytest.raises(CoherenceError, match="replicated"):
            directory.check_no_replication()

    def test_stress_many_writers_no_replication(self):
        directory = make_directory(cores=4, entries=16)
        import random

        rng = random.Random(42)
        for _ in range(300):
            core = rng.randrange(4)
            addr = rng.randrange(40)
            if rng.random() < 0.2:
                directory.remote_read(core, addr)
            else:
                directory.local_write(core, addr, bytes([addr]) * 64)
        directory.check_no_replication()
