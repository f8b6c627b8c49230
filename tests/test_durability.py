"""Unit tests for repro.durability — the crash-safe harness layer.

The package applies the paper's own write-ahead / atomic-update
discipline to the harness: artifacts land atomically with SHA-256
sidecar manifests, journals are valid prefixes under any kill, stale
journals are rejected by fingerprint, and interruption is a cooperative
checkpoint (exit 75) rather than data loss.
"""

import json
import os
import signal

import pytest

from repro.durability import (
    EXIT_RESUMABLE,
    ArtifactError,
    ArtifactStatus,
    DeadlineToken,
    JournalError,
    JournalWriter,
    RunInterrupted,
    StaleJournalError,
    StopToken,
    atomic_write_text,
    decode_key,
    encode_key,
    fingerprint,
    graceful_shutdown,
    manifest_path,
    open_journal,
    quarantine_artifact,
    read_journal,
    read_verified,
    verify_artifact,
    write_artifact,
)
from repro.envfault import FaultPlan, FaultSpec, injected


class TestAtomicWrites:
    def test_write_and_read_back(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrite_replaces_whole_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "a much longer first version\n")
        atomic_write_text(path, "v2\n")
        assert path.read_text() == "v2\n"

    def test_no_temp_file_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "data")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestArtifacts:
    def test_write_artifact_creates_manifest(self, tmp_path):
        path = tmp_path / "report.json"
        write_artifact(path, '{"x": 1}\n')
        sidecar = manifest_path(path)
        assert sidecar.name == "report.json.sha256"
        manifest = json.loads(sidecar.read_text())
        assert manifest["algorithm"] == "sha256"
        assert manifest["size"] == len(b'{"x": 1}\n')

    def test_verify_ok(self, tmp_path):
        path = tmp_path / "report.json"
        write_artifact(path, "payload")
        assert verify_artifact(path) is ArtifactStatus.OK

    def test_verify_missing(self, tmp_path):
        assert verify_artifact(tmp_path / "never.json") is ArtifactStatus.MISSING

    def test_verify_unmanifested(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text("{}")
        assert verify_artifact(path) is ArtifactStatus.UNMANIFESTED

    def test_verify_truncation(self, tmp_path):
        path = tmp_path / "report.json"
        write_artifact(path, "a complete artifact body")
        with open(path, "r+b") as handle:
            handle.truncate(5)
        assert verify_artifact(path) is ArtifactStatus.MISMATCH

    def test_verify_bit_flip(self, tmp_path):
        path = tmp_path / "report.json"
        write_artifact(path, "a complete artifact body")
        raw = bytearray(path.read_bytes())
        raw[3] ^= 0x40
        path.write_bytes(bytes(raw))
        assert verify_artifact(path) is ArtifactStatus.MISMATCH

    def test_verify_corrupt_manifest(self, tmp_path):
        path = tmp_path / "report.json"
        write_artifact(path, "body")
        manifest_path(path).write_text("not json at all")
        assert verify_artifact(path) is ArtifactStatus.MISMATCH

    def test_read_verified_roundtrip(self, tmp_path):
        path = tmp_path / "report.json"
        write_artifact(path, b"\x00\x01binary ok")
        assert read_verified(path) == b"\x00\x01binary ok"

    def test_read_verified_rejects_truncation(self, tmp_path):
        path = tmp_path / "report.json"
        write_artifact(path, "full body")
        with open(path, "r+b") as handle:
            handle.truncate(2)
        with pytest.raises(ArtifactError) as excinfo:
            read_verified(path)
        assert excinfo.value.status is ArtifactStatus.MISMATCH

    def test_quarantine_frees_path_keeps_evidence(self, tmp_path):
        path = tmp_path / "report.json"
        write_artifact(path, "suspect bytes")
        moved = quarantine_artifact(path)
        assert not path.exists()
        assert not manifest_path(path).exists()
        assert moved.name == "report.json.quarantined"
        assert moved.read_text() == "suspect bytes"
        assert (tmp_path / "report.json.sha256.quarantined").is_file()

    def test_quarantine_dir_fsync_is_an_artifact_dir_fsync(self, tmp_path):
        # One path per seam: the quarantine's directory fsync is the
        # injection site every artifact write's directory fsync is.
        path = tmp_path / "report.json"
        write_artifact(path, "suspect bytes")
        plan = FaultPlan(
            seed=0,
            specs=(FaultSpec(op="artifact.dir_fsync", index=0, kind="fsync_drop"),),
        )
        with injected(plan) as context:
            quarantine_artifact(path)
        assert [(f.op, f.occurrence) for f in context.fired] == [
            ("artifact.dir_fsync", 0)
        ]


class TestFingerprint:
    def test_stable_across_key_order(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_key_roundtrip(self):
        key = ("table4", "gamess", 32, ("nested", 1))
        assert decode_key(encode_key(key)) == key
        json.dumps(encode_key(key))  # must be JSON-clean

    def test_scalar_keys_pass_through(self):
        assert encode_key("plain") == "plain"
        assert decode_key("plain") == "plain"


class TestJournal:
    SPEC = {"experiment": "t", "num_ops": 100}

    def _write(self, path, entries):
        with JournalWriter.create(path, "test", self.SPEC) as writer:
            for key, payload in entries:
                writer.append(key, payload)

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [(("a", 1), {"v": 1}), (("b", 2), {"v": 2})])
        journal = read_journal(path)
        assert journal.kind == "test"
        assert journal.spec == self.SPEC
        assert journal.entries == {("a", 1): {"v": 1}, ("b", 2): {"v": 2}}
        assert not journal.dropped_tail

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [(("a",), {"v": 1})])
        with open(path, "a") as handle:
            handle.write('{"key": ["b"], "payl')  # no newline: crash tail
        journal = read_journal(path)
        assert journal.entries == {("a",): {"v": 1}}
        assert journal.dropped_tail

    def test_mid_file_corruption_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [(("a",), {"v": 1}), (("b",), {"v": 2})])
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # corrupt a non-tail entry
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt entry at line 2"):
            read_journal(path)

    def test_mid_file_corruption_is_stale_not_plain(self, tmp_path):
        # A corrupt record *followed by* valid records is mid-file damage:
        # truncating there would silently drop the later records, so the
        # reader must refuse with the stale (non-resumable) subclass.
        path = tmp_path / "j.jsonl"
        self._write(path, [(("a",), {"v": 1}), (("b",), {"v": 2})])
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StaleJournalError, match="followed by later"):
            read_journal(path)

    def test_corrupt_final_record_is_plain_journal_error(self, tmp_path):
        # Damage on the *last* complete line has nothing after it to
        # lose — that is an ordinary corrupt entry, not staleness.
        path = tmp_path / "j.jsonl"
        self._write(path, [(("a",), {"v": 1}), (("b",), {"v": 2})])
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError) as excinfo:
            read_journal(path)
        assert not isinstance(excinfo.value, StaleJournalError)
        assert "corrupt entry at line 3" in str(excinfo.value)

    def test_blank_line_mid_file_is_stale(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [(("a",), {"v": 1}), (("b",), {"v": 2})])
        lines = path.read_text().splitlines()
        lines[1] = ""  # zeroed-out record followed by a valid one
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StaleJournalError, match="blank line 2"):
            read_journal(path)

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [(("a",), {"v": 1})])
        with open(path, "a") as handle:
            handle.write("\n\n")
        journal = read_journal(path)
        assert journal.entries == {("a",): {"v": 1}}

    def test_missing_file(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            read_journal(tmp_path / "nope.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
            read_journal(path)

    def test_edited_header_fingerprint_detected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [])
        header = json.loads(path.read_text().splitlines()[0])
        header["spec"]["num_ops"] = 999  # edit spec, keep old fingerprint
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(JournalError, match="does not match"):
            read_journal(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [])
        header = json.loads(path.read_text().splitlines()[0])
        header["journal_version"] = 99
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(JournalError, match="version"):
            read_journal(path)

    def test_append_to_continues(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [(("a",), {"v": 1})])
        with JournalWriter.append_to(path) as writer:
            writer.append(("b",), {"v": 2})
        assert len(read_journal(path).entries) == 2

    def test_append_to_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [(("a",), {"v": 1})])
        with open(path, "a") as handle:
            handle.write('{"torn')
        with JournalWriter.append_to(path) as writer:
            writer.append(("b",), {"v": 2})
        journal = read_journal(path)
        assert journal.entries == {("a",): {"v": 1}, ("b",): {"v": 2}}
        assert not journal.dropped_tail

    def test_append_after_close_rejected(self, tmp_path):
        writer = JournalWriter.create(tmp_path / "j.jsonl", "test", self.SPEC)
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(JournalError, match="closed"):
            writer.append(("a",), {})

    def test_last_write_wins_on_duplicate_key(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [(("a",), {"v": 1}), (("a",), {"v": 2})])
        assert read_journal(path).entries == {("a",): {"v": 2}}


class TestOpenJournal:
    SPEC = {"campaign": "x", "seed": 7}

    def test_fresh_journal_created(self, tmp_path):
        path = tmp_path / "j.jsonl"
        writer, completed = open_journal(path, "k", self.SPEC)
        writer.close()
        assert completed == {}
        assert read_journal(path).fingerprint == fingerprint(self.SPEC)

    def test_resume_returns_completed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JournalWriter.create(path, "k", self.SPEC) as writer:
            writer.append(("a",), {"v": 1})
        writer, completed = open_journal(path, "k", self.SPEC)
        writer.close()
        assert completed == {("a",): {"v": 1}}

    def test_wrong_kind_is_stale(self, tmp_path):
        path = tmp_path / "j.jsonl"
        JournalWriter.create(path, "campaign", self.SPEC).close()
        with pytest.raises(StaleJournalError, match="'campaign'"):
            open_journal(path, "experiment", self.SPEC)

    def test_different_spec_is_stale(self, tmp_path):
        path = tmp_path / "j.jsonl"
        JournalWriter.create(path, "k", self.SPEC).close()
        with pytest.raises(StaleJournalError, match="different spec"):
            open_journal(path, "k", {"campaign": "x", "seed": 8})

    def test_fresh_start_truncates_without_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JournalWriter.create(path, "campaign", self.SPEC) as writer:
            writer.append(("a",), {"v": 1})
        other = {"campaign": "x", "seed": 8}
        writer, completed = open_journal(path, "k", other, resume=False)
        writer.close()
        assert completed == {}
        journal = read_journal(path)
        assert (journal.kind, journal.entries) == ("k", {})
        assert journal.fingerprint == fingerprint(other)


class TestInterrupt:
    def test_exit_code_is_ex_tempfail(self):
        assert EXIT_RESUMABLE == 75

    def test_stop_token_latches_first_reason(self):
        token = StopToken()
        assert not token.check()
        token.trip("first")
        token.trip("second")
        assert token.triggered
        assert token.reason == "first"

    def test_deadline_token_trips_after_budget(self):
        token = DeadlineToken(0.0)
        assert token.check()
        assert "deadline" in token.reason

    def test_deadline_token_not_yet(self):
        token = DeadlineToken(3600.0)
        assert not token.check()

    def test_run_interrupted_carries_completed(self):
        exc = RunInterrupted("why", {("a",): 1})
        assert exc.reason == "why"
        assert exc.completed == {("a",): 1}

    def test_graceful_shutdown_routes_sigterm(self):
        token = StopToken()
        with graceful_shutdown(token):
            os.kill(os.getpid(), signal.SIGTERM)
            assert token.triggered
            assert token.reason == "received SIGTERM"

    def test_graceful_shutdown_restores_handlers(self):
        before = signal.getsignal(signal.SIGTERM)
        with graceful_shutdown(StopToken()):
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before
