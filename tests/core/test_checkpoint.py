"""Tests for repro.core.checkpoint: the crash-consistent snapshot format."""

from __future__ import annotations

import os
import struct

import pytest

from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointSpec,
    checkpoint_path,
    config_fingerprint,
    deserialize_payload,
    list_checkpoints,
    load_latest_checkpoint,
    prune_checkpoints,
    read_checkpoint,
    serialize_payload,
    write_checkpoint,
)


PAYLOAD = {"step": 7, "history": [1.0, 2.0, 3.0], "nested": {"a": (1, 2)}}


class TestPayloadCodec:
    def test_round_trip(self):
        assert deserialize_payload(serialize_payload(PAYLOAD)) == PAYLOAD

    def test_truncated_header_is_rejected(self):
        with pytest.raises(CheckpointError, match="truncated"):
            deserialize_payload(b"RPRO")

    def test_bad_magic_is_rejected(self):
        data = bytearray(serialize_payload(PAYLOAD))
        data[:8] = b"NOTCKPT!"
        with pytest.raises(CheckpointError, match="bad magic"):
            deserialize_payload(bytes(data))

    def test_newer_version_is_rejected_with_upgrade_hint(self):
        data = bytearray(serialize_payload(PAYLOAD))
        struct.pack_into(">H", data, 8, CHECKPOINT_VERSION + 1)
        with pytest.raises(CheckpointError, match="newer than this build"):
            deserialize_payload(bytes(data))

    @pytest.mark.parametrize("version", [0, 1])
    def test_older_version_is_refused_by_name(self, version):
        # The payload is never unpickled: an older layout may pickle
        # classes this build no longer has.
        assert CHECKPOINT_VERSION == 2
        data = bytearray(serialize_payload(PAYLOAD))
        struct.pack_into(">H", data, 8, version)
        with pytest.raises(CheckpointError, match=f"format v{version} is older"):
            deserialize_payload(bytes(data))

    def test_torn_payload_is_rejected(self):
        data = serialize_payload(PAYLOAD)
        with pytest.raises(CheckpointError, match="torn checkpoint"):
            deserialize_payload(data[: len(data) - 5])

    def test_flipped_payload_byte_fails_the_digest(self):
        data = bytearray(serialize_payload(PAYLOAD))
        data[-1] ^= 0xFF
        with pytest.raises(CheckpointError, match="digest mismatch"):
            deserialize_payload(bytes(data))


class TestWriteRead:
    def test_write_then_read(self, tmp_path):
        path = write_checkpoint(tmp_path / "run.step00000007.ckpt", PAYLOAD)
        assert read_checkpoint(path) == PAYLOAD

    def test_write_creates_missing_directories(self, tmp_path):
        path = write_checkpoint(tmp_path / "deep" / "er" / "x.ckpt", PAYLOAD)
        assert path.exists()

    def test_no_temp_file_remains_after_write(self, tmp_path):
        write_checkpoint(tmp_path / "run.ckpt", PAYLOAD)
        assert [entry.name for entry in tmp_path.iterdir()] == ["run.ckpt"]

    def test_failed_write_leaves_the_old_file_intact(self, tmp_path):
        target = tmp_path / "run.ckpt"
        write_checkpoint(target, PAYLOAD)
        with pytest.raises(Exception):
            # A lambda cannot be pickled: serialization fails before any
            # bytes are written, and the landed checkpoint must survive.
            write_checkpoint(target, {"step": 8, "bad": lambda: None})
        assert read_checkpoint(target) == PAYLOAD
        assert [entry.name for entry in tmp_path.iterdir()] == ["run.ckpt"]

    def test_reading_a_missing_file_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "absent.ckpt")


class TestDirectoryLayout:
    def test_checkpoint_path_is_step_numbered(self, tmp_path):
        path = checkpoint_path(tmp_path, "trial-0003", 42)
        assert path.name == "trial-0003.step00000042.ckpt"

    def test_list_checkpoints_newest_first_per_stem(self, tmp_path):
        for step in (3, 9, 6):
            write_checkpoint(checkpoint_path(tmp_path, "a", step), {"step": step})
        write_checkpoint(checkpoint_path(tmp_path, "b", 99), {"step": 99})
        assert [step for step, _ in list_checkpoints(tmp_path, "a")] == [9, 6, 3]

    def test_list_checkpoints_on_missing_directory_is_empty(self, tmp_path):
        assert list_checkpoints(tmp_path / "nowhere", "a") == []

    def test_prune_keeps_the_newest(self, tmp_path):
        for step in range(1, 6):
            write_checkpoint(checkpoint_path(tmp_path, "a", step), {"step": step})
        prune_checkpoints(tmp_path, "a", keep=2)
        assert [step for step, _ in list_checkpoints(tmp_path, "a")] == [5, 4]

    def test_prune_keep_zero_removes_everything(self, tmp_path):
        write_checkpoint(checkpoint_path(tmp_path, "a", 1), {"step": 1})
        prune_checkpoints(tmp_path, "a", keep=0)
        assert list_checkpoints(tmp_path, "a") == []


class TestLoadLatest:
    def test_returns_none_when_nothing_exists(self, tmp_path):
        assert load_latest_checkpoint(tmp_path, "a") is None

    def test_returns_the_newest_payload(self, tmp_path):
        for step in (2, 4):
            write_checkpoint(checkpoint_path(tmp_path, "a", step), {"step": step})
        assert load_latest_checkpoint(tmp_path, "a")["step"] == 4

    def test_corrupt_newest_falls_back_with_a_warning(self, tmp_path):
        write_checkpoint(checkpoint_path(tmp_path, "a", 2), {"step": 2})
        newest = write_checkpoint(checkpoint_path(tmp_path, "a", 4), {"step": 4})
        with open(newest, "r+b") as handle:
            handle.truncate(os.path.getsize(newest) // 2)
        with pytest.warns(RuntimeWarning, match="skipping unreadable checkpoint"):
            payload = load_latest_checkpoint(tmp_path, "a")
        assert payload["step"] == 2

    def test_fingerprint_mismatch_is_an_actionable_error(self, tmp_path):
        write_checkpoint(
            checkpoint_path(tmp_path, "a", 2), {"step": 2, "fingerprint": "aaaa"}
        )
        with pytest.raises(CheckpointError, match="different\\s+configuration"):
            load_latest_checkpoint(tmp_path, "a", expected_fingerprint="bbbb")

    def test_matching_fingerprint_loads(self, tmp_path):
        write_checkpoint(
            checkpoint_path(tmp_path, "a", 2), {"step": 2, "fingerprint": "aaaa"}
        )
        payload = load_latest_checkpoint(tmp_path, "a", expected_fingerprint="aaaa")
        assert payload["step"] == 2


class TestConfigFingerprint:
    def test_is_deterministic(self):
        assert config_fingerprint(1, "x", (2, 3)) == config_fingerprint(1, "x", (2, 3))

    def test_distinguishes_parts(self):
        assert config_fingerprint(1, "x") != config_fingerprint(1, "y")
        assert config_fingerprint("12") != config_fingerprint(12)


class TestCheckpointSpec:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            CheckpointSpec(directory=str(tmp_path), stem="a", every=0)
        with pytest.raises(ValueError, match="keep"):
            CheckpointSpec(directory=str(tmp_path), stem="a", every=1, keep=0)
        with pytest.raises(ValueError, match="stem"):
            CheckpointSpec(directory=str(tmp_path), stem="", every=1)

    def test_due_at_every_boundary_only(self, tmp_path):
        spec = CheckpointSpec(directory=str(tmp_path), stem="a", every=3)
        assert [k for k in range(10) if spec.due(k)] == [3, 6, 9]

    def test_write_stamps_fingerprint_and_prunes(self, tmp_path):
        spec = CheckpointSpec(
            directory=str(tmp_path), stem="a", every=1, fingerprint="ff00", keep=2
        )
        for step in range(1, 5):
            spec.write({"step": step})
        steps = [step for step, _ in list_checkpoints(tmp_path, "a")]
        assert steps == [4, 3]
        assert spec.load_latest() == {"step": 4, "fingerprint": "ff00"}
