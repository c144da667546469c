"""The snapshot codec rejects everything that is not exactly right."""

import json
import pickle

import numpy as np
import pytest

from repro.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotCodec,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotVersionError,
    restore_scenario,
)


@pytest.fixture
def artifact():
    return SnapshotCodec().encode({"answer": 42}, metadata={"kind": "test"})


def test_round_trip(artifact):
    payload, header = SnapshotCodec().decode(artifact)
    assert payload == {"answer": 42}
    assert header["version"] == SNAPSHOT_VERSION
    assert header["metadata"] == {"kind": "test"}


def test_header_readable_without_payload_decode(artifact):
    header = SnapshotCodec().read_header(artifact)
    assert header["payload_bytes"] > 0
    assert len(header["payload_sha256"]) == 64


def test_rejects_non_snapshot_bytes():
    with pytest.raises(SnapshotFormatError, match="bad magic"):
        SnapshotCodec().decode(b"definitely not a snapshot")


def test_rejects_wrong_type():
    with pytest.raises(SnapshotFormatError, match="must be bytes"):
        SnapshotCodec().decode("a string")


@pytest.mark.parametrize("keep", [3, len(SNAPSHOT_MAGIC) + 2, 40])
def test_rejects_truncation(artifact, keep):
    with pytest.raises(SnapshotFormatError):
        SnapshotCodec().decode(artifact[:keep])


def test_rejects_truncated_payload(artifact):
    with pytest.raises(SnapshotFormatError, match="truncated"):
        SnapshotCodec().decode(artifact[:-1])


def _header_bounds(blob):
    offset = len(SNAPSHOT_MAGIC)
    header_len = int.from_bytes(blob[offset : offset + 4], "big")
    return offset + 4, offset + 4 + header_len


def _rewrite_header(blob, mutate):
    start, end = _header_bounds(blob)
    header = json.loads(blob[start:end])
    mutate(header)
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return (
        SNAPSHOT_MAGIC
        + len(new_header).to_bytes(4, "big")
        + new_header
        + blob[end:]
    )


def test_rejects_unknown_version_loudly(artifact):
    tampered = _rewrite_header(
        artifact, lambda h: h.update(version=SNAPSHOT_VERSION + 1)
    )
    with pytest.raises(SnapshotVersionError, match="not supported"):
        SnapshotCodec().decode(tampered)


def test_rejects_an_older_version_loudly(artifact):
    """An artifact of the previous format is refused, not reinterpreted."""
    tampered = _rewrite_header(
        artifact, lambda h: h.update(version=SNAPSHOT_VERSION - 1)
    )
    with pytest.raises(SnapshotVersionError, match="not supported"):
        SnapshotCodec().decode(tampered)


def test_rejects_missing_header_field(artifact):
    tampered = _rewrite_header(artifact, lambda h: h.pop("payload_sha256"))
    with pytest.raises(SnapshotFormatError, match="missing"):
        SnapshotCodec().decode(tampered)


def test_rejects_tampered_payload(artifact):
    start, end = _header_bounds(artifact)
    body = bytearray(artifact)
    body[-1] ^= 0xFF
    with pytest.raises(SnapshotIntegrityError, match="hash mismatch"):
        SnapshotCodec().decode(bytes(body))


def test_rejects_tampered_hash(artifact):
    tampered = _rewrite_header(
        artifact, lambda h: h.update(payload_sha256="0" * 64)
    )
    with pytest.raises(SnapshotIntegrityError):
        SnapshotCodec().decode(tampered)


def test_error_hierarchy():
    for error in (SnapshotFormatError, SnapshotVersionError, SnapshotIntegrityError):
        assert issubclass(error, SnapshotError)


def test_tampered_hash_does_not_reach_pickle(artifact, monkeypatch):
    """Integrity is checked before unpickling, not after."""
    import pickle

    def boom(*_args, **_kwargs):
        raise AssertionError("pickle.loads reached with a bad hash")

    monkeypatch.setattr(pickle, "loads", boom)
    tampered = _rewrite_header(
        artifact, lambda h: h.update(payload_sha256="f" * 64)
    )
    with pytest.raises(SnapshotIntegrityError):
        SnapshotCodec().decode(tampered)


def test_rejects_v1_artifacts(artifact):
    tampered = _rewrite_header(artifact, lambda h: h.update(version=1))
    with pytest.raises(SnapshotVersionError, match="not supported"):
        SnapshotCodec().decode(tampered)


def test_rejects_v2_artifacts(artifact):
    # v2 payloads carried process-global id counters next to the scenario.
    tampered = _rewrite_header(artifact, lambda h: h.update(version=2))
    with pytest.raises(SnapshotVersionError, match="not supported"):
        SnapshotCodec().decode(tampered)


def test_equal_values_encode_alike_whichever_objects_hold_them():
    """Strings and numpy dtypes are shared by value, not by identity.

    A fresh run shares interned literals and builtin dtypes that a restored
    run holds copies of, so a graph holding one object twice and a graph
    holding two equal copies must give the same bytes.
    """
    word = "beacon-jitter:car-1"
    word_copy = word[:7] + word[7:]
    dtype = np.dtype("u4")
    dtype_copy = pickle.loads(pickle.dumps(dtype))
    assert word_copy is not word and dtype_copy is not dtype
    shared = [word, word, np.zeros(2, dtype), np.zeros(2, dtype)]
    copied = [word, word_copy, np.zeros(2, dtype), np.zeros(2, dtype_copy)]
    assert pickle.dumps(copied, protocol=4) != pickle.dumps(shared, protocol=4)
    assert SnapshotCodec().encode(copied) == SnapshotCodec().encode(shared)


@pytest.mark.parametrize(
    "payload",
    [
        {"answer": 42},
        {"scenario": None, "counters": {}},
        ("scenario", "counters", {}),
        ("scenario", {"radio.frame_ids": 0}),
    ],
    ids=["dict", "v1-wrapper", "triple", "v2-pair"],
)
def test_restore_rejects_a_payload_that_is_not_a_scenario(payload):
    blob = SnapshotCodec().encode(payload)
    with pytest.raises(ValueError, match="not a scenario snapshot"):
        restore_scenario(blob)
