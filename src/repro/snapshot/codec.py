"""The snapshot wire format: versioned, hash-stamped, loudly validated.

A snapshot artifact has three parts::

    MAGIC (10 bytes) | header length (4 bytes, big-endian) | JSON header | payload

The header carries the format version, the payload's SHA-256 and byte
length, and free-form metadata (scenario name, virtual time, seed, ...)
readable without touching the payload.  The payload is a pickle (fixed
protocol, so the same state always serialises the same way) of the
simulation's object graph.

Every failure mode is a distinct, loud error:

* :class:`SnapshotFormatError` — not a snapshot at all, or truncated;
* :class:`SnapshotVersionError` — a snapshot from an incompatible format
  version (never silently reinterpreted);
* :class:`SnapshotIntegrityError` — the payload does not hash to the value
  stamped in the header (bit rot, truncation, tampering).
"""

from __future__ import annotations

import hashlib
import json
import pickle
from typing import Any, Dict, Optional, Tuple

#: Leading bytes of every snapshot artifact.
SNAPSHOT_MAGIC = b"REPROSNAP\x01"

#: Current format version; bumped on any incompatible layout change.
SNAPSHOT_VERSION = 4

#: Pickle protocol pinned so identical state yields identical payload bytes
#: regardless of the writing interpreter's default.
PICKLE_PROTOCOL = 4

_LENGTH_BYTES = 4


class SnapshotError(Exception):
    """Base class of every snapshot codec failure."""


class SnapshotFormatError(SnapshotError):
    """The bytes are not a snapshot artifact (bad magic, truncation, ...)."""


class SnapshotVersionError(SnapshotError):
    """The snapshot uses a format version this codec does not understand."""


class SnapshotIntegrityError(SnapshotError):
    """The payload does not match the hash stamped in the header."""


class SnapshotCodec:
    """Encodes/decodes snapshot artifacts in the versioned wire format."""

    version = SNAPSHOT_VERSION

    def encode(self, payload_obj: Any, metadata: Optional[Dict[str, Any]] = None) -> bytes:
        """Serialise ``payload_obj`` into one self-validating artifact."""
        # One canonical round.  Pickle memoises strings by identity, and a
        # freshly built graph shares string objects that a restored one
        # does not (the unpickler interns instance-__dict__ keys, so a plain
        # dict key that was the same object as an attribute name comes back
        # as a separate one).  dumps(loads(...)) maps both graphs onto the
        # restored pattern.  Every pickled class keeps that pattern stable
        # (no hash-ordered sets, setstate hooks intern like the default), so
        # one round is a fixed point: snapshot-of-restored is bit-identical
        # to the original artifact under every hash seed
        # (tests/snapshot/test_format_stability.py).
        payload = pickle.dumps(
            pickle.loads(pickle.dumps(payload_obj, protocol=PICKLE_PROTOCOL)),
            protocol=PICKLE_PROTOCOL,
        )
        header = {
            "version": self.version,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "metadata": dict(metadata or {}),
        }
        header_bytes = json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return (
            SNAPSHOT_MAGIC
            + len(header_bytes).to_bytes(_LENGTH_BYTES, "big")
            + header_bytes
            + payload
        )

    # ------------------------------------------------------------- reading

    def read_header(self, blob: bytes) -> Dict[str, Any]:
        """Parse and validate the header without deserialising the payload."""
        header, _ = self._split(blob)
        return header

    def decode(self, blob: bytes) -> Tuple[Any, Dict[str, Any]]:
        """Validate ``blob`` end to end and return ``(payload, header)``."""
        header, payload = self._split(blob)
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header["payload_sha256"]:
            raise SnapshotIntegrityError(
                "snapshot payload hash mismatch: header says "
                f"{header['payload_sha256']}, payload hashes to {digest} — "
                "the artifact is corrupt or was modified"
            )
        return pickle.loads(payload), header

    # ------------------------------------------------------------- internal

    def _split(self, blob: bytes) -> Tuple[Dict[str, Any], bytes]:
        if not isinstance(blob, (bytes, bytearray)):
            raise SnapshotFormatError(
                f"snapshot must be bytes, got {type(blob).__name__}"
            )
        blob = bytes(blob)
        if not blob.startswith(SNAPSHOT_MAGIC):
            raise SnapshotFormatError(
                "not a snapshot artifact (bad magic bytes); expected a file "
                "written by repro.snapshot"
            )
        offset = len(SNAPSHOT_MAGIC)
        if len(blob) < offset + _LENGTH_BYTES:
            raise SnapshotFormatError("snapshot truncated inside header length")
        header_len = int.from_bytes(blob[offset : offset + _LENGTH_BYTES], "big")
        offset += _LENGTH_BYTES
        if len(blob) < offset + header_len:
            raise SnapshotFormatError("snapshot truncated inside header")
        try:
            header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotFormatError(f"snapshot header is not valid JSON: {exc}")
        for key in ("version", "payload_sha256", "payload_bytes", "metadata"):
            if key not in header:
                raise SnapshotFormatError(f"snapshot header missing {key!r}")
        if header["version"] != self.version:
            raise SnapshotVersionError(
                f"snapshot format version {header['version']} is not supported "
                f"by this codec (version {self.version}); re-create the "
                "snapshot with the current code"
            )
        payload = blob[offset + header_len :]
        if len(payload) != header["payload_bytes"]:
            raise SnapshotFormatError(
                f"snapshot payload truncated: header says "
                f"{header['payload_bytes']} bytes, artifact holds {len(payload)}"
            )
        return header, payload
