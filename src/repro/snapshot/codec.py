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
import io
import json
import pickle
import sys
from typing import Any, Dict, Optional, Tuple

import numpy as np

#: Leading bytes of every snapshot artifact.
SNAPSHOT_MAGIC = b"REPROSNAP\x01"

#: Current format version; bumped on any incompatible layout change.
SNAPSHOT_VERSION = 11

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


class _CanonicalPickler(pickle.Pickler):
    """Pickles every string and numpy dtype as a persistent id.

    The id of an exact ``str`` is its interned copy, and the id of a dtype
    is the first equal dtype this pickler met, so equal values share one
    id (and one memo entry) whichever objects held them.
    """

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file, protocol=PICKLE_PROTOCOL)
        self._dtypes: Dict[np.dtype, np.dtype] = {}

    def persistent_id(self, obj: Any) -> Any:
        if type(obj) is str:
            return sys.intern(obj)
        if isinstance(obj, np.dtype):
            return self._dtypes.setdefault(obj, obj)
        return None


class _CanonicalUnpickler(pickle.Unpickler):
    """Loads a :class:`_CanonicalPickler` stream: each id is the value."""

    def persistent_load(self, pid: Any) -> Any:
        return pid


def _canonical_copy(obj: Any) -> Any:
    """``obj`` copied through one :class:`_CanonicalPickler` round.

    The intermediate stream is freed on return, before the caller pickles
    the copy.
    """
    buffer = io.BytesIO()
    _CanonicalPickler(buffer).dump(obj)
    buffer.seek(0)
    return _CanonicalUnpickler(buffer).load()


class SnapshotCodec:
    """Encodes/decodes snapshot artifacts in the versioned wire format."""

    version = SNAPSHOT_VERSION

    def encode(self, payload_obj: Any, metadata: Optional[Dict[str, Any]] = None) -> bytes:
        """Serialise ``payload_obj`` into one self-validating artifact."""
        # One canonical round.  Pickle memoises by identity, and a freshly
        # built graph shares objects that a restored graph holds copies of:
        # the interpreter's interned string literals, numpy's builtin dtype
        # singletons (a restored array carries its own dtype copy, a new one
        # the singleton).  The first pass pickles each string and dtype as a
        # persistent id naming one object per value, so equal values are
        # one object in the loaded graph whichever run they came from, and
        # the plain final dumps then depends on the state's values alone:
        # equal state gives equal bytes, restored or not, under every hash
        # seed (tests/snapshot/test_format_stability.py,
        # tests/properties/test_property_snapshot.py).
        payload = pickle.dumps(_canonical_copy(payload_obj), protocol=PICKLE_PROTOCOL)
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
