"""Named, independent random-number streams.

Distributed-systems experiments become irreproducible the moment two
subsystems share a random generator: adding one extra draw in the mobility
model would silently change every radio fading sample.  ``RandomStreams``
derives an independent ``numpy`` generator per *stream name* from a single
experiment seed, so each subsystem owns its own stream and results stay
stable under unrelated code changes.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable

import numpy as np


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a deterministic 63-bit child seed from a root seed and a name.

    Public because subsystems that need RNG *outside* a simulator's streams —
    e.g. :mod:`repro.faults.schedule`, whose timeline must be a pure function
    of ``(seed, knobs)`` regardless of what the simulation itself draws — use
    the same derivation so one experiment seed governs everything.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


#: Backwards-compatible private alias (pre-dates the public export).
_derive_seed = derive_seed


class RandomStreams:
    """A factory of independent, reproducible random generators.

    Parameters
    ----------
    seed:
        Root experiment seed.  Two ``RandomStreams`` built from the same seed
        hand out identical streams for identical names.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> mobility_rng = streams.get("mobility")
    >>> radio_rng = streams.get("radio")
    >>> mobility_rng is streams.get("mobility")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this factory was built from."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(
                _derive_seed(self._seed, name)
            )
        return self._streams[name]

    def reset(self, names: Iterable[str] | None = None) -> None:
        """Re-derive the given streams (or all streams) from the root seed."""
        if names is None:
            names = list(self._streams)
        for name in names:
            self._streams[name] = np.random.default_rng(
                _derive_seed(self._seed, name)
            )

    def spawn(self, child_name: str) -> "RandomStreams":
        """Create a child factory with a seed derived from ``child_name``.

        Useful for giving each repetition of an experiment its own root seed
        while keeping the whole sweep reproducible.
        """
        return RandomStreams(_derive_seed(self._seed, f"spawn:{child_name}"))

    def __contains__(self, name: str) -> bool:
        return name in self._streams
