"""Composable adversary behaviour profiles (RQ3 threat models).

A profile configures one :class:`~repro.core.api.AirDnDNode` to misbehave in
a specific, detectable-or-not way; the fault injector assigns profiles to a
seeded ``malicious_fraction`` of the fleet once.  A profile outlives crashes:
its beacon hook is registered through the node's
:class:`~repro.mesh.node.MeshNode`, which carries it across restarts.

Three profiles ship, matching the trust layer's three defences:

* :class:`ResultCorruptingLiar` — fabricates results through the executor's
  ``result_corruptor`` hook.  Caught by redundant execution: two liars wrap
  their fabrications with their own names, so no two corrupted values can
  ever agree in a vote, and the strict-majority quorum keeps a lone liar
  from winning one.
* :class:`FreeRider` — accepts every admissible offer and never replies.
  Caught by offer timeouts, which feed the requester's reputation store.
* :class:`ReputationInflatingBeaconer` — advertises a too-good self-image
  (maximum trust, huge compute headroom, empty queue) to attract placements
  it then serves at its true, unimproved capacity.  Degrades fleet latency;
  only local experience (reputation) corrects for it, since beacons are
  self-reported by design.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Type

#: Sentinel profile name that cycles through every registered profile.
MIXED_PROFILE = "mixed"


@dataclass(frozen=True)
class CorruptedResult:
    """A fabricated task result, tagged with the liar that produced it.

    Wrapping (rather than replacing with a constant) keeps two properties
    the integrity experiments need: corrupted values are *recognisable*
    (``is_corrupted``), so the wrong-result-acceptance metric needs no task
    ground truth; and two independent liars produce *unequal* values (the
    ``by`` field differs), so fabrications can never form a voting quorum by
    accident.
    """

    original: Any
    by: str

    #: Duck-typed marker checked by the wrong-result-acceptance metric.
    is_corrupted = True


class AdversaryProfile:
    """Base class: applies one malicious behaviour to an AirDnD node."""

    #: Registry key; subclasses override.
    name = "abstract"

    def apply(self, node: Any) -> None:
        """Configure ``node`` (an :class:`~repro.core.api.AirDnDNode`)."""
        raise NotImplementedError


class ResultCorruptingLiar(AdversaryProfile):
    """Executes tasks but returns fabricated results."""

    name = "liar"

    def apply(self, node: Any) -> None:
        node.executor.result_corruptor = ResultCorruptor(node.name)


class ResultCorruptor:
    """Wraps result values as :class:`CorruptedResult` (picklable callable).

    Installed on ``executor.result_corruptor``, so it is part of the
    simulation graph snapshots serialise — a closure here would break the
    pickle round-trip.
    """

    __slots__ = ("by",)

    def __init__(self, by: str) -> None:
        self.by = by

    def __call__(self, value: Any) -> CorruptedResult:
        return CorruptedResult(original=value, by=self.by)


class FreeRider(AdversaryProfile):
    """Accepts offers (implicitly, by never rejecting) and never replies."""

    name = "free_rider"

    def apply(self, node: Any) -> None:
        node.executor.silent = True


class ReputationInflatingBeaconer(AdversaryProfile):
    """Advertises an inflated self-image in every outgoing beacon."""

    name = "inflator"

    #: Advertised headroom, far beyond any honest fleet member.
    CLAIMED_HEADROOM_OPS = 1e12

    def apply(self, node: Any) -> None:
        # Registered after the node's own enricher, so the lie overwrites
        # the honest values; the mesh node re-registers both, in this order,
        # when it restarts after a crash.
        node.mesh.add_enricher(
            BeaconInflater(self.CLAIMED_HEADROOM_OPS)
        )


class BeaconInflater:
    """Beacon enricher advertising an inflated self-image (picklable)."""

    __slots__ = ("claimed_headroom_ops",)

    def __init__(self, claimed_headroom_ops: float) -> None:
        self.claimed_headroom_ops = claimed_headroom_ops

    def __call__(self, beacon):
        return replace(
            beacon,
            trust_score=1.0,
            compute_headroom_ops=self.claimed_headroom_ops,
            queue_length=0,
        )


#: Registered profiles: ``name → profile class``.
ADVERSARY_PROFILES: Dict[str, Type[AdversaryProfile]] = {
    profile.name: profile
    for profile in (ResultCorruptingLiar, FreeRider, ReputationInflatingBeaconer)
}


def apply_profile(node: Any, profile_name: str) -> AdversaryProfile:
    """Instantiate and apply the registered profile ``profile_name``."""
    try:
        profile_cls = ADVERSARY_PROFILES[profile_name]
    except KeyError:
        known = ", ".join(sorted(ADVERSARY_PROFILES))
        raise ValueError(
            f"unknown adversary profile {profile_name!r} (known: {known})"
        ) from None
    profile = profile_cls()
    profile.apply(node)
    return profile


def is_corrupted(value: Any) -> bool:
    """Whether a task-result value is a recognised fabrication."""
    return bool(getattr(value, "is_corrupted", False))
