"""Request descriptors exchanged between client, agents and SeDs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .data import DataHandle, HANDLE_WIRE_BYTES
from .profile import Profile, ProfileDesc

__all__ = ["EstimateDelta", "EstimateRequest", "MemoHit", "SubmitRequest",
           "SolveRequest", "SolveReply"]


@dataclass
class EstimateRequest:
    """Broadcast down the agent hierarchy to collect estimation vectors."""

    request_id: int
    service_desc: ProfileDesc


@dataclass
class EstimateDelta:
    """Child -> parent: incremental estimate-table update (push routing).

    The inverse of :class:`EstimateRequest`: instead of the hierarchy
    polling every SeD per request, a SeD pushes a fresh estimation vector
    when its own state changes (solve start/end, queue change, restart) and
    each agent forwards only the resulting *changes* of its materialized
    top-k table upward.  ``updates`` rows carry a per-origin monotone
    ``seq`` so a stale delta (late wire arrival, pre-crash leftovers) can
    never overwrite a newer row.
    """

    #: Endpoint that sent this delta — the immediate child, which is the
    #: SeD itself at a leaf LA and the forwarding LA above that.
    source: str
    #: ``(ProfileDesc.key, EstimationVector, seq)`` rows.
    updates: List[Tuple] = field(default_factory=list)
    #: ``(ProfileDesc.key, sed_name)`` rows whose candidate disappeared
    #: (the SeD was deregistered).
    removals: List[Tuple] = field(default_factory=list)

    def wire_bytes(self) -> int:
        """Message size: same per-vector cost as an estimate reply."""
        return 128 + 384 * len(self.updates) + 64 * len(self.removals)


@dataclass
class SubmitRequest:
    """Client -> Master Agent: find me a SeD for this profile."""

    request_id: int
    service_desc: ProfileDesc
    client_host: str
    request_nbytes: int = 0
    #: The persistent-input handles (DataHandle arguments), so the MA can
    #: sum the bytes resident per SeD and price each candidate's transfer
    #: cost through the replica catalog (DataHandle is frozen/hashable;
    #: empty for requests without persistent inputs).
    data_handles: Tuple = ()
    #: Canonical request-descriptor digest
    #: (:func:`repro.data.memo.descriptor_digest`); None when the client
    #: sends no key (``memo_enabled`` off) — the MA then never consults the
    #: memo.
    memo_key: Optional[str] = None


@dataclass
class SolveRequest:
    """Client -> chosen SeD: here is the data, run the service."""

    request_id: int
    profile: Profile
    #: Same digest as the submit carried; the SeD uses it to populate the
    #: memo on solve completion (None when the client sent no key).
    memo_key: Optional[str] = None


@dataclass(frozen=True)
class MemoHit:
    """MA -> client: the request was already solved; here are the handles.

    Returned in place of the estimation vector when the submit's
    ``memo_key`` is in the grid memo: ``out_values`` maps OUT/INOUT
    argument indices to the :class:`~repro.core.data.DataHandle`\\ s of the
    persisted results on ``owner``.  The client materializes returning
    arguments with a ``memo_fetch`` pull from the owner and binds
    non-returning ones to the handles directly — no solve runs.
    """

    key: str
    owner: str
    out_values: Dict[int, DataHandle] = field(default_factory=dict)

    def wire_bytes(self) -> int:
        """Reply size: envelope plus one reference per result handle."""
        return 128 + HANDLE_WIRE_BYTES * len(self.out_values)


@dataclass
class SolveReply:
    """SeD -> client: status, OUT/INOUT values and the error string.  The
    solve window is the SeD's side of the shared :class:`RequestTrace`."""

    request_id: int
    status: int
    out_values: Dict[int, object] = field(default_factory=dict)
    error: Optional[str] = None
