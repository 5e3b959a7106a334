"""GridRPC facade: ``grpc_*`` aliases over the client API.

§4.3.1: "The client API follows the GridRPC definition: all diet_ functions
are 'duplicated' with grpc_ functions.  Both diet_initialize() /
grpc_initialize() and diet_finalize() / grpc_finalize() belong to the
GridRPC API."

These free functions operate on an explicit :class:`DietClient` (the C API
keeps the session in a hidden global; we require it as the first argument,
which keeps tests parallel-safe).  Functions that must run inside a
simulation process are generators, like the methods they wrap.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Sequence

from .client import AsyncRequest, DietClient, FunctionHandle
from .exceptions import GRPC_NO_ERROR
from .profile import Profile, ProfileDesc

__all__ = [
    "grpc_initialize",
    "grpc_finalize",
    "grpc_function_handle_default",
    "grpc_profile_alloc",
    "grpc_call",
    "grpc_call_async",
    "grpc_cancel",
    "grpc_probe",
    "grpc_set_deadline",
    "grpc_wait",
    "grpc_wait_all",
    "grpc_wait_any",
]


def grpc_initialize(client: DietClient, config: Dict[str, Any]) -> int:
    client.initialize(config)
    return GRPC_NO_ERROR


def grpc_finalize(client: DietClient) -> int:
    client.finalize()
    return GRPC_NO_ERROR


def grpc_function_handle_default(client: DietClient, service_name: str) -> FunctionHandle:
    return client.function_handle(service_name)


def grpc_profile_alloc(desc: ProfileDesc) -> Profile:
    """diet_profile_alloc: allocates every argument slot (§4.3.2: 'no
    allocation function is required' beyond this one)."""
    return desc.instantiate()


def grpc_call(client: DietClient, handle: FunctionHandle,
              profile: Profile) -> Generator[Any, Any, int]:
    """Synchronous GridRPC call (process helper)."""
    status = yield from client.call(profile, handle)
    return status


def grpc_call_async(client: DietClient, handle: FunctionHandle,
                    profile: Profile) -> AsyncRequest:
    return client.call_async(profile, handle)


def grpc_probe(client: DietClient, session_id: int) -> int:
    return client.probe(session_id)


def grpc_cancel(request: AsyncRequest) -> bool:
    """Abort an in-flight asynchronous call (client side)."""
    return request.cancel()


def grpc_wait(request: AsyncRequest) -> Generator[Any, Any, int]:
    status = yield from request.wait()
    return status


def grpc_wait_all(client: DietClient) -> Generator[Any, Any, Dict[int, int]]:
    statuses = yield from client.wait_all()
    return statuses


def grpc_wait_any(client: DietClient) -> Generator[Any, Any, int]:
    sid = yield from client.wait_any()
    return sid


def grpc_set_deadline(client: DietClient, deadline: float,
                      ops: Sequence[str] = ("submit", "solve")) -> None:
    """Give the client's calls a deadline.

    Sets it on the client's endpoint — the same mechanism that bounds the
    agents' estimate fan-out; calling again replaces it.  A call whose reply
    misses it raises :class:`~repro.core.exceptions.DeadlineExceededError`,
    a :class:`~repro.core.exceptions.CommunicationError`: the job is lost,
    and :meth:`DietClient.call_retry` (or ``call_async(max_attempts=)``)
    resubmits it under a fresh request id.
    """
    client.endpoint.set_deadline(ops, deadline)
