"""DIET / GridRPC error model.

GridRPC (the API standard DIET implements, §4.3.1) defines numeric error
codes; we expose them both as constants (for the C-flavoured facade in
:mod:`repro.core.gridrpc`) and as an exception hierarchy for Pythonic use.
"""

from __future__ import annotations

__all__ = [
    "GRPC_NO_ERROR",
    "GRPC_NOT_INITIALIZED",
    "GRPC_SERVER_NOT_FOUND",
    "GRPC_FUNCTION_NOT_FOUND",
    "GRPC_INVALID_FUNCTION_HANDLE",
    "GRPC_INVALID_SESSION_ID",
    "GRPC_RPC_REFUSED",
    "GRPC_COMMUNICATION_FAILED",
    "GRPC_SESSION_FAILED",
    "GRPC_NOT_COMPLETED",
    "GRPC_OTHER_ERROR_CODE",
    "DietError",
    "NotInitializedError",
    "ServerNotFoundError",
    "ServiceNotFoundError",
    "InvalidHandleError",
    "InvalidSessionError",
    "CommunicationError",
    "DeadlineExceededError",
    "NotCompletedError",
    "ProfileError",
    "DataError",
]

GRPC_NO_ERROR = 0
GRPC_NOT_INITIALIZED = 1
GRPC_SERVER_NOT_FOUND = 2
GRPC_FUNCTION_NOT_FOUND = 3
GRPC_INVALID_FUNCTION_HANDLE = 4
GRPC_INVALID_SESSION_ID = 5
GRPC_RPC_REFUSED = 6
GRPC_COMMUNICATION_FAILED = 7
GRPC_SESSION_FAILED = 8
GRPC_NOT_COMPLETED = 9
GRPC_OTHER_ERROR_CODE = 10


class DietError(RuntimeError):
    """Base class for all middleware errors."""

    code = GRPC_OTHER_ERROR_CODE


class NotInitializedError(DietError):
    """diet_initialize() has not been called on this client."""

    code = GRPC_NOT_INITIALIZED


class ServerNotFoundError(DietError):
    """No SeD can satisfy the request (empty response set at the MA)."""

    code = GRPC_SERVER_NOT_FOUND


class ServiceNotFoundError(DietError):
    """The requested service name is not in any service table."""

    code = GRPC_FUNCTION_NOT_FOUND


class InvalidHandleError(DietError):
    code = GRPC_INVALID_FUNCTION_HANDLE


class InvalidSessionError(DietError):
    code = GRPC_INVALID_SESSION_ID


class CommunicationError(DietError):
    code = GRPC_COMMUNICATION_FAILED


class DeadlineExceededError(CommunicationError):
    """An RPC outlived its :class:`~repro.core.transport.RpcPolicy`
    (deadline expired on every attempt, retries exhausted)."""


class NotCompletedError(DietError):
    """Async request not finished yet (grpc_probe)."""

    code = GRPC_NOT_COMPLETED


class ProfileError(DietError):
    """Malformed profile (bad indices, type mismatch, unset argument)."""


class DataError(DietError):
    """Illegal data access (reading an OUT before solve, freeing twice...)."""
