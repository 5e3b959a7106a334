"""DIET middleware reimplementation (the paper's contribution surface).

Layers (bottom-up): :mod:`transport` (CORBA substitute over the simulated
network: what a message costs), :mod:`data`/:mod:`profile` (the DIET data
model and service profiles of §4.2), :mod:`sed` / :mod:`agent` /
:mod:`client` (the client/agent/server paradigm of §2.1), :mod:`scheduling`
(default and plug-in schedulers), :mod:`deployment` (GoDIET-like hierarchy
builder) and :mod:`statistics` (LogService-like tracing behind Figures 4-5).
"""

from .agent import ROUTING_MODES, AgentParams, LocalAgent, MasterAgent
from .aggregation import AggregationTable, CandidateRow
from .client import AsyncRequest, DietClient, FunctionHandle
from .cori import CoRI
from .data import (
    ArgDesc,
    DataHandle,
    BaseType,
    CompositeType,
    DietArg,
    Direction,
    FileRef,
    PersistenceMode,
    file_desc,
    matrix_desc,
    scalar_desc,
    sizeof_value,
    string_desc,
    vector_desc,
)
from .deployment import Deployment, deploy_paper_hierarchy
from .federation import (
    ChurnPlan,
    Federation,
    FederationConfig,
    build_federation,
    federation_cluster_specs,
    schedule_churn,
)
from .exceptions import (
    CommunicationError,
    DataError,
    DeadlineExceededError,
    DietError,
    NotCompletedError,
    NotInitializedError,
    ProfileError,
    ServerNotFoundError,
    ServiceNotFoundError,
)
from .liveness import HeartbeatMonitor
from .profile import Profile, ProfileDesc, ServiceTable
from .requests import (
    EstimateDelta,
    EstimateRequest,
    SolveReply,
    SolveRequest,
    SubmitRequest,
)
from .scheduling import (
    DataLocalityPolicy,
    DefaultPolicy,
    EstimationVector,
    FastestNodePolicy,
    MCTPolicy,
    MinQueuePolicy,
    PriorityListPolicy,
    RandomPolicy,
    SchedulerPolicy,
    SchedulingContext,
    make_policy,
)
from .sed import SeD, SeDParams, SolveContext
from .statistics import RequestTrace, Tracer
from .transport import (
    Endpoint,
    FaultInjector,
    Message,
    RpcPolicy,
    TransportFabric,
    TransportParams,
)

__all__ = [
    "AgentParams",
    "AggregationTable",
    "ArgDesc",
    "AsyncRequest",
    "BaseType",
    "CandidateRow",
    "ChurnPlan",
    "CommunicationError",
    "CompositeType",
    "CoRI",
    "DataError",
    "DataHandle",
    "DataLocalityPolicy",
    "DeadlineExceededError",
    "DefaultPolicy",
    "Deployment",
    "DietArg",
    "DietClient",
    "DietError",
    "Direction",
    "Endpoint",
    "EstimateDelta",
    "EstimateRequest",
    "EstimationVector",
    "FastestNodePolicy",
    "FaultInjector",
    "Federation",
    "FederationConfig",
    "FileRef",
    "FunctionHandle",
    "HeartbeatMonitor",
    "LocalAgent",
    "MCTPolicy",
    "MasterAgent",
    "Message",
    "MinQueuePolicy",
    "NotCompletedError",
    "NotInitializedError",
    "PersistenceMode",
    "PriorityListPolicy",
    "Profile",
    "ProfileDesc",
    "ProfileError",
    "ROUTING_MODES",
    "RandomPolicy",
    "RequestTrace",
    "RpcPolicy",
    "SchedulerPolicy",
    "SchedulingContext",
    "SeD",
    "SeDParams",
    "ServerNotFoundError",
    "ServiceNotFoundError",
    "ServiceTable",
    "SolveContext",
    "SolveReply",
    "SolveRequest",
    "SubmitRequest",
    "Tracer",
    "TransportFabric",
    "TransportParams",
    "build_federation",
    "deploy_paper_hierarchy",
    "federation_cluster_specs",
    "file_desc",
    "matrix_desc",
    "make_policy",
    "scalar_desc",
    "schedule_churn",
    "sizeof_value",
    "string_desc",
    "vector_desc",
]
