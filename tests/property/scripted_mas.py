"""Scripted Master Agents for the client redirection tests.

A handful of bare endpoints named like MAs whose ``submit`` handlers refuse,
answer or are unbound on command, one endpoint that answers every ``solve``,
and a :class:`~repro.core.client.DietClient` to point at them — everything
on one host with a zero-cost transport, so every refusal inside one call
carries the same simulated stamp and the least-recent-rejection order is an
exact function of *which call* an MA last refused.
"""

from __future__ import annotations

from repro.core import (
    BaseType,
    DietClient,
    ProfileDesc,
    ServerNotFoundError,
    TransportFabric,
    TransportParams,
    scalar_desc,
)
from repro.core.requests import SolveReply
from repro.sim import Engine, Host, Network

ANSWER, REFUSE, UNBOUND = "answer", "refuse", "unbound"


class ScriptedMAs:
    def __init__(self, ma_names):
        self.engine = Engine()
        network = Network(self.engine)
        self.host = network.add_host(Host(self.engine, "hub"))
        self.fabric = TransportFabric(
            self.engine, network,
            TransportParams(marshal_fixed=0.0, marshal_per_byte=0.0,
                            dispatch_fixed=0.0))
        #: MA names in the order their ``submit`` handlers ran.
        self.attempts = []
        #: What each MA does with the next submit (default: answer).
        self.behaviour = {}
        self._bound = set()
        for name in ma_names:
            self._bind(name)
        sed = self.fabric.endpoint("sed", "hub")
        sed.on("solve", self._solve)

    def _bind(self, name):
        endpoint = self.fabric.endpoint(name, "hub")
        endpoint.on("submit", lambda msg, name=name: self._submit(name))
        self._bound.add(name)

    def script(self, behaviour):
        """Set every MA's behaviour for the next call(s): unbinds the
        ``UNBOUND`` ones and re-binds those that no longer are."""
        for name, how in behaviour.items():
            if how == UNBOUND and name in self._bound:
                self.fabric.unbind(name)
                self._bound.discard(name)
            elif how != UNBOUND and name not in self._bound:
                self._bind(name)
        self.behaviour = dict(behaviour)

    def _submit(self, name):
        self.attempts.append(name)
        if self.behaviour.get(name, ANSWER) == REFUSE:
            raise ServerNotFoundError(f"{name} refuses")
        return ("sed", None), None
        yield  # a handler is a generator

    def _solve(self, msg):
        return SolveReply(msg.payload.request_id, 0)
        yield  # a handler is a generator

    def client(self, ma_names, name="cli"):
        client = DietClient(self.fabric, self.host, name=name)
        client.initialize({"MA_name": ma_names})
        return client

    @staticmethod
    def profile():
        desc = ProfileDesc("echo", 0, 0, 0)
        desc.set_arg(0, scalar_desc(BaseType.INT))
        profile = desc.instantiate()
        profile.parameter(0).set(1)
        return profile
