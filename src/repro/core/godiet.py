"""GoDIET-style XML deployment descriptions.

DIET deployments on Grid'5000 were driven by GoDIET, which reads an XML
description of the agent hierarchy and launches the components.  This
module implements the description half: parse an XML hierarchy description
into a :class:`HierarchySpec` and validate it; instantiating the MA/LA/SeD
tree is :func:`repro.core.deployment.build_hierarchy`'s job, whatever wrote
the spec.

The dialect (close to GoDIET's, trimmed to what the reproduction needs)::

    <diet_configuration>
      <master_agent name="MA" host="lyon-ma">
        <local_agent name="LA-lyon-capricorne" host="lyon-capricorne-frontend">
          <sed name="SeD-lyon-capricorne-sed0" host="lyon-capricorne-sed0"/>
          ...
        </local_agent>
        ...
      </master_agent>
    </diet_configuration>

Arbitrary nesting of ``local_agent`` elements is allowed (DIET hierarchies
are trees of any depth).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..platform.grid5000 import Cluster, Grid5000Platform
from .deployment import Deployment, build_hierarchy
from .exceptions import DietError
from .scheduling import SchedulerPolicy
from .statistics import Tracer
from .transport import TransportFabric

__all__ = ["SedSpec", "AgentSpec", "HierarchySpec", "parse_godiet_xml",
           "render_godiet_xml", "deploy_from_spec", "cluster_hierarchy_spec",
           "paper_hierarchy_spec"]


@dataclass
class SedSpec:
    name: str
    host: str


@dataclass
class AgentSpec:
    name: str
    host: str
    children: List["AgentSpec"] = field(default_factory=list)
    seds: List[SedSpec] = field(default_factory=list)

    def all_seds(self) -> List[SedSpec]:
        out = list(self.seds)
        for child in self.children:
            out.extend(child.all_seds())
        return out

    def all_agents(self) -> List["AgentSpec"]:
        out = [self]
        for child in self.children:
            out.extend(child.all_agents())
        return out


@dataclass
class HierarchySpec:
    master: AgentSpec
    client_host: Optional[str] = None

    def validate(self) -> None:
        names = [a.name for a in self.master.all_agents()]
        names += [s.name for s in self.master.all_seds()]
        if len(set(names)) != len(names):
            raise DietError("duplicate component names in hierarchy spec")
        if not self.master.all_seds():
            raise DietError("hierarchy contains no SeD")


def _parse_agent(element: ET.Element) -> AgentSpec:
    name = element.get("name")
    host = element.get("host")
    if not name or not host:
        raise DietError(f"<{element.tag}> needs name= and host= attributes")
    spec = AgentSpec(name=name, host=host)
    for child in element:
        if child.tag == "local_agent":
            spec.children.append(_parse_agent(child))
        elif child.tag == "sed":
            sed_name = child.get("name")
            sed_host = child.get("host")
            if not sed_name or not sed_host:
                raise DietError("<sed> needs name= and host= attributes")
            spec.seds.append(SedSpec(name=sed_name, host=sed_host))
        else:
            raise DietError(f"unexpected element <{child.tag}>")
    return spec


def parse_godiet_xml(text: str) -> HierarchySpec:
    """Parse a GoDIET-style XML document into a :class:`HierarchySpec`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise DietError(f"malformed GoDIET XML: {exc}") from None
    if root.tag != "diet_configuration":
        raise DietError("root element must be <diet_configuration>")
    masters = [el for el in root if el.tag == "master_agent"]
    if len(masters) != 1:
        raise DietError("exactly one <master_agent> is required")
    client_el = root.find("client")
    client_host = client_el.get("host") if client_el is not None else None
    spec = HierarchySpec(master=_parse_agent(masters[0]),
                         client_host=client_host)
    spec.validate()
    return spec


def _render_agent(spec: AgentSpec, indent: int) -> List[str]:
    pad = "  " * indent
    tag = "master_agent" if indent == 1 else "local_agent"
    lines = [f'{pad}<{tag} name="{spec.name}" host="{spec.host}">']
    for sed in spec.seds:
        lines.append(f'{pad}  <sed name="{sed.name}" host="{sed.host}"/>')
    for child in spec.children:
        lines.extend(_render_agent(child, indent + 1))
    lines.append(f"{pad}</{tag}>")
    return lines


def render_godiet_xml(spec: HierarchySpec) -> str:
    """Emit the XML for a spec (round-trips through parse_godiet_xml)."""
    lines = ["<diet_configuration>"]
    if spec.client_host:
        lines.append(f'  <client host="{spec.client_host}"/>')
    lines.extend(_render_agent(spec.master, 1))
    lines.append("</diet_configuration>")
    return "\n".join(lines)


def cluster_hierarchy_spec(clusters: Iterable[Cluster], ma_name: str,
                           ma_host: str,
                           client_host: Optional[str] = None) -> HierarchySpec:
    """The §5.1 shape over ``clusters``: one MA, one LA per cluster on its
    frontend, one SeD per reserved node block."""
    master = AgentSpec(name=ma_name, host=ma_host)
    for cluster in clusters:
        la = AgentSpec(name=f"LA-{cluster.full_name}",
                       host=cluster.frontend.name)
        for host in cluster.sed_hosts:
            la.seds.append(SedSpec(name=f"SeD-{host.name}", host=host.name))
        master.children.append(la)
    return HierarchySpec(master=master, client_host=client_host)


def paper_hierarchy_spec(platform: Grid5000Platform) -> HierarchySpec:
    """The §5.1 deployment as a spec (what GoDIET would have been fed)."""
    return cluster_hierarchy_spec(platform.clusters.values(), "MA",
                                  platform.ma_host.name,
                                  platform.client_host.name)


def deploy_from_spec(platform: Grid5000Platform, spec: HierarchySpec,
                     policy: Optional[SchedulerPolicy] = None) -> Deployment:
    """Instantiate the described hierarchy on a built platform.

    :func:`~repro.core.deployment.build_hierarchy` on a fresh fabric and a
    fresh default data grid: the spec is validated, host names are resolved
    against the platform's network; SeD hosts must mount their cluster's NFS
    volume (§4.1) when they belong to a cluster.
    """
    # Lazy: repro.data depends on repro.core at module level.
    from ..data.manager import DataGrid

    fabric = TransportFabric(platform.engine, platform.network)
    return build_hierarchy(spec, platform, fabric, Tracer(),
                           DataGrid(platform.network), policy=policy)
