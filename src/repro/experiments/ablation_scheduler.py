"""E7 — plug-in scheduler ablation.

Paper §5.2: "Consequently, the schedule is not optimal.  The equal
distribution of the requests does not take into account the machines
processing power. [...] A better makespan could be attained by writing a
plug-in scheduler."  The paper leaves that as future work; this experiment
carries it out: the same campaign under the default policy, MCT (with
SeD-side performance predictors — the plug-in scheduler of Chis et al.),
and two baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.agent import ROUTING_MODES
from ..platform.grid5000 import PAPER_CLUSTERS, ClusterSpec
from ..services.workflow import CampaignConfig, CampaignResult
from .report import ascii_table, hms
from .runner import run_campaigns

__all__ = [
    "AblationResult",
    "RoutingAblationResult",
    "run",
    "render",
    "run_routing",
    "render_routing",
    "routing_cluster_specs",
    "DEFAULT_POLICIES",
    "DEFAULT_WIDTHS",
]

#: (policy name, register predictors?) pairs compared by the ablation.
DEFAULT_POLICIES = (
    ("default", False),
    ("mct", True),
    ("min-queue", False),
    ("fastest", False),
)


@dataclass
class AblationResult:
    campaigns: Dict[str, CampaignResult] = field(default_factory=dict)

    def part2_makespans(self) -> Dict[str, float]:
        """Makespan of the parallel section only (fairer comparison)."""
        return {name: c.part2_makespan for name, c in self.campaigns.items()}

    def improvement_over_default(self) -> float:
        """MCT's part-2 makespan gain over the default policy."""
        spans = self.part2_makespans()
        return 1.0 - spans["mct"] / spans["default"]


def run(base_config: Optional[CampaignConfig] = None,
        policies=DEFAULT_POLICIES,
        jobs: Optional[int] = None) -> AblationResult:
    """One campaign per policy, each ``base_config`` with only ``policy``
    and ``with_predictor`` replaced.  ``jobs`` runs the policies in worker
    processes; serial or not, the campaigns come back detached."""
    base = base_config or CampaignConfig()
    return AblationResult(campaigns=run_campaigns(
        {policy: replace(base, policy=policy, with_predictor=with_predictor)
         for policy, with_predictor in policies}, jobs))


def render(result: AblationResult) -> str:
    spans = result.part2_makespans()
    rows = []
    for policy, span in sorted(spans.items(), key=lambda kv: kv[1]):
        campaign = result.campaigns[policy]
        counts = sorted(campaign.requests_per_sed().values())
        rows.append((policy, hms(span), f"{campaign.busy_spread:.2f}",
                     f"{min(counts)}..{max(counts)}"))
    gain = result.improvement_over_default() * 100.0
    return ("E7 - scheduler ablation (part-2 makespan; the paper predicts a "
            "plug-in scheduler improves on the default)\n"
            + ascii_table(("policy", "part-2 makespan", "busy max/min",
                           "reqs/SeD"), rows)
            + f"\nMCT plug-in improves the default makespan by {gain:.1f}%")


# -- E7b: pull vs push routing at growing hierarchy widths -----------------------

#: Cluster counts swept by the routing ablation (the paper deployed 6).
DEFAULT_WIDTHS = (6, 12, 24)


def routing_cluster_specs(width: int) -> Tuple[ClusterSpec, ...]:
    """A ``width``-cluster platform cycling the paper's six cluster specs
    (names uniquified so every frontend/NFS/SeD gets its own host)."""
    specs = []
    for i in range(width):
        base = PAPER_CLUSTERS[i % len(PAPER_CLUSTERS)]
        specs.append(replace(base, name=f"{base.name}{i}"))
    return tuple(specs)


@dataclass
class RoutingAblationResult:
    """Pull vs push campaigns keyed ``f"{mode}@{width}"``."""

    widths: List[int] = field(default_factory=list)
    campaigns: Dict[str, CampaignResult] = field(default_factory=dict)

    def campaign(self, mode: str, width: int) -> CampaignResult:
        return self.campaigns[f"{mode}@{width}"]

    def n_seds(self, width: int) -> int:
        return len(self.campaign("pull", width).deployment.sed_names)

    def part2_makespan(self, mode: str, width: int) -> float:
        return self.campaign(mode, width).part2_makespan

    def finding_speedup(self, width: int) -> float:
        """How much faster push finds a SeD than pull at this width: the
        routing cost the push tables target (pull's finding time grows with
        width, push's must not)."""
        return (self.campaign("pull", width).finding_mean
                / self.campaign("push", width).finding_mean)


def run_routing(base_config: Optional[CampaignConfig] = None,
                widths: Sequence[int] = DEFAULT_WIDTHS,
                jobs: Optional[int] = None) -> RoutingAblationResult:
    """One campaign per (routing mode, hierarchy width); ``jobs`` fans the
    (independent, seeded) campaigns out to worker processes."""
    base = base_config or CampaignConfig()
    return RoutingAblationResult(widths=list(widths), campaigns=run_campaigns(
        {f"{mode}@{width}": replace(
            base, cluster_specs=routing_cluster_specs(width), routing=mode)
         for width in widths for mode in ROUTING_MODES}, jobs))


def render_routing(result: RoutingAblationResult) -> str:
    rows = []
    for width in result.widths:
        rows.append((str(width), str(result.n_seds(width)),
                     f"{result.campaign('pull', width).finding_mean * 1e3:.1f}ms",
                     f"{result.campaign('push', width).finding_mean * 1e3:.1f}ms",
                     f"{result.finding_speedup(width):.1f}x",
                     hms(result.part2_makespan("pull", width)),
                     hms(result.part2_makespan("push", width))))
    return ("E7b - routing ablation (pull fans out per request, push admits "
            "from materialized tables)\n"
            + ascii_table(("clusters", "SeDs", "pull find", "push find",
                           "speedup", "pull makespan", "push makespan"),
                          rows))
