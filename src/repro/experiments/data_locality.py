"""E12 — data-locality ablation: volatile vs persistent vs replicated.

The paper ships every zoom2 result tarball back to the Lyon client over the
RENATER WAN — §4.3.1's profiles are all ``DIET_VOLATILE``.  DIET's data
managers (DTM, later DAGDA) exist precisely to avoid that: a persistent
OUT argument stays on the producing SeD and the client receives a handle.
This experiment quantifies what that buys on the §5.1 testbed: each arm
runs the identical campaign under a different ``data_policy`` and reports
the bytes that entered the network, the subset that crossed a WAN link,
and the data grid's own counters (bytes saved, replicas pushed, ...).

The simulation *work* is untouched by the policy — the solvers, the
schedule and the request phases see the same event stream — so every
figure 4/5 series (request distribution, per-SeD busy time, finding times,
latencies) must be identical across arms; :func:`render` checks this and
says so.  Only the reply leg changes: tarball bytes vs a fixed-size handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..services import CampaignConfig, CampaignResult
from .report import ascii_table, hms, mib
from .runner import run_campaigns

__all__ = ["DataLocalityResult", "run", "render", "DEFAULT_POLICIES"]

#: The ablation arms, in reporting order.  "volatile" is the baseline
#: (every argument travels by value, exactly like the paper's campaign);
#: the others keep zoom2 tarballs SeD-side.
DEFAULT_POLICIES = ("volatile", "persistent", "broadcast")


@dataclass
class DataLocalityResult:
    """One campaign per data policy, same seed and workload."""

    #: policy name -> campaign result, in arm order.
    campaigns: Dict[str, CampaignResult]

    @property
    def baseline(self) -> CampaignResult:
        """The arm the others are compared against (prefers "volatile")."""
        if "volatile" in self.campaigns:
            return self.campaigns["volatile"]
        return next(iter(self.campaigns.values()))

    def wan_saved(self, policy: str) -> int:
        """WAN bytes the arm avoided relative to the baseline."""
        return (self.baseline.net_bytes_wan
                - self.campaigns[policy].net_bytes_wan)

    def figure_series(self, policy: str):
        """The figure 4/5 inputs whose values must not depend on the
        data policy: request distribution, per-SeD busy time, finding
        times, latencies."""
        c = self.campaigns[policy]
        return (c.requests_per_sed(), c.busy_time_per_sed(),
                c.finding_times(), c.latencies())

    @property
    def figures_identical(self) -> bool:
        """True when every arm reproduces the baseline's figure series
        exactly (bit-identical floats, not merely close)."""
        ref = self.figure_series(next(iter(self.campaigns)))
        return all(self.figure_series(p) == ref for p in self.campaigns)


def run(policies: Sequence[str] = DEFAULT_POLICIES,
        n_sub_simulations: int = 100, seed: int = 2007,
        jobs: Optional[int] = None) -> DataLocalityResult:
    """One campaign per policy, sharing seed and workload.

    ``jobs`` runs the arms in worker processes; they never communicate,
    and serial or not the campaigns come back detached.
    """
    return DataLocalityResult(campaigns=run_campaigns(
        {policy: CampaignConfig(n_sub_simulations=n_sub_simulations,
                                seed=seed, data_policy=policy)
         for policy in policies}, jobs))


def _mib(n: int) -> str:
    return f"{mib(n, 1)} MiB"


def render(result: DataLocalityResult) -> str:
    rows = []
    for policy, campaign in result.campaigns.items():
        report = campaign.data_report
        rows.append((policy,
                     hms(campaign.total_elapsed),
                     _mib(campaign.net_bytes_total),
                     _mib(campaign.net_bytes_wan),
                     _mib(result.wan_saved(policy)),
                     _mib(report.bytes_moved),
                     report.hits,
                     report.replicas))
    lines = [
        "E12 - data-locality ablation (DTM/DAGDA-style persistence)",
        ascii_table(("policy", "makespan", "net bytes", "WAN bytes",
                     "WAN saved", "moved", "hits", "repl"), rows),
        "",
        "figure 4/5 series (distribution, busy time, finding, latency) "
        + ("identical across every arm"
           if result.figures_identical
           else "DIFFER ACROSS ARMS — the data layer perturbed the "
                "schedule, this is a bug"),
    ]
    if "persistent" in result.campaigns and "volatile" in result.campaigns:
        saved = result.wan_saved("persistent")
        base = result.baseline.net_bytes_wan
        lines.append(
            f"persistent results keep the zoom tarballs SeD-side: "
            f"{_mib(saved)} of {_mib(base)} WAN traffic "
            f"({100.0 * saved / base:.1f}%) never leaves the clusters")
    return "\n".join(lines)
