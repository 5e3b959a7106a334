"""E6 — §5.2 middleware overhead.

Paper: "the average time for initiating the service is 20.8ms (taken on the
12 firsts executions).  The average overhead for one simulation is about
70.6ms, inducing a total overhead for the 101 simulations of 7s, which is
neglectible compared to the total processing time of the simulations."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..services.workflow import CampaignConfig, CampaignResult, run_campaign
from .report import ascii_table

__all__ = ["OverheadResult", "run", "render"]

PAPER_INIT_MS = 20.8
PAPER_PER_SIM_MS = 70.6
PAPER_TOTAL_S = 7.0


@dataclass
class OverheadResult:
    campaign: CampaignResult

    @property
    def init_time_ms(self) -> float:
        """Service-initiation time, measured like the paper: on the first 12
        executions (part 1 plus the 11-SeD first wave — the runs with no
        queue wait): the initiated requests with the earliest solve start."""
        traces = sorted(
            (t for t in [self.campaign.part1_trace] + self.campaign.part2_traces
             if t.initiation_time is not None and t.solve_started_at is not None),
            key=lambda t: t.solve_started_at)
        inits = [t.initiation_time for t in traces[:12]]
        return float(np.mean(inits)) * 1e3

    @property
    def per_request_overhead_ms(self) -> float:
        """finding + initiation per request (both measured from the trace)."""
        per = list(self.campaign.overhead_per_request)
        p1 = self.campaign.part1_trace
        if p1.finding_time is not None and p1.initiation_time is not None:
            per.append(p1.finding_time + p1.initiation_time)
        return float(np.mean(per)) * 1e3

    @property
    def total_overhead_s(self) -> float:
        n = len(self.campaign.part2_traces) + 1
        return self.per_request_overhead_ms * n / 1e3

    @property
    def overhead_fraction(self) -> float:
        return self.total_overhead_s / self.campaign.sequential_estimate


def run(config: Optional[CampaignConfig] = None) -> OverheadResult:
    return OverheadResult(campaign=run_campaign(config or CampaignConfig()))


def render(result: OverheadResult) -> str:
    rows = [
        ("service initiation (first 12 runs)",
         f"{result.init_time_ms:.1f}ms", f"{PAPER_INIT_MS}ms"),
        ("overhead per simulation",
         f"{result.per_request_overhead_ms:.1f}ms", f"{PAPER_PER_SIM_MS}ms"),
        ("total overhead, 101 simulations",
         f"{result.total_overhead_s:.1f}s", f"{PAPER_TOTAL_S:.0f}s"),
        ("fraction of total compute",
         f"{result.overhead_fraction:.2e}", "neglectible"),
    ]
    return ("E6 - middleware overhead (measured vs paper)\n"
            + ascii_table(("quantity", "measured", "paper"), rows))
