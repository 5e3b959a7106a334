"""E4/E5 — Figure 5: finding time and latency.

Paper: "The finding time is low and nearly constant (49.8ms on average).
The latency grows rapidly.  Indeed, the client requests 100 sub-simulations
simultaneously, and each SED cannot compute more than one of them at the
same time.  Requests cannot be proceeded until the completion of the
precedent one.  This waiting time is taken into account in the latency."
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..services.workflow import CampaignConfig, CampaignResult, run_campaign
from .report import ascii_series

__all__ = ["Figure5Result", "run", "render"]

PAPER_FINDING_MS = 49.8
PAPER_INIT_MS = 20.8


@dataclass
class Figure5Result:
    campaign: CampaignResult

    @property
    def finding_times(self) -> List[float]:
        return self.campaign.finding_times()

    @property
    def latencies(self) -> List[float]:
        # ordered by submission, like the paper's per-request plot
        return self.campaign.latencies()

    @property
    def finding_mean_ms(self) -> float:
        return float(np.mean(self.finding_times)) * 1e3

    @property
    def finding_cv(self) -> float:
        """Coefficient of variation — 'nearly constant' means small."""
        ft = np.asarray(self.finding_times)
        return float(ft.std() / ft.mean())

    @property
    def latency_growth_decades(self) -> float:
        """log10(max latency / first-wave latency): the figure's log-scale
        rise (hours of queueing vs milliseconds of transfer)."""
        lat = self.latencies
        first = min(lat)
        return math.log10(max(lat) / max(first, 1e-9))

    @property
    def first_wave_latency_ms(self) -> float:
        """Requests served immediately (no queue): transfer + initiation.

        Selected by the measured queue wait (slot granted as soon as the
        data arrived), not by assuming the n_seds smallest latencies were
        the unqueued ones."""
        lat = [t.latency for t in self.campaign.part2_traces
               if t.latency is not None
               and t.queue_wait is not None and t.queue_wait < 1e-3]
        if not lat:  # traces without SeD-side stamps: fall back to smallest
            lat = sorted(self.latencies)[:len(self.campaign.deployment.seds)]
        return float(np.mean(lat)) * 1e3


def run(config: Optional[CampaignConfig] = None) -> Figure5Result:
    return Figure5Result(campaign=run_campaign(config or CampaignConfig()))


def render(result: Figure5Result) -> str:
    ft_ms = [f * 1e3 for f in result.finding_times]
    parts = [
        "E4 - Figure 5: finding time per request",
        ascii_series(ft_ms, label="finding time (ms)"),
        f"mean {result.finding_mean_ms:.1f}ms, CV {result.finding_cv:.3f}"
        f"   (paper: {PAPER_FINDING_MS}ms average, nearly constant)",
        "",
        "E5 - Figure 5: latency per request (log scale)",
        ascii_series(result.latencies, log=True, label="latency (s), log10"),
        f"first-wave latency {result.first_wave_latency_ms:.1f}ms; "
        f"grows {result.latency_growth_decades:.1f} decades to "
        f"{max(result.latencies) / 3600:.1f}h"
        "   (paper: grows rapidly - queueing on busy SeDs)",
    ]
    return "\n".join(parts)
