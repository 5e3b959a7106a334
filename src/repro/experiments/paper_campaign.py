"""E1-E6: the §5.2 numbers and Figures 4 and 5, read off one run of the
1 + 100-zoom campaign (:func:`repro.services.workflow.run_campaign`).

Every headline is a :class:`~repro.services.workflow.CampaignResult`
property; this module holds the paper's quotes and values and one
``render_*`` per CLI row (``timings``, ``figure4``, ``figure5``,
``overhead``).

E1, timings: "The experiment (including both the first and the second part
of the simulation) lasted 16h 18min 43s (1h 15min 11s for the first part
and an average of 1h 24min 1s for the second part). [...] it would take
more than 141h to run the 101 simulation sequentially."

E2/E3, Figure 4: "After the first part of the simulation, each SED received
9 requests (one of them received 10 requests) to compute the second part
(see Figure 4, left).  As shown in Figure 4 (right) the total execution
time for each SED is not the same: about 15h for Toulouse and 10h30 for
Nancy.  Consequently, the schedule is not optimal."

E4/E5, Figure 5: "The finding time is low and nearly constant (49.8ms on
average).  The latency grows rapidly.  Indeed, the client requests 100
sub-simulations simultaneously, and each SED cannot compute more than one
of them at the same time.  Requests cannot be proceeded until the
completion of the precedent one.  This waiting time is taken into account
in the latency."

E6, overhead: "the average time for initiating the service is 20.8ms (taken
on the 12 firsts executions).  The average overhead for one simulation is
about 70.6ms, inducing a total overhead for the 101 simulations of 7s,
which is neglectible compared to the total processing time of the
simulations."
"""

from __future__ import annotations

import math

from ..services.perfmodel import (
    PAPER_PART1_SECONDS,
    PAPER_PART2_MEAN_SECONDS,
    PAPER_TOTAL_SECONDS,
)
from ..services.workflow import CampaignResult
from .report import ascii_gantt, ascii_series, ascii_table, hms

__all__ = ["render_timings", "render_figure4", "render_figure5",
           "render_overhead"]

PAPER_SEQUENTIAL_HOURS = 141.0
#: Paper's reading of Figure 4 right (hours of busy time).
PAPER_MAX_BUSY_HOURS = 15.0     # Toulouse
PAPER_MIN_BUSY_HOURS = 10.5     # Nancy
PAPER_FINDING_MS = 49.8
PAPER_INIT_MS = 20.8
PAPER_PER_SIM_MS = 70.6
PAPER_TOTAL_S = 7.0


def render_timings(result: CampaignResult) -> str:
    rows = [
        ("first part (128^3 full box)", hms(result.part1_duration),
         hms(PAPER_PART1_SECONDS)),
        ("second part (mean of 100 zooms)", hms(result.part2_mean_duration),
         hms(PAPER_PART2_MEAN_SECONDS)),
        ("total campaign", hms(result.total_elapsed),
         hms(PAPER_TOTAL_SECONDS)),
        ("sequential estimate", f"{result.sequential_estimate / 3600.0:.1f}h",
         f">{PAPER_SEQUENTIAL_HOURS:.0f}h"),
        ("parallel speedup", f"{result.speedup:.2f}x", "~8.7x (derived)"),
    ]
    return ("E1 - campaign timings (measured vs paper)\n"
            + ascii_table(("quantity", "measured", "paper"), rows))


def render_figure4(result: CampaignResult) -> str:
    hours = {cluster: [busy / 3600.0 for busy in values]
             for cluster, values
             in result.per_cluster(result.busy_time_per_sed()).items()}
    slowest = max(hours, key=lambda c: hours[c][-1])
    fastest = min(hours, key=lambda c: hours[c][0])
    parts = ["E2 - Figure 4 left: Gantt chart of the 100 sub-simulations",
             ascii_gantt(result.gantt()),
             "",
             "request distribution over SeDs: "
             f"{sorted(result.requests_per_sed().values())}"
             "   (paper: 9 x 10 SeDs, 10 x 1 SeD)",
             "",
             "E3 - Figure 4 right: per-SeD execution time"]
    rows = [(cluster, ", ".join(f"{h:.2f}h" for h in values))
            for cluster, values in hours.items()]
    parts.append(ascii_table(("cluster", "per-SeD busy time"), rows))
    parts.append("")
    parts.append(
        f"slowest: {slowest} ({hours[slowest][-1]:.1f}h), "
        f"fastest: {fastest} ({hours[fastest][0]:.1f}h)  "
        f"(paper: Toulouse ~{PAPER_MAX_BUSY_HOURS}h, Nancy ~{PAPER_MIN_BUSY_HOURS}h)")
    parts.append(
        f"busy-time spread max/min = {result.busy_spread:.2f} "
        f"(paper ~{PAPER_MAX_BUSY_HOURS / PAPER_MIN_BUSY_HOURS:.2f}) "
        "=> the default schedule is not optimal")
    return "\n".join(parts)


def render_figure5(result: CampaignResult) -> str:
    # ordered by submission, like the paper's per-request plots
    latencies = result.latencies()
    # the figure's log-scale rise: hours of queueing vs ms of transfer
    decades = math.log10(max(latencies) / max(min(latencies), 1e-9))
    parts = [
        "E4 - Figure 5: finding time per request",
        ascii_series([f * 1e3 for f in result.finding_times()],
                     label="finding time (ms)"),
        f"mean {result.finding_mean * 1e3:.1f}ms, CV {result.finding_cv:.3f}"
        f"   (paper: {PAPER_FINDING_MS}ms average, nearly constant)",
        "",
        "E5 - Figure 5: latency per request (log scale)",
        ascii_series(latencies, log=True, label="latency (s), log10"),
        f"first-wave latency {result.first_wave_latency * 1e3:.1f}ms; "
        f"grows {decades:.1f} decades to {max(latencies) / 3600:.1f}h"
        "   (paper: grows rapidly - queueing on busy SeDs)",
    ]
    return "\n".join(parts)


def render_overhead(result: CampaignResult) -> str:
    per_ms = result.overhead_mean * 1e3
    total_s = per_ms * (len(result.part2_traces) + 1) / 1e3
    rows = [
        ("service initiation (first 12 runs)",
         f"{result.init_time * 1e3:.1f}ms", f"{PAPER_INIT_MS}ms"),
        ("overhead per simulation", f"{per_ms:.1f}ms", f"{PAPER_PER_SIM_MS}ms"),
        ("total overhead, 101 simulations",
         f"{total_s:.1f}s", f"{PAPER_TOTAL_S:.0f}s"),
        ("fraction of total compute",
         f"{total_s / result.sequential_estimate:.2e}", "neglectible"),
    ]
    return ("E6 - middleware overhead (measured vs paper)\n"
            + ascii_table(("quantity", "measured", "paper"), rows))
