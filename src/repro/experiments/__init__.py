"""Experiment reproductions of §5: E1-E6 share one campaign module, every
other experiment (and the Figure 1-3 analogues) has its own.  See
DESIGN.md's experiment index."""

from . import (
    ablation_scheduler,
    data_locality,
    degraded_campaign,
    figure1_architecture,
    figure2_density,
    figure3_zoom,
    load_federation,
    paper_campaign,
    runner,
    scaling_nodes,
    survey_campaign,
)
from .report import ascii_gantt, ascii_series, ascii_table, hms, ms

__all__ = [
    "ablation_scheduler",
    "figure1_architecture",
    "ascii_gantt",
    "ascii_series",
    "ascii_table",
    "data_locality",
    "degraded_campaign",
    "figure2_density",
    "figure3_zoom",
    "hms",
    "load_federation",
    "ms",
    "paper_campaign",
    "runner",
    "scaling_nodes",
    "survey_campaign",
]
