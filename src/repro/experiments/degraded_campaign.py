"""E11 — the 100-zoom campaign under SeD failures.

The paper's §5.2 numbers assume all 11 SeDs survive the whole campaign; the
follow-up grid deployments (Depardon et al. 2010, the CMS testbed reports)
show node loss is the normal operating mode, not the exception.  This
experiment answers the question the happy path cannot: *what does the
campaign cost when k SeDs die mid-run?*

For each crash count the full fault-tolerant stack runs: seeded outages
(crash + restart), LA heartbeat deregistration, SeD re-registration,
zoom2 checkpointing to the cluster NFS volume, and client-side
resubmission through the normal MA finding path.  Reported per crash
count: makespan inflation over the zero-failure baseline, work lost /
recovered, resubmissions, and how the surviving SeDs absorb the dead
SeDs' share of the 100 zooms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..services import CampaignConfig, CampaignResult, FailurePlan
from .report import ascii_table, hms
from .runner import run_campaigns

__all__ = ["DegradedRun", "DegradedResult", "run", "render", "DEFAULT_CRASH_COUNTS"]

DEFAULT_CRASH_COUNTS = (1, 2, 4)


@dataclass
class DegradedRun:
    """One degraded campaign against the shared baseline."""

    n_crashes: int
    result: CampaignResult

    @property
    def makespan(self) -> float:
        return self.result.total_elapsed

    @property
    def completed(self) -> int:
        return len(self.result.completed_part2_traces)


@dataclass
class DegradedResult:
    baseline: CampaignResult
    runs: List[DegradedRun]

    def inflation(self, run: DegradedRun) -> float:
        return run.makespan / self.baseline.total_elapsed

    def rebalancing(self, run: DegradedRun) -> Dict[str, Tuple[int, int]]:
        """sed -> (baseline zooms, degraded zooms) for every SeD whose share
        changed — the dead SeDs' lost jobs and where they landed."""
        base = self.baseline.requests_per_sed()
        degraded: Dict[str, int] = {}
        for trace in run.result.completed_part2_traces:
            if trace.sed_name:
                degraded[trace.sed_name] = degraded.get(trace.sed_name, 0) + 1
        out = {}
        for sed in sorted(set(base) | set(degraded)):
            pair = (base.get(sed, 0), degraded.get(sed, 0))
            if pair[0] != pair[1]:
                out[sed] = pair
        return out


def run(crash_counts: Sequence[int] = DEFAULT_CRASH_COUNTS,
        n_sub_simulations: int = 100, seed: int = 2007,
        plan: Optional[FailurePlan] = None,
        jobs: Optional[int] = None) -> DegradedResult:
    """Baseline (no failures) + one degraded campaign per crash count.

    Every campaign shares the seed, so the workload and the non-crashing
    machinery are identical run to run; only the injected failures differ.
    ``jobs`` runs the baseline and the degraded campaigns in worker
    processes — they never communicate, and serial or not the campaigns
    come back detached.
    """
    base_plan = plan or FailurePlan()
    baseline = CampaignConfig(n_sub_simulations=n_sub_simulations, seed=seed)
    configs = {"baseline": baseline}
    for k in crash_counts:
        configs[f"crashes={k}"] = replace(
            baseline, failures=replace(base_plan, n_crashes=k))
    results = run_campaigns(configs, jobs)
    runs = [DegradedRun(n_crashes=k, result=results[f"crashes={k}"])
            for k in crash_counts]
    return DegradedResult(baseline=results["baseline"], runs=runs)


def render(result: DegradedResult) -> str:
    rows = []
    for run_ in result.runs:
        report = run_.result.failure_report
        assert report is not None
        rows.append((run_.n_crashes,
                     f"{run_.completed}/{len(run_.result.statuses)}",
                     hms(run_.makespan),
                     f"{result.inflation(run_):.3f}x",
                     report.resubmissions,
                     f"{report.work_lost:.0f}",
                     f"{report.work_recovered:.0f}",
                     report.checkpoints_written))
    lines = [
        "E11 - the 100-zoom campaign under injected SeD failures",
        f"baseline makespan (no failures): {hms(result.baseline.total_elapsed)}",
        ascii_table(("crashes", "done", "makespan", "inflation",
                     "resubmit", "work lost", "recovered", "ckpts"), rows),
    ]
    for run_ in result.runs:
        report = run_.result.failure_report
        assert report is not None
        moved = result.rebalancing(run_)
        outages = ", ".join(f"{o.name} down {hms(o.downtime)}"
                            for o in report.outages) or "none completed"
        lines.append(f"k={run_.n_crashes}: {outages}")
        if moved:
            shifts = ", ".join(f"{sed} {b}->{d}"
                               for sed, (b, d) in moved.items())
            lines.append(f"  rebalanced: {shifts}")
    lines.append(
        "every zoom completes: lost jobs are resubmitted through the MA and "
        "absorbed by surviving SeDs; checkpoints cut the redone work when a "
        "resubmission lands back on the crashed SeD's cluster (§4.1: restart "
        "dumps do not cross NFS volumes)")
    return "\n".join(lines)
