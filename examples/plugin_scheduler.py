#!/usr/bin/env python
"""Plug-in scheduler ablation: carrying out the paper's future work.

§5.2 observes that "the equal distribution of the requests does not take
into account the machines processing power [...] A better makespan could be
attained by writing a plug-in scheduler."  This example runs the same
campaign under four policies and reports the makespans.

Run:  python examples/plugin_scheduler.py
"""

from repro.experiments import ablation_scheduler
from repro.experiments.report import hms


def main() -> None:
    print("Running the 100-zoom campaign under four scheduler policies...")
    result = ablation_scheduler.run()

    print()
    print(ablation_scheduler.render(result))

    print()
    print("per-cluster request counts under MCT (speed-proportional):")
    campaign = result.campaigns["mct"]
    for cluster, counts in campaign.per_cluster(
            campaign.requests_per_sed()).items():
        print(f"  {cluster:20s} {counts}")

    default_span = result.part2_makespans()["default"]
    mct_span = result.part2_makespans()["mct"]
    print(f"\nconclusion: MCT plug-in finishes the parallel section in "
          f"{hms(mct_span)} vs {hms(default_span)} for the default policy "
          f"({result.improvement_over_default() * 100:.1f}% better) — "
          f"the paper's prediction holds.")


if __name__ == "__main__":
    main()
