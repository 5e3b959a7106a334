"""Command-line interface: ``python -m repro <experiment>``.

Runs one experiment reproduction and prints its report — the same modules
the benchmark suite drives, without pytest in the way.

    python -m repro list                 # what can I run?
    python -m repro timings              # E1, the §5.2 headline numbers
    python -m repro figure4              # E2/E3
    python -m repro figure4 --trace out.json --gantt-svg gantt.svg
    python -m repro campaign --policy mct --n-sub 50 --profile

Every campaign-backed experiment accepts the observability flags:
``--trace PATH`` writes a Chrome-trace/Perfetto JSON of the span store,
``--gantt-svg PATH`` renders the per-SeD solve timeline (Figure 4's chart)
as a standalone SVG, and ``--profile`` prints a flat self-time report
aggregated across every campaign the experiment ran — including campaigns
computed in parallel worker processes (their span stores travel home inside
the detached results).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from .data import DATA_POLICIES
from .experiments import (
    ablation_scheduler,
    data_locality,
    degraded_campaign,
    figure1_architecture,
    figure2_density,
    figure3_zoom,
    load_federation,
    paper_campaign,
    scaling_nodes,
    survey_campaign,
)
from .experiments.report import hms, mib
from .experiments.runner import collect_span_stores
from .services import CampaignConfig, CampaignResult, run_campaign


class Opt(NamedTuple):
    """``flag`` feeds ``run``'s ``keyword`` through ``convert``; the default
    is ``run``'s own, read from its signature, so it is written once."""

    flag: str
    keyword: str
    convert: Callable[[str], Any]
    help: str
    choices: Optional[Tuple[str, ...]] = None


class Experiment(NamedTuple):
    """One subcommand.  ``--jobs`` is offered iff ``run`` accepts ``jobs``,
    the observability flags iff ``spans`` says the result can carry span
    stores; ``export`` is ``(flag, help, write(result, path) -> lines)`` for
    a ``--flag PATH`` that files the finished result somewhere."""

    description: str
    run: Callable[..., Any]
    render: Callable[[Any], str]
    options: Tuple[Opt, ...] = ()
    spans: bool = False
    export: Optional[Tuple[str, str, Callable[[Any, str], List[str]]]] = None


def _seq(item: Callable[[str], Any], sep: str = ",") -> Callable[[str], Tuple]:
    """Converter for ``sep``-separated values, e.g. ``2,4,8`` or ``3x3``."""
    def parse(text: str) -> Tuple:
        return tuple(item(part) for part in text.split(sep))
    parse.sep = sep
    parse.__name__ = f"{sep}-separated {item.__name__} list"
    return parse


def _custom_campaign(n_sub_simulations: int = 100, policy: str = "default",
                     seed: int = 2007, routing: str = "pull",
                     data_policy: str = "volatile") -> CampaignResult:
    return run_campaign(CampaignConfig(
        n_sub_simulations=n_sub_simulations, policy=policy, seed=seed,
        routing=routing, data_policy=data_policy))


def _render_campaign(result: CampaignResult) -> str:
    cfg = result.config
    lines = [
        f"campaign: {cfg.n_sub_simulations} zoom requests, "
        f"policy={cfg.policy}, seed={cfg.seed}"
        + (f", routing={cfg.routing}" if cfg.routing != "pull" else "")
        + (f", data-policy={cfg.data_policy}"
           if cfg.data_policy != "volatile" else ""),
        f"  part 1:          {hms(result.part1_duration)}",
        f"  part 2 mean:     {hms(result.part2_mean_duration)}",
        f"  total elapsed:   {hms(result.total_elapsed)}",
        f"  sequential:      {result.sequential_estimate / 3600:.1f} h",
        f"  speedup:         {result.speedup:.2f}x",
        f"  requests/SeD:    {sorted(result.requests_per_sed().values())}",
    ]
    if cfg.data_policy != "volatile":
        lines.append(f"  network bytes:   "
                     f"{mib(result.net_bytes_total, 1)} MiB total, "
                     f"{mib(result.net_bytes_wan, 1)} MiB over WAN")
    return "\n".join(lines)


def _write_trace_csv(result: CampaignResult, path: str) -> List[str]:
    result.tracer.write_csv(path)
    return [f"  trace written to {path}"]


def _write_batches(result, path: str) -> List[str]:
    return [f"batch manifest: {manifest}"
            for manifest in survey_campaign.write_batches(result, path)]


_GRIDS = Opt("--grids", "n_grids", int, "MA hierarchies in the federation")
_SEED = Opt("--seed", "seed", int, "base seed shared by every sweep point")

#: The one table behind ``list``, the parser and :func:`main`.
_EXPERIMENTS: Dict[str, Experiment] = {
    "architecture": Experiment(
        "Figure 1: the deployed DIET hierarchy",
        figure1_architecture.run, figure1_architecture.render),
    "timings": Experiment(
        "E1: §5.2 campaign timings vs the paper",
        run_campaign, paper_campaign.render_timings, spans=True),
    "figure4": Experiment(
        "E2/E3: request distribution + per-SeD execution time",
        run_campaign, paper_campaign.render_figure4, spans=True),
    "figure5": Experiment(
        "E4/E5: finding time + latency",
        run_campaign, paper_campaign.render_figure5, spans=True),
    "overhead": Experiment(
        "E6: middleware overhead",
        run_campaign, paper_campaign.render_overhead, spans=True),
    "ablation": Experiment(
        "E7: plug-in scheduler ablation",
        ablation_scheduler.run, ablation_scheduler.render, spans=True),
    "routing": Experiment(
        "E7b: pull vs push estimate routing at growing widths",
        ablation_scheduler.run_routing, ablation_scheduler.render_routing,
        spans=True),
    "figure2": Experiment(
        "E8: projected density through cosmic time (real run)",
        figure2_density.run, figure2_density.render),
    "figure3": Experiment(
        "E9: zoom re-simulation of a halo (real run)",
        figure3_zoom.run, figure3_zoom.render),
    "scaling": Experiment(
        "E10: nodes-per-SeD scaling ablation",
        scaling_nodes.run, scaling_nodes.render),
    "degraded": Experiment(
        "E11: the campaign under injected SeD failures",
        degraded_campaign.run, degraded_campaign.render, spans=True),
    "data-locality": Experiment(
        "E12: data-locality ablation (volatile vs persistent vs replicated)",
        data_locality.run, data_locality.render, spans=True, options=(
            Opt("--n-sub", "n_sub_simulations", int,
                "zoom sub-simulations per arm"),)),
    "load": Experiment(
        "E13: federated load sweep (multi-MA, open-loop traffic, "
        "SeD churn; pull vs push)",
        load_federation.run, load_federation.render, spans=True, options=(
            Opt("--loads", "loads", _seq(float),
                "comma-separated offered loads in requests/s"),
            Opt("--duration", "duration", float,
                "seconds of open-loop arrivals per point"),
            Opt("--clients", "n_clients", int,
                "Zipf-ranked logical client population (scales to 10^6)"),
            _GRIDS,
            Opt("--clusters-per-grid", "clusters_per_grid", int,
                "clusters per grid from the paper catalogue"),
            Opt("--churn", "churn", int,
                "SeD outages injected per point (0 disables churn)"),
            _SEED,
            Opt("--zipf", "zipf", _seq(float),
                "comma-separated Zipf skew values for the client "
                "population"),
            Opt("--memo", "memo", str,
                "grid-wide result memoization keyed on canonical request "
                "descriptors", choices=("on", "off")))),
    "survey": Experiment(
        "E14: survey campaign (cosmology-grid DAGs + zoom mix; "
        "scheduler and data-policy ablations)",
        survey_campaign.run, survey_campaign.render, spans=True, options=(
            Opt("--points", "shape", _seq(int, "x"),
                "cosmology grid shape as NXxNY over the (omega_m, sigma8) "
                "plane"),
            Opt("--resolution", "resolution", int,
                "survey box resolution per dimension"),
            Opt("--planes", "n_planes", int,
                "lens planes per convergence map"),
            Opt("--z-source", "z_source", float,
                "source redshift of the lensing stage"),
            Opt("--zooms", "zooms", int,
                "background ramsesZoom2 requests sharing the SeDs "
                "(0 disables)"),
            Opt("--routings", "routings", _seq(str),
                "comma-separated routing modes"),
            Opt("--policies", "policies", _seq(str),
                "comma-separated scheduler policies"),
            Opt("--data-policies", "data_policies", _seq(str),
                "comma-separated data policies"),
            _GRIDS,
            Opt("--clusters-per-grid", "clusters_per_grid", int,
                "clusters per grid from the paper catalogue (Lyon x2 + "
                "Lille by default, so survey traffic crosses priced WAN "
                "uplinks)"),
            _SEED),
        export=("--batch-dir", "materialize each arm's products as a "
                "LensTools-style home/storage batch tree", _write_batches)),
    "campaign": Experiment(
        "custom campaign (--n-sub, --policy, --seed, --routing, "
        "--data-policy, --trace-csv)",
        _custom_campaign, _render_campaign, spans=True, options=(
            Opt("--n-sub", "n_sub_simulations", int,
                "number of zoom sub-simulations"),
            Opt("--policy", "policy", str, "scheduler policy",
                choices=("default", "mct", "min-queue", "fastest")),
            Opt("--seed", "seed", int, "campaign seed"),
            Opt("--routing", "routing", str,
                "estimate flow: per-request pull fan-out (the paper's "
                "protocol) or push deltas into materialized candidate tables",
                choices=("pull", "push")),
            Opt("--data-policy", "data_policy", str,
                "DAGDA-style data management policy: what persists on the "
                "SeDs and whether replicas are pushed",
                choices=tuple(DATA_POLICIES))),
        export=("--trace-csv", "dump the request trace table as CSV",
                _write_trace_csv)),
}


def _dest(flag: str) -> str:
    """The attribute argparse files ``flag``'s value under."""
    return flag.lstrip("-").replace("-", "_")


def _show(value: Any, sep: str = ",") -> str:
    """A default as the user would type it (``2,4,8,16``, ``3x3``)."""
    if isinstance(value, tuple):
        return sep.join(_show(item) for item in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def _export_observability(args, result: Any) -> List[str]:
    """Handle ``--trace`` / ``--gantt-svg`` / ``--profile``; returns the
    status lines to print after the experiment report."""
    if not (args.trace or args.gantt_svg or args.profile):
        return []

    from .obs import SpanStore, profile_report, svg_gantt, write_chrome_trace

    stores = collect_span_stores(result)
    if not stores:
        return ["observability: no span stores recorded "
                "(campaign ran with observe=False?)"]

    lines: List[str] = []
    if args.trace:
        if len(stores) == 1:
            merged = stores[0]
        else:
            # Multi-campaign sweeps share track names (req:1 exists in every
            # campaign); a merged store is still a valid Chrome trace — the
            # viewer groups by thread name, and all spans are closed.
            merged = SpanStore()
            for store in stores:
                merged.spans.extend(store.spans)
                merged.marks.extend(store.marks)
        write_chrome_trace(merged, args.trace)
        n = sum(len(s.spans) for s in stores)
        lines.append(f"trace: {n} spans from {len(stores)} campaign(s) "
                     f"written to {args.trace}")
    if args.gantt_svg:
        chart = stores[0].gantt(category="solve")
        with open(args.gantt_svg, "w", encoding="utf-8") as fh:
            fh.write(svg_gantt(chart))
        lines.append(f"gantt: {sum(len(v) for v in chart.values())} solves "
                     f"across {len(chart)} SeDs written to {args.gantt_svg}")
    if args.profile:
        lines.append("")
        lines.append(profile_report(
            stores, title=f"profile: {args.command} "
                          f"({len(stores)} campaign(s))"))
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce 'Cosmological Simulations using Grid "
                    "Middleware' experiments.")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")
    for name, row in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=row.description)
        params = inspect.signature(row.run).parameters
        if "jobs" in params:
            p.add_argument(
                "--jobs", "-j", type=int, default=params["jobs"].default,
                help="worker processes for the sweep (default: serial; "
                     "0 = one per CPU core)")
        for opt in row.options:
            default = params[opt.keyword].default
            shown = _show(default, getattr(opt.convert, "sep", ","))
            p.add_argument(
                opt.flag, type=opt.convert, default=default,
                choices=opt.choices,
                help=opt.help + ("" if default is None
                                 else f" (default {shown})"))
        if row.export is not None:
            p.add_argument(row.export[0], metavar="PATH", default=None,
                           help=row.export[1])
        if row.spans:
            p.add_argument("--trace", metavar="PATH", default=None,
                           help="write the span store as Chrome-trace/"
                                "Perfetto JSON")
            p.add_argument("--gantt-svg", metavar="PATH", default=None,
                           help="render the per-SeD solve timeline as an SVG")
            p.add_argument("--profile", action="store_true",
                           help="print a flat self-time profile aggregated "
                                "over all campaigns (including parallel "
                                "workers)")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in (None, "list"):
        print("available experiments:")
        width = max(len(n) for n in _EXPERIMENTS) + 2
        for name, row in _EXPERIMENTS.items():
            print(f"  {name.ljust(width)} {row.description}")
        return 0
    row = _EXPERIMENTS[args.command]
    params = inspect.signature(row.run).parameters
    kwargs = {opt.keyword: getattr(args, _dest(opt.flag))
              for opt in row.options}
    if "jobs" in params:
        kwargs["jobs"] = args.jobs
    if "observe" in params:
        kwargs["observe"] = bool(args.trace or args.gantt_svg or args.profile)
    result = row.run(**kwargs)
    print(row.render(result))
    if row.export is not None:
        flag, _help, write = row.export
        path = getattr(args, _dest(flag))
        for line in write(result, path) if path else ():
            print(line)
    if row.spans:
        for line in _export_observability(args, result):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
