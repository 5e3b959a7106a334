"""Shared benchmark configuration.

Every figure/table benchmark runs its experiment through pytest-benchmark
(so `pytest benchmarks/ --benchmark-only` regenerates the paper's results
with timing) and prints the experiment's report — the same rows/series the
paper presents — to the terminal report section.
"""

import gc

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "report: experiment benchmark with a printed report")


@pytest.fixture
def show_report(request, capsys):
    """Collect a rendered experiment report and emit it after the test."""
    reports = []

    def _add(text: str) -> None:
        reports.append(text)

    yield _add
    if reports:
        with capsys.disabled():
            print()
            print("=" * 78)
            print(f"[{request.node.name}]")
            for text in reports:
                print(text)
            print("=" * 78)


def _collector_totals() -> dict:
    stats = gc.get_stats()
    return {"gc_collections": [gen["collections"] for gen in stats],
            "gc_collected": sum(gen["collected"] for gen in stats)}


@pytest.fixture
def measure_events(benchmark, show_report):
    """``measure_events(label, run, rounds)``: time ``run`` (which returns
    the number of kernel events it dispatched) and record, in
    ``extra_info`` and the printed report, events/sec and what the cyclic
    collector did meanwhile — runs per generation and objects freed.  An
    object in a reference cycle shows up there as an exact count."""

    def measure(label: str, run, rounds: int) -> None:
        gc.collect()
        before = _collector_totals()
        n_events = benchmark.pedantic(run, rounds=rounds, iterations=1)
        after = _collector_totals()
        runs = [a - b for a, b in zip(after["gc_collections"],
                                      before["gc_collections"])]
        freed = after["gc_collected"] - before["gc_collected"]
        benchmark.extra_info.update(events=n_events, gc_collections=runs,
                                    gc_collected=freed)
        line = (f"{label}: {n_events} events; collector ran {runs} times "
                f"per generation and freed {freed} objects")
        if benchmark.stats is not None:  # None under --benchmark-disable
            rate = n_events / benchmark.stats.stats.mean
            benchmark.extra_info["events_per_sec"] = rate
            line += (f"; {rate / 1e3:.0f}k events/sec (mean of "
                     f"{benchmark.stats.stats.rounds} rounds)")
        show_report(line)

    return measure
