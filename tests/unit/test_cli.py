"""Unit tests for the ``python -m repro`` command-line interface."""

import functools
import inspect

import pytest

from repro import __main__ as cli
from repro.__main__ import build_parser, main
from repro.data import DATA_POLICIES


class TestParser:
    def test_experiment_subcommands_exist(self):
        parser = build_parser()
        for name in ("timings", "figure4", "figure5", "overhead",
                     "architecture", "campaign", "list"):
            args = parser.parse_args([name] if name != "campaign"
                                     else ["campaign"])
            assert args.command == name

    def test_campaign_options(self):
        args = build_parser().parse_args(
            ["campaign", "--n-sub", "7", "--policy", "mct", "--seed", "9"])
        assert args.n_sub == 7
        assert args.policy == "mct"
        assert args.seed == 9

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--policy", "quantum"])

    def test_data_policy_choices_are_the_table(self, capsys):
        parser = build_parser()
        for name in DATA_POLICIES:
            args = parser.parse_args(["campaign", "--data-policy", name])
            assert args.data_policy == name
        with pytest.raises(SystemExit):
            parser.parse_args(["campaign", "--data-policy", "bogus"])
        listed = ", ".join(repr(name) for name in DATA_POLICIES)
        assert f"(choose from {listed})" in capsys.readouterr().err

    def test_load_options(self):
        args = build_parser().parse_args(
            ["load", "--loads", "1,5", "--duration", "10", "--clients",
             "200", "--grids", "3", "--churn", "0", "--jobs", "2"])
        assert args.command == "load"
        assert args.loads == (1.0, 5.0)
        assert args.duration == 10.0
        assert args.clients == 200
        assert args.grids == 3
        assert args.churn == 0
        assert args.jobs == 2

    @pytest.mark.parametrize("name", ["architecture", "figure2", "figure3",
                                      "scaling"])
    def test_observability_flags_only_where_spans_exist(self, name, capsys):
        """No campaign behind these, so no flag that could only ever print
        'no span stores recorded'."""
        with pytest.raises(SystemExit):
            build_parser().parse_args([name, "--profile"])
        assert "--profile" in capsys.readouterr().err

    def test_every_row_parses_bare_and_offers_jobs_iff_run_takes_it(self):
        parser = build_parser()
        for name, row in cli._EXPERIMENTS.items():
            args = parser.parse_args([name])
            takes_jobs = "jobs" in inspect.signature(row.run).parameters
            assert hasattr(args, "jobs") == takes_jobs, name
            assert hasattr(args, "profile") == row.spans, name


def _defaults(run, *skip):
    return {name: p.default
            for name, p in inspect.signature(run).parameters.items()
            if name not in skip}


_LOAD = _defaults(cli.load_federation.run, "routings")
_SURVEY = _defaults(cli.survey_campaign.run)
_LOCALITY = _defaults(cli.data_locality.run, "policies", "seed")
_LOAD_SMOKE = dict(_LOAD, loads=(3.0, 8.0), duration=15.0, n_clients=500,
                   churn=1, jobs=2)

#: (argv, the keywords ``run`` must receive): the four CI smoke command
#: lines, then each sweep bare — which must hand ``run`` its own defaults.
WIRING = [
    (["data-locality", "--n-sub", "12", "--jobs", "2"],
     dict(_LOCALITY, n_sub_simulations=12, jobs=2)),
    (["load", "--loads", "3,8", "--duration", "15", "--clients", "500",
      "--churn", "1", "--jobs", "2"], _LOAD_SMOKE),
    (["load", "--loads", "3,8", "--duration", "15", "--clients", "500",
      "--churn", "1", "--jobs", "2", "--memo", "on", "--zipf", "0.3,2.5"],
     dict(_LOAD_SMOKE, memo="on", zipf=(0.3, 2.5))),
    (["survey", "--points", "2x2", "--resolution", "32", "--planes", "4",
      "--zooms", "1", "--routings", "pull,push", "--policies", "default",
      "--data-policies", "volatile,persistent", "--jobs", "2"],
     dict(_SURVEY, shape=(2, 2), resolution=32, n_planes=4, zooms=1,
          routings=("pull", "push"), policies=("default",),
          data_policies=("volatile", "persistent"), jobs=2)),
    (["load"], _LOAD),
    (["survey"], _SURVEY),
    (["data-locality"], _LOCALITY),
    (["load", "--profile"], dict(_LOAD, observe=True)),
]


class TestWiring:
    """Flag -> ``run`` keyword, without running anything."""

    @pytest.mark.parametrize("argv,expected", WIRING,
                             ids=[" ".join(argv) for argv, _ in WIRING])
    def test_argv_reaches_run_keywords(self, argv, expected, monkeypatch,
                                       capsys):
        row = cli._EXPERIMENTS[argv[0]]
        calls = []

        @functools.wraps(row.run)   # keeps the signature the CLI reads
        def spy(**kwargs):
            calls.append(kwargs)

        monkeypatch.setitem(cli._EXPERIMENTS, argv[0], row._replace(
            run=spy, render=lambda result: "rendered"))
        assert main(argv) == 0
        assert calls == [expected]
        assert capsys.readouterr().out.startswith("rendered\n")


class TestMain:
    """Flagged runs and the listing; every row's bare stdout, ``list``
    included, is pinned in tests/integration/test_paper_numbers.py."""

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "timings" in out and "campaign" in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_campaign_with_trace(self, capsys, tmp_path):
        path = str(tmp_path / "t.csv")
        assert main(["campaign", "--n-sub", "5", "--trace-csv", path]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        with open(path) as fh:
            assert len(fh.readlines()) == 7   # header + part1 + 5 zooms

    def test_load_quick_run(self, capsys):
        assert main(["load", "--loads", "3", "--duration", "5",
                     "--clients", "50", "--churn", "0", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "saturation throughput" in out
        assert "routing=pull" in out and "routing=push" in out
