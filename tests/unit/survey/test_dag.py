"""Unit tests for the survey DAG and its executor (repro.survey.dag).

The executor is exercised against a scripted stub client so the tests pin
the orchestration contract in isolation: insertion-ordered launches,
bounded in-flight width, diamond dependencies, dead-letter retry and the
dependency-aware refresh of crashed persistent producers.
"""

import pytest

from repro.core.data import (
    BaseType,
    DataHandle,
    PersistenceMode,
    scalar_desc,
)
from repro.core.exceptions import ServerNotFoundError
from repro.core.profile import ProfileDesc
from repro.core.statistics import Tracer
from repro.sim.engine import Engine
from repro.survey.dag import DagError, DagExecutor, DagNodeFailed, SurveyDAG


def _desc(name: str) -> ProfileDesc:
    desc = ProfileDesc(name, 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT, PersistenceMode.PERSISTENT_RETURN))
    return desc


class ScriptedClient:
    """A stand-in DIET client: per-service scripted outcomes.

    ``script[service]`` is a list consumed per call: an Exception instance
    is raised, an int is the solve status, a (status, out_value) pair also
    sets the OUT argument.  An exhausted (or absent) script succeeds with
    status 0 and OUT value 0.  Follows the one call contract: returns the
    status and fills the handle it is given.
    """

    def __init__(self, engine, script=None, solve_time=1.0):
        self.engine = engine
        self.tracer = Tracer()
        self.script = dict(script or {})
        self.solve_time = solve_time
        self.calls = []
        self.in_flight = 0
        self.max_in_flight_seen = 0

    def call(self, profile, handle):
        self.calls.append(profile.path)
        self.in_flight += 1
        self.max_in_flight_seen = max(self.max_in_flight_seen, self.in_flight)
        try:
            yield self.engine.timeout(self.solve_time)
        finally:
            self.in_flight -= 1
        action = 0
        if self.script.get(profile.path):
            action = self.script[profile.path].pop(0)
        if isinstance(action, Exception):
            raise action
        status, value = action if isinstance(action, tuple) else (action, 0)
        profile.parameter(1).set(value)
        handle.server, handle.found_at = "stub-sed", self.engine.now
        return status


def _builder(service, results_of=(), record=None):
    """A profile builder that optionally reads upstream OUT values."""

    def build(results):
        for dep in results_of:
            results[dep].output(1)  # raises KeyError if dep missing
        if record is not None:
            record.append(service)
        profile = _desc(service).instantiate()
        profile.parameter(0).set(1)
        profile.parameter(1).set(None)
        return profile

    return build


def _run(executor):
    engine = executor.engine
    state = {}

    def drive():
        state["results"] = yield from executor.run()

    engine.run_until_complete(drive())
    return state["results"]


class TestSurveyDAG:
    def test_rejects_duplicate_nodes(self):
        dag = SurveyDAG()
        dag.add_node("a", "svc", _builder("svc"))
        with pytest.raises(DagError):
            dag.add_node("a", "svc", _builder("svc"))

    def test_rejects_unknown_dependency(self):
        dag = SurveyDAG()
        with pytest.raises(DagError):
            dag.add_node("b", "svc", _builder("svc"), deps=("a",))

    def test_roots_leaves_and_stages(self):
        dag = SurveyDAG()
        dag.add_node("a", "svc", _builder("svc"), stage="ic")
        dag.add_node("b", "svc", _builder("svc"), deps=("a",), stage="run")
        assert dag.roots() == ["a"]
        assert dag.leaves() == ["b"]
        assert dag.stages() == ["ic", "run"]


class TestDagExecutor:
    def test_diamond_dependencies_execute_in_topological_order(self):
        """a -> (b, c) -> d: the join waits for both branches and reads
        both results (the reduce-tree shape of the survey pipeline)."""
        engine = Engine()
        client = ScriptedClient(engine)
        order = []
        dag = SurveyDAG()
        dag.add_node("a", "sa", _builder("sa", record=order))
        dag.add_node("b", "sb", _builder("sb", ("a",), record=order), deps=("a",))
        dag.add_node("c", "sc", _builder("sc", ("a",), record=order), deps=("a",))
        dag.add_node(
            "d", "sd", _builder("sd", ("b", "c"), record=order), deps=("b", "c")
        )
        results = _run(DagExecutor(client, dag))
        assert set(results) == {"a", "b", "c", "d"}
        assert order == ["sa", "sb", "sc", "sd"]
        assert all(r.status == 0 for r in results.values())

    def test_in_flight_width_is_bounded(self):
        engine = Engine()
        client = ScriptedClient(engine)
        dag = SurveyDAG()
        for i in range(6):
            dag.add_node(f"n{i}", f"s{i}", _builder(f"s{i}"))
        executor = DagExecutor(client, dag, max_in_flight=2)
        _run(executor)
        assert client.max_in_flight_seen == 2
        assert executor.stats.completed == 6

    def test_independent_nodes_launch_in_insertion_order(self):
        engine = Engine()
        client = ScriptedClient(engine)
        dag = SurveyDAG()
        for name in ("first", "second", "third"):
            dag.add_node(name, name, _builder(name))
        _run(DagExecutor(client, dag, max_in_flight=1))
        assert client.calls == ["first", "second", "third"]

    def test_dead_letter_retries_then_succeeds(self):
        engine = Engine()
        client = ScriptedClient(engine, script={"sa": [ServerNotFoundError("no sed")]})
        dag = SurveyDAG()
        dag.add_node("a", "sa", _builder("sa"))
        executor = DagExecutor(client, dag, max_attempts=3)
        results = _run(executor)
        assert results["a"].status == 0
        assert results["a"].attempts == 2
        assert executor.stats.dead_letters == 1
        assert executor.stats.retries == 1

    def test_dead_letter_exhausts_attempts(self):
        engine = Engine()
        client = ScriptedClient(engine, script={"sa": [ServerNotFoundError("x")] * 5})
        dag = SurveyDAG()
        dag.add_node("a", "sa", _builder("sa"))
        executor = DagExecutor(client, dag, max_attempts=2)
        with pytest.raises(DagNodeFailed) as info:
            _run(executor)
        assert info.value.node_id == "a"
        assert executor.stats.dead_letters == 2

    def test_failed_solve_refreshes_handle_valued_dependencies(self):
        """b consumes a's PERSISTENT handle; b's first solve fails (the
        producer SeD died with the data), so the executor must re-run a,
        rebuild b's profile against the fresh handle, and succeed."""
        engine = Engine()
        handle = DataHandle(data_id="sed/req1/arg1", sed_name="sed", nbytes=64)
        client = ScriptedClient(
            engine, script={"sa": [(0, handle), (0, handle)], "sb": [1]}
        )
        dag = SurveyDAG()
        dag.add_node("a", "sa", _builder("sa"))
        dag.add_node("b", "sb", _builder("sb", ("a",)), deps=("a",))
        executor = DagExecutor(client, dag)
        results = _run(executor)
        assert results["b"].status == 0
        assert executor.stats.dep_refreshes == 1
        # a ran twice: the initial execution plus the refresh.
        assert client.calls.count("sa") == 2
        assert results["a"].attempts >= 1

    def test_failed_solve_without_handles_fails_for_good(self):
        """A plain application failure (no persistent inputs to refresh)
        must not loop: it surfaces as DagNodeFailed immediately."""
        engine = Engine()
        client = ScriptedClient(engine, script={"sa": [1, 1, 1]})
        dag = SurveyDAG()
        dag.add_node("a", "sa", _builder("sa"))
        with pytest.raises(DagNodeFailed, match="solve status 1"):
            _run(DagExecutor(client, dag))

    def test_stage_durations_accumulate_per_stage(self):
        engine = Engine()
        client = ScriptedClient(engine, solve_time=2.0)
        dag = SurveyDAG()
        dag.add_node("a", "sa", _builder("sa"), stage="ic")
        dag.add_node("b", "sb", _builder("sb"), stage="ic")
        dag.add_node("c", "sc", _builder("sc"), stage="run")
        executor = DagExecutor(client, dag)
        _run(executor)
        assert sorted(executor.stage_durations) == ["ic", "run"]
        assert len(executor.stage_durations["ic"]) == 2
        assert executor.stage_durations["run"] == [2.0]

    def test_executor_validates_width_and_attempts(self):
        engine = Engine()
        client = ScriptedClient(engine)
        dag = SurveyDAG()
        dag.add_node("a", "sa", _builder("sa"))
        with pytest.raises(DagError):
            DagExecutor(client, dag, max_in_flight=0)
        with pytest.raises(DagError):
            DagExecutor(client, dag, max_attempts=0)
