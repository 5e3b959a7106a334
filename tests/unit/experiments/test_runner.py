"""Unit tests for the parallel experiment runner and result detachment."""

import pickle

import pytest

from repro.experiments import ablation_scheduler, degraded_campaign, scaling_nodes
from repro.experiments.runner import (
    Task,
    WorkerError,
    canonical_pickle,
    resolve_jobs,
    run_tasks,
)
from repro.services import CampaignConfig, DetachedDeployment, run_campaign
from repro.services.workflow import run_campaign_detached


# -- module-level task functions (must be picklable) ---------------------------

def _square(x):
    return x * x


def _fail(msg):
    raise ValueError(msg)


def _seeded(seed):
    import numpy as np

    return float(np.random.default_rng(seed).random())


def _labelled(label):
    # In-process, ``label`` and the literal below are one interned object
    # and "request_id" is shared by every dict of every task; a worker's
    # copy shares neither with the caller.
    return [{"request_id": i, "routing": label, "name": "request_id"}
            for i in range(3)] + ["pull"]


class TestResolveJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_jobs(None, 10) == 1
        assert resolve_jobs(1, 10) == 1

    def test_zero_means_cpu_count(self):
        import os

        assert resolve_jobs(0, 100) == (os.cpu_count() or 1)

    def test_clamped_to_task_count(self):
        assert resolve_jobs(16, 3) == 3


class TestRunTasks:
    def _tasks(self, n=5):
        return [Task(key=f"t{i}", func=_square, args=(i,)) for i in range(n)]

    def test_empty(self):
        assert run_tasks([]) == []

    def test_serial_results_in_order(self):
        assert run_tasks(self._tasks()) == [0, 1, 4, 9, 16]

    def test_parallel_results_in_task_order(self):
        assert run_tasks(self._tasks(), jobs=3) == [0, 1, 4, 9, 16]

    def test_parallel_matches_serial(self):
        tasks = [Task(key=f"s{i}", func=_seeded, args=(7 + i,))
                 for i in range(6)]
        assert run_tasks(tasks) == run_tasks(tasks, jobs=2)

    def test_serial_is_raw_pickle_identical_to_parallel(self):
        """Not ``canonical_pickle``: the serial leg ships each task in and
        its outcome out exactly as a pool does, so even the sharing of
        interned strings (across tasks, and between a result and the
        argument it echoes) is the same."""
        tasks = [Task(key=f"l{i}", func=_labelled, args=("pull",))
                 for i in range(3)]
        serial = run_tasks(tasks)
        assert serial == run_tasks(tasks, jobs=2)
        assert pickle.dumps(serial) == pickle.dumps(run_tasks(tasks, jobs=2))

    def test_serial_error_is_worker_error(self):
        with pytest.raises(WorkerError, match="boom"):
            run_tasks([Task(key="bad", func=_fail, args=("boom",))])

    def test_parallel_error_carries_remote_traceback(self):
        tasks = [Task(key="ok", func=_square, args=(2,)),
                 Task(key="bad", func=_fail, args=("kapow",))]
        with pytest.raises(WorkerError) as exc_info:
            run_tasks(tasks, jobs=2)
        assert exc_info.value.key == "bad"
        assert "ValueError: kapow" in exc_info.value.remote_traceback
        assert "_fail" in exc_info.value.remote_traceback


class TestCanonicalPickle:
    def test_round_trip_fixed_point(self):
        obj = {"request_id": 1, "nested": [{"request_id": 2}]}
        canon = canonical_pickle(obj)
        assert canonical_pickle(pickle.loads(canon)) == canon


class TestDetach:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(CampaignConfig(n_sub_simulations=4, seed=11))

    def test_live_result_not_picklable(self, result):
        with pytest.raises(Exception):
            pickle.dumps(result)

    #: Every headline a seed sweep reads off a detached campaign.
    HEADLINES = {
        "total_elapsed": lambda r: r.total_elapsed,
        "requests": lambda r: r.requests_per_sed(),
        "busy": lambda r: r.busy_time_per_sed(),
        "overhead": lambda r: r.overhead_per_request,
        "finding": lambda r: r.finding_times(),
        "busy_by_cluster": lambda r: r.per_cluster(r.busy_time_per_sed()),
        "requests_by_cluster": lambda r: r.per_cluster(r.requests_per_sed()),
        "busy_spread": lambda r: r.busy_spread,
        "finding_mean": lambda r: r.finding_mean,
        "finding_cv": lambda r: r.finding_cv,
        "first_wave_latency": lambda r: r.first_wave_latency,
        "init_time": lambda r: r.init_time,
        "overhead_mean": lambda r: r.overhead_mean,
    }

    def test_detach_pickles_and_keeps_accessors(self, result):
        before = {name: read(result) for name, read in self.HEADLINES.items()}
        cluster = result.deployment.cluster_of_sed(
            result.deployment.seds[0].name)
        detached = result.detach()
        assert detached is result
        assert isinstance(result.deployment, DetachedDeployment)
        restored = pickle.loads(pickle.dumps(result))
        assert {name: read(restored)
                for name, read in self.HEADLINES.items()} == before
        assert (restored.deployment.cluster_of_sed(
            restored.deployment.sed_names[0]) == cluster)

    def test_detach_idempotent(self, result):
        dep = result.detach().deployment
        assert result.detach().deployment is dep


class TestParallelExperiments:
    """Each sweep: jobs=N returns byte-identical results to the serial run."""

    N_SUB = 4

    def test_campaign_id_allocation_is_process_history_free(self):
        first = run_campaign_detached(CampaignConfig(n_sub_simulations=2, seed=3))
        again = run_campaign_detached(CampaignConfig(n_sub_simulations=2, seed=3))
        assert canonical_pickle(first) == canonical_pickle(again)

    def test_scaling_parallel_matches_serial(self):
        kwargs = dict(rank_counts=(1, 2, 4), replicate=4)
        serial = scaling_nodes.run(**kwargs)
        parallel = scaling_nodes.run(jobs=2, **kwargs)
        assert canonical_pickle(serial.breakdowns) == canonical_pickle(
            parallel.breakdowns)
        assert serial.n_particles == parallel.n_particles

    def test_ablation_parallel_matches_serial(self):
        cfg = CampaignConfig(n_sub_simulations=self.N_SUB, seed=5)
        pols = ("default", "fastest")
        serial = ablation_scheduler.run(cfg, policies=pols)
        parallel = ablation_scheduler.run(cfg, policies=pols, jobs=2)
        assert list(serial.campaigns) == list(parallel.campaigns)
        for name in serial.campaigns:
            assert (canonical_pickle(serial.campaigns[name].detach())
                    == canonical_pickle(parallel.campaigns[name]))

    def test_degraded_parallel_matches_serial(self):
        kwargs = dict(crash_counts=(1,), n_sub_simulations=self.N_SUB, seed=5)
        serial = degraded_campaign.run(**kwargs)
        parallel = degraded_campaign.run(jobs=2, **kwargs)
        assert (canonical_pickle(serial.baseline.detach())
                == canonical_pickle(parallel.baseline))
        for s_run, p_run in zip(serial.runs, parallel.runs):
            assert s_run.n_crashes == p_run.n_crashes
            assert (canonical_pickle(s_run.result.detach())
                    == canonical_pickle(p_run.result))

    def test_worker_failure_names_the_sweep_point(self):
        with pytest.raises(WorkerError) as exc_info:
            scaling_nodes.run(rank_counts=(2, 0), replicate=2, jobs=2)
        assert exc_info.value.key == "ranks=0"
        assert "ncpu must be >= 1" in str(exc_info.value)
