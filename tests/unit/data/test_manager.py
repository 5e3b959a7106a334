"""Unit tests for the grid-wired data managers (catalog, transfers,
replication, crash cleanup, the MCT locality hook)."""

import numpy as np
import pytest

from repro.core import (
    BaseType,
    DataHandle,
    PersistenceMode,
    ProfileDesc,
    deploy_paper_hierarchy,
    scalar_desc,
)
from repro.core.exceptions import CommunicationError, DataError
from repro.data import DataManagerConfig
from repro.platform import build_grid5000
from repro.sim import Engine


def _noop_desc():
    desc = ProfileDesc("noop", 0, 0, 0)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    return desc


def _solve_noop(profile, ctx):
    yield from ctx.execute(0.1)
    return 0


def build(config=None, **kwargs):
    dep = deploy_paper_hierarchy(
        build_grid5000(Engine()), data=config or DataManagerConfig(**kwargs)
    )
    for sed in dep.seds:
        sed.add_service(_noop_desc(), _solve_noop)
    dep.launch_all()
    dep.client.initialize({"MA_name": "MA"})
    return dep


def put(sed, data_id, value, nbytes, mode=PersistenceMode.PERSISTENT):
    canonical = sed.data_manager.put(data_id, value, nbytes, mode)
    return DataHandle(canonical, sed.name, nbytes)


class TestCatalogWiring:
    def test_put_registers_through_la_to_ma(self):
        dep = build()
        sed = dep.seds[0]
        put(sed, "d1", "payload", 1000)
        located = dep.data_grid.root.locate("d1")
        assert [r.sed_name for r in located] == [sed.name]
        assert located[0].volume == sed.nfs.name

    def test_same_content_dedups_to_one_entry(self):
        dep = build()
        sed = dep.seds[0]
        value = np.arange(64, dtype=float)
        h1 = put(sed, "d1", value, 512)
        h2 = put(sed, "d2", value.copy(), 512)
        assert h2.data_id == h1.data_id  # aliased, not re-stored
        assert len(sed.data_manager.store) == 1
        assert dep.data_grid.stats.dedup == 1

    def test_crash_unregisters_store_but_not_checkpoints(self):
        dep = build()
        sed = dep.seds[0]
        put(sed, "d1", "x", 100)
        dep.engine.run_process(sed.nfs.write(sed.host.name, "zoom/ckpt", 500))
        sed.data_manager.register_checkpoint("zoom/ckpt", 500, sed.nfs)
        sed.crash()
        assert dep.data_grid.root.locate("d1") == []
        # The dump lives on NFS, not in the SeD process: it survives.
        assert dep.data_grid.root.locate("ckpt:zoom/ckpt") != []


class TestCheckpointPull:
    """``pull_checkpoint`` stages a dump from another cluster's volume; a
    crash of the pulling SeD mid-transfer must end the solve there."""

    PATH = "zoom/ckpt"
    NBYTES = 10**9  # seconds of WAN transfer: room to crash in the middle

    def _stack(self):
        """A remote dump advertised through the catalog, plus one SeD
        offering a service that pulls it and then computes."""
        dep = build()
        source = dep.seds[0]
        puller = next(s for s in dep.seds if s.cluster != source.cluster)
        dep.engine.run_process(
            source.nfs.write(source.host.name, self.PATH, self.NBYTES)
        )
        source.data_manager.register_checkpoint(self.PATH, self.NBYTES, source.nfs)
        journal = []

        def solve(profile, ctx):
            journal.append("pulling")
            pulled = yield from ctx.sed.data_manager.pull_checkpoint(self.PATH)
            journal.append(("pulled", pulled, ctx.sed.is_down))
            yield from ctx.execute(5.0)
            journal.append("computed")
            return 0

        desc = ProfileDesc("resume", 0, 0, 0)
        desc.set_arg(0, scalar_desc(BaseType.INT))
        puller.add_service(desc, solve)  # only the puller offers it
        profile = desc.instantiate()
        profile.parameter(0).set(1)
        return dep, puller, profile, journal

    def test_pull_stages_the_dump_locally(self):
        dep, puller, profile, journal = self._stack()

        def run():
            return (yield from dep.client.call(profile))

        assert dep.engine.run_process(run()) == 0
        assert journal == ["pulling", ("pulled", True, False), "computed"]
        assert puller.nfs.exists(self.PATH)
        assert dep.data_grid.stats.checkpoint_pulls == 1
        assert dep.data_grid.stats.bytes_moved == self.NBYTES

    def test_crash_mid_pull_ends_the_solve(self):
        dep, puller, profile, journal = self._stack()
        outcome = {}

        def saboteur():
            while journal != ["pulling"]:
                yield dep.engine.timeout(0.01)
            yield dep.engine.timeout(0.5)  # dump is on the wire
            puller.crash()
            outcome["crashed_at"] = dep.engine.now

        def run():
            dep.engine.process(saboteur(), name="saboteur")
            try:
                yield from dep.client.call(profile)
            except CommunicationError:
                outcome["raised_at"] = dep.engine.now

        dep.engine.run_process(run())
        dep.engine.run()  # anything the dead solve left scheduled
        assert journal == ["pulling"]  # nothing ran after the interrupt
        assert outcome["raised_at"] == outcome["crashed_at"]
        assert puller.job_slots.count == 0
        assert not puller.nfs.exists(self.PATH)
        assert dep.data_grid.stats.checkpoint_pulls == 0


class TestResolve:
    def test_local_hit_costs_nothing(self):
        dep = build()
        sed = dep.seds[0]
        handle = put(sed, "d1", "payload", 1000)

        def run():
            value = yield from sed.data_manager.resolve(handle)
            return value

        assert dep.engine.run_process(run()) == "payload"
        stats = dep.data_grid.stats
        assert stats.hits == 1
        assert stats.bytes_moved == 0 and stats.bytes_nfs == 0

    def test_same_cluster_pull_takes_nfs_fast_path(self):
        dep = build()
        owner, sibling = dep.seds[0], dep.seds[1]
        assert owner.cluster == sibling.cluster
        handle = put(owner, "d1", "payload", 10_000)

        def run():
            value = yield from sibling.data_manager.resolve(handle)
            return value

        assert dep.engine.run_process(run()) == "payload"
        stats = dep.data_grid.stats
        assert stats.bytes_nfs == 10_000
        assert stats.bytes_moved == 0  # never crossed the network

    def test_cross_cluster_pull_moves_bytes(self):
        dep = build()
        owner = dep.seds[0]
        remote = next(s for s in dep.seds if s.cluster != owner.cluster)
        handle = put(owner, "d1", "payload", 10_000)

        def run():
            value = yield from remote.data_manager.resolve(handle)
            return value

        assert dep.engine.run_process(run()) == "payload"
        stats = dep.data_grid.stats
        assert stats.misses == 1
        assert stats.bytes_moved == 10_000

    def test_concurrent_pulls_coalesce(self):
        dep = build()
        owner = dep.seds[0]
        remote = next(s for s in dep.seds if s.cluster != owner.cluster)
        handle = put(owner, "d1", "payload", 10_000)
        values = []

        def puller():
            value = yield from remote.data_manager.resolve(handle)
            values.append(value)

        dep.engine.process(puller())
        dep.engine.process(puller())
        dep.engine.run()
        assert values == ["payload", "payload"]
        stats = dep.data_grid.stats
        assert stats.coalesced == 1
        assert stats.bytes_moved == 10_000  # one wire transfer, not two

    def test_unknown_id_raises_data_error(self):
        dep = build()
        sed = dep.seds[0]
        bogus = DataHandle("ghost", dep.seds[3].name, 100)

        def run():
            yield from sed.data_manager.resolve(bogus)

        with pytest.raises(DataError):
            dep.engine.run_process(run())


class TestReplication:
    def test_eager_broadcast_replicates_to_every_other_cluster(self):
        dep = build(replication="eager-broadcast")
        owner = dep.seds[0]
        put(owner, "d1", "payload", 5000)
        dep.engine.run()  # drain the replication pushes
        holders = {r.sed_name for r in dep.data_grid.root.locate("d1")}
        assert owner.name in holders
        other_clusters = {s.cluster for s in dep.seds if s.cluster != owner.cluster}
        replicated = {dep.sed_by_name(n).cluster for n in holders if n != owner.name}
        assert replicated == other_clusters
        assert dep.data_grid.stats.replicas == len(other_clusters)

    def test_pulled_copies_stay_put_under_any_policy(self):
        """DTM semantics: a pulled PERSISTENT datum remains on the pulling
        SeD even with replication disabled."""
        dep = build()  # replication="none"
        owner = dep.seds[0]
        remote = next(s for s in dep.seds if s.cluster != owner.cluster)
        handle = put(owner, "d1", "payload", 5000)

        def run():
            yield from remote.data_manager.resolve(handle)

        dep.engine.run_process(run())
        assert handle.data_id in remote.data_manager.store
        # A second resolve on the same SeD is now a local hit.
        dep.engine.run_process(run())
        assert dep.data_grid.stats.hits == 1
        assert dep.data_grid.stats.bytes_moved == 5000  # one transfer only

    def test_per_cluster_policy_pushes_a_sibling_replica(self):
        dep = build(replication="per-cluster")
        owner = dep.seds[0]
        sibling = dep.seds[1]
        assert owner.cluster == sibling.cluster
        put(owner, "d1", "payload", 5000)
        dep.engine.run()  # drain the replication push
        holders = {r.sed_name for r in dep.data_grid.root.locate("d1")}
        assert holders == {owner.name, sibling.name}
        # The owner crashing no longer loses the dataset.
        owner.crash()
        assert [r.sed_name for r in dep.data_grid.root.locate("d1")] == [sibling.name]


class TestStickyOnGrid:
    def test_sticky_never_serves_to_peers(self):
        dep = build()
        owner = dep.seds[0]
        remote = next(s for s in dep.seds if s.cluster != owner.cluster)
        handle = put(owner, "pin", "secret", 100, mode=PersistenceMode.STICKY)

        def run():
            yield from remote.data_manager.resolve(handle)

        with pytest.raises(DataError, match="sticky|failed"):
            dep.engine.run_process(run())


class TestSchedulingHook:
    def test_transfer_cost_zero_when_resident(self):
        dep = build()
        sed = dep.seds[0]
        handle = put(sed, "d1", "payload", 10**8)
        costs = dep.data_grid.transfer_cost([handle], dep.sed_names)
        assert costs[sed.name] == 0.0
        others = [c for n, c in costs.items() if n != sed.name]
        assert all(c > 0.0 for c in others)
        # Same-site SeDs are cheaper sources than cross-WAN ones.
        sibling = dep.seds[1]
        far = next(s for s in dep.seds if s.cluster != sed.cluster)
        assert costs[sibling.name] < costs[far.name]

    def test_mct_prefers_the_data_owner(self):
        """With a large persistent argument in play, MCT's completion
        estimate must send the job to the SeD already holding the bytes."""
        from repro.core import EstimationVector, SchedulingContext
        from repro.core.scheduling import make_policy

        dep = build()
        owner = dep.seds[0]
        handle = put(owner, "d1", "payload", 10**9)
        ctx = SchedulingContext()
        ctx.data_transfer_cost = dep.data_grid.transfer_cost([handle], dep.sed_names)
        cands = [
            EstimationVector(n, {"EST_SPEED": 1.0, "EST_TCOMP": 100.0})
            for n in dep.sed_names
        ]
        chosen = make_policy("mct").choose(cands, ctx)
        assert chosen.sed_name == owner.name
