"""Unit tests for the NFS working-directory model."""

import pytest

from repro.platform import NfsError, NfsVolume
from repro.sim import Engine


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def volume(engine):
    vol = NfsVolume(engine, "nfs-test", capacity_bytes=1000,
                    throughput=100.0)
    vol.export_to("node0")
    vol.export_to("node1")
    return vol


class TestMounts:
    def test_mounted_hosts_allowed(self, engine, volume):
        def writer():
            yield from volume.write("node0", "f", 100)

        engine.run_process(writer())
        assert volume.exists("f")

    def test_unmounted_host_rejected(self, engine, volume):
        def writer():
            yield from volume.write("intruder", "f", 10)

        with pytest.raises(NfsError, match="does not mount"):
            engine.run_process(writer())

    def test_validation(self, engine):
        with pytest.raises(ValueError):
            NfsVolume(engine, "bad", capacity_bytes=0)


class TestContents:
    def test_overwrite_replaces_size(self, engine, volume):
        def proc():
            yield from volume.write("node0", "f", 400)
            yield from volume.write("node0", "f", 100)

        engine.run_process(proc())
        assert volume.used_bytes == 100

    def test_capacity_enforced(self, engine, volume):
        def proc():
            yield from volume.write("node0", "a", 900)
            yield from volume.write("node0", "b", 200)

        with pytest.raises(NfsError, match="full"):
            engine.run_process(proc())


class TestTiming:
    def test_write_charges_throughput_time(self, engine, volume):
        def proc():
            yield from volume.write("node0", "f", 500)
            return engine.now

        assert engine.run_process(proc()) == pytest.approx(5.0)

    def test_concurrent_accesses_do_not_queue(self, engine, volume):
        """Each access takes nbytes / throughput whatever else is in flight."""
        ends = []

        def writer(i):
            yield from volume.write("node0", f"f{i}", 200)
            ends.append(engine.now)

        def reader():
            yield from volume.read_bytes("node1", 300)
            ends.append(engine.now)

        for i in range(3):
            engine.process(writer(i))
        engine.process(reader())
        engine.run()
        assert ends == [pytest.approx(2.0)] * 3 + [pytest.approx(3.0)]


class TestWriteReservations:
    """In-flight writes reserve capacity; a crash must release it."""

    def test_concurrent_writes_cannot_oversubscribe(self, engine, volume):
        """Two 600-byte writes on a 1000-byte volume: the second is refused
        while the first is still in flight, even though used_bytes is 0."""
        outcomes = []

        def writer(path):
            try:
                yield from volume.write("node0", path, 600)
                outcomes.append("ok")
            except NfsError:
                outcomes.append("full")

        engine.process(writer("a"))
        engine.process(writer("b"))
        engine.run()
        assert sorted(outcomes) == ["full", "ok"]
        assert volume.used_bytes == 600

    def test_reservation_released_on_completion(self, engine, volume):
        def writer():
            yield from volume.write("node0", "f", 600)

        engine.run_process(writer())
        assert volume.reserved_bytes == 0

    def test_release_host_frees_crashed_writers_reservation(self, engine,
                                                            volume):
        """A writer that dies mid-write (its generator is never resumed)
        leaks its reservation unless release_host drops it — and its
        partial file must never land."""
        def writer():
            yield from volume.write("node0", "partial", 600)

        engine.process(writer())
        engine.run(until=1.0)            # mid-write: 600 B at 100 B/s
        assert volume.reserved_bytes == 600
        assert volume.release_host("node0") == 1
        assert volume.reserved_bytes == 0
        # The freed capacity is immediately usable by another host.
        def writer2():
            yield from volume.write("node1", "fresh", 900)

        engine.run_process(writer2())
        assert volume.exists("fresh")
        # The crashed writer's file never appears, even after its timeout
        # event fires.
        engine.run()
        assert not volume.exists("partial")

    def test_release_host_is_idempotent_and_scoped(self, engine, volume):
        def writer():
            yield from volume.write("node0", "f", 300)

        engine.process(writer())
        engine.run(until=1.0)
        assert volume.release_host("node1") == 0   # other host: untouched
        assert volume.reserved_bytes == 300
        assert volume.release_host("node0") == 1
        assert volume.release_host("node0") == 0   # second call: no-op
