"""The data grid's catalog and memo agree with the stores.

One §5.1 stack (11 SeDs under their LAs, one ``DataGrid``), under each
data policy in turn, is driven by an arbitrary sequence of PERSISTENT /
STICKY puts, cross-SeD resolves, SeD crashes and restarts, and memo
populations; the replicating policies push a replica on every put.  After
every step:

* the root catalog's replicas are exactly the union of the live SeDs'
  store contents, each listed under its holder;
* no replica names a down SeD;
* every memo entry's owner is up and holds every handle the entry names.

A store only grows while its SeD lives and empties when it crashes, so
these are equalities, not inclusions.
"""

import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import (
    BaseType,
    DataError,
    DataHandle,
    PersistenceMode,
    ProfileDesc,
    deploy_paper_hierarchy,
    scalar_desc,
)
from repro.core.requests import MemoHit
from repro.data import DATA_POLICIES
from repro.platform import build_grid5000
from repro.sim import Engine

#: A small value pool, so repeated puts on one SeD alias by content.
_VALUES = ("ic", "restart", "tarball", "halos")
#: A small key pool, so repeated memo puts exercise "first writer wins".
_KEYS = ("k0", "k1", "k2")
_MODES = (PersistenceMode.PERSISTENT, PersistenceMode.STICKY)


def _noop_desc():
    desc = ProfileDesc("noop", 0, 0, 0)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    return desc


def _solve_noop(profile, ctx):
    yield from ctx.execute(0.1)
    return 0


class DataGridMachine(RuleBasedStateMachine):
    def __init__(self, data_policy):
        super().__init__()
        self.dep = deploy_paper_hierarchy(build_grid5000(Engine()),
                                          data_policy=data_policy)
        for sed in self.dep.seds:
            sed.add_service(_noop_desc(), _solve_noop)
        self.dep.launch_all()
        self.grid = self.dep.data_grid
        self.serial = itertools.count()
        #: Every handle a put returned, and every data id ever stored.
        self.handles = []
        self.known = set()

    def live(self):
        return [s for s in self.dep.seds if not s.is_down]

    def down(self):
        return [s for s in self.dep.seds if s.is_down]

    def holders(self):
        return [s for s in self.live() if len(s.data_manager.store)]

    # -- rules ----------------------------------------------------------------

    @initialize(data=st.data(), value=st.sampled_from(_VALUES),
                mode=st.sampled_from(_MODES))
    def first_put(self, data, value, mode):
        # Every rule is enabled from the first step on.
        self.put(data, value, mode)

    @rule(data=st.data(), value=st.sampled_from(_VALUES),
          mode=st.sampled_from(_MODES))
    def put(self, data, value, mode):
        sed = data.draw(st.sampled_from(self.live()), label="sed")
        nbytes = 1000 * (1 + _VALUES.index(value))
        data_id = sed.data_manager.put(
            f"{sed.name}/d{next(self.serial)}", value, nbytes, mode)
        self.handles.append(DataHandle(data_id, sed.name, nbytes))
        self.known.add(data_id)

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def resolve(self, data):
        handle = data.draw(st.sampled_from(self.handles), label="handle")
        others = [s for s in self.live() if s.name != handle.sed_name]
        sed = data.draw(st.sampled_from(others), label="sed")
        try:
            self.dep.engine.run_process(sed.data_manager.resolve(handle))
        except DataError:
            pass  # owner down and no replica left, or the datum is sticky

    @precondition(lambda self: len(self.live()) > 2)
    @rule(data=st.data())
    def crash(self, data):
        data.draw(st.sampled_from(self.live()), label="sed").crash()

    @precondition(lambda self: self.down())
    @rule(data=st.data())
    def restart(self, data):
        data.draw(st.sampled_from(self.down()), label="sed").restart()
        self.dep.engine.run()  # the re-registration lands

    @precondition(lambda self: self.holders())
    @rule(data=st.data(), key=st.sampled_from(_KEYS))
    def memo_put(self, data, key):
        sed = data.draw(st.sampled_from(self.holders()), label="owner")
        store = sed.data_manager.store
        ids = data.draw(st.lists(st.sampled_from(sorted(store.data_ids())),
                                 min_size=1, max_size=3, unique=True),
                        label="data ids")
        self.grid.memo.put(MemoHit(key=key, owner=sed.name, out_values={
            i: DataHandle(d, sed.name, store.entry(d).nbytes)
            for i, d in enumerate(ids)}))

    # -- invariants -------------------------------------------------------------

    def replicas(self):
        return [r for d in sorted(self.known)
                for r in self.grid.root.locate(d)]

    @invariant()
    def catalog_is_the_live_stores(self):
        catalog = {(r.data_id, r.sed_name, r.host_name)
                   for r in self.replicas()}
        stores = {(d, s.name, s.host.name) for s in self.live()
                  for d in s.data_manager.store.data_ids()}
        assert catalog == stores
        # Nothing the stores never held hides in the catalog either.
        assert len(self.grid.root) == len({d for d, _, _ in catalog})

    @invariant()
    def no_replica_names_a_down_sed(self):
        down = {s.name for s in self.down()}
        assert not [r for r in self.replicas() if r.sed_name in down]

    @invariant()
    def memo_entries_are_servable(self):
        memo = self.grid.memo
        hits = [memo.peek(k) for k in _KEYS if memo.peek(k) is not None]
        assert len(memo) == len(hits)
        for hit in hits:
            owner = self.dep.sed_by_name(hit.owner)
            assert not owner.is_down
            for handle in hit.out_values.values():
                assert handle.data_id in owner.data_manager.store


@pytest.mark.parametrize("data_policy", DATA_POLICIES)
def test_catalog_and_memo_agree_with_the_stores(data_policy):
    run_state_machine_as_test(
        lambda: DataGridMachine(data_policy),
        settings=settings(max_examples=200, stateful_step_count=40,
                          deadline=None))
