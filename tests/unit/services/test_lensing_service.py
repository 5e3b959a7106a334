"""Unit tests for the survey pipeline services
(repro.services.lensing_service)."""

import pytest

from repro.core.data import CompositeType, FileRef, PersistenceMode
from repro.services.lensing_service import (
    SURVEY_IC,
    SURVEY_STAGES,
    LensingService,
    register_survey_services,
    survey_result_modes,
)
from repro.sim.engine import Engine
from repro.survey.grid import CosmologyPoint
from repro.survey.pipeline import build_survey_dag

F, S = CompositeType.FILE, CompositeType.SCALAR
COSMO = FileRef.from_text("cosmo.ini", CosmologyPoint().cosmology_text())

#: service -> (last_in, last_inout, last_out), argument kinds, the IN
#: values of one solve, and its pinned product path, product bytes, work
#: and NFS staging tag (a fresh service's first job).
GOLDEN = {
    "surveyIC": ((2, 2, 4), (F, S, S, F, S), (COSMO, 16, 3),
                 "ic-fbfc8d24a20e.dat", 98304, 0.016384, "survey-ic-1"),
    "surveyRun": ((2, 2, 4), (F, S, S, F, S),
                  (FileRef(path="ic-in.dat", nbytes=10), 16, 2),
                  "slabs-395f8628fdac.npy", 2048, 0.32767999999999997,
                  "survey-run-1"),
    "lensingConvergence": ((4, 4, 6), (F, F, S, S, S, F, S),
                           (FileRef(path="slabs-in.npy", nbytes=10), COSMO,
                            16, 2, 1_000_000),
                           "kappa-bf2f6f24a027.npy", 1024, 0.1024,
                           "survey-lens-1"),
    "surveyReduce": ((4, 4, 6), (F, F, S, S, S, F, S),
                     (FileRef(path="kappa-a.npy", nbytes=1),
                      FileRef(path="kappa-b.npy", nbytes=1), 1, 2, 16),
                     "stack-eb5b443f2b22.npy", 1024, 0.0512,
                     "survey-reduce-1"),
}

#: service -> what the error of a non-file first argument calls it.
FIRST_FILE = {"surveyIC": "cosmology", "surveyRun": "IC",
              "lensingConvergence": "slab stack", "surveyReduce": "map a"}

stages = pytest.mark.parametrize("stage", SURVEY_STAGES,
                                 ids=lambda stage: stage.service)


class _Nfs:
    def __init__(self, engine, writes):
        self.engine = engine
        self.writes = writes

    def write(self, host, tag, nbytes):
        self.writes.append((host, tag, nbytes))
        yield self.engine.timeout(0.0)


class _Host:
    name = "h0"
    speed = 2.0


class _Ctx:
    """Minimal SolveContext stand-in: free CPU, an NFS volume that records
    its writes when ``writes`` is given."""

    def __init__(self, engine, writes=None):
        self.engine = engine
        self.host = _Host()
        self.nfs = None if writes is None else _Nfs(engine, writes)
        self.work = []

    def execute(self, work):
        self.work.append(work)
        yield self.engine.timeout(0.0)


def _solve(engine, gen):
    state = {}

    def drive():
        state["status"] = yield from gen

    engine.run_until_complete(drive())
    return state["status"]


def _profile(stage, ins, mode=PersistenceMode.VOLATILE):
    profile = stage.desc(mode).instantiate()
    for index, value in enumerate(ins):
        profile.parameter(index).set(value)
    profile.parameter(len(ins)).set(None)
    profile.parameter(len(ins) + 1).set(None)
    return profile


class TestDescs:
    @stages
    def test_layout_and_kinds(self, stage):
        layout, kinds = GOLDEN[stage.service][:2]
        desc = stage.desc(PersistenceMode.VOLATILE)
        assert desc.path == stage.service
        assert (desc.last_in, desc.last_inout, desc.last_out) == layout
        assert tuple(arg.composite for arg in desc.args) == kinds

    @stages
    def test_one_shared_description_per_mode(self, stage):
        assert stage.desc(PersistenceMode.PERSISTENT) is \
            stage.desc(PersistenceMode.PERSISTENT)

    def test_matching_ignores_result_persistence(self):
        volatile = SURVEY_IC.desc(PersistenceMode.VOLATILE)
        persistent = SURVEY_IC.desc(PersistenceMode.PERSISTENT)
        assert volatile.matches(persistent)

    def test_result_modes_follow_the_campaign_policy(self):
        assert survey_result_modes("volatile") == (
            PersistenceMode.VOLATILE, PersistenceMode.VOLATILE)
        inter, final = survey_result_modes("persistent")
        assert inter is PersistenceMode.PERSISTENT
        assert final is PersistenceMode.PERSISTENT_RETURN
        assert survey_result_modes("replicated") == (inter, final)

    def test_error_int_persists_with_the_result(self):
        """Memoization needs every OUT argument to keep a server copy."""
        for stage in SURVEY_STAGES:
            product, error = stage.desc(PersistenceMode.PERSISTENT).args[-2:]
            assert product.persistence is PersistenceMode.PERSISTENT
            assert error.persistence is PersistenceMode.PERSISTENT_RETURN
            product, error = stage.desc(PersistenceMode.VOLATILE).args[-2:]
            assert product.persistence is PersistenceMode.VOLATILE
            assert error.persistence is PersistenceMode.VOLATILE


def _ic_profile(point, resolution=16, seed=3,
                mode=PersistenceMode.VOLATILE):
    cosmo = FileRef.from_text("cosmo.ini", point.cosmology_text())
    return _profile(SURVEY_IC, (cosmo, resolution, seed), mode)


class TestModeledSolves:
    @stages
    def test_pinned_product_bytes_work_and_staging(self, stage):
        ins, path, nbytes, work, tag = GOLDEN[stage.service][2:]
        engine, writes = Engine(), []
        ctx = _Ctx(engine, writes)
        profile = _profile(stage, ins)
        assert _solve(engine, LensingService().solver(stage)(profile, ctx)) == 0
        assert profile.parameter(len(ins)).get() == \
            FileRef(path=path, nbytes=nbytes)
        assert profile.parameter(len(ins) + 1).get() == 0
        assert ctx.work == [work]
        assert writes == [("h0", tag, nbytes)]

    def test_one_counter_numbers_every_stage(self):
        engine, writes = Engine(), []
        ctx = _Ctx(engine, writes)
        service = LensingService()
        for stage in SURVEY_STAGES:
            profile = _profile(stage, GOLDEN[stage.service][2])
            _solve(engine, service.solver(stage)(profile, ctx))
        assert [tag for _, tag, _ in writes] == [
            "survey-ic-1", "survey-run-2", "survey-lens-3", "survey-reduce-4"]

    @stages
    def test_a_file_argument_must_be_a_file(self, stage):
        ins = (7,) + GOLDEN[stage.service][2][1:]
        engine = Engine()
        profile = _profile(stage, ins)
        with pytest.raises(ValueError, match=f"^{FIRST_FILE[stage.service]} "
                           "argument must resolve to a file, got int$"):
            _solve(engine, LensingService().solver(stage)(profile,
                                                          _Ctx(engine)))

    def test_ic_product_path_is_input_stamped(self):
        """Distinct cosmologies must never alias in the memo key space:
        the product FileRef path embeds an input-derived stamp."""
        engine = Engine()
        solve = LensingService().solver(SURVEY_IC)
        ctx = _Ctx(engine)
        p1 = _ic_profile(CosmologyPoint(omega_m=0.24))
        p2 = _ic_profile(CosmologyPoint(omega_m=0.30))
        assert _solve(engine, solve(p1, ctx)) == 0
        assert _solve(engine, solve(p2, ctx)) == 0
        ref1, ref2 = p1.parameter(3).get(), p2.parameter(3).get()
        assert ref1.path != ref2.path
        assert p1.parameter(4).get() == 0

    def test_identical_requests_produce_identical_products(self):
        engine = Engine()
        solve = LensingService().solver(SURVEY_IC)
        ctx = _Ctx(engine)
        point = CosmologyPoint()
        p1, p2 = _ic_profile(point), _ic_profile(point)
        _solve(engine, solve(p1, ctx))
        _solve(engine, solve(p2, ctx))
        assert p1.parameter(3).get() == p2.parameter(3).get()

    def test_modeled_sizes_follow_the_perfmodel(self):
        engine = Engine()
        service = LensingService()
        profile = _ic_profile(CosmologyPoint(), resolution=16)
        _solve(engine, service.solver(SURVEY_IC)(profile, _Ctx(engine)))
        assert profile.parameter(3).get().nbytes == \
            service.config.perf.ic_bytes(16)


class _SeD:
    host = _Host()

    def __init__(self):
        self.services = []

    def add_service(self, desc, solve, predictor=None):
        self.services.append((desc, predictor))


class TestRegistration:
    def test_every_stage_registers_in_pipeline_order(self):
        sed = _SeD()
        register_survey_services([sed])
        assert [(desc.path, predictor) for desc, predictor in sed.services] == [
            (stage.service, None) for stage in SURVEY_STAGES]
        assert all(desc is stage.desc(PersistenceMode.VOLATILE)
                   for (desc, _), stage in zip(sed.services, SURVEY_STAGES))

    def test_predictors_quote_the_stage_work_at_the_host_speed(self):
        sed = _SeD()
        service = register_survey_services([sed], with_predictor=True)
        perf = service.config.perf
        quoted = [predictor(desc) for desc, predictor in sed.services]
        assert quoted == [perf.ic_work(64) / 2.0, perf.run_work(64) / 2.0,
                          perf.lensing_work(64, 8) / 2.0,
                          perf.reduce_work(64) / 2.0]


class TestPipelineBuilder:
    def test_dag_shape_for_a_2x2_grid(self):
        from repro.survey.grid import ParameterGrid

        grid = ParameterGrid.cartesian({
            "omega_m": (0.24, 0.26), "sigma8": (0.75, 0.8)})
        dag = build_survey_dag(grid, with_reduce=True)
        # 4 chains of 3 + a 3-node reduction tree with one diamond join.
        assert len(dag) == 15
        assert len(dag.leaves()) == 1
        assert dag.stages() == ["ic", "run", "lensing", "reduce"]

    def test_single_point_needs_no_reduce(self):
        dag = build_survey_dag([CosmologyPoint()])
        assert len(dag) == 3
