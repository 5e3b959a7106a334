"""Unit tests for the survey pipeline services
(repro.services.lensing_service)."""

from repro.core.data import FileRef, PersistenceMode
from repro.services.lensing_service import (
    LensingService,
    survey_ic_desc,
    survey_result_modes,
    survey_run_desc,
)
from repro.sim.engine import Engine
from repro.survey.grid import CosmologyPoint
from repro.survey.pipeline import build_survey_dag


class _Ctx:
    """Minimal SolveContext stand-in: free CPU, no NFS volume."""

    def __init__(self, engine):
        self.engine = engine
        self.nfs = None

    def execute(self, work):
        yield self.engine.timeout(0.0)


def _solve(engine, gen):
    state = {}

    def drive():
        state["status"] = yield from gen

    engine.run_until_complete(drive())
    return state["status"]


class TestDescs:
    def test_matching_ignores_result_persistence(self):
        volatile = survey_ic_desc(PersistenceMode.VOLATILE)
        persistent = survey_ic_desc(PersistenceMode.PERSISTENT)
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
        desc = survey_run_desc(PersistenceMode.PERSISTENT)
        assert desc.args[4].persistence is PersistenceMode.PERSISTENT_RETURN
        volatile = survey_run_desc(PersistenceMode.VOLATILE)
        assert volatile.args[4].persistence is PersistenceMode.VOLATILE


def _ic_profile(point, resolution=16, seed=3,
                mode=PersistenceMode.VOLATILE):
    profile = survey_ic_desc(mode).instantiate()
    profile.parameter(0).set(FileRef.from_text("cosmo.ini",
                                               point.cosmology_text()))
    profile.parameter(1).set(resolution)
    profile.parameter(2).set(seed)
    profile.parameter(3).set(None)
    profile.parameter(4).set(None)
    return profile


class TestModeledSolves:
    def test_ic_product_path_is_input_stamped(self):
        """Distinct cosmologies must never alias in the memo key space:
        the product FileRef path embeds an input-derived stamp."""
        engine = Engine()
        service = LensingService()
        ctx = _Ctx(engine)
        p1 = _ic_profile(CosmologyPoint(omega_m=0.24))
        p2 = _ic_profile(CosmologyPoint(omega_m=0.30))
        assert _solve(engine, service.solve_ic(p1, ctx)) == 0
        assert _solve(engine, service.solve_ic(p2, ctx)) == 0
        ref1, ref2 = p1.parameter(3).get(), p2.parameter(3).get()
        assert ref1.path != ref2.path
        assert p1.parameter(4).get() == 0

    def test_identical_requests_produce_identical_products(self):
        engine = Engine()
        service = LensingService()
        ctx = _Ctx(engine)
        point = CosmologyPoint()
        p1, p2 = _ic_profile(point), _ic_profile(point)
        _solve(engine, service.solve_ic(p1, ctx))
        _solve(engine, service.solve_ic(p2, ctx))
        assert p1.parameter(3).get() == p2.parameter(3).get()

    def test_modeled_sizes_follow_the_perfmodel(self):
        engine = Engine()
        service = LensingService()
        profile = _ic_profile(CosmologyPoint(), resolution=16)
        _solve(engine, service.solve_ic(profile, _Ctx(engine)))
        assert profile.parameter(3).get().nbytes == \
            service.config.perf.ic_bytes(16)


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
