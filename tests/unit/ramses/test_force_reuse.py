"""One force evaluation per KDK step: the carry-over must be exact.

``Leapfrog.force`` hands back the previous evaluation when ``a``,
``parts.x`` and ``parts.mass`` are unchanged.  The reference here is an
integrator that evaluates afresh at every kick, as the code did before;
trajectories must be ``np.array_equal``, not close.
"""

import os

import numpy as np
import pytest

from repro.grafic import make_multi_level_ic, make_single_level_ic
from repro.ramses import (
    LCDM_WMAP,
    GravitySolver,
    Leapfrog,
    RamsesRun,
    RunConfig,
    resume_run,
)


class RecomputingLeapfrog(Leapfrog):
    """Reference: no carry-over, two evaluations per step."""

    def force(self, parts, a):
        return self.solver.accelerations(parts.x, parts.mass, a)


def single_level_ic():
    return make_single_level_ic(16, 100.0, LCDM_WMAP, a_start=0.05, seed=9)


def zoom_ic():
    return make_multi_level_ic(8, 50.0, LCDM_WMAP, (0.5, 0.5, 0.5),
                               n_levels=1, region_half_size=0.2,
                               a_start=0.05, seed=2)


def integrators(ic):
    """(reusing, recomputing) integrators, each on its own solver."""
    n_grid = 2 ** ic.levelmax
    return (Leapfrog(LCDM_WMAP, GravitySolver(LCDM_WMAP, n_grid)),
            RecomputingLeapfrog(LCDM_WMAP, GravitySolver(LCDM_WMAP, n_grid)))


def assert_same_state(a, b):
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.ids, b.ids)


@pytest.mark.parametrize("make_ic", [single_level_ic, zoom_ic])
def test_trajectory_equals_recomputing_every_kick(impl, make_ic):
    ic = make_ic()
    schedule = LCDM_WMAP.aexp_schedule(0.05, 0.4, 6)
    reuse, reference = integrators(ic)
    got, want = ic.particles.copy(), ic.particles.copy()
    got_stats = reuse.run(got, schedule)
    want_stats = reference.run(want, schedule)
    assert_same_state(got, want)
    assert got_stats == want_stats
    assert reuse.solver.force_evaluations == 6 + 1
    assert reference.solver.force_evaluations == 2 * 6


@pytest.mark.parametrize("edit", ["x", "mass"])
def test_in_place_edit_between_steps_forces_fresh_evaluation(impl, edit):
    def nudge(parts):
        if edit == "x":
            parts.x[3, 1] = np.mod(parts.x[3, 1] + 1e-9, 1.0)
        else:
            parts.mass[3] *= 1.0 + 1e-9

    ic = zoom_ic()
    reuse, reference = integrators(ic)
    got, want = ic.particles.copy(), ic.particles.copy()
    for integ, parts in ((reuse, got), (reference, want)):
        integ.step(parts, 0.05, 0.06)
        nudge(parts)
        integ.step(parts, 0.06, 0.07)
    assert_same_state(got, want)
    # the second step's opening kick could not reuse the first's closing one
    assert reuse.solver.force_evaluations == 4


def test_another_particle_set_is_not_served_the_cached_force():
    ic = single_level_ic()
    reuse, _ = integrators(ic)
    first = reuse.force(ic.particles, 0.05)
    assert reuse.force(ic.particles, 0.05) is first
    assert reuse.force(ic.particles, 0.06) is not first
    other = ic.particles.copy()
    other.x = np.mod(other.x + 0.25, 1.0)
    shifted = reuse.force(other, 0.06)
    fresh = GravitySolver(LCDM_WMAP, 16).accelerations(other.x, other.mass, 0.06)
    assert np.array_equal(shifted.acc, fresh.acc)


def test_run_records_one_evaluation_per_step_plus_one():
    result = RamsesRun(zoom_ic(), RunConfig(a_end=0.3, n_steps=5,
                                            output_aexp=(0.3,))).run()
    assert len(result.step_stats) == 5
    assert result.force_evaluations == 5 + 1


def test_resumed_run_equals_recomputing_reference(tmp_path):
    """A restart starts from a checkpoint with an empty carry-over."""
    first_leg = RamsesRun(zoom_ic(), RunConfig(a_end=0.15, n_steps=3,
                                               output_aexp=(0.15,)))
    first_leg.run(output_dir=str(tmp_path))
    finals = []
    for integrator_class in (Leapfrog, RecomputingLeapfrog):
        run = resume_run(os.path.join(str(tmp_path), "output_00001"), 1,
                         RunConfig(a_end=0.3, n_steps=3, output_aexp=(0.3,)))
        run.integrator = integrator_class(run.ic.cosmology, run.solver)
        finals.append(run.run().final)
    assert_same_state(finals[0].particles, finals[1].particles)
    assert finals[0].rms_delta == finals[1].rms_delta
    assert finals[0].max_delta == finals[1].max_delta
