"""Unit + physics tests for the finite-volume Euler solver."""

import numpy as np
import pytest

from repro.ramses.hydro import HydroSolver, HydroState
from repro.ramses.riemann import (
    PrimitiveState,
    exact_riemann,
    sample_riemann,
    sod_states,
)


class TestExactRiemann:
    def test_sod_star_region_toro_reference(self):
        """Toro table 4.2 test 1: p* = 0.30313, u* = 0.92745."""
        left, right = sod_states()
        p, u = exact_riemann(left, right)
        assert p == pytest.approx(0.30313, abs=1e-5)
        assert u == pytest.approx(0.92745, abs=1e-5)

    def test_symmetric_collision(self):
        """Two equal streams colliding: u* = 0 by symmetry."""
        left = PrimitiveState(1.0, 1.0, 1.0)
        right = PrimitiveState(1.0, -1.0, 1.0)
        p, u = exact_riemann(left, right)
        assert u == pytest.approx(0.0, abs=1e-12)
        assert p > 1.0   # compression

    def test_trivial_riemann_problem(self):
        state = PrimitiveState(1.0, 0.5, 1.0)
        p, u = exact_riemann(state, state)
        assert p == pytest.approx(1.0, rel=1e-9)
        assert u == pytest.approx(0.5, rel=1e-9)

    def test_vacuum_detected(self):
        left = PrimitiveState(1.0, -10.0, 0.1)
        right = PrimitiveState(1.0, 10.0, 0.1)
        with pytest.raises(ValueError, match="vacuum"):
            exact_riemann(left, right)

    def test_sampling_constant_outside_fan(self):
        left, right = sod_states()
        sol = sample_riemann(left, right, [-10.0, 10.0])
        assert sol[0] == pytest.approx([1.0, 0.0, 1.0])
        assert sol[1] == pytest.approx([0.125, 0.0, 0.1])

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            PrimitiveState(-1.0, 0.0, 1.0)


class TestHydroState:
    def test_primitive_roundtrip(self):
        rng = np.random.default_rng(0)
        rho = 1.0 + rng.random((4, 4, 4))
        vel = rng.standard_normal((4, 4, 4, 3))
        p = 0.5 + rng.random((4, 4, 4))
        state = HydroState.from_primitive(rho, vel, p)
        assert np.allclose(state.velocity(), vel)
        assert np.allclose(state.pressure(), p)

    def test_sound_speed_uniform(self):
        state = HydroState.uniform((4, 4, 4), rho=1.0, pressure=1.0)
        assert np.allclose(state.sound_speed(), np.sqrt(1.4))

    def test_validation(self):
        with pytest.raises(ValueError):
            HydroState(np.ones((4, 4, 4)), np.zeros((4, 4, 4, 2)),
                       np.ones((4, 4, 4)))
        with pytest.raises(ValueError):
            HydroState.uniform((2, 2, 2), gamma=1.0)


class TestConservation:
    def make_noisy(self, n=12, seed=0):
        state = HydroState.uniform((n, n, n))
        rng = np.random.default_rng(seed)
        state.rho = state.rho + 0.2 * rng.random((n, n, n))
        state.energy = state.energy + 0.2 * rng.random((n, n, n))
        state.mom = state.mom + 0.05 * rng.standard_normal((n, n, n, 3))
        return state

    def test_exact_conservation(self):
        state = self.make_noisy()
        m0, p0, e0 = state.totals()
        HydroSolver().run(state, 0.2)
        m1, p1, e1 = state.totals()
        assert m1 == pytest.approx(m0, abs=1e-11)
        assert e1 == pytest.approx(e0, abs=1e-10)
        assert np.allclose(p1, p0, atol=1e-11)

    def test_uniform_state_is_steady(self):
        state = HydroState.uniform((8, 8, 8), rho=2.0, pressure=3.0)
        HydroSolver().run(state, 0.5)
        assert np.allclose(state.rho, 2.0, atol=1e-12)
        assert np.allclose(state.pressure(), 3.0, atol=1e-11)
        assert np.allclose(state.mom, 0.0, atol=1e-12)

    def test_galilean_advection(self):
        """A uniform flow stays uniform (no spurious forces)."""
        n = 8
        state = HydroState.from_primitive(
            np.ones((n, n, n)),
            np.broadcast_to([0.3, 0.0, 0.0], (n, n, n, 3)).copy(),
            np.ones((n, n, n)))
        HydroSolver().run(state, 0.3)
        assert np.allclose(state.velocity()[..., 0], 0.3, atol=1e-12)

    def test_positivity_preserved(self):
        state = self.make_noisy()
        HydroSolver().run(state, 0.5)
        assert np.all(state.rho > 0)
        assert np.all(state.pressure() > 0)


@pytest.mark.parametrize("axis", [0, 1, 2])
class TestSodTube:
    def run_sod(self, axis, n=200, t_end=0.1):
        shape = [4, 4, 4]
        shape[axis] = n
        idx = np.arange(n)
        profile = np.where(idx < n // 2, 1.0, 0.125)
        p_profile = np.where(idx < n // 2, 1.0, 0.1)
        expand = [1, 1, 1]
        expand[axis] = n
        rho = profile.reshape(expand) * np.ones(shape)
        p = p_profile.reshape(expand) * np.ones(shape)
        state = HydroState.from_primitive(rho, np.zeros(tuple(shape) + (3,)), p)
        HydroSolver(cfl=0.4).run(state, t_end, dx=1.0 / n)
        x = (idx + 0.5) / n
        left, right = sod_states()
        exact = sample_riemann(left, right, (x - 0.5) / t_end)
        take = [0, 0, 0]
        take[axis] = slice(None)
        rho_num = state.rho[tuple(take)]
        u_num = state.velocity()[tuple(take) + (axis,)]
        p_num = state.pressure()[tuple(take)]
        # central region untouched by the periodic-wrap waves
        mask = (x > 0.28) & (x < 0.72)
        return (rho_num[mask], u_num[mask], p_num[mask],
                exact[mask, 0], exact[mask, 1], exact[mask, 2])

    def test_sod_matches_exact(self, axis):
        rho, u, p, rho_x, u_x, p_x = self.run_sod(axis)
        assert np.abs(rho - rho_x).mean() < 0.03
        assert np.abs(u - u_x).mean() < 0.05
        assert np.abs(p - p_x).mean() < 0.03

    def test_shock_position(self, axis):
        """The shock sits at x = 0.5 + S*t with S ~ 1.7522 (Toro)."""
        rho, _, _, rho_x, _, _ = self.run_sod(axis)
        # compare numerically: shock cell where density jumps past 0.2
        num_jump = np.flatnonzero(rho < 0.2)
        exact_jump = np.flatnonzero(rho_x < 0.2)
        assert len(num_jump) and len(exact_jump)
        assert abs(num_jump[0] - exact_jump[0]) <= 3


class TestSelfGravity:
    def test_overdensity_infall(self):
        """With self-gravity on, gas flows towards an overdense blob."""
        n = 16
        x = (np.arange(n) + 0.5) / n
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        r2 = (X - 0.5) ** 2 + (Y - 0.5) ** 2 + (Z - 0.5) ** 2
        rho = 1.0 + 0.5 * np.exp(-r2 / 0.02)
        state = HydroState.from_primitive(rho, np.zeros((n, n, n, 3)),
                                          np.full((n, n, n), 0.01))
        solver = HydroSolver(self_gravity_constant=10.0)
        solver.run(state, 0.05)
        # radial momentum points inward around the blob
        vel = state.velocity()
        left_of_center = vel[n // 4, n // 2, n // 2, 0]
        right_of_center = vel[3 * n // 4, n // 2, n // 2, 0]
        assert left_of_center > 0 > right_of_center

    def test_gravity_off_no_motion(self):
        n = 8
        rho = np.ones((n, n, n))
        rho[4, 4, 4] = 1.5
        state = HydroState.from_primitive(
            rho, np.zeros((n, n, n, 3)), np.ones((n, n, n)))
        # pressure balances nothing here, but without gravity the evolution
        # is driven only by the pressure/density jump: compare against the
        # gravity-on run to see the extra infall
        plain = state.copy()
        HydroSolver().run(plain, 0.02)
        grav = state.copy()
        HydroSolver(self_gravity_constant=50.0).run(grav, 0.02)
        assert not np.allclose(plain.mom, grav.mom)
