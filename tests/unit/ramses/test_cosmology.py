"""Unit tests for the Friedmann background and growth factor."""

import numpy as np
import pytest

import repro.ramses.cosmology as cosmology_module
from repro.ramses import Cosmology, EDS, LCDM_WMAP


class TestHubble:
    def test_h_of_one_is_one(self):
        for cosmo in (EDS, LCDM_WMAP):
            assert float(cosmo.hubble(1.0)) == pytest.approx(1.0)

    def test_eds_scaling(self):
        a = np.array([0.25, 0.5, 1.0])
        assert np.allclose(EDS.hubble(a), a ** -1.5)

    def test_lcdm_asymptotes_to_lambda(self):
        assert float(LCDM_WMAP.hubble(100.0)) == pytest.approx(
            np.sqrt(LCDM_WMAP.omega_l), rel=1e-3)

    def test_nonpositive_a_rejected(self):
        with pytest.raises(ValueError):
            EDS.hubble(0.0)

    def test_omega_k_flat(self):
        assert LCDM_WMAP.omega_k == pytest.approx(0.0)

    def test_omega_m_evolution(self):
        # matter dominates early even in LCDM
        assert float(LCDM_WMAP.omega_m_a(0.01)) == pytest.approx(1.0, abs=1e-3)
        assert float(LCDM_WMAP.omega_m_a(1.0)) == pytest.approx(0.27)


class TestAges:
    def test_eds_age_analytic(self):
        # EdS: t(a) = (2/3) a^{3/2}
        for a in (0.25, 0.5, 1.0):
            assert EDS.age(a) == pytest.approx(2.0 / 3.0 * a ** 1.5, rel=1e-6)

    def test_age_monotone(self):
        ages = [LCDM_WMAP.age(a) for a in (0.1, 0.5, 1.0)]
        assert ages == sorted(ages)

    def test_a_of_t_inverts_age(self):
        for a in (0.2, 0.7, 1.0):
            t = LCDM_WMAP.age(a)
            assert LCDM_WMAP.a_of_t(t) == pytest.approx(a, rel=1e-8)

    def test_a_of_t_out_of_range(self):
        with pytest.raises(ValueError):
            LCDM_WMAP.a_of_t(-1.0)


class TestGrowth:
    def test_eds_growth_is_a(self):
        a = np.array([0.1, 0.35, 0.8, 1.0])
        assert np.allclose(EDS.growth_factor(a), a, rtol=1e-5)

    def test_normalized_at_one(self):
        for cosmo in (EDS, LCDM_WMAP):
            assert float(cosmo.growth_factor(1.0)) == pytest.approx(1.0)

    def test_lcdm_growth_suppressed(self):
        """Lambda suppresses late growth: D(a) > a for a < 1."""
        a = 0.5
        assert float(LCDM_WMAP.growth_factor(a)) > a

    def test_growth_rate_positive(self):
        for a in (0.1, 0.5, 1.0):
            assert float(LCDM_WMAP.growth_rate(a)) > 0

    def test_eds_growth_rate_unity(self):
        assert float(EDS.growth_rate(0.5)) == pytest.approx(1.0, rel=1e-3)

    def test_f_growth_matches_55_approximation(self):
        for a in (0.3, 0.6, 1.0):
            f = float(LCDM_WMAP.f_growth(a))
            approx = float(LCDM_WMAP.omega_m_a(a)) ** 0.55
            assert f == pytest.approx(approx, rel=0.03)

    def test_scalar_in_scalar_out(self):
        assert isinstance(EDS.growth_factor(0.5), float)

    def test_normalization_is_integrated_once_per_instance(self, monkeypatch):
        upper_limits = []
        integral = cosmology_module.integral

        def counting(what, f, a, b, limit):
            upper_limits.append(b)
            return integral(what, f, a, b, limit)

        monkeypatch.setattr(cosmology_module, "integral", counting)
        cosmo = Cosmology(omega_m=0.31, omega_l=0.69)  # fresh: nothing cached
        d = cosmo.growth_factor([0.25, 0.5])
        cosmo.growth_rate(0.5)
        assert upper_limits.count(1.0) == 1 and len(upper_limits) == 5
        # the cached D(1) is the float a fresh instance integrates
        assert d.tolist() == Cosmology(omega_m=0.31, omega_l=0.69).growth_factor(
            [0.25, 0.5]).tolist()


class TestUnphysicalBackground:
    """H^2 < 0 somewhere on the interval makes the integrand NaN; QUADPACK
    flags it (``ier != 0``) and the caller raises instead of returning a
    number nobody vouches for."""

    #: Closed, recollapsing: H^2 = 0.3/a^3 + 5.7/a^2 - 5 turns negative at
    #: a ~ 1.1, inside every interval used below.
    COLLAPSING = Cosmology(omega_m=0.3, omega_l=-5.0)

    @pytest.fixture(autouse=True)
    def silent_sqrt(self):
        with np.errstate(invalid="ignore"):
            yield

    def test_age_raises(self):
        assert self.COLLAPSING.age(1.0) > 0  # physical up to a = 1
        with pytest.raises(ArithmeticError, match=r"age\(2\.0\).*ier=2.*abserr=nan"):
            self.COLLAPSING.age(2.0)

    def test_growth_factor_raises(self):
        assert self.COLLAPSING.growth_factor(1.0) == 1.0
        with pytest.raises(ArithmeticError, match=r"growth_factor\(.*ier=2"):
            self.COLLAPSING.growth_factor(2.0)

    def test_a_of_t_raises(self):
        with pytest.raises(ArithmeticError, match=r"age\(64\.0\).*ier=2"):
            self.COLLAPSING.a_of_t(0.5)


class TestSchedule:
    def test_log_spacing(self):
        sched = EDS.aexp_schedule(0.1, 1.0, 10, spacing="log")
        ratios = sched[1:] / sched[:-1]
        assert np.allclose(ratios, ratios[0])
        assert sched[0] == pytest.approx(0.1)
        assert sched[-1] == pytest.approx(1.0)

    def test_linear_spacing(self):
        sched = EDS.aexp_schedule(0.1, 1.0, 9, spacing="linear")
        assert np.allclose(np.diff(sched), 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            EDS.aexp_schedule(1.0, 0.5, 10)
        with pytest.raises(ValueError):
            EDS.aexp_schedule(0.1, 1.0, 0)
        with pytest.raises(ValueError):
            EDS.aexp_schedule(0.1, 1.0, 4, spacing="cubic")


class TestValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            Cosmology(omega_m=0.0)
        with pytest.raises(ValueError):
            Cosmology(h=-1)
