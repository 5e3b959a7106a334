"""Property-based tests for units and cosmology invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ramses import Cosmology, Units

cosmologies = st.builds(
    Cosmology,
    omega_m=st.floats(min_value=0.1, max_value=1.0),
    omega_l=st.floats(min_value=0.0, max_value=0.9),
    h=st.floats(min_value=0.5, max_value=0.9),
)


@given(cosmologies, st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_age_and_growth_monotone(cosmo, a):
    earlier = a * 0.5
    assert cosmo.age(earlier) < cosmo.age(a)
    assert float(cosmo.growth_factor(earlier)) < float(cosmo.growth_factor(a))


@given(cosmologies, st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_a_of_t_round_trip(cosmo, a):
    assert cosmo.a_of_t(cosmo.age(a)) == pytest.approx(a, rel=1e-6)


@given(cosmologies)
@settings(max_examples=30, deadline=None)
def test_growth_normalized_and_omegas_partition(cosmo):
    assert float(cosmo.growth_factor(1.0)) == pytest.approx(1.0)
    assert cosmo.omega_m + cosmo.omega_l + cosmo.omega_k == pytest.approx(1.0)


@given(st.floats(min_value=10.0, max_value=1000.0),
       st.floats(min_value=0.1, max_value=1.0),
       st.integers(min_value=2, max_value=512))
@settings(max_examples=40, deadline=None)
def test_units_mass_partition(boxlen, omega_m, n_side):
    units = Units(boxlen, omega_m=omega_m)
    n = n_side ** 3
    assert (units.particle_mass_msun_h(n) * n
            == pytest.approx(units.total_mass_msun_h, rel=1e-12))
