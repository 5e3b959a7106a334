"""``repro.ramses.quadpack`` against the compiled routines it ports.

The contract is bit identity (the module docstring says why), so every
comparison below is ``==``: value, error estimate, number of integrand
evaluations, number of subintervals and ``ier`` for :func:`qagse`; root,
iterations and function calls for :func:`brentq`.  scipy is the reference
and is imported here only.
"""

import math
import random

import pytest
from scipy import integrate, optimize

import repro.grafic.power_spectrum as power_spectrum
import repro.ramses.cosmology as cosmology
from repro.grafic.power_spectrum import PowerSpectrum
from repro.ramses import quadpack
from repro.ramses.cosmology import LCDM_WMAP, Cosmology
from repro.ramses.quadpack import brentq, qagse

#: How ``integrate.quad(..., full_output=1)`` spells a non-zero ``ier``.
_IER_OF_MESSAGE = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand behavior": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


def reference(f, a, b, **options):
    """``(result, abserr, neval, last, ier)`` from the compiled QAGS."""
    result, abserr, info, *message = integrate.quad(f, a, b, full_output=1,
                                                    **options)
    ier = 0
    if message:
        ier, = (code for start, code in _IER_OF_MESSAGE.items()
                if message[0].startswith(start))
    return result, abserr, info["neval"], info["last"], ier


def ported(f, a, b, **options):
    result, abserr, neval, ier = qagse(f, a, b, **options)
    return result, abserr, neval, (neval + 21) // 42, ier


# -- (i) the three production integrands --------------------------------------------


@pytest.fixture
def integrals(monkeypatch):
    """Every ``(f, a, b, limit)`` the production code asks for while the
    test runs — the integrands themselves, not copies of them.  Nothing is
    integrated yet; the callers get a placeholder."""
    seen = []

    def record(what, f, a, b, limit):
        seen.append((f, a, b, limit))
        return 1.0

    monkeypatch.setattr(cosmology, "integral", record)
    monkeypatch.setattr(power_spectrum, "integral", record)
    return seen


def random_cosmology(rng: random.Random) -> Cosmology:
    # Ranges keep H^2 > 0 on every interval integrated below.
    return Cosmology(omega_m=rng.uniform(0.05, 1.2), omega_l=rng.uniform(0.0, 1.0),
                     h=rng.uniform(0.5, 0.9), n_s=rng.uniform(0.8, 1.2),
                     omega_b=0.04)


def test_production_integrands_match_bit_for_bit(integrals):
    rng = random.Random(2007)
    for draw in range(400):
        cosmo = random_cosmology(rng)
        a = rng.uniform(0.005, 2.0)
        cosmo.age(a)
        cosmo.growth_factor(a)  # two integrals: D(1), then D(a)
        if draw % 10 == 0:
            transfer = ("bbks", "eisenstein_hu")[draw // 10 % 2]
            # two integrals: the sigma8 normalization, then sigma(r)
            PowerSpectrum(cosmo, transfer).sigma_r(rng.uniform(0.1, 50.0))
    assert len(integrals) == 400 * 3 + 40 * 2
    last_seen = set()
    for f, a, b, limit in integrals:
        expected = reference(f, a, b, limit=limit)
        assert ported(f, a, b, limit=limit) == expected
        assert expected[-1] == 0
        last_seen.add(expected[3])
    assert len(last_seen) > 3  # single-pass and well-subdivided cases both


# -- (ii) one integrand per branch of the algorithm ---------------------------------

TIGHT = dict(epsabs=1e-300, epsrel=1e-15)

#: name -> (f, a, b, options, expected ier, expected last or None)
BRANCHES = {
    "smooth, single pass": (math.exp, 0.0, 1.0, {}, 0, 1),
    "reversed interval": (math.exp, 1.0, 0.0, {}, 0, 1),
    "x**-0.5, extrapolated": (lambda x: x ** -0.5, 0.0, 1.0, {}, 0, None),
    "log x, extrapolated": (math.log, 0.0, 1.0, {}, 0, None),
    "log x / sqrt x": (lambda x: math.log(x) / math.sqrt(x), 0.0, 1.0, {}, 0, None),
    "interior kink": (lambda x: abs(x - 1 / 3), 0.0, 1.0, {}, 0, None),
    "step": (lambda x: 1.0 if x > 0.3 else 0.0, 0.0, 1.0, {}, 0, None),
    "narrow peak": (lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-6), 0.0, 1.0, {}, 0, None),
    "sin(50x), enough intervals": (lambda x: math.sin(50 * x), 0.0, 10.0,
                                   dict(limit=200), 0, None),
    "sin(50x), limit hit": (lambda x: math.sin(50 * x), 0.0, 10.0,
                            dict(limit=5), 1, 5),
    "limit 1": (lambda x: x ** -0.5, 0.0, 1.0, dict(limit=1), 1, 1),
    "limit 2": (lambda x: x ** -0.5, 0.0, 1.0, dict(limit=2), 1, 2),
    "round-off on the first pass": (lambda x: 1.0 + 1e-14 * math.sin(1e6 * x),
                                    0.0, 1.0, TIGHT, 2, 1),
    "round-off while bisecting": (lambda x: math.sin(x) * math.exp(x), 0.0, 10.0,
                                  dict(TIGHT, epsabs=1e-20, limit=500), 2, None),
    "bad behaviour at a point": (math.tan, 0.0, math.pi / 2, {}, 3, None),
    "extrapolation table stalls": (lambda x: abs(x - 0.1) ** -0.85, 0.0, 1.0,
                                   dict(epsabs=1e-300, epsrel=1e-14), 4, None),
    "divergent x**-1.5": (lambda x: x ** -1.5, 0.0, 1.0, {}, 5, None),
    "divergent sin(1/x)/x": (lambda x: math.sin(1 / x) / x, 0.0, 1.0,
                             dict(limit=100), 5, None),
    "1/x runs out of intervals": (lambda x: 1 / x, 0.0, 1.0, {}, 1, 50),
    "NaN integrand": (lambda x: math.nan, 0.0, 1.0, {}, 2, None),
}


@pytest.mark.parametrize("name", sorted(BRANCHES))
def test_each_branch_matches_bit_for_bit(name):
    f, a, b, options, ier, last = BRANCHES[name]
    expected = reference(f, a, b, **options)
    got = ported(f, a, b, **options)
    if name == "NaN integrand":  # nan != nan
        assert math.isnan(got[0]) and math.isnan(expected[0])
        assert math.isnan(got[1]) and math.isnan(expected[1])
        got, expected = got[2:], expected[2:]
    assert got == expected
    assert expected[-1] == ier
    assert last is None or expected[-2] == last


@pytest.mark.parametrize("limit", range(3, 60, 4))
def test_error_list_bookkeeping_at_every_limit(limit):
    """``dqpsrt`` keeps only part of the list ordered once ``last`` passes
    ``limit/2 + 2``: walk that boundary with an integrand that bisects a
    lot."""
    f = lambda x: math.cos(1.0 / (x + 0.01))  # noqa: E731
    assert ported(f, 0.0, 1.0, limit=limit, **TIGHT) == \
        reference(f, 0.0, 1.0, limit=limit, **TIGHT)


def test_invalid_tolerances_are_ier_6():
    assert qagse(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-20) == (0.0, 0.0, 0, 6)
    with pytest.raises(ValueError):  # the compiled routine's wrapper refuses too
        integrate.quad(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-20)


def test_integral_raises_when_quadpack_does_not_vouch_for_the_value():
    assert quadpack.integral("e", math.exp, 0.0, 1.0, limit=50) == \
        integrate.quad(math.exp, 0.0, 1.0)[0]
    with pytest.raises(ArithmeticError, match=r"tan on \[0, pi/2\].*ier=3.*abserr="):
        quadpack.integral("tan on [0, pi/2]", math.tan, 0.0, math.pi / 2, limit=50)


# -- brentq ------------------------------------------------------------------------


def brentq_reference(f, a, b, xtol):
    root, report = optimize.brentq(f, a, b, xtol=xtol, full_output=True)
    return root, report.iterations, report.function_calls


@pytest.mark.parametrize("f, a, b, xtol", [
    (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0, 1e-12),        # Wallis
    (lambda x: math.cos(x) - x, 0.0, 1.0, 2e-12),           # Dottie number
    (lambda x: (x - 1.0) ** 5, -3.0, 2.5, 1e-9),            # flat at the root
    (lambda x: math.atan(5 * (x - 0.3)), -4.0, 1.0, 1e-6),  # forces bisections
])
def test_brentq_textbook_cases_match_bit_for_bit(f, a, b, xtol):
    assert brentq(f, a, b, xtol) == brentq_reference(f, a, b, xtol)


def test_brentq_root_at_an_end_of_the_bracket():
    # No iteration runs; the compiled routine leaves its counter unset here.
    root, _iterations, calls = brentq_reference(lambda x: x, -1.0, 0.0, 1e-12)
    assert brentq(lambda x: x, -1.0, 0.0, 1e-12) == (root, 0, calls) == (0.0, 0, 2)


def test_brentq_on_the_a_of_t_function_matches_bit_for_bit():
    rng = random.Random(2007)
    for cosmo in [LCDM_WMAP] + [random_cosmology(rng) for _ in range(5)]:
        for a in (0.02, 0.5, 1.0, 3.0):
            t = cosmo.age(a)
            f = lambda x: cosmo.age(x) - t  # noqa: E731
            expected = brentq_reference(f, 1e-6, 64.0, 1e-12)
            assert brentq(f, 1e-6, 64.0, 1e-12) == expected
            assert cosmo.a_of_t(t) == expected[0]


def test_brentq_refuses_a_bracket_without_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


def test_brentq_raises_when_it_does_not_converge():
    f = lambda x: math.atan(5 * (x - 0.3))  # noqa: E731
    with pytest.raises(RuntimeError):
        optimize.brentq(f, -4.0, 1.0, xtol=1e-15, maxiter=3)
    with pytest.raises(ArithmeticError, match="3 iterations"):
        brentq(f, -4.0, 1.0, 1e-15, maxiter=3)
