"""Hypergeometric/gamma kernels: spot values, defining ODEs, symmetries."""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from coxlab import special_functions
from coxlab.errors import DomainError, NonConvergence, ParameterError, PoleError
from coxlab.special_functions import (
    SeriesControl,
    bessel_j_fractional,
    gamma_complex,
    gauss_2f1,
    hyp0f1,
    kummer_1f1,
    reciprocal_gamma,
)

mpmath.mp.dps = 40


def mp_rel(got, want_mp, floor=1e-300):
    want = complex(want_mp)
    return abs(complex(got) - want) / max(abs(want), floor)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_integers():
    assert gamma_complex(1.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma_complex(5.0) == pytest.approx(24.0, rel=1e-13)


def test_gamma_poles():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            gamma_complex(z)
    assert reciprocal_gamma(-3.0) == 0.0


def test_gamma_critical_line_modulus():
    t = 1.0
    got = abs(gamma_complex(0.5 + 1j * t)) ** 2
    assert abs(got - math.pi / math.cosh(math.pi * t)) <= 1e-10


def test_gamma_recurrence_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        z = complex(rng.uniform(0.2, 4.0), rng.uniform(-3.0, 3.0))
        lhs = gamma_complex(z + 1.0)
        rhs = z * gamma_complex(z)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_gamma_vs_mpmath():
    rng = np.random.default_rng(22)
    for _ in range(25):
        z = complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        if abs(z.imag) < 1e-3 and abs(z.real - round(z.real)) < 1e-3 and z.real <= 0.5:
            continue
        assert mp_rel(gamma_complex(z), mpmath.gamma(mpmath.mpc(z))) <= 1e-12


def test_gamma_beyond_the_power_range_vs_mpmath():
    """Re z above about 143: t^(w + 1/2) overflows alone, Gamma does not."""
    for z in (150.0, 171.5, 160.0 + 30.0j, -150.5):
        assert mp_rel(gamma_complex(z), mpmath.gamma(mpmath.mpc(z))) <= 1e-12
        assert mp_rel(reciprocal_gamma(z), mpmath.rgamma(mpmath.mpc(z))) <= 1e-12


def test_gamma_overflow_is_refused_and_its_reciprocal_is_zero():
    for z in (171.7, 200.0, -200.5, 1e6 + 1.0j):
        with pytest.raises(DomainError, match="exceeds the double range"):
            gamma_complex(z)
    for z in (171.7, 200.0, 1e6 + 1.0j):
        assert reciprocal_gamma(z) == 0.0
    for z in (-200.5, 0.5 + 1000.0j):
        with pytest.raises(DomainError, match="exceeds the double range"):
            reciprocal_gamma(z)


def test_gamma_conjugate_symmetry():
    z = 1.3 + 0.9j
    assert gamma_complex(z.conjugate()) == pytest.approx(
        gamma_complex(z).conjugate(), rel=1e-14
    )


# ---------------------------------------------------------------------------
# Gauss 2F1
# ---------------------------------------------------------------------------

def test_gauss_log_identity():
    x = 0.3
    assert gauss_2f1(1.0, 1.0, 2.0, x) == pytest.approx(-math.log1p(-x) / x, rel=1e-12)


def test_gauss_region_map_vs_mpmath():
    cases = [
        (0.5, 1.5, 2.3, 0.49),
        (0.5, 1.5, 2.3, -0.7),
        (0.5, 1.7, 2.3, -8.0),
        (0.5, 0.3, 1.9, 0.85),
        (1.5, 0.25, 2.25, 0.999),
        (2.0, -1.5, 3.3, -40.0),
        (0.25, 0.75, 1.23, -1.9),
        (3.2, 0.45, 5.6, 0.6),
    ]
    for a, b, c, x in cases:
        assert mp_rel(gauss_2f1(a, b, c, x), mpmath.hyp2f1(a, b, c, x)) <= 1e-10


def test_gauss_at_unit_argument():
    a, b, c = 0.3, 0.4, 2.0
    want = mpmath.gamma(c) * mpmath.gamma(c - a - b) / (
        mpmath.gamma(c - a) * mpmath.gamma(c - b)
    )
    assert mp_rel(gauss_2f1(a, b, c, 1.0), want) <= 1e-11


def test_gauss_domain_and_poles():
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, 1.5, 1.5)
    with pytest.raises(PoleError):
        gauss_2f1(0.5, 0.5, -2.0, 0.3)
    with pytest.raises(PoleError):
        # c - a - b integer degenerates the 1-x connection
        gauss_2f1(0.5, 0.5, 2.0, 0.9)
    with pytest.raises(PoleError):
        # b - a integer degenerates the 1/x connection
        gauss_2f1(0.5, 1.5, 2.2, -10.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_gauss_non_finite_argument_is_domain_error(x):
    # x = nan used to reach the 1/x branch and report a PoleError
    with pytest.raises(DomainError, match="finite argument"):
        gauss_2f1(0.5, 1.5, 2.2, x)


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize("call, error", [
    # each raised a bare OverflowError
    (lambda: gauss_2f1(1.0, 2.0, _INF, 0.3), ParameterError),
    (lambda: kummer_1f1(1.0, _INF, 0.3), ParameterError),
    (lambda: gamma_complex(_INF), DomainError),
    (lambda: reciprocal_gamma(_INF), DomainError),
    # each raised a bare ValueError
    (lambda: hyp0f1(_NAN, 0.5), ParameterError),
    (lambda: gamma_complex(_NAN), DomainError),
    (lambda: bessel_j_fractional(_NAN, 1.0), ParameterError),
    # each summed 700 terms into NonConvergence
    (lambda: kummer_1f1(1.0, 2.0, _INF), DomainError),
    (lambda: bessel_j_fractional(0.5, _INF), DomainError),
    # a RuntimeWarning; the array form too
    (lambda: hyp0f1(1.5, _INF), DomainError),
    (lambda: hyp0f1(1.5, np.array([0.5, _NAN])), DomainError),
    (lambda: gauss_2f1(complex(1.0, _NAN), 2.0, 3.0, 0.3), ParameterError),
    (lambda: kummer_1f1(1.0, 2.0, complex(0.5, _INF)), DomainError),
])
def test_non_finite_inputs_are_refused(call, error):
    with pytest.raises(error, match="finite"):
        call()


def test_gauss_defining_ode_residual():
    """x(1-x) F'' + [c - (a+b+1)x] F' - ab F = 0 with derivatives via parameter shifts."""
    probes = [
        (0.5, 1.5, 2.3, 0.3),
        (0.5, 1.5, 2.3, -0.8),
        (0.4, 0.9, 1.7, 0.85),
        (1.1, 0.6, 2.9, -5.0),
    ]
    for a, b, c, x in probes:
        F = gauss_2f1(a, b, c, x)
        dF = a * b / c * gauss_2f1(a + 1, b + 1, c + 1, x)
        d2F = (
            a * (a + 1) * b * (b + 1) / (c * (c + 1))
            * gauss_2f1(a + 2, b + 2, c + 2, x)
        )
        resid = x * (1 - x) * d2F + (c - (a + b + 1) * x) * dF - a * b * F
        scale = max(1.0, abs(F), abs(dF), abs(d2F))
        assert abs(resid) <= 1e-9 * scale


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    a=st.floats(-2.0, 3.0),
    b=st.floats(-2.0, 3.0),
    c=st.floats(0.3, 4.0),
    x=st.floats(-6.0, 0.92),
)
def test_gauss_contiguous_relation(a, b, c, x):
    """(c-a) F(a-1) + (2a-c+(b-a)x) F(a) + a(x-1) F(a+1) = 0."""
    try:
        f_minus = gauss_2f1(a - 1, b, c, x)
        f_0 = gauss_2f1(a, b, c, x)
        f_plus = gauss_2f1(a + 1, b, c, x)
    except PoleError:
        assume(False)
        return
    resid = (c - a) * f_minus + (2 * a - c + (b - a) * x) * f_0 + a * (x - 1) * f_plus
    scale = max(1.0, abs(f_minus), abs(f_0), abs(f_plus))
    assert abs(resid) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# Kummer 1F1
# ---------------------------------------------------------------------------

def test_kummer_exponential_identity():
    assert kummer_1f1(1.0, 2.0, 1.0).real == pytest.approx(math.e - 1.0, rel=1e-12)
    assert abs(kummer_1f1(1.0, 2.0, 1.0).imag) <= 1e-14


def test_kummer_vs_mpmath_disc():
    # |x| <= 30, all quadrants including the cancellation-heavy imaginary axis
    rng = np.random.default_rng(31)
    pts = [30j, -30j, 25j + 1, -20.0, 28.0, -15 + 15j]
    pts += [
        complex(rng.uniform(-30, 30), rng.uniform(-30, 30)) * 0.7 for _ in range(12)
    ]
    for x in pts:
        a = complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
        c = complex(rng.uniform(0.5, 4.0), 0.0)
        got = kummer_1f1(a, c, x)
        want = mpmath.hyp1f1(mpmath.mpc(a), mpmath.mpc(c), mpmath.mpc(x))
        assert mp_rel(got, want) <= 1e-10


def test_kummer_pole():
    with pytest.raises(PoleError):
        kummer_1f1(1.0, 0.0, 0.5)
    with pytest.raises(PoleError):
        kummer_1f1(1.0, -2.0, 0.5)


def test_kummer_defining_ode_residual():
    """x M'' + (c - x) M' - a M = 0 with M' = (a/c) M(a+1, c+1, x)."""
    probes = [
        (0.8, 1.7, 12j),
        (1.2, 2.5, -7.0 + 3j),
        (0.5, 1.5, 25.0),
        (5 / 6, 5 / 3, 29j),
    ]
    for a, c, x in probes:
        M = kummer_1f1(a, c, x)
        dM = a / c * kummer_1f1(a + 1, c + 1, x)
        d2M = a * (a + 1) / (c * (c + 1)) * kummer_1f1(a + 2, c + 2, x)
        resid = x * d2M + (c - x) * dM - a * M
        scale = max(1.0, abs(M), abs(dM), abs(d2M))
        assert abs(resid) <= 1e-9 * scale


def test_kummer_conjugate_symmetry():
    a, c, x = 0.7 + 0.2j, 1.9, 11.0 + 23.0j
    lhs = kummer_1f1(a.conjugate(), c, x.conjugate())
    rhs = kummer_1f1(a, c, x).conjugate()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    a=st.floats(0.1, 4.0),
    c=st.floats(0.4, 5.0),
    xr=st.floats(-12.0, 12.0),
    xi=st.floats(-12.0, 12.0),
)
def test_kummer_transformation_consistency(a, c, xr, xi):
    """Kummer transform M(a,c,x) = e^x M(c-a, c, -x) holds internally."""
    x = complex(xr, xi)
    lhs = kummer_1f1(a, c, x)
    rhs = np.exp(x) * kummer_1f1(c - a, c, -x)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# Bessel J, fractional order
# ---------------------------------------------------------------------------

def test_bessel_small_argument_law():
    y = 1e-4
    for nu in (1 / 3, -1 / 3, 2 / 3):
        got = bessel_j_fractional(nu, y)
        want = (y / 2) ** nu / complex(mpmath.gamma(nu + 1))
        assert abs(got - want) <= 1e-8 * abs(want)


def test_bessel_vs_mpmath():
    pts = [(1 / 3, 2j), (-1 / 3, 2j), (1 / 3, 21.0), (2 / 3, 5 + 3j), (1.75, -4.0 + 1j)]
    for nu, y in pts:
        got = bessel_j_fractional(nu, y)
        want = mpmath.besselj(mpmath.mpf(nu), mpmath.mpc(y))
        assert mp_rel(got, want) <= 1e-10


def test_bessel_matches_kummer_route():
    """J_nu via 0F1 agrees with the 1F1 representation at imaginary argument.

    J_nu(y) = (y/2)^nu e^{-iy} / Gamma(nu+1) * 1F1(nu + 1/2; 2 nu + 1; 2iy).
    """
    for nu, y in [(1 / 3, 2j), (1 / 3, 5.0), (2 / 3, 7.0 + 0.5j)]:
        direct = bessel_j_fractional(nu, y)
        pref = np.exp(nu * np.log(y / 2 + 0j)) * np.exp(-1j * y) * reciprocal_gamma(nu + 1)
        via_1f1 = pref * kummer_1f1(nu + 0.5, 2 * nu + 1.0, 2j * y)
        assert abs(direct - via_1f1) <= 1e-10 * max(1.0, abs(direct))


def test_bessel_modified_equation_imaginary_argument():
    """f(xi) = J_{1/3}(i xi) solves f'' + f'/xi - (1 + (1/9)/xi^2) f = 0.

    Derivatives from the three-term ladder J' = (J_{nu-1} - J_{nu+1})/2.
    """
    nu = 1 / 3
    for xi in (0.5, 2.0, 8.0, 15.0):
        y = 1j * xi
        J = {k: bessel_j_fractional(nu + k, y) for k in (-2, -1, 0, 1, 2)}
        dJ = 0.5 * (J[-1] - J[1])
        d2J = 0.25 * (J[-2] - 2 * J[0] + J[2])
        f = J[0]
        df = 1j * dJ
        d2f = -d2J
        resid = d2f + df / xi - (1 + (1 / 9) / xi**2) * f
        scale = max(1.0, abs(f), abs(df), abs(d2f))
        assert abs(resid) <= 1e-9 * scale


def test_bessel_conjugate_symmetry():
    nu, y = 1 / 3, 3.0 + 2.0j
    lhs = bessel_j_fractional(nu, y.conjugate())
    rhs = bessel_j_fractional(nu, y).conjugate()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# 0F1 core and series control
# ---------------------------------------------------------------------------

def test_hyp0f1_heavy_cancellation():
    # Airy-range argument: peak term ~ e^16 yet full accuracy retained
    for c, w in [(4 / 3, -111.12), (2 / 3, -111.12), (5 / 3, -60.0)]:
        assert mp_rel(hyp0f1(c, w), mpmath.hyp0f1(c, w)) <= 1e-10


def test_hyp0f1_conjugate_symmetry():
    w = -30.0 + 4.0j
    lhs = hyp0f1(1.4, np.conj(w))
    rhs = np.conj(hyp0f1(1.4, w))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_hyp0f1_array_equals_scalar_calls_exactly():
    rng = np.random.default_rng(3)
    grid = np.concatenate([
        rng.uniform(-25.0, 25.0, 40),
        [0.0, -0.0, 1e-300, -21.0, -34.0, -45.0, 25.0],
    ])
    ctl = special_functions._DEFAULT_CTL
    fallback = [x for x in grid if not special_functions._series_float((), (4 / 3,), x, ctl)[2]]
    assert len(fallback) >= 3  # the grid exercises the fixed-point re-run
    for c in (4 / 3, 2 / 3, 0.5):
        got = hyp0f1(c, grid)
        want = np.array([hyp0f1(c, float(x)) for x in grid])
        assert got.shape == grid.shape
        assert np.all(got.real == want.real) and np.all(got.imag == want.imag)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        for x in (-45.0, 0.0, 2.5):  # one-element arrays
            assert hyp0f1(c, np.array([x]))[0] == hyp0f1(c, x)
    assert hyp0f1(4 / 3, np.array([])).shape == (0,)
    # a terminating series (upper parameter -3) leaves the loop on its first
    # zero term, even at the roots of the cubic where the sum cancels
    roots = np.roots([-6.0 / 78.75, 6.0 / 7.5, -2.0, 1.0]).real
    poly = np.concatenate([grid, roots])
    got = special_functions._hyp_series_array((-3.0,), (1.5,), poly, ctl)
    want = np.array([special_functions._hyp_series((-3.0,), (1.5,), x, ctl) for x in poly])
    assert np.all(got == want)


def _series_mp(nums, dens, x, ctl, peak):
    """The series fallback as it was written in mpmath arithmetic: the
    reference that the fixed-point sum must reproduce bit for bit."""
    dps = min(140, int(math.log10(max(peak, 1.0)) + 16.0) + 25)
    with mpmath.workdps(dps):
        xm = mpmath.mpc(x)
        nm = [mpmath.mpc(p) for p in nums]
        dm = [mpmath.mpc(q) for q in dens]
        term = mpmath.mpc(1)
        total = mpmath.mpc(1)
        tol, floor = mpmath.mpf(10) ** (-dps + 5), mpmath.mpf(1e-300)
        for k in range(ctl.max_terms):
            ratio = mpmath.mpc(1)
            for p in nm:
                ratio *= p + k
            for q in dm:
                ratio /= q + k
            term = term * ratio * xm / (k + 1)
            if term == 0:
                return complex(total)
            total += term
            if abs(term) <= tol * max(abs(total), floor):
                return complex(total)
        raise NonConvergence(f"pFq series (mp) did not converge in {ctl.max_terms} terms")


def _fallback_cases():
    """Seeded (nums, dens, x) whose clongdouble sum fails its cancellation check."""
    rng = np.random.default_rng(2024)
    u = rng.uniform
    cases = [((), (u(0.3, 4.0),), -u(30.0, 80.0)) for _ in range(124)]
    for _ in range(14):
        a = complex(u(0.0, 2.0), u(-2.0, 2.0))
        cases.append(((a,), (u(0.5, 3.0),), complex(0.0, u(14.0, 30.0) * rng.choice([-1, 1]))))
    for _ in range(6):  # a complex lower parameter
        a, c = complex(u(0.0, 2.0), u(-2.0, 2.0)), complex(u(0.5, 3.0), u(-2.0, 2.0))
        cases.append(((a,), (c,), complex(0.0, u(14.0, 30.0))))
    for lo in (-24.0, -11.0, -9.0, -8.0):  # Airy branches over the CLI's z range
        zs = np.linspace(lo, u(0.0, 7.0), 81)
        cases += [((), (c,), z**3 / 9.0) for z in zs[zs < -6.0][::4] for c in (4 / 3, 2 / 3)]
    for _ in range(6):  # 2F1 with conjugate parameters
        a = complex(u(0.0, 3.0), u(15.0, 30.0))
        cases.append(((a, a.conjugate()), (u(0.3, 4.0),), u(-0.5, -0.3)))
    # terminating series whose sum cancels; sums that end below 2**-bits
    cases += [((-60.0,), (1.5,), 30j), ((-60.0,), (1.5,), -30j)]
    cases += [((), (4 / 3,), -37.8852176738614), ((), (4 / 3,), -86.41084104710735)]
    # tail terms of one sign, which floor division would hold at -2**-bits
    cases += [((-10.5, 2.0), (1.0,), 0.08695652173913043),
              ((-20.5, 3.0), (1.5,), 0.22768522928110346)]
    return cases


def test_fixed_point_fallback_equals_mpmath_loop_bit_for_bit():
    ctl = special_functions._DEFAULT_CTL
    checked = 0
    for nums, dens, x in _fallback_cases():
        _, peak, ok = special_functions._series_float(nums, dens, x, ctl)
        if ok:
            continue
        got = special_functions._series_fixed(nums, dens, x, ctl, peak)
        want = _series_mp(nums, dens, x, ctl, peak)
        assert got.real == want.real and got.imag == want.imag, (nums, dens, x)
        assert math.copysign(1.0, got.imag) == math.copysign(1.0, want.imag)
        checked += 1
    assert checked >= 200


def test_fixed_point_fallback_keeps_max_terms_refusal():
    # the float pass stops within 32 terms; the deeper fixed-point sum cannot
    ctl = SeriesControl(max_terms=32)
    _, peak, ok = special_functions._series_float((), (4 / 3,), -50.0, ctl)
    assert not ok
    for fallback in (special_functions._series_fixed, _series_mp):
        with pytest.raises(NonConvergence, match="did not converge in 32 terms"):
            fallback((), (4 / 3,), -50.0, ctl, peak)
    with pytest.raises(NonConvergence, match="did not converge in 32 terms"):
        hyp0f1(4 / 3, -50.0, ctl)


def test_fixed_point_fallback_refuses_sum_beyond_double():
    # 1F1(1; 1; 800) = e^800: the mpmath loop returned inf here
    ctl = SeriesControl(max_terms=3000)
    with pytest.raises(NonConvergence, match="overflows double"):
        special_functions._series_fixed((1.0,), (1.0,), 800.0, ctl, 1e300)


def test_hyp0f1_refuses_overflowing_sum():
    # terms beyond double range used to be accepted: inf <= tol * inf
    with pytest.raises(NonConvergence):
        hyp0f1(4 / 3, -1e297)
    with pytest.raises(NonConvergence):
        hyp0f1(4 / 3, np.array([-1.0, -1e297]))


def _series_float_per_term(nums, dens, x, ctl):
    """`_series_float` as first written, converting every parameter to
    clongdouble again on every term: the reference that the loop with its
    conversions hoisted must reproduce bit for bit."""
    xl = np.clongdouble(x)
    term = np.clongdouble(1.0)
    total = np.clongdouble(1.0)
    peak = 1.0
    small_streak = 0
    for k in range(ctl.max_terms):
        ratio = np.clongdouble(1.0)
        for p in nums:
            ratio *= np.clongdouble(p) + k
        for q in dens:
            ratio /= np.clongdouble(q) + k
        term = term * ratio * xl / (k + 1)
        if term == 0:
            return complex(total), peak, True
        total += term
        a = abs(complex(term))
        peak = max(peak, a)
        if a <= ctl.tol * max(abs(complex(total)), 1e-300):
            small_streak += 1
            if small_streak >= 2:
                total_c = complex(total)
                if not cmath.isfinite(total_c):
                    raise NonConvergence(f"pFq series overflows double at |x| = {abs(x):.3g}")
                lost = special_functions._EPS_LD * peak * math.sqrt(k + 1.0)
                return total_c, peak, lost <= ctl.tol * max(abs(total_c), 1e-300)
        else:
            small_streak = 0
    raise NonConvergence(
        f"pFq series did not converge in {ctl.max_terms} terms (|x| = {abs(x):.3g})"
    )


def _outcome(fn, *args):
    """A result with the signs of its zeros made visible, or the exception."""
    try:
        value, peak, ok = fn(*args)
    except NonConvergence as exc:
        return "NonConvergence", str(exc)
    parts = (value.real, value.imag)
    return parts, tuple(math.copysign(1.0, v) for v in parts), peak, ok


def _signed_zero_cases():
    """Seeded (nums, dens, x) across the direct region, with conjugate
    pairs, parameters with +-0.0 parts and terminating series."""
    rng = np.random.default_rng(13)
    u = rng.uniform
    z0 = (0.0, -0.0)
    cases = []
    for _ in range(40):  # 2F1 with conjugate parameters, |x| up to the direct radius
        a = complex(u(-3.0, 3.0), u(-20.0, 20.0))
        cases.append(((a, a.conjugate()), (u(0.3, 4.0),), u(-0.5, 0.5)))
    for _ in range(40):  # real parameters written with +-0.0 imaginary parts
        a, b, c = (complex(u(-4.0, 4.0), rng.choice(z0)) for _ in range(3))
        x = float(rng.choice([u(-0.5, 0.5), -0.5, 0.5, 0.0, -0.0]))
        cases.append(((a, b), (c,), x))
    for _ in range(20):  # 1F1 at complex x, parameters with signed zero parts
        a = complex(rng.choice(z0 + (u(-3.0, 3.0),)), rng.choice(z0))
        c = complex(u(0.5, 3.0), rng.choice(z0))
        cases.append(((a,), (c,), complex(u(-8.0, 8.0), rng.choice(z0 + (u(-8.0, 8.0),)))))
    for n in (1, 3, 10, 25):  # terminating polynomials, the upper -n with a signed zero part
        for x in (0.5, -0.5, 0.25j, complex(-0.0, -0.0)):
            cases.append(((complex(-n, -0.0), u(0.5, 2.0)), (u(0.5, 3.0),), x))
            cases.append(((-float(n),), (complex(u(0.5, 3.0), -0.0),), x))
    cases += [((), (c,), x) for c in (4 / 3, 2 / 3, complex(1.5, -0.0))
              for x in (0.0, -0.0, 1e-300, -21.0, 25.0)]
    return cases


def test_series_loop_equals_per_term_conversion_bit_for_bit():
    ctl = special_functions._DEFAULT_CTL
    cases = _signed_zero_cases() + _fallback_cases()
    for nums, dens, x in cases:
        got = _outcome(special_functions._series_float, nums, dens, x, ctl)
        want = _outcome(_series_float_per_term, nums, dens, x, ctl)
        assert got == want, (nums, dens, x)
    # refusals keep their text: too few terms, a sum beyond double, and
    # non-finite parameters (invalid input, which runs out of terms)
    refused = [
        ((0.5, 1.5), (2.3,), 0.45, SeriesControl(max_terms=10)),
        ((1e300, 1e300), (0.5,), 0.3, ctl),
        ((math.inf, 1.0), (2.0,), 0.3, ctl),
        ((complex(1.0, math.inf), 1.0), (2.0,), 0.3, ctl),
        ((math.nan,), (1.0,), 0.5, ctl),
        ((), (1.5,), math.inf, ctl),
    ]
    with np.errstate(all="ignore"):
        for nums, dens, x, c in refused:
            got = _outcome(special_functions._series_float, nums, dens, x, c)
            assert got == _outcome(_series_float_per_term, nums, dens, x, c)
            assert got[0] == "NonConvergence"


def _near_nonpositive_int_np(z, tol=1e-12):
    zr, zi = float(np.real(z)), float(np.imag(z))
    if abs(zi) > tol:
        return False
    n = round(zr)
    return n <= 0 and abs(zr - n) <= tol * max(1.0, abs(zr))


def _near_int_np(z, tol=1e-8):
    zr, zi = float(np.real(z)), float(np.imag(z))
    return abs(zi) <= tol and abs(zr - round(zr)) <= tol


@pytest.mark.parametrize("z", [
    0, -3, 5, 10**400, 2.5, -2.0, 0.0, -0.0, -2.0 + 1e-13, -1e-13, 1e-9, 7.0 - 3e-9,
    complex(-2.0, 1e-13), complex(-2.0, 1e-3), complex(-0.0, -0.0), complex(3.0, -0.0),
    np.float32(-2.0), np.float64(-4.0), np.float64(-0.0), np.complex128(-1.0 + 0.0j),
    np.clongdouble(complex(-3.0, 0.0)), np.clongdouble(-3) + np.longdouble(1e-19),
    np.clongdouble(complex(2.5, -0.0)),
    math.nan, math.inf, -math.inf, complex(math.nan, 0.0), complex(0.0, math.inf),
    complex(-math.inf, 0.0), np.float64(math.nan), np.clongdouble(complex(math.inf, 0.0)),
])
def test_pole_tests_read_parts_like_numpy(z):
    for new, old in ((special_functions._near_nonpositive_int, _near_nonpositive_int_np),
                     (special_functions._near_int, _near_int_np)):
        outcomes = []
        for fn in (new, old):
            try:
                outcomes.append(fn(z))
            except (ValueError, OverflowError) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1], (new.__name__, z)


def test_series_control_validation():
    with pytest.raises(ValueError):
        SeriesControl(tol=1e-17)
    with pytest.raises(ValueError):
        SeriesControl(max_terms=3)


@pytest.mark.parametrize("kw", [dict(tol=1e-17), dict(tol=math.nan), dict(tol=-1.0),
                                dict(max_terms=3), dict(max_terms=math.nan)])
def test_series_control_refusals_are_typed(kw):
    with pytest.raises(ParameterError):
        SeriesControl(**kw)


def test_series_control_threaded_through():
    ctl = SeriesControl(max_terms=650, tol=1e-13)
    assert gauss_2f1(0.5, 1.5, 2.3, 0.45, ctl) == pytest.approx(
        gauss_2f1(0.5, 1.5, 2.3, 0.45), rel=1e-11
    )
