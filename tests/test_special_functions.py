"""Hypergeometric/gamma kernels: spot values, defining ODEs, symmetries."""

from __future__ import annotations

import cmath
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from coxlab import special_functions
from coxlab.errors import DomainError, NonConvergence, ParameterError, PoleError
from coxlab.radial import asymptotic_amplitudes
from coxlab.special_functions import (
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


def test_gamma_next_to_its_poles_vs_mpmath():
    """Real and complex z within 1e-11 to 1e-4 of -1 ... -20: the reflection
    takes sin(pi z) at the exact distance to the nearest integer, where
    sin(pi * z) rounded pi z first and lost up to 5e-5 of Gamma."""
    rng = np.random.default_rng(11)
    points = []
    for n in range(1, 21):
        for _ in range(13):
            d = 10.0 ** rng.uniform(-11.0, -4.0) * rng.choice([-1.0, 1.0])
            phase = rng.uniform(0.0, 2.0 * math.pi)
            points += [complex(-n + d * n), complex(-n + d * math.cos(phase), d * math.sin(phase))]
    worst = max(mp_rel(gamma_complex(z), mpmath.gamma(mpmath.mpc(z))) for z in points)
    assert worst <= 1e-14


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


@pytest.mark.parametrize("z", [142.58, 142.65, 142.73, complex(142.65, -0.0)])
def test_gamma_where_the_power_just_fits_vs_mpmath(z):
    # t^(w + 1/2) lands just under DBL_MAX; the complex product overflowed to
    # nan + nanj without raising, so the logarithm route never ran
    assert mp_rel(gamma_complex(z), mpmath.gamma(mpmath.mpc(z))) <= 1e-12
    assert mp_rel(reciprocal_gamma(z), mpmath.rgamma(mpmath.mpc(z))) <= 1e-12


@pytest.mark.parametrize("call", [
    lambda: gamma_complex(1e308 + 142.65j),  # returned inf + infj
    lambda: gamma_complex(3.087325260121436e-284 + 1e308j),  # a bare ZeroDivisionError
    lambda: gamma_complex(-4.7 + 2.26e246j),  # a bare OverflowError
    lambda: gamma_complex(0.3 + 300.0j),  # sin(pi z) beyond double
    lambda: gamma_complex(-1e308 + 0.5j),  # pi z beyond double
    lambda: reciprocal_gamma(3.45e194j),  # a bare OverflowError
    lambda: reciprocal_gamma(0.5 + 1e308j),  # Gamma underflows to 0
    lambda: asymptotic_amplitudes(95, 183459.7),  # a bare OverflowError
])
def test_gamma_beyond_double_is_refused(call):
    with pytest.raises(DomainError, match="exceeds the double range"):
        call()


def test_gamma_beyond_double_keeps_reciprocal_and_underflow_zeros():
    with pytest.raises(DomainError, match=r"Gamma\(\(201\.5\+0j\)\)"):  # the reflected factor
        gamma_complex(-200.5)
    assert reciprocal_gamma(1e308 + 142.65j) == 0.0  # |Gamma| beyond double
    assert gamma_complex(0.5 + 1e308j) == 0.0  # |Gamma| below every double
    assert gamma_complex(0.5 + 1000.0j) == 0.0


def _gamma_lanczos_complex(z: complex) -> complex:
    """gamma_complex's Lanczos route for Re z >= 1/2 as first written, in
    complex arithmetic: the reference that the float route for real z must
    reproduce bit for bit."""
    w = z - 1.0
    acc = special_functions._LANCZOS_C0
    for k, c in special_functions._LANCZOS_KC:
        acc += c / (w + k)
    t = w + special_functions._LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * acc


def test_real_gamma_equals_the_complex_route_bit_for_bit():
    """Away from half-integers, where the complex power multiplies out an
    integral exponent and pow() does not (see the next test)."""
    rng = np.random.default_rng(41)
    zs = [float(k) for k in range(1, 143)]  # t^(z - 1/2) at a half-integral exponent
    zs += [0.5, np.nextafter(0.5, 1.0), 100.0, np.nextafter(100.0, 101.0), 142.0]
    zs += list(rng.uniform(0.5, 3.0, 1000)) + list(rng.uniform(0.5, 142.5, 2000))
    for z in zs:
        want = _gamma_lanczos_complex(complex(z))
        for arg in (float(z), complex(z, 0.0), complex(z, -0.0)):
            got = gamma_complex(arg)
            assert (got.real, got.imag) == (want.real, want.imag), arg
            assert math.copysign(1.0, got.imag) == math.copysign(1.0, want.imag), arg


def test_real_gamma_at_half_integers_within_1_2e_15_of_mpmath():
    """Gamma(k/2), k = 1..285.  The real route once copied the complex
    power's repeated multiplication at integral exponents, so that
    Gamma(n + 1/2) rounded as the complex route did: up to 2.64e-15 off."""
    worst = 0.0
    for k in range(1, 286):
        got = gamma_complex(k / 2)
        want = mpmath.gamma(mpmath.mpf(k) / 2)
        assert got.imag == 0.0
        worst = max(worst, float(abs((got.real - want) / want)))
    assert worst <= 1.2e-15


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


def test_hyp0f1_refuses_a_nonpositive_integer_c():
    """At x = 0 too: the scalar form used to answer 1 there."""
    for c in (0, -2, -2.0):
        for x in (0.5, 0.0):
            with pytest.raises(PoleError, match="lower parameter .* is a nonpositive integer"):
                hyp0f1(c, x)
            with pytest.raises(PoleError, match="nonpositive integer"):
                hyp0f1(c, np.array([x, -1.0]))


def test_confluent_functions_are_exactly_one_at_zero():
    """0F1 and 1F1 at x = 0 (either sign of zero) with a regular c, real or
    complex, are exactly 1 + 0j, from the series itself."""
    for c in (1.5, 2, -2.5, 1e-3, 0.3 + 0.2j):
        for x in (0, 0.0, -0.0, 0j, complex(-0.0, -0.0)):
            assert repr(hyp0f1(c, x)) == "(1+0j)", (c, x)
            assert repr(kummer_1f1(0.7 - 0.4j, c, x)) == "(1+0j)", (c, x)
        assert [repr(v) for v in hyp0f1(c, np.array([0.0, -0.0])).tolist()] == ["(1+0j)"] * 2


def test_bessel_j_fractional_at_zero():
    """J_0(0) = 1 and J_nu(0) = 0 for nu > 0; a negative order diverges there,
    and a negative integer order is refused at any argument."""
    assert bessel_j_fractional(0.0, 0.0) == 1.0 + 0.0j
    assert bessel_j_fractional(1 / 3, 0j) == 0j
    with pytest.raises(DomainError, match=r"J_nu\(0\) diverges for negative order"):
        bessel_j_fractional(-1 / 3, 0.0)
    for y in (0.0, 1.5):
        with pytest.raises(PoleError, match="order nu = -1.0 has 1/Gamma"):
            bessel_j_fractional(-1.0, y)


@pytest.mark.parametrize("y", [-1.08e282, 1.35e154, 2e154 + 1e154j])
def test_bessel_refuses_argument_whose_square_overflows(y):
    # -y^2/4 beyond double: a numerical refusal that names y, where 0F1
    # used to refuse its argument (-inf+nanj) as an input error
    with pytest.raises(NonConvergence, match=r"-y\^2/4 overflows double at \|y\|"):
        bessel_j_fractional(0.37, y)


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


def _gauss_1_over_x_two_terms(a, b, c, x):
    """gauss_2f1's 1/x connection (x < -2) as first written, both terms
    summed: the reference for the conjugate-pair shortcut."""
    gamma_complex = special_functions.gamma_complex
    reciprocal_gamma = special_functions.reciprocal_gamma
    _hyp_series = special_functions._hyp_series
    u = 1.0 / x
    gc = gamma_complex(c)
    t1 = (
        gc
        * gamma_complex(b - a)
        * reciprocal_gamma(b)
        * reciprocal_gamma(c - a)
        * complex(-x) ** (-a)
        * _hyp_series((a, a - c + 1.0), (a - b + 1.0,), u)
    )
    t2 = (
        gc
        * gamma_complex(a - b)
        * reciprocal_gamma(a)
        * reciprocal_gamma(c - b)
        * complex(-x) ** (-b)
        * _hyp_series((b, b - c + 1.0), (b - a + 1.0,), u)
    )
    return t1 + t2


def _bits(z: complex):
    return z.real, z.imag, math.copysign(1.0, z.real), math.copysign(1.0, z.imag)


def test_gauss_conjugate_pair_equals_two_term_formula_bit_for_bit():
    rng = np.random.default_rng(17)
    draws = []
    for _ in range(600):  # the radial solutions: F(alpha, conj alpha; |m| + 1; 1 - x)
        m, u = int(rng.integers(0, 6)), math.sqrt(rng.uniform(0.26, 40.0) - 0.25)
        alpha = complex(m + 0.5, -u)
        x = -rng.uniform(2.0, 500.0)
        draws += [(alpha, alpha.conjugate(), m + 1.0, x), (alpha.conjugate(), alpha, m + 1.0, x)]
    for _ in range(300):  # any conjugate pair, c of either sign with a signed zero part
        a = complex(rng.uniform(-3.0, 3.0), rng.uniform(-10.0, 10.0))
        c = complex(rng.uniform(-3.5, 5.0), rng.choice([0.0, -0.0]))
        draws.append((a, a.conjugate(), c, -10.0 ** rng.uniform(0.31, 4.0)))
    for _ in range(200):  # no conjugate pair: the second term is the first with a and b swapped
        a, b = complex(*rng.uniform(-3.0, 3.0, 2)), complex(*rng.uniform(-3.0, 3.0, 2))
        c = complex(rng.uniform(-3.5, 5.0), rng.choice([0.0, -0.0, rng.uniform(-2.0, 2.0)]))
        draws.append((a, b, c, -10.0 ** rng.uniform(0.31, 4.0)))
    for _ in range(200):  # real parameters
        a, b, c = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.5, 5.0)
        draws.append((complex(a), complex(b), complex(c), -10.0 ** rng.uniform(0.31, 4.0)))
    for a, b, c, x in draws:
        want = _gauss_1_over_x_two_terms(a, b, c, x)
        if not (a.imag or b.imag or c.imag):
            want = complex(float(want.real))  # real parameters return the real part
        assert _bits(gauss_2f1(a, b, c, x)) == _bits(want), (a, b, c, x)


@pytest.mark.parametrize("y", [1.3e154, 1e154, 5e153])
def test_bessel_series_refusal_names_y(y):
    # y * y is finite but 0F1 overflows: the text named only |x| = y^2/4
    text = f"J_nu series fails at nu = 0.37, |y| = {y:.3g} (0F1 at x = -y^2/4: pFq series overflows"
    with pytest.raises(NonConvergence, match=re.escape(text)):
        bessel_j_fractional(0.37, y)


def _gauss_unit_and_1_minus_x(a, b, c, x):
    """gauss_2f1 for x = 1 and 1/2 < x < 1 as first written, with its Gauss
    sum in both branches: the reference for the shared `_gauss_sum`."""
    gamma_complex = special_functions.gamma_complex
    reciprocal_gamma = special_functions.reciprocal_gamma
    _hyp_series = special_functions._hyp_series
    _power = special_functions._power
    a, b, c, x = complex(a), complex(b), complex(c), float(x)
    real_params = a.imag == 0.0 and b.imag == 0.0 and c.imag == 0.0
    special_functions._require_finite("gauss_2f1", (a, b, c), (x,))
    if special_functions._near_nonpositive_int(c):
        raise PoleError(f"2F1 lower parameter c = {c} is a nonpositive integer")
    if x == 1.0:
        if (c - a - b).real <= 0:
            raise DomainError("2F1 diverges at x = 1 unless Re(c - a - b) > 0")
        val = (
            gamma_complex(c)
            * gamma_complex(c - a - b)
            * reciprocal_gamma(c - a)
            * reciprocal_gamma(c - b)
        )
    else:
        # 0.5 < x < 1: connection in powers of 1 - x  (DLMF 15.8.4)
        if special_functions._near_int(c - a - b):
            raise PoleError(
                "1-x connection formula degenerates: c - a - b is an integer"
            )
        y = 1.0 - x
        gc = gamma_complex(c)
        t1 = (
            gc
            * gamma_complex(c - a - b)
            * reciprocal_gamma(c - a)
            * reciprocal_gamma(c - b)
            * _hyp_series((a, b), (a + b - c + 1.0,), y)
        )
        t2 = (
            _power(y, c - a - b)
            * gc
            * gamma_complex(a + b - c)
            * reciprocal_gamma(a)
            * reciprocal_gamma(b)
            * _hyp_series((c - a, c - b), (c - a - b + 1.0,), y)
        )
        val = t1 + t2
    if not cmath.isfinite(val):  # a product of finite factors beyond double
        raise DomainError(f"2F1({a}, {b}; {c}; {x}): its Gamma factors leave the double range")
    return float(val.real) if real_params else val


def _gauss_outcome(fn, *args):
    """The value's bits with the signs of its zeros, or the refusal's type and text."""
    try:
        return _bits(complex(fn(*args)))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_gauss_sum_equals_unit_and_1_minus_x_branches_bit_for_bit():
    rng = np.random.default_rng(31)
    draws = []
    for _ in range(700):
        x = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.5000001, 0.9999999))
        kind = rng.integers(0, 5)
        if kind == 0:  # real parameters
            a, b, c = rng.uniform(-4.0, 4.0, 3)
        elif kind == 1:  # complex parameters
            a, b, c = (complex(*rng.uniform(-4.0, 4.0, 2)) for _ in range(3))
        elif kind == 2:  # the radial solutions' pair
            a = complex(rng.uniform(0.5, 6.0), rng.uniform(-10.0, 10.0))
            b, c = a.conjugate(), round(a.real + 0.5)
        elif kind == 3:  # Gamma poles: integer c - a, c - b, a or b
            a, c = float(rng.integers(-4, 3)), float(rng.integers(1, 5)) + rng.choice([0.0, 0.37])
            b = c - float(rng.integers(-3, 4)) if rng.random() < 0.5 else rng.uniform(-3.0, 3.0)
        else:  # Gamma factors near and beyond the double range
            a, b = rng.uniform(-10.0, 10.0), rng.choice([-1.0, 0.5, rng.uniform(-2.0, 2.0)])
            c = rng.choice([142.65, 171.5, 170.3, rng.uniform(140.0, 175.0)])
        draws.append((a, b, c, x))
    draws += [(0.5, 1, 142.65, 0.9), (9.438752605415289, -1, 171.5, 1.0), (0.3, 0.4, 2.0, 1.0),
              (0.5, 0.5, 2.0, 0.9), (0.5, 0.5, 0.5, 1.0)]
    outcomes = []
    for args in draws:
        got = _gauss_outcome(gauss_2f1, *args)
        assert got == _gauss_outcome(_gauss_unit_and_1_minus_x, *args), args
        outcomes.append(got[0])
    refused = {kind for kind in outcomes if isinstance(kind, str)}
    assert {"PoleError", "DomainError"} <= refused
    assert sum(not isinstance(kind, str) for kind in outcomes) >= 250  # values compared too


_BIG = 1e308


@pytest.mark.parametrize("call, error", [
    (lambda: gauss_2f1(0.5, 1, 142.65, 0.9), DomainError),  # returned nan
    (lambda: gauss_2f1(9.438752605415289, -1, 171.5, 1.0), DomainError),  # returned nan
    (lambda: gauss_2f1(0.25, -5.5, 1.5, -1e100), DomainError),  # (-x)^(-b): a bare OverflowError
    (lambda: kummer_1f1(-2, 4.433177655726471, _BIG), NonConvergence),  # returned inf + 0j
    (lambda: kummer_1f1(-5, 3.9086205169455788, complex(_BIG, _BIG)), NonConvergence),  # OverflowError
    (lambda: bessel_j_fractional(142.65, _BIG), NonConvergence),  # a bare OverflowError
    (lambda: bessel_j_fractional(_BIG, -164.51308772134686 - 0.4243191668666224j),
     NonConvergence),  # a bare ValueError
])
def test_values_beyond_double_are_refused(call, error):
    with pytest.raises(error, match="double"):
        call()


def test_real_parameters_never_reach_the_complex_loop(monkeypatch):
    def refuse(nums, dens):
        raise AssertionError(f"real series {nums}, {dens} summed in clongdouble")

    monkeypatch.setattr(special_functions, "_clongdouble_params", refuse)
    for x in (1.0, 0.3, 0.8, -1.5, -10.0):  # every region of gauss_2f1
        gauss_2f1(0.3, 0.45, 1.7, x)
    kummer_1f1(0.7, 1.9, 12.0)
    kummer_1f1(0.7, 1.9, -12.0)  # Kummer's transformation keeps x real
    hyp0f1(4 / 3, -20.0)
    hyp0f1(2, 3)
    bessel_j_fractional(1 / 3, 2.5)
    with pytest.raises(AssertionError):  # the guard itself
        kummer_1f1(0.7, 1.9, 20j)


def test_conjugate_pair_sums_one_series(monkeypatch):
    counts = dict.fromkeys(("series", "gamma"), 0)
    depth = [0]

    def counted(kind, fn):
        def wrapper(*args):
            if depth[0] == 0:  # evaluations gauss_2f1 asks for, not reflections within them
                counts[kind] += 1
            depth[0] += kind == "gamma"
            try:
                return fn(*args)
            finally:
                depth[0] -= kind == "gamma"
        return wrapper

    for name, kind in (("_series_float", "series"), ("gamma_complex", "gamma"),
                       ("reciprocal_gamma", "gamma")):
        monkeypatch.setattr(special_functions, name, counted(kind, getattr(special_functions, name)))
    a = complex(2.5, -3.1)
    gauss_2f1(a, a.conjugate(), 3.0, -40.0)
    assert counts == {"series": 1, "gamma": 4}
    counts.update(series=0, gamma=0)
    gauss_2f1(a, a.conjugate() + 0.5, 3.0, -40.0)  # not a conjugate pair: both terms
    assert counts == {"series": 2, "gamma": 7}
    counts.update(series=0, gamma=0)
    gauss_2f1(a, a.conjugate(), 3.0 + 0.5j, -40.0)  # complex c: the terms are not conjugate
    assert counts == {"series": 2, "gamma": 7}


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
    fallback = [x for x in grid if not special_functions._series_float((), (4 / 3,), x)[2]]
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
    got = special_functions._hyp_series_array((-3.0,), (1.5,), poly)
    want = np.array([special_functions._hyp_series((-3.0,), (1.5,), x) for x in poly])
    assert np.all(got == want)


def _series_mp(nums, dens, x, peak, max_terms=700):
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
        for k in range(max_terms):
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
        raise NonConvergence(f"pFq series (mp) did not converge in {max_terms} terms")


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
    # negative real lower parameters: the fixed-point loop divides by a
    # negative real denominator
    for c in (-2.5, -3.5, -0.5, -7.25):
        cases += [((), (c,), -u(35.0, 80.0)), ((complex(u(0.0, 2.0), u(-2.0, 2.0)),), (c,), 25j)]
    # lower parameters within 2**-50 of an integer: p + k held exactly needs
    # every bit of the parameter's 52-bit fraction
    cases += [((), (c,), -60.0) for c in (1.0 + 2.0**-52, 2.0 - 2.0**-52, 3.0 - 2.0**-51,
                                          6.0 + 2.0**-50)]
    cases.append(((complex(0.5, 1.0),), (2.0 + 2.0**-51,), 25j))
    # complex lower parameters with a negative real part
    cases += [((), (complex(-1.5, 0.7),), -70.0), ((), (complex(-0.5, 2.0),), -60.0),
              ((), (complex(-2.75, 0.2),), complex(-60.0, 10.0)),
              ((complex(0.8, -1.2),), (complex(-2.5, 0.3),), 22j),
              ((1.5,), (complex(-0.7, 1.1),), -20j)]
    # an x with a tiny nonzero real part, whose power of two dwarfs the others'
    cases += [((complex(0.7, 0.3),), (1.5,), complex(1e-300, 25.0)),
              ((complex(0.7, 0.3),), (1.5,), complex(-2.0**-60, -18.0)),
              ((0.5,), (1.25,), complex(5e-324, 28.0))]
    return cases


def test_fixed_point_fallback_equals_mpmath_loop_bit_for_bit():
    checked = 0
    for nums, dens, x in _fallback_cases():
        _, peak, ok = special_functions._series_float(nums, dens, x)
        if ok:
            continue
        got = special_functions._series_fixed(nums, dens, x, peak)
        want = _series_mp(nums, dens, x, peak)
        assert got.real == want.real and got.imag == want.imag, (nums, dens, x)
        assert math.copysign(1.0, got.imag) == math.copysign(1.0, want.imag)
        checked += 1
    assert checked >= 200


def test_fixed_point_fallback_keeps_max_terms_refusal(monkeypatch):
    # the float pass stops within 32 terms; the deeper fixed-point sum cannot
    monkeypatch.setattr(special_functions, "_MAX_TERMS", 32)
    _, peak, ok = special_functions._series_float((), (4 / 3,), -50.0)
    assert not ok
    with pytest.raises(NonConvergence, match="did not converge in 32 terms"):
        special_functions._series_fixed((), (4 / 3,), -50.0, peak)
    with pytest.raises(NonConvergence, match="did not converge in 32 terms"):
        _series_mp((), (4 / 3,), -50.0, peak, max_terms=32)
    with pytest.raises(NonConvergence, match="did not converge in 32 terms"):
        hyp0f1(4 / 3, -50.0)


def test_fixed_point_fallback_refuses_sum_beyond_double(monkeypatch):
    # 1F1(1; 1; 800) = e^800: the mpmath loop returned inf here
    monkeypatch.setattr(special_functions, "_MAX_TERMS", 3000)
    with pytest.raises(NonConvergence, match="overflows double"):
        special_functions._series_fixed((1.0,), (1.0,), 800.0, 1e300)


def test_hyp0f1_refuses_overflowing_sum():
    # terms beyond double range used to be accepted: inf <= tol * inf
    with pytest.raises(NonConvergence):
        hyp0f1(4 / 3, -1e297)
    with pytest.raises(NonConvergence):
        hyp0f1(4 / 3, np.array([-1.0, -1e297]))


def _series_float_per_term(nums, dens, x, max_terms=700, tol=1e-14):
    """`_series_float` as first written, converting every parameter to
    clongdouble again on every term: the reference that the loop with its
    conversions hoisted must reproduce bit for bit."""
    xl = np.clongdouble(x)
    term = np.clongdouble(1.0)
    total = np.clongdouble(1.0)
    peak = 1.0
    small_streak = 0
    for k in range(max_terms):
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
        if a <= tol * max(abs(complex(total)), 1e-300):
            small_streak += 1
            if small_streak >= 2:
                total_c = complex(total)
                if not cmath.isfinite(total_c):
                    raise NonConvergence(f"pFq series overflows double at |x| = {abs(x):.3g}")
                lost = special_functions._EPS_LD * peak * math.sqrt(k + 1.0)
                return total_c, peak, lost <= tol * max(abs(total_c), 1e-300)
        else:
            small_streak = 0
    raise NonConvergence(
        f"pFq series did not converge in {max_terms} terms (|x| = {abs(x):.3g})"
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


def test_series_loop_equals_per_term_conversion_bit_for_bit(monkeypatch):
    cases = _signed_zero_cases() + _fallback_cases()
    for nums, dens, x in cases:
        got = _outcome(special_functions._series_float, nums, dens, x)
        want = _outcome(_series_float_per_term, nums, dens, x)
        assert got == want, (nums, dens, x)
    # refusals keep their text: too few terms, a sum beyond double, and
    # non-finite parameters (invalid input, which runs out of terms)
    refused = [
        ((0.5, 1.5), (2.3,), 0.45, 10),
        ((1e300, 1e300), (0.5,), 0.3, 700),
        ((math.inf, 1.0), (2.0,), 0.3, 700),
        ((complex(1.0, math.inf), 1.0), (2.0,), 0.3, 700),
        ((math.nan,), (1.0,), 0.5, 700),
        ((), (1.5,), math.inf, 700),
    ]
    with np.errstate(all="ignore"):
        for nums, dens, x, max_terms in refused:
            monkeypatch.setattr(special_functions, "_MAX_TERMS", max_terms)
            got = _outcome(special_functions._series_float, nums, dens, x)
            assert got == _outcome(_series_float_per_term, nums, dens, x, max_terms)
            assert got[0] == "NonConvergence"


def _real_series_cases():
    """20 000 seeded real series: short sums of the three families, lower
    parameters of either sign, and 0F1 sums around the cancellation border
    where the ok flag changes."""
    rng = np.random.default_rng(29)
    u = rng.uniform
    cases = [((u(-4.0, 4.0), u(-4.0, 4.0)), (u(-3.5, 4.0),), u(-0.01, 0.01)) for _ in range(8000)]
    cases += [((u(-3.0, 3.0),), (u(-3.5, 4.0),), u(-0.05, 0.05)) for _ in range(5000)]
    cases += [((), (u(-3.5, 4.0),), u(-0.1, 0.1)) for _ in range(5000)]
    cases += [((), (u(0.3, 4.0),), u(-36.0, -24.0)) for _ in range(2000)]
    # a term within 0.1% below the stop threshold tol * |total|, which the
    # skip ahead of the stop rule must not pass over
    cases += [((), (1.5,), x) for x in (0.572675, 0.986975, 1.57715)]
    cases += [((0.5, 1.0), (1.5,), x) for x in (0.3085, 0.35335, 0.3937)]
    return cases


def test_real_series_loop_equals_per_term_conversion_bit_for_bit(monkeypatch):
    """The longdouble loop against the clongdouble reference: value, peak,
    ok flag and zero signs, so no case near the cancellation border flips."""
    cases = _real_series_cases() + [
        case for case in _signed_zero_cases() + _fallback_cases()
        if all(complex(v).imag == 0 for v in (case[2], *case[0], *case[1]))
    ]
    per_term = [_outcome(_series_float_per_term, *case) for case in cases]

    def refuse(nums, dens):
        raise AssertionError(f"real series {nums}, {dens} summed in clongdouble")

    monkeypatch.setattr(special_functions, "_clongdouble_params", refuse)
    border = [0, 0]
    for case, want in zip(cases, per_term):
        got = _outcome(special_functions._series_float, *case)
        assert got == want, case
        _, _, peak, ok = got
        border[ok] += 1e3 < peak / max(abs(complex(*got[0])), 1e-300) < 1e6
    assert min(border) >= 500, border  # both flags, near the border


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

