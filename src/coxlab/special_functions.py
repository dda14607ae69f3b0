"""Hypergeometric and gamma kernels used by the wave-equation modules.

Everything here is computed from Taylor series of the hypergeometric
families pFq plus the classical connection/transformation formulas
(DLMF chapters 13 and 15) and a Lanczos approximation for Gamma.

Precision strategy
------------------
Series are accumulated in extended precision while tracking the largest
term: in ``numpy.longdouble`` when every parameter and the argument are
real and finite, in ``numpy.clongdouble`` otherwise.  The real sum holds
the bits of the complex sum's real part, so value, peak and the
cancellation verdict never depend on the route: numpy divides a complex
number by a real d as a * (1/d), and the real loop multiplies by that
reciprocal too.  The ratio peak/|sum| measures the digits lost to
cancellation; when the running estimate exceeds the relative budget
the same series loop is re-run in binary fixed point on Python integers,
with the number of bits sized from that estimate.  That loop holds x and
the parameters as exact dyadic ratios, so each term ratio is one exact
rational, and it stops once a term is below 2**-80 of the sum: the
tail left lies some 27 bits below the double it is rounded to.  The
budget is fixed: the extended-precision pass stops at a relative term
size of 1e-14 (``_TOL``), and either pass refuses a series with
NonConvergence after 700 terms (``_MAX_TERMS``).  The
library needs no multiple-precision package, so the test suite's
cross-checks against mpmath's special functions stay independent.

A value beyond the double range is refused (DomainError, or
NonConvergence from a series), never returned as inf or NaN.

Every public function refuses a non-finite parameter with ParameterError
and a non-finite argument with DomainError before any series runs.
"""

from __future__ import annotations

import math
import cmath

import numpy as np

from .errors import DomainError, NonConvergence, ParameterError, PoleError

__all__ = [
    "gamma_complex",
    "reciprocal_gamma",
    "gauss_2f1",
    "kummer_1f1",
    "hyp0f1",
    "bessel_j_fractional",
]

_EPS_LD = float(np.finfo(np.clongdouble).eps)
_LOG2_10 = math.log2(10.0)
_GUARD_BITS = 20  # fixed-point bits beyond dps digits, for the roundings of 700 terms
_DIRECT_RADIUS = 0.5  # gauss_2f1 sums its series untransformed for |x| up to here
_MAX_TERMS = 700  # terms summed before a series is refused with NonConvergence
_TOL = 1e-14  # relative truncation and roundoff budget of every series
_SETTLED_BITS = 80  # the fixed-point sum stops at a term below 2**-80 of the sum


def _near_nonpositive_int(z: complex, tol: float = 1e-12) -> bool:
    """True when z sits (numerically) on a pole of Gamma."""
    z = complex(z)  # numpy scalars too; clongdouble parts round to double
    if abs(z.imag) > tol:
        return False
    zr = z.real
    n = round(zr)
    return n <= 0 and abs(zr - n) <= tol * max(1.0, abs(zr))


def _require_finite(name: str, params=(), args=()) -> None:
    """ParameterError for a non-finite parameter, DomainError for a
    non-finite argument: one test per value at a public entry, so the
    series loops never see inf or NaN."""
    for p in params:
        if not cmath.isfinite(p):
            raise ParameterError(f"{name} needs finite parameters, got {p}")
    for x in args:
        if not cmath.isfinite(x):
            raise DomainError(f"{name} needs a finite argument, got {x}")


def _near_int(z: complex, tol: float = 1e-8) -> bool:
    z = complex(z)
    return abs(z.imag) <= tol and abs(z.real - round(z.real)) <= tol


# ---------------------------------------------------------------------------
# Gamma: Lanczos approximation (g = 607/128, 15 terms; Godfrey's fit of the
# Lanczos (1964) scheme; relative error close to double roundoff).
# ---------------------------------------------------------------------------

_LANCZOS_G = 4.7421875
_LANCZOS_C0 = 0.99999999999999709182
_LANCZOS_KC = tuple(enumerate((  # (k, c_k) of the sum c_0 + sum_k c_k / (z - 1 + k)
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
), start=1))
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_TINY = -800.0  # e to this lies below the smallest subnormal double


def _real_power(t: float, e: float) -> float:
    """t ** e for t > 0, e >= 0, rounded as Python's complex power rounds
    it for real parts: repeated squaring for small integer e, else pow()."""
    if e == 0.0:
        return 1.0
    if e == math.floor(e) and e <= 100.0:
        n, r = int(e), 1.0
        while n:
            if n & 1:
                r *= t
            n >>= 1
            if n:
                t *= t
        return r
    return t ** e


def gamma_complex(z: complex) -> complex:
    """Gamma function for complex argument.

    Lanczos sum for Re z >= 1/2, reflection formula otherwise.  A real z
    takes the sum's operations on floats: they round as the real parts of
    the complex ones, whose imaginary parts all stay +0.
    Raises PoleError at (numerically) nonpositive integers and
    DomainError for a non-finite z or where |Gamma| (or, by reflection,
    |Gamma(1 - z)| or |sin(pi z)|) exceeds the double range.  Returns 0
    where |Gamma| lies below every double.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"gamma_complex needs a finite argument, got {z}")
    if _near_nonpositive_int(z):
        raise PoleError(f"gamma pole at z = {z}")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z), with sin(pi z) taken at z - n,
        # whose real part is exact: pi * z would round the distance to the pole
        n = round(z.real)
        try:
            sine = cmath.sin(math.pi * (z - n))
            g = math.pi / ((-sine if n % 2 else sine) * gamma_complex(1.0 - z))
        except DomainError:  # Gamma(1 - z) beyond double: its own refusal
            raise
        except (OverflowError, ValueError, ZeroDivisionError):  # sin(pi z) beyond double
            g = complex(math.nan)
        if not cmath.isfinite(g):
            raise DomainError(f"Gamma({z}) exceeds the double range")
        return g
    w = z - 1.0
    if not z.imag:
        w = w.real
    acc = _LANCZOS_C0
    for k, c in _LANCZOS_KC:
        acc += c / (w + k)
    t = w + _LANCZOS_G + 0.5
    try:
        if z.imag:
            g = _SQRT_2PI * t ** (w + 0.5) * cmath.exp(-t) * acc
        else:
            g = complex(_SQRT_2PI * _real_power(t, w + 0.5) * math.exp(-t) * acc)
    except (OverflowError, ZeroDivisionError):  # the power's errno: ERANGE, EDOM
        g = complex(math.inf)
    if cmath.isfinite(g):
        return g
    # t^(w + 1/2) leaves the double range (Re z above about 143) before
    # exp(-t) brings the product back: add the logarithms instead
    log_t = cmath.log(t)
    log_gamma = (w + 0.5) * log_t - t + cmath.log(_SQRT_2PI * acc)
    try:
        g = cmath.exp(log_gamma)
    except (OverflowError, ValueError):  # a real part above ~709.8, or no finite phase
        g = complex(math.inf)
    if cmath.isfinite(g):
        return g
    log_abs = log_gamma.real
    if log_abs != log_abs:  # inf - inf (|z| above ~1e305): its two terms, scaled down
        log_abs = (w.real + 0.5) * 2.0**-16 * log_t.real - w.imag * 2.0**-16 * log_t.imag
    if log_abs < _LOG_TINY:  # |Gamma| below every double, whatever its phase
        return 0j
    raise DomainError(f"Gamma({z}) exceeds the double range")


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma(z), returning exactly 0 at the poles (entire function).

    Returns 0 too where |Gamma(z)| exceeds the double range for
    Re z >= 1/2, so that the reciprocal lies below 1/DBL_MAX.  Where
    Gamma(1 - z) or sin(pi z) exceeds it left of that, or Gamma(z)
    underflows to 0, 1/Gamma(z) overflows and DomainError is raised.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"reciprocal_gamma needs a finite argument, got {z}")
    if _near_nonpositive_int(z):
        return 0.0 + 0.0j
    try:
        return 1.0 / gamma_complex(z)
    except ZeroDivisionError:  # Gamma(z) underflowed to 0
        raise DomainError(f"1/Gamma({z}) exceeds the double range") from None
    except DomainError:
        if z.real < 0.5:
            raise
        return 0.0 + 0.0j


# ---------------------------------------------------------------------------
# Generic pFq Taylor loop, extended precision first, integer fixed point when
# cancellation eats the budget.
# ---------------------------------------------------------------------------

_ONE_LD, _ONE_CLD = np.longdouble(1.0), np.clongdouble(1.0)
# 1/(k + 1) for k < _MAX_TERMS, rounded as a division by k + 1
_INVERSES_LD = [_ONE_LD / (k + 1) for k in range(_MAX_TERMS)]
_INVERSES_CLD = [_ONE_CLD / (k + 1) for k in range(_MAX_TERMS)]


def _clongdouble_params(nums, dens):
    """The parameters in clongdouble, converted once per series: the first
    upper one (None for 0Fq), the other upper ones and the lower ones.

    p + k has no negative-zero part, so a term ratio started from p0 + k
    holds the same bits as one started from one * (p0 + k).
    """
    ps = [np.clongdouble(p) for p in nums]
    return (ps[0] if ps else None), ps[1:], [np.clongdouble(q) for q in dens]


def _longdouble_params(nums, dens, x):
    """`_clongdouble_params` and x in longdouble, or None unless every
    value is real and finite.

    A value counts as real when its imaginary part is zero.  Its real part
    converts exactly as through clongdouble, which rounds a Python int to
    double first; longdouble inputs would keep bits that complex() drops,
    so they stay complex.  one * v converts several times faster than
    np.longdouble(v), and exactly.
    """
    values = []
    for v in (*nums, *dens, x):
        if type(v) is not float:
            if isinstance(v, (np.longdouble, np.clongdouble)):
                return None
            z = complex(v)
            if z.imag:
                return None
            v = z.real
        if not math.isfinite(v):
            return None
        values.append(_ONE_LD * v)
    p = len(nums)
    return (values[0] if p else None), values[1:p], values[p:-1], values[-1]


def _series_float(nums, dens, x):
    """Sum pFq in extended precision.  Returns (value, peak, ok).

    Real finite parameters and x are summed in longdouble, anything else
    in clongdouble; both take the same loop.  The real sum reproduces the
    real part of the complex one bit for bit: numpy's complex division by
    a real d rounds as a * (1/d), so the real loop divides that way, and
    every imaginary part of the complex sum stays a zero that never
    reaches the total's +0.  For the same reason the complex loop may
    multiply by the reciprocal of k + 1 instead of dividing by it.
    """
    params = _longdouble_params(nums, dens, x)
    real = params is not None
    if real:
        p0, ps, qs, xl = params
        one, to_double, inverses = _ONE_LD, float, _INVERSES_LD
    else:
        p0, ps, qs = _clongdouble_params(nums, dens)
        one, xl, to_double, inverses = _ONE_CLD, np.clongdouble(x), complex, _INVERSES_CLD
    term = total = one
    tol = _TOL
    # |total| <= bound = 1 + sum |term| up to far less rounding than the pad,
    # so while |term| > pad * bound the stop rule cannot fire and |total|
    # is not needed; a NaN or infinite bound falls through to the rule
    pad = 1.001 * tol
    peak = bound = 1.0
    small_streak = 0
    for k, inverse in zip(range(_MAX_TERMS), inverses):
        ratio = one if p0 is None else p0 + k
        for p in ps:
            ratio = ratio * (p + k)
        for q in qs:
            ratio = ratio * (one / (q + k)) if real else ratio / (q + k)
        term = term * ratio * xl * inverse
        if term == 0:  # terminating (polynomial) case
            return _finite_sum(total, to_double, x), peak, True
        total += term
        try:
            a = abs(to_double(term))
        except OverflowError:  # hypot of two finite parts beyond double
            raise NonConvergence(f"pFq series overflows double at |x| = {abs(x):.3g}") from None
        if a > peak:  # as max(peak, a): a NaN a keeps peak
            peak = a
        bound += a
        if a > pad * bound:
            small_streak = 0
            continue
        size = abs(to_double(total))
        if a <= tol * (1e-300 if size < 1e-300 else size):
            small_streak += 1
            if small_streak >= 2:
                total_c = _finite_sum(total, to_double, x)
                lost = _EPS_LD * peak * math.sqrt(k + 1.0)
                ok = lost <= tol * max(abs(total_c), 1e-300)
                return total_c, peak, ok
        else:
            small_streak = 0
    raise NonConvergence(
        f"pFq series did not converge in {_MAX_TERMS} terms (|x| = {abs(x):.3g})"
    )


def _finite_sum(total, to_double, x) -> complex:
    """The sum as a Python complex, refused when a part lies beyond double."""
    value = complex(to_double(total))
    if not cmath.isfinite(value):
        raise NonConvergence(f"pFq series overflows double at |x| = {abs(x):.3g}")
    return value


def _series_fixed(nums, dens, x, peak: float) -> complex:
    """Same Taylor loop in binary fixed point, sized to beat the cancellation.

    The term and the sum are pairs of Python ints scaled by 2**bits.  x and
    every parameter are held exactly as Gaussian integers over a power of
    two, (re + i*im) / 2**e from float.as_integer_ratio, so p + k is
    re + k*2**e with no rounding.  Step k multiplies the term by the small
    integer n = x * prod(p + k) and floor-divides each part by
    prod(q + k) * (k + 1) and the powers of two, over |.|^2 for a complex
    denominator (n * conj(den) / |den|^2): one exact rational per step, so
    a term takes less than one unit of 2**-bits of fresh rounding.  The sum
    stops at the first term of at most 2**-_SETTLED_BITS of it.
    """
    dps = min(140, int(math.log10(max(peak, 1.0)) + 16.0) + 25)
    bits = math.ceil(dps * _LOG2_10) + _GUARD_BITS

    def dyadic(v: complex) -> tuple[int, int, int]:  # (re, im, e): (re + i*im) / 2**e
        (nr, dr), (ni, di) = v.real.as_integer_ratio(), v.imag.as_integer_ratio()
        d = max(dr, di)  # both powers of two
        return nr * (d // dr), ni * (d // di), d.bit_length() - 1

    (xr, xi, shift), *pq = [dyadic(z) for z in map(complex, (x, *nums, *dens))]
    ps, qs = pq[:len(nums)], pq[len(nums):]
    # the ratio is n / den over 2**shift: folded into x for a negative shift,
    # into the divisor otherwise
    shift += sum(e for *_, e in ps) - sum(e for *_, e in qs)
    xr, xi, shift = xr << max(0, -shift), xi << max(0, -shift), max(0, shift)

    def value(re: int, im: int) -> complex:
        try:  # int / int rounds correctly: to nearest, ties to even
            return complex(re / (1 << bits), im / (1 << bits))
        except OverflowError:
            raise NonConvergence(f"pFq series overflows double at |x| = {abs(x):.3g}") from None

    tr, ti = sr, si = 1 << bits, 0
    for k in range(_MAX_TERMS):
        nr, ni = xr, xi
        for pr, pi, e in ps:
            pr += k << e
            nr, ni = nr * pr - ni * pi, nr * pi + ni * pr
        if not (nr or ni):  # terminating (polynomial) case
            return value(sr, si)
        dr, di = k + 1, 0
        for qr, qi, e in qs:
            qr += k << e
            dr, di = dr * qr - di * qi, dr * qi + di * qr
        if di:  # n / den = n * conj(den) / |den|^2
            m = (dr * dr + di * di) << shift
            nr, ni = nr * dr + ni * di, ni * dr - nr * di
        else:  # the same rationals over a real denominator; // floors for den < 0 too
            m = dr << shift
        tr, ti = (tr * nr - ti * ni) // m, (tr * ni + ti * nr) // m
        if -1 <= tr <= 0 and -1 <= ti <= 0:
            # underflow: the term fell below 2**-bits, far past the peak, where
            # the ratios of these series only shrink; the tail left is smaller
            # than the rounding already made
            return value(sr, si)
        sr += tr
        si += ti
        # |term| <= 2**-_SETTLED_BITS * |sum|, exact in squares
        if (tr * tr + ti * ti) << (2 * _SETTLED_BITS) <= sr * sr + si * si:
            return value(sr, si)
    raise NonConvergence(f"pFq series (mp) did not converge in {_MAX_TERMS} terms")


@np.errstate(over="ignore")  # casts to double overflow silently, as complex() does
def _series_float_array(nums, dens, x: np.ndarray):
    """`_series_float` over a 1-D array of x in one vectorised loop.

    Every element takes exactly the scalar loop's operations and leaves the
    loop when its own stop rule fires, so its value, peak and ok flag match
    a scalar call bit for bit.  Returns (values, peaks, ok) arrays.
    """
    n = x.size
    values = np.empty(n, dtype=complex)
    peaks = np.empty(n)
    ok = np.empty(n, dtype=bool)
    live = np.arange(n)
    xl = x.astype(np.clongdouble)
    term = np.ones(n, dtype=np.clongdouble)
    total = np.ones(n, dtype=np.clongdouble)
    peak = np.ones(n)
    streak = np.zeros(n, dtype=int)

    def retire(done, good):
        nonlocal live, xl, term, total, peak, streak
        idx = live[done]
        values[idx] = total[done]
        peaks[idx] = peak[done]
        ok[idx] = good
        keep = ~done
        live, xl, term, total, peak, streak = (
            live[keep], xl[keep], term[keep], total[keep], peak[keep], streak[keep]
        )

    p0, ps, qs = _clongdouble_params(nums, dens)
    one = np.clongdouble(1.0)
    for k in range(_MAX_TERMS):
        ratio = one if p0 is None else p0 + k
        for p in ps:
            ratio = ratio * (p + k)
        for q in qs:
            ratio = ratio / (q + k)
        term = term * ratio * xl / (k + 1)
        zero = term == 0  # terminating (polynomial) case
        if zero.any():
            retire(zero, True)
        total += term
        # abs(complex(.)) of the scalar loop: round each part to double, hypot
        a = np.hypot(term.real.astype(float), term.imag.astype(float))
        peak = np.maximum(peak, a)
        total_d = total.astype(complex)
        size = np.maximum(np.hypot(total_d.real, total_d.imag), 1e-300)
        streak = np.where(a <= _TOL * size, streak + 1, 0)
        done = streak >= 2
        if done.any():
            lost = _EPS_LD * peak[done] * math.sqrt(k + 1.0)
            retire(done, lost <= _TOL * size[done])
        if not live.size:
            if not np.isfinite(values).all():
                bad = np.abs(x[~np.isfinite(values)]).max()
                raise NonConvergence(f"pFq series overflows double at |x| = {bad:.3g}")
            return values, peaks, ok
    raise NonConvergence(
        f"pFq series did not converge in {_MAX_TERMS} terms "
        f"(|x| = {float(np.max(np.abs(x[live]))):.3g})"
    )


def _require_regular(dens) -> None:
    for q in dens:
        if _near_nonpositive_int(q):
            raise PoleError(f"lower parameter {q} is a nonpositive integer")


def _hyp_series(nums, dens, x) -> complex:
    _require_regular(dens)
    value, peak, ok = _series_float(nums, dens, x)
    if ok:
        return value
    return _series_fixed(nums, dens, x, peak)


def _hyp_series_array(nums, dens, x: np.ndarray) -> np.ndarray:
    """`_hyp_series` elementwise; elements whose cancellation check fails are
    re-run one by one in fixed point, each sized by its own peak."""
    _require_regular(dens)
    flat = x.ravel()
    values, peaks, ok = _series_float_array(nums, dens, flat)
    for i in np.flatnonzero(~ok):
        values[i] = _series_fixed(nums, dens, flat[i].item(), float(peaks[i]))
    return values.reshape(x.shape)


def hyp0f1(c: complex, x):
    """Confluent limit function 0F1(; c; x) = sum x^k / ((c)_k k!).

    ``x`` may be a scalar (returns a complex) or an array (returns a complex
    array of the same shape).  An array is summed in one vectorised pass
    whose elements equal the scalar calls exactly; a scalar keeps the
    scalar loop, which is several times cheaper for a single point.
    """
    _require_finite("hyp0f1", params=(c,))
    if np.ndim(x):
        x = np.asarray(x)
        if not np.isfinite(x).all():
            raise DomainError("hyp0f1 needs finite arguments")
        return _hyp_series_array((), (c,), x)
    _require_finite("hyp0f1", args=(x,))
    if x == 0:
        return 1.0 + 0.0j
    return _hyp_series((), (c,), x)


# ---------------------------------------------------------------------------
# Kummer confluent hypergeometric M(a, c, x) = 1F1(a; c; x)
# ---------------------------------------------------------------------------

def kummer_1f1(a: complex, c: complex, x: complex) -> complex:
    """Confluent hypergeometric 1F1(a; c; x) for complex arguments.

    The Kummer transformation M(a,c,x) = e^x M(c-a,c,-x) routes the sum
    to the half-plane Re x >= 0, which removes the dominant cancellation;
    residual cancellation (oscillatory, imaginary x) is absorbed by the
    extended-precision/fixed-point ladder of the series engine.
    """
    a = complex(a)
    c = complex(c)
    x = complex(x)
    _require_finite("kummer_1f1", (a, c), (x,))
    if _near_nonpositive_int(c):
        raise PoleError(f"1F1 lower parameter c = {c} is a nonpositive integer")
    if x == 0:
        return 1.0 + 0.0j
    if x.real < 0.0:
        return cmath.exp(x) * _hyp_series((c - a,), (c,), -x)
    return _hyp_series((a,), (c,), x)


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1(a, b; c; x) on the real line, x < 1 (and x = 1
# when the Gauss sum converges).
# ---------------------------------------------------------------------------

def _power(base: float, e: complex) -> complex:
    """base ** e for real base > 0, refused where it leaves the double range."""
    try:
        return complex(base) ** e
    except (OverflowError, ZeroDivisionError):  # the power's errno: ERANGE, EDOM
        raise DomainError(f"{base} ** {e} exceeds the double range") from None


def _gauss_sum(a: complex, b: complex, c: complex, gc: complex) -> complex:
    """Gauss's sum 2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))
    from gc = Gamma(c): the value at x = 1 and the prefactor of the first
    1-x connection term (DLMF 15.4.20, 15.8.4)."""
    return gc * gamma_complex(c - a - b) * reciprocal_gamma(c - a) * reciprocal_gamma(c - b)


def _reciprocal_term(a: complex, b: complex, c: complex, gc: complex, x: float) -> complex:
    """The first term of the 1/x connection (DLMF 15.8.2) from gc = Gamma(c),

        Gamma(c) Gamma(b-a) / (Gamma(b) Gamma(c-a)) (-x)^(-a) F(a, a-c+1; a-b+1; 1/x);

    the second term is this one with a and b swapped."""
    return (
        gc
        * gamma_complex(b - a)
        * reciprocal_gamma(b)
        * reciprocal_gamma(c - a)
        * _power(-x, -a)
        * _hyp_series((a, a - c + 1.0), (a - b + 1.0,), 1.0 / x)
    )


def gauss_2f1(a, b, c, x: float):
    """Gauss hypergeometric function for real x <= 1.

    Parameters may be complex (conjugate pairs arise in the oscillatory
    radial solutions); the argument must be real.  Real parameters
    return a float, complex parameters the complex value.

    Region map (DLMF 15.8): direct series for |x| <= _DIRECT_RADIUS;
    the 1-x connection (15.8.4) for x near 1; the Pfaff transformation
    (15.8.1) for moderately negative x; the 1/x connection (15.8.2) for
    x < -2.  Connection formulas raise PoleError when their gamma
    prefactors sit on a pole (integer parameter differences), and
    DomainError when a product of their factors leaves the double range.

    Real parameters sum their series in longdouble (see the module's
    precision strategy).  For a conjugate pair b = conj(a) with real c,
    every factor of the second 1/x term is the conjugate of the first's,
    so one series and four gamma values serve both terms.
    """
    a, b, c, x = complex(a), complex(b), complex(c), float(x)
    real_params = a.imag == 0.0 and b.imag == 0.0 and c.imag == 0.0
    _require_finite("gauss_2f1", (a, b, c), (x,))
    if _near_nonpositive_int(c):
        raise PoleError(f"2F1 lower parameter c = {c} is a nonpositive integer")
    if x > 1.0:
        raise DomainError("gauss_2f1 is defined on the real line only for x <= 1")
    if x == 1.0:
        if (c - a - b).real <= 0:
            raise DomainError("2F1 diverges at x = 1 unless Re(c - a - b) > 0")
        val = _gauss_sum(a, b, c, gamma_complex(c))
    elif abs(x) <= _DIRECT_RADIUS:
        val = _hyp_series((a, b), (c,), x)
    elif x > 0.0:
        # 0.5 < x < 1: connection in powers of 1 - x  (DLMF 15.8.4)
        if _near_int(c - a - b):
            raise PoleError(
                "1-x connection formula degenerates: c - a - b is an integer"
            )
        y = 1.0 - x
        gc = gamma_complex(c)
        t1 = _gauss_sum(a, b, c, gc) * _hyp_series((a, b), (a + b - c + 1.0,), y)
        t2 = (
            _power(y, c - a - b)
            * gc
            * gamma_complex(a + b - c)
            * reciprocal_gamma(a)
            * reciprocal_gamma(b)
            * _hyp_series((c - a, c - b), (c - a - b + 1.0,), y)
        )
        val = t1 + t2
    elif x >= -2.0:
        # Pfaff: F(a,b;c;x) = (1-x)^(-a) F(a, c-b; c; x/(x-1))
        u = x / (x - 1.0)
        val = _power(1.0 - x, -a) * _hyp_series((a, c - b), (c,), u)
    else:
        # x < -2: connection in powers of 1/x  (DLMF 15.8.2)
        if _near_int(b - a):
            raise PoleError("1/x connection formula degenerates: b - a is an integer")
        gc = gamma_complex(c)
        t1 = _reciprocal_term(a, b, c, gc, x)
        if b == a.conjugate() and not c.imag:
            # every factor of t2 is the conjugate of t1's: one series, not two
            t2 = t1.conjugate()
        else:
            t2 = _reciprocal_term(b, a, c, gc, x)
        val = t1 + t2
    if not cmath.isfinite(val):  # a product of finite factors beyond double
        raise DomainError(f"2F1({a}, {b}; {c}; {x}): its Gamma factors leave the double range")
    return float(val.real) if real_params else val


# ---------------------------------------------------------------------------
# Bessel J of fractional (real) order at complex argument
# ---------------------------------------------------------------------------

def bessel_j_fractional(nu_order: float, y: complex) -> complex:
    """Bessel function J_nu(y) for real (typically fractional) order.

    Uses the ascending series in its 0F1 form,
        J_nu(y) = (y/2)^nu / Gamma(nu+1) * 0F1(; nu+1; -y^2/4),
    with the principal branch of the complex power.  The equivalent
    1F1 representation is exercised by the test suite as an independent
    route through the same engine.
    """
    nu = float(nu_order)
    y = complex(y)
    _require_finite("bessel_j_fractional", (nu,), (y,))
    if _near_nonpositive_int(nu + 1.0):
        raise PoleError(f"order nu = {nu} has 1/Gamma(nu+1) on a pole; use integer-order routines")
    if y == 0:
        if nu == 0:
            return 1.0 + 0.0j
        if nu > 0:
            return 0.0 + 0.0j
        raise DomainError("J_nu(0) diverges for negative order")
    try:
        power = cmath.exp(nu * cmath.log(y / 2.0))
    except (OverflowError, ValueError):  # (y/2)^nu beyond double
        raise NonConvergence(f"(y/2)^nu overflows double at nu = {nu}, |y| = {abs(y):.3g}") from None
    pref = power * reciprocal_gamma(nu + 1.0)
    x = -y * y / 4.0
    if not cmath.isfinite(x):  # y * y beyond double: no finite 0F1 argument
        raise NonConvergence(f"-y^2/4 overflows double at |y| = {abs(y):.3g}")
    try:
        val = pref * hyp0f1(nu + 1.0, x)
    except NonConvergence as exc:  # its text names the 0F1 argument x, not y
        raise NonConvergence(
            f"J_nu series fails at nu = {nu}, |y| = {abs(y):.3g} (0F1 at x = -y^2/4: {exc})"
        ) from None
    if not cmath.isfinite(val):
        raise NonConvergence(f"J_nu overflows double at nu = {nu}, |y| = {abs(y):.3g}")
    return val
