"""Hypergeometric and gamma kernels used by the wave-equation modules.

Everything here is computed from Taylor series of the hypergeometric
families pFq plus the classical connection/transformation formulas
(DLMF chapters 13 and 15) and a Lanczos approximation for Gamma.

Precision strategy
------------------
Series are accumulated in extended precision (``numpy.clongdouble``)
while tracking the largest term.  The ratio peak/|sum| measures the
digits lost to cancellation; when the running estimate exceeds the
requested tolerance the same series loop is re-run in binary fixed
point on Python integers, with the number of bits sized from that
estimate.  The library needs no multiple-precision package, so the test
suite's cross-checks against mpmath's special functions stay independent.

Every public function refuses a non-finite parameter with ParameterError
and a non-finite argument with DomainError before any series runs.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, ParameterError, PoleError

__all__ = [
    "SeriesControl",
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


@dataclass(frozen=True)
class SeriesControl:
    """Knobs for the series engines.

    max_terms  hard cap on summed terms before NonConvergence
    tol        relative truncation/roundoff budget (>= 10*eps)
    """

    max_terms: int = 700
    tol: float = 1e-14

    def __post_init__(self) -> None:
        if self.tol < 10 * np.finfo(float).eps:
            raise ValueError("tol below 10*machine epsilon is not honest")
        if self.max_terms < 10:
            raise ValueError("max_terms too small to be useful")


_DEFAULT_CTL = SeriesControl()


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
_LANCZOS_C = (
    0.99999999999999709182,
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
)


def gamma_complex(z: complex) -> complex:
    """Gamma function for complex argument.

    Lanczos sum for Re z >= 1/2, reflection formula otherwise.
    Raises PoleError at (numerically) nonpositive integers and
    DomainError for a non-finite z.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"gamma_complex needs a finite argument, got {z}")
    if _near_nonpositive_int(z):
        raise PoleError(f"gamma pole at z = {z}")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * gamma_complex(1.0 - z))
    w = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * acc


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma(z), returning exactly 0 at the poles (entire function)."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"reciprocal_gamma needs a finite argument, got {z}")
    if _near_nonpositive_int(z):
        return 0.0 + 0.0j
    return 1.0 / gamma_complex(z)


# ---------------------------------------------------------------------------
# Generic pFq Taylor loop, extended precision first, integer fixed point when
# cancellation eats the budget.
# ---------------------------------------------------------------------------

def _clongdouble_params(nums, dens):
    """The parameters in clongdouble, converted once per series: the first
    upper one (None for 0Fq), the other upper ones and the lower ones.

    p + k has no negative-zero part, so a term ratio started from p0 + k
    holds the same bits as one started from one * (p0 + k).
    """
    ps = [np.clongdouble(p) for p in nums]
    return (ps[0] if ps else None), ps[1:], [np.clongdouble(q) for q in dens]


def _series_float(nums, dens, x, ctl: SeriesControl):
    """Sum pFq in clongdouble.  Returns (value, peak, ok)."""
    p0, ps, qs = _clongdouble_params(nums, dens)
    one = np.clongdouble(1.0)
    xl = np.clongdouble(x)
    term = total = one
    tol = ctl.tol
    peak = 1.0
    small_streak = 0
    for k in range(ctl.max_terms):
        ratio = one if p0 is None else p0 + k
        for p in ps:
            ratio = ratio * (p + k)
        for q in qs:
            ratio = ratio / (q + k)
        term = term * ratio * xl / (k + 1)
        if term == 0:  # terminating (polynomial) case
            total_c = complex(total)
            return total_c, peak, True
        total += term
        a = abs(complex(term))
        if a > peak:  # as max(peak, a): a NaN a keeps peak
            peak = a
        size = abs(complex(total))
        if a <= tol * (1e-300 if size < 1e-300 else size):
            small_streak += 1
            if small_streak >= 2:
                total_c = complex(total)
                if not cmath.isfinite(total_c):
                    raise NonConvergence(f"pFq series overflows double at |x| = {abs(x):.3g}")
                lost = _EPS_LD * peak * math.sqrt(k + 1.0)
                ok = lost <= tol * max(abs(total_c), 1e-300)
                return total_c, peak, ok
        else:
            small_streak = 0
    raise NonConvergence(
        f"pFq series did not converge in {ctl.max_terms} terms (|x| = {abs(x):.3g})"
    )


def _series_fixed(nums, dens, x, ctl: SeriesControl, peak: float) -> complex:
    """Same Taylor loop in binary fixed point, sized to beat the cancellation.

    A complex value is a pair of Python ints scaled by 2**bits.  Each step's
    products are exact and the division by prod(q + k) * (k + 1) is one
    floor division per part, so a term takes less than one unit of 2**-bits
    of fresh rounding per step.
    """
    dps = min(140, int(math.log10(max(peak, 1.0)) + 16.0) + 25)
    bits = math.ceil(dps * _LOG2_10) + _GUARD_BITS

    def fix(v: float) -> int:  # exact down to 2**-bits
        n, d = v.as_integer_ratio()
        return (n << bits) // d

    (xr, xi), *pq = [(fix(z.real), fix(z.imag)) for z in map(complex, (x, *nums, *dens))]
    ps, qs = pq[:len(nums)], pq[len(nums):]
    # n * conj(d) / |d|^2 carries 2**(bits * (2 + p - q)); rescale it to 2**bits
    shift = bits * (1 + len(nums) - len(dens))
    # stop rule |term| <= 10**(5 - dps) * |total|, exact in squares (the float
    # loop's 1e-300 floor on |total| lies below 2**-bits)
    stop = 10 ** (2 * dps - 10)

    def value(re: int, im: int) -> complex:
        try:  # int / int rounds correctly: to nearest, ties to even
            return complex(re / (1 << bits), im / (1 << bits))
        except OverflowError:
            raise NonConvergence(f"pFq series overflows double at |x| = {abs(x):.3g}") from None

    tr, ti = sr, si = 1 << bits, 0
    for k in range(ctl.max_terms):
        nr, ni = tr * xr - ti * xi, tr * xi + ti * xr
        for pr, pi in ps:
            pr += k << bits
            if not (pr or pi):  # terminating (polynomial) case
                return value(sr, si)
            nr, ni = nr * pr - ni * pi, nr * pi + ni * pr
        dr, di = k + 1, 0
        for qr, qi in qs:
            qr += k << bits
            dr, di = dr * qr - di * qi, dr * qi + di * qr
        m = (dr * dr + di * di) << shift
        tr, ti = (nr * dr + ni * di) // m, (ni * dr - nr * di) // m
        if -1 <= tr <= 0 and -1 <= ti <= 0:
            # underflow: the term fell below 2**-bits, far past the peak, where
            # the ratios of these series only shrink; the tail left is smaller
            # than the rounding already made
            return value(sr, si)
        sr += tr
        si += ti
        if (tr * tr + ti * ti) * stop <= sr * sr + si * si:
            return value(sr, si)
    raise NonConvergence(
        f"pFq series (mp) did not converge in {ctl.max_terms} terms"
    )


@np.errstate(over="ignore")  # casts to double overflow silently, as complex() does
def _series_float_array(nums, dens, x: np.ndarray, ctl: SeriesControl):
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
    for k in range(ctl.max_terms):
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
        streak = np.where(a <= ctl.tol * size, streak + 1, 0)
        done = streak >= 2
        if done.any():
            lost = _EPS_LD * peak[done] * math.sqrt(k + 1.0)
            retire(done, lost <= ctl.tol * size[done])
        if not live.size:
            if not np.isfinite(values).all():
                bad = np.abs(x[~np.isfinite(values)]).max()
                raise NonConvergence(f"pFq series overflows double at |x| = {bad:.3g}")
            return values, peaks, ok
    raise NonConvergence(
        f"pFq series did not converge in {ctl.max_terms} terms "
        f"(|x| = {float(np.max(np.abs(x[live]))):.3g})"
    )


def _require_regular(dens) -> None:
    for q in dens:
        if _near_nonpositive_int(q):
            raise PoleError(f"lower parameter {q} is a nonpositive integer")


def _hyp_series(nums, dens, x, ctl: SeriesControl) -> complex:
    _require_regular(dens)
    value, peak, ok = _series_float(nums, dens, x, ctl)
    if ok:
        return value
    return _series_fixed(nums, dens, x, ctl, peak)


def _hyp_series_array(nums, dens, x: np.ndarray, ctl: SeriesControl) -> np.ndarray:
    """`_hyp_series` elementwise; elements whose cancellation check fails are
    re-run one by one in fixed point, each sized by its own peak."""
    _require_regular(dens)
    flat = x.ravel()
    values, peaks, ok = _series_float_array(nums, dens, flat, ctl)
    for i in np.flatnonzero(~ok):
        values[i] = _series_fixed(nums, dens, flat[i].item(), ctl, float(peaks[i]))
    return values.reshape(x.shape)


def hyp0f1(c: complex, x, ctl: SeriesControl | None = None):
    """Confluent limit function 0F1(; c; x) = sum x^k / ((c)_k k!).

    ``x`` may be a scalar (returns a complex) or an array (returns a complex
    array of the same shape).  An array is summed in one vectorised pass
    whose elements equal the scalar calls exactly; a scalar keeps the
    scalar loop, which is several times cheaper for a single point.
    """
    ctl = ctl or _DEFAULT_CTL
    _require_finite("hyp0f1", params=(c,))
    if np.ndim(x):
        x = np.asarray(x)
        if not np.isfinite(x).all():
            raise DomainError("hyp0f1 needs finite arguments")
        return _hyp_series_array((), (c,), x, ctl)
    _require_finite("hyp0f1", args=(x,))
    if x == 0:
        return 1.0 + 0.0j
    return _hyp_series((), (c,), x, ctl)


# ---------------------------------------------------------------------------
# Kummer confluent hypergeometric M(a, c, x) = 1F1(a; c; x)
# ---------------------------------------------------------------------------

def kummer_1f1(a: complex, c: complex, x: complex, ctl: SeriesControl | None = None) -> complex:
    """Confluent hypergeometric 1F1(a; c; x) for complex arguments.

    The Kummer transformation M(a,c,x) = e^x M(c-a,c,-x) routes the sum
    to the half-plane Re x >= 0, which removes the dominant cancellation;
    residual cancellation (oscillatory, imaginary x) is absorbed by the
    extended-precision/fixed-point ladder of the series engine.
    """
    ctl = ctl or _DEFAULT_CTL
    a = complex(a)
    c = complex(c)
    x = complex(x)
    _require_finite("kummer_1f1", (a, c), (x,))
    if _near_nonpositive_int(c):
        raise PoleError(f"1F1 lower parameter c = {c} is a nonpositive integer")
    if x == 0:
        return 1.0 + 0.0j
    if x.real < 0.0:
        return cmath.exp(x) * _hyp_series((c - a,), (c,), -x, ctl)
    return _hyp_series((a,), (c,), x, ctl)


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1(a, b; c; x) on the real line, x < 1 (and x = 1
# when the Gauss sum converges).
# ---------------------------------------------------------------------------

def _gauss_series(a, b, c, x, ctl) -> complex:
    return _hyp_series((a, b), (c,), x, ctl)


def gauss_2f1(a, b, c, x: float, ctl: SeriesControl | None = None):
    """Gauss hypergeometric function for real x <= 1.

    Parameters may be complex (conjugate pairs arise in the oscillatory
    radial solutions); the argument must be real.  Real parameters
    return a float, complex parameters the complex value.

    Region map (DLMF 15.8): direct series for |x| <= _DIRECT_RADIUS;
    the 1-x connection (15.8.4) for x near 1; the Pfaff transformation
    (15.8.1) for moderately negative x; the 1/x connection (15.8.2) for
    x < -2.  Connection formulas raise PoleError when their gamma
    prefactors sit on a pole (integer parameter differences).
    """
    ctl = ctl or _DEFAULT_CTL
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
        val = (
            gamma_complex(c)
            * gamma_complex(c - a - b)
            * reciprocal_gamma(c - a)
            * reciprocal_gamma(c - b)
        )
    elif abs(x) <= _DIRECT_RADIUS:
        val = _gauss_series(a, b, c, x, ctl)
    elif x > 0.0:
        # 0.5 < x < 1: connection in powers of 1 - x  (DLMF 15.8.4)
        if _near_int(c - a - b):
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
            * _gauss_series(a, b, a + b - c + 1.0, y, ctl)
        )
        t2 = (
            complex(y) ** (c - a - b)
            * gc
            * gamma_complex(a + b - c)
            * reciprocal_gamma(a)
            * reciprocal_gamma(b)
            * _gauss_series(c - a, c - b, c - a - b + 1.0, y, ctl)
        )
        val = t1 + t2
    elif x >= -2.0:
        # Pfaff: F(a,b;c;x) = (1-x)^(-a) F(a, c-b; c; x/(x-1))
        u = x / (x - 1.0)
        val = complex(1.0 - x) ** (-a) * _gauss_series(a, c - b, c, u, ctl)
    else:
        # x < -2: connection in powers of 1/x  (DLMF 15.8.2)
        if _near_int(b - a):
            raise PoleError("1/x connection formula degenerates: b - a is an integer")
        u = 1.0 / x
        gc = gamma_complex(c)
        t1 = (
            gc
            * gamma_complex(b - a)
            * reciprocal_gamma(b)
            * reciprocal_gamma(c - a)
            * complex(-x) ** (-a)
            * _gauss_series(a, a - c + 1.0, a - b + 1.0, u, ctl)
        )
        t2 = (
            gc
            * gamma_complex(a - b)
            * reciprocal_gamma(a)
            * reciprocal_gamma(c - b)
            * complex(-x) ** (-b)
            * _gauss_series(b, b - c + 1.0, b - a + 1.0, u, ctl)
        )
        val = t1 + t2
    return float(val.real) if real_params else val


# ---------------------------------------------------------------------------
# Bessel J of fractional (real) order at complex argument
# ---------------------------------------------------------------------------

def bessel_j_fractional(nu_order: float, y: complex, ctl: SeriesControl | None = None) -> complex:
    """Bessel function J_nu(y) for real (typically fractional) order.

    Uses the ascending series in its 0F1 form,
        J_nu(y) = (y/2)^nu / Gamma(nu+1) * 0F1(; nu+1; -y^2/4),
    with the principal branch of the complex power.  The equivalent
    1F1 representation is exercised by the test suite as an independent
    route through the same engine.
    """
    ctl = ctl or _DEFAULT_CTL
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
    pref = cmath.exp(nu * cmath.log(y / 2.0)) * reciprocal_gamma(nu + 1.0)
    return pref * hyp0f1(nu + 1.0, -y * y / 4.0, ctl)
