"""The curved magnetic axial functions as they were written per geometry,
kept verbatim as the bit-level reference for the single-formula versions
in `coxlab.axial` (which read `backgrounds._SECTIONS` instead).  Not a
test module: tests/test_axial.py compares against it."""

from __future__ import annotations

import math

import numpy as np

from coxlab.axial import Equilibrium, ExtremaResult
from coxlab.backgrounds import BackgroundSpec
from coxlab.errors import DomainError, ParameterError, PoleError

_POLE_TOL = 1e-10


def _sech2(z: np.ndarray) -> np.ndarray:
    """sech^2 z from e = exp(-|z|): 4 e^2 / (1 + e^2)^2, finite for every z
    (cosh z overflows beyond |z| ~ 710, cosh^4 z beyond |z| ~ 178)."""
    e2 = np.exp(-2.0 * np.abs(z))
    return 4.0 * e2 / ((1.0 + e2) * (1.0 + e2))


def _u_eff(geometry: str, Lambda: float, b: float, gamma: float, z):
    """Effective potential of the curved magnetic axial problem.

    lobachevsky: U = -(b g - Lambda ch^2 z) / (ch^4 z - g^2)
                   = s (Lambda - b g s) / (1 - g^2 s^2),  s = sech^2 z
    spherical:   U = +(b g + Lambda cos^2 z) / (cos^4 z - g^2)
    """
    z = np.asarray(z, dtype=float)
    if geometry == "lobachevsky":
        s = _sech2(z)
        return s * (Lambda - b * gamma * s) / (1.0 - gamma * gamma * s * s)
    c2 = np.cos(z) ** 2
    return (b * gamma + Lambda * c2) / (c2 * c2 - gamma * gamma)


def _require_curved_magnetic(spec: BackgroundSpec) -> None:
    if spec.field != "magnetic" or spec.geometry == "flat":
        raise ParameterError(
            "effective axial potentials exist for the curved magnetic configurations"
        )


def _axial_grid(spec: BackgroundSpec, z, what: str) -> np.ndarray:
    """z as a 1-D float array; refuses points off the spherical chart and
    points where ch^4 z (cos^4 z) meets gamma^2."""
    _require_curved_magnetic(spec)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    g = spec.gamma
    tol = _POLE_TOL * max(1.0, g * g)
    if spec.geometry == "spherical":
        if np.any(np.abs(z) > math.pi / 2 + 1e-12):
            raise DomainError("spherical axial coordinate requires |z| <= pi/2")
        c2 = np.cos(z) ** 2
        pole = np.abs(c2 * c2 - g * g) < tol
    else:
        # |ch^4 z - g^2| < tol in s = sech^2 z, finite where ch^4 z overflows
        s = _sech2(z)
        pole = np.abs(1.0 - g * g * s * s) < tol * s * s
    if np.any(pole):
        raise PoleError(f"effective {what} pole: ch^4/cos^4 z meets gamma^2 = {g * g}")
    return z


def _require_finite(values: np.ndarray, what: str, spec: BackgroundSpec, Lambda: float) -> None:
    if not np.isfinite(values).all():
        raise DomainError(
            f"effective {what} overflows double (b = {spec.b}, gamma = {spec.gamma}, "
            f"Lambda = {Lambda})"
        )


@np.errstate(over="ignore", invalid="ignore")  # a non-finite U is refused below
def effective_potential(spec: BackgroundSpec, Lambda: float, z):
    """U(z) of the curved magnetic axial problem (see module docstring).

    Raises PoleError where ch^4 z (cos^4 z) meets gamma^2 -- on the
    sphere the point cos^2 z = |gamma| is a genuine interior singular
    point for 0 < |gamma| < 1.  The spherical endpoints are regular for
    gamma != 0 with U(+-pi/2) = -b/gamma.  A value that overflows double
    raises DomainError (so does effective_force).
    """
    scalar = np.isscalar(z)
    z = _axial_grid(spec, z, "potential")
    U = _u_eff(spec.geometry, Lambda, spec.b, spec.gamma, z)
    _require_finite(U, "potential", spec, Lambda)
    return float(U[0]) if scalar else U


@np.errstate(over="ignore", invalid="ignore")  # a non-finite F is refused below
def effective_force(spec: BackgroundSpec, Lambda: float, z):
    """Axial force F_z = -dU/dz in closed form:

        lobachevsky: F = +2 ch z sh z (L ch^4 z - 2 b g ch^2 z + g^2 L)/(ch^4 z - g^2)^2
                       = 2 t s (L - 2 b g s + g^2 L s^2)/(1 - g^2 s^2)^2,
                         t = th z, s = sech^2 z
        spherical:   F = -2 cos z sin z (L cos^4 z + 2 b g cos^2 z + g^2 L)/(cos^4 z - g^2)^2
    """
    scalar = np.isscalar(z)
    z = _axial_grid(spec, z, "force")
    g = spec.gamma
    if spec.geometry == "spherical":
        c, s = np.cos(z), np.sin(z)
        c2 = c * c
        den = c2 * c2 - g * g

        def force(L, b):
            return -2.0 * c * s * (L * c2 * c2 + 2.0 * b * g * c2 + g * g * L) / (den * den)
    else:
        t, s = np.tanh(z), _sech2(z)
        den = 1.0 - g * g * s * s

        def force(L, b):
            return 2.0 * t * s * (L - 2.0 * b * g * s + g * g * L * s * s) / (den * den)

    F = force(Lambda, spec.b)
    if not np.isfinite(F).all():
        # an intermediate such as 2 b g s overflowed.  F is linear in
        # (Lambda, b), so evaluate it at both scaled by 2^-k and scale the
        # result back: power-of-two scalings round nothing
        k = math.frexp(max(abs(spec.b), abs(Lambda)))[1]
        scaled = force(math.ldexp(Lambda, -k), math.ldexp(spec.b, -k))
        F = np.where(np.isfinite(F), F, np.ldexp(scaled, k))
    _require_finite(F, "force", spec, Lambda)
    return float(F[0]) if scalar else F


def _classify(spec: BackgroundSpec, Lambda: float, z: float) -> str:
    h = 1e-4
    um, u0, up = (effective_potential(spec, Lambda, z + d) for d in (-h, 0.0, h))
    return "minimum" if um + up - 2 * u0 > 0 else "maximum"


def effective_force_extrema(spec: BackgroundSpec, Lambda: float) -> ExtremaResult:
    """All interior equilibria of U.

    Stationarity away from z = 0 requires the quadratic

        lobachevsky: ch^2 z = (b/L) g +- sqrt((b^2/L^2 - 1) g^2),
        spherical:  cos^2 z = -(b/L) g +- sqrt((b^2/L^2 - 1) g^2),

    to have roots in the admissible range (ch^2 z >= 1, 0 < cos^2 z < 1).
    For Lambda^2 > b^2 the discriminant is negative and z = 0 is the
    unique equilibrium.  A discriminant beyond double range (b^2
    overflowing, or Lambda^2 underflowing to 0) is taken as +-inf, and
    its root is taken as |base| sqrt((1 - g/base)(1 + g/base)) with
    base = (b/L) g, so nothing squares b.  A base or root that overflows
    double raises DomainError.
    """
    _require_curved_magnetic(spec)
    if Lambda == 0.0:
        raise ParameterError("Lambda = 0 degenerates the stationarity quadratic")
    g, b = spec.gamma, spec.b
    base = (b / Lambda) * g

    def overflow() -> DomainError:
        return DomainError(
            f"stationarity quadratic overflows double (b = {b}, gamma = {g}, Lambda = {Lambda})"
        )

    if not math.isfinite(base):
        raise overflow()
    if g == 0.0:
        disc = 0.0  # both roots are 0, never admissible; b^2/Lambda^2 may overflow
    else:
        L2 = Lambda * Lambda
        disc = (b * b / L2 - 1.0) * g * g if L2 else math.inf
        if not math.isfinite(disc):  # beyond double: keep the sign of base^2 - g^2
            disc = math.copysign(math.inf, abs(base) - abs(g))
    zs: list[float] = [0.0]
    if disc >= 0.0:
        if disc < math.inf:
            rt = math.sqrt(disc)
        else:  # sqrt(base^2 - g^2) without squaring b; |g / base| <= 1 here
            rt = abs(base) * math.sqrt((1.0 - g / base) * (1.0 + g / base))
        if spec.geometry == "lobachevsky":
            for cand in (base + rt, base - rt):
                if cand >= 1.0 + 1e-12:
                    if cand == math.inf:
                        raise overflow()
                    z0 = math.acosh(math.sqrt(cand))
                    zs.extend([z0, -z0])
        else:
            for cand in (-base + rt, -base - rt):
                if 1e-12 < cand < 1.0 - 1e-12:
                    z0 = math.acos(math.sqrt(cand))
                    zs.extend([z0, -z0])
    eq = tuple(
        Equilibrium(z=z, kind=_classify(spec, Lambda, z)) for z in sorted(zs)
    )
    return ExtremaResult(equilibria=eq)


def _pole_locations(spec: BackgroundSpec) -> tuple[float, ...]:
    """z values where the denominator ch^4 z - gamma^2 (cos^4 z - gamma^2)
    vanishes, i.e. where U has an interior pole."""
    g = abs(spec.gamma)
    if spec.geometry == "spherical":
        if 0.0 < g < 1.0:
            zp = math.acos(math.sqrt(g))
            return (-zp, zp)
        if g == 1.0:
            return (0.0,)
        return ()
    if g > 1.0:
        zp = math.acosh(math.sqrt(g))
        return (-zp, zp)
    if g == 1.0:
        return (0.0,)
    return ()
