"""Axial problems: effective potentials, linear-field solutions, integration.

For the curved magnetic configurations the axial equation is one problem
in y = a(z) (ch^2 z on Lobachevsky space, cos^2 z on the sphere); in
normal form it is governed by the effective potential

    U = (kappa b g + Lambda y)/(y^2 - g^2),   g = gamma,

where kappa = +1 (sphere) or -1 (Lobachevsky) is the curvature of the
section.  Its poles and equilibria are one formula in kappa, the
chart's y range and z(y), all read from `backgrounds._SECTIONS`;
U, its force field and the pole test keep one overflow-safe closed form
per section there.

The flat electric equation Z'' + (w' + nu z) Z = 0 is solved exactly by
a pair of Airy-type branches built from 0F1 kernels.  A fixed-step
Fehlberg 4(5) integrator provides the independent numerical route for
any assembled axial equation.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .backgrounds import _SECTIONS, BackgroundSpec, SeparatedODE, _Section
from .errors import (
    DomainError, ParameterError, PoleError, StepFailure, require_finite, require_int,
)
from .special_functions import gamma_complex, hyp0f1

__all__ = [
    "Equilibrium",
    "ExtremaResult",
    "PotentialProfile",
    "AirySolutionPair",
    "AxialSolution",
    "effective_potential",
    "effective_force",
    "effective_force_extrema",
    "potential_profile",
    "airy_pair",
    "integrate_axial",
]

_POLE_TOL = 1e-10


@dataclass(frozen=True)
class Equilibrium:
    z: float
    kind: str  # "minimum" | "maximum"


@dataclass(frozen=True)
class ExtremaResult:
    """Stationary points of U: z = 0 plus the admissible quadratic roots.

    `roots` holds the admissible values of ch^2 z (resp. cos^2 z) from
    the stationarity quadratic; `discriminant` is (b^2/Lambda^2 - 1) g^2
    (+-inf beyond double range), negative exactly when Lambda^2 > b^2 and
    z = 0 is the only equilibrium.  Endpoint stationarity on the sphere
    (z = +-pi/2) is a boundary feature and not listed.
    """

    equilibria: tuple[Equilibrium, ...]
    discriminant: float
    roots: tuple[float, ...]


@dataclass(frozen=True)
class PotentialProfile:
    z_grid: np.ndarray
    U: np.ndarray
    Fz: np.ndarray
    extrema: ExtremaResult


@dataclass(eq=False)
class AirySolutionPair:
    """Exact branches of Z'' + (w' + nu z) Z = 0 in the Airy variable
    x = -nu^(1/3) z - w'/nu^(2/3) (so the equation reads Z_xx = x Z).

    z1, z2, dz1, dz2 are callables of x; the turning point is the z with
    x = 0.  z1 and z2 also accept a 1-D array of x (one array series pass
    per call) and return a complex array whose elements equal the scalar
    calls; dz1 and dz2 take floats only.  The Wronskian z1 z2' - z1' z2 is
    the constant -(2/3)^(2/3) 3 sqrt(3) / (2 pi) (times the unit phase of
    the pair).
    """

    z1: Callable
    z2: Callable
    dz1: Callable
    dz2: Callable
    x_of_z: Callable
    turning_point: float
    wronskian: complex


@dataclass(eq=False)
class AxialSolution:
    z: np.ndarray
    Z: np.ndarray
    dZ: np.ndarray
    residual_estimate: float


# ---------------------------------------------------------------------------
# effective potential, force, equilibria (curved magnetic)
# ---------------------------------------------------------------------------

def _require_curved_magnetic(spec: BackgroundSpec) -> _Section:
    """The section of a curved magnetic `spec`; anything else is refused."""
    if spec.field != "magnetic" or spec.geometry == "flat":
        raise ParameterError(
            "effective axial potentials exist for the curved magnetic configurations"
        )
    return _SECTIONS[spec.geometry]


def _axial_grid(spec: BackgroundSpec, z, what: str) -> tuple[_Section, np.ndarray]:
    """The section and z as a 1-D float array; refuses points off the
    chart and points where ch^4 z (cos^4 z) meets gamma^2."""
    sec = _require_curved_magnetic(spec)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    g = spec.gamma
    if not np.all(np.abs(z) <= sec.z_end + 1e-12):  # NaN too
        raise DomainError(f"{spec.geometry} axial coordinate requires |z| <= {sec.z_end_name}")
    if np.any(sec.pole(g, z, _POLE_TOL * max(1.0, g * g))):
        raise PoleError(f"effective {what} pole: ch^4/cos^4 z meets gamma^2 = {g * g}")
    return sec, z


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
    sec, z = _axial_grid(spec, z, "potential")
    U = sec.u(Lambda, spec.b, spec.gamma, z)
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
    sec, z = _axial_grid(spec, z, "force")
    force = sec.force(spec.gamma, z)
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

    Stationarity away from z = 0 requires the quadratic in y = a(z)

        y = -kappa (b/L) g +- sqrt((b^2/L^2 - 1) g^2)

    (kappa = -1 Lobachevsky, y = ch^2 z; +1 sphere, y = cos^2 z) to have
    roots at least 1e-12 inside the chart's y range (ch^2 z >= 1,
    0 <= cos^2 z <= 1).  For Lambda^2 > b^2 the discriminant is negative
    and z = 0 is the unique equilibrium.  A discriminant beyond double range (b^2
    overflowing, or Lambda^2 underflowing to 0) is reported as +-inf, and
    its root is taken as |base| sqrt((1 - g/base)(1 + g/base)) with
    base = (b/L) g, so nothing squares b.  A base or root that overflows
    double raises DomainError; an infinite root beyond the sphere's
    range is simply not admissible.
    """
    sec = _require_curved_magnetic(spec)
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
    roots: list[float] = []
    zs: list[float] = [0.0]
    if disc >= 0.0:
        if disc < math.inf:
            rt = math.sqrt(disc)
        else:  # sqrt(base^2 - g^2) without squaring b; |g / base| <= 1 here
            rt = abs(base) * math.sqrt((1.0 - g / base) * (1.0 + g / base))
        lo, hi = sec.y_range
        mid = -sec.curvature * base
        for cand in (mid + rt, mid - rt):
            if lo + 1e-12 <= cand <= hi - 1e-12:
                if cand == math.inf:
                    raise overflow()
                roots.append(cand)
                z0 = sec.z_of_y(cand)
                zs.extend([z0, -z0])
    eq = tuple(
        Equilibrium(z=z, kind=_classify(spec, Lambda, z)) for z in sorted(zs)
    )
    return ExtremaResult(equilibria=eq, discriminant=disc, roots=tuple(roots))


def _pole_locations(sec: _Section, gamma: float) -> tuple[float, ...]:
    """z values where the denominator y^2 - gamma^2 vanishes inside the
    chart, i.e. where U has an interior pole: y = |gamma| strictly inside
    the y range, or y = a(0) = 1, its closed end (a pole at z = 0)."""
    y = abs(gamma)
    if y == 1.0:
        return (0.0,)
    lo, hi = sec.y_range
    if not lo < y < hi:
        return ()
    zp = sec.z_of_y(y)
    return (-zp, zp)


def potential_profile(
    spec: BackgroundSpec, Lambda: float, z_min: float, z_max: float, samples: int
) -> PotentialProfile:
    """Tabulated U and F_z on a uniform grid, plus the closed-form equilibria.

    A range that straddles a pole of U, even one that no grid node lands
    on, is a bad request and raises DomainError: such a table would
    silently mix branches.  (U and F_z evaluated at a pole raise PoleError.)
    """
    require_int("samples", samples)
    if samples < 2:
        raise ParameterError("need at least 2 samples")
    require_finite(z_min=z_min, z_max=z_max)
    if not z_min < z_max:
        raise ParameterError("need z_min < z_max")
    sec = _require_curved_magnetic(spec)
    for zp in _pole_locations(sec, spec.gamma):
        if z_min <= zp <= z_max:
            raise DomainError(
                f"range [{z_min:g}, {z_max:g}] crosses the potential pole at z = {zp:.6g}"
            )
    zg = np.linspace(z_min, z_max, samples)
    return PotentialProfile(
        z_grid=zg,
        U=effective_potential(spec, Lambda, zg),
        Fz=effective_force(spec, Lambda, zg),
        extrema=effective_force_extrema(spec, Lambda),
    )


# ---------------------------------------------------------------------------
# Airy-type pair for the flat electric axial equation
# ---------------------------------------------------------------------------

def airy_pair(w_prime: float, nu: float) -> AirySolutionPair:
    """Exact solution pair of Z'' + (w' + nu z) Z = 0 for nu > 0.

        Z1 = e^(i pi/6) 2^(-1/3) (2/3)^(2/3)/Gamma(4/3) * x 0F1(; 4/3; x^3/9)
        Z2 = 2^(1/3) e^(-i pi/6)/Gamma(2/3)            *   0F1(; 2/3; x^3/9)

    in x = -nu^(1/3) z - w'/nu^(2/3), where both branches solve
    Z_xx = x Z.  Derivatives follow from d/du 0F1(;c;u) = 0F1(;c+1;u)/c.
    w' and nu must be finite.
    """
    if not nu > 0:
        raise ParameterError("the linear-field solutions need nu > 0")
    require_finite(w_prime=w_prime, nu=nu)
    c1 = (
        complex(math.cos(math.pi / 6), math.sin(math.pi / 6))
        * 2.0 ** (-1.0 / 3.0)
        * (2.0 / 3.0) ** (2.0 / 3.0)
        / gamma_complex(4.0 / 3.0).real
    )
    c2 = (
        2.0 ** (1.0 / 3.0)
        * complex(math.cos(math.pi / 6), -math.sin(math.pi / 6))
        / gamma_complex(2.0 / 3.0).real
    )

    def cube9(x: float) -> float:
        try:
            return x**3 / 9.0
        except OverflowError:
            raise DomainError(f"x^3/9 overflows at x = {x:g}") from None

    def series(c: float, x):
        # 0F1(; c; x^3/9) for a float x, or elementwise over a 1-D array of x
        # in one array pass.  Each element equals the scalar call: the cube
        # is formed per element with Python float ** (numpy's xs**3 rounds
        # differently), and 0F1 of a real argument has an exactly zero
        # imaginary part, so the numpy products in z1 and z2 round like
        # Python's.
        if np.ndim(x) == 0:
            return hyp0f1(c, cube9(x))
        return hyp0f1(c, np.array([cube9(t) for t in x.tolist()]))

    def z1(x):
        return c1 * x * series(4.0 / 3.0, x)

    def z2(x):
        return c2 * series(2.0 / 3.0, x)

    def dz1(x: float) -> complex:
        u = cube9(x)  # x**3 below cannot overflow once this has not
        return c1 * (hyp0f1(4.0 / 3.0, u) + (x**3 / 4.0) * hyp0f1(7.0 / 3.0, u))

    def dz2(x: float) -> complex:
        u = cube9(x)
        return c2 * (x * x / 2.0) * hyp0f1(5.0 / 3.0, u)

    nu13 = nu ** (1.0 / 3.0)
    z_turn = -w_prime / nu

    def x_of_z(z):
        # anchored at the turning point so that x(z_turn) is exactly zero
        return -nu13 * (np.asarray(z, dtype=float) - z_turn)

    return AirySolutionPair(
        z1=z1,
        z2=z2,
        dz1=dz1,
        dz2=dz2,
        x_of_z=x_of_z,
        turning_point=z_turn,
        wronskian=-c1 * c2,
    )


# ---------------------------------------------------------------------------
# fixed-step Fehlberg 4(5) integration of an assembled axial equation
# ---------------------------------------------------------------------------

_RKF_A = (
    (),
    (1.0 / 4.0,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_C = (0.0, 0.25, 0.375, 12.0 / 13.0, 1.0, 0.5)
_RKF_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)
_RKF_BERR = (
    1.0 / 360.0,
    0.0,
    -128.0 / 4275.0,
    -2197.0 / 75240.0,
    1.0 / 50.0,
    2.0 / 55.0,
)


def _scalar_rows(a: np.ndarray):
    """Rows of `a` as lists of Python scalars, converted 1024 rows at a
    time so long grids never hold every coefficient as a Python object."""
    for j in range(0, len(a), 1024):
        yield from a[j : j + 1024].tolist()


def _rkf_pass(u, v, h, P, Q):
    """Fehlberg 4(5) steps of Z'' + p Z' + q Z = 0 from real (Z, Z') = (u, v)
    over the real coefficient rows P, Q (one value per stage node).

    Returns four float arrays ("d") with one entry per step: Z and Z'
    after the step and the embedded differences of the Z' and Z'' stage
    sums (the local error estimate is h times their larger modulus).
    """
    (_, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43),
     (a50, a51, a52, a53, a54)) = _RKF_A
    b0, _, b2, b3, b4, _ = _RKF_B4
    e0, _, e2, e3, e4, e5 = _RKF_BERR
    out = Z, dZ, eZ, edZ = array("d"), array("d"), array("d"), array("d")
    Z_add, dZ_add, eZ_add, edZ_add = Z.append, dZ.append, eZ.append, edZ.append
    # stage j evaluates f = (v, -(p v + q u)) at (u_j, v_j); k_j = (v_j, g_j)
    for (p0, p1, p2, p3, p4, p5), (q0, q1, q2, q3, q4, q5) in zip(P, Q):
        v1 = v
        g1 = -(p0 * v + q0 * u)
        v2 = v + h * (a10 * g1)
        g2 = -(p1 * v2 + q1 * (u + h * (a10 * v1)))
        v3 = v + h * (a20 * g1 + a21 * g2)
        g3 = -(p2 * v3 + q2 * (u + h * (a20 * v1 + a21 * v2)))
        v4 = v + h * (a30 * g1 + a31 * g2 + a32 * g3)
        g4 = -(p3 * v4 + q3 * (u + h * (a30 * v1 + a31 * v2 + a32 * v3)))
        v5 = v + h * (a40 * g1 + a41 * g2 + a42 * g3 + a43 * g4)
        g5 = -(p4 * v5 + q4 * (u + h * (a40 * v1 + a41 * v2 + a42 * v3 + a43 * v4)))
        v6 = v + h * (a50 * g1 + a51 * g2 + a52 * g3 + a53 * g4 + a54 * g5)
        g6 = -(p5 * v6 + q5 * (u + h * (a50 * v1 + a51 * v2 + a52 * v3 + a53 * v4 + a54 * v5)))
        u = u + h * (b0 * v1 + b2 * v3 + b3 * v4 + b4 * v5)
        v = v + h * (b0 * g1 + b2 * g3 + b3 * g4 + b4 * g5)
        Z_add(u)
        dZ_add(v)
        eZ_add(e0 * v1 + e2 * v3 + e3 * v4 + e4 * v5 + e5 * v6)
        edZ_add(e0 * g1 + e2 * g3 + e3 * g4 + e4 * g5 + e5 * g6)
    return out


def integrate_axial(
    ode: SeparatedODE,
    ic_left: tuple[complex, complex],
    z_range: tuple[float, float],
    steps: int,
    tol: float = 1e-9,
) -> AxialSolution:
    """Integrate Z'' + p Z' + q Z = 0 across z_range on a fixed grid.

    Fehlberg's 4(5) pair advances the fourth-order solution; the
    embedded fifth-order difference monitors the local error.  A step
    fails where its estimate exceeds `tol` relative to the local solution
    scale max(1, |Z|, |Z'|), or where Z, Z', either embedded stage-sum
    difference, the estimate or the scale is not finite.  The summed
    estimates are reported as residual_estimate.  Complex initial data
    is supported.

    If the first failing step fails on tolerance alone (finite estimate
    and scale), the range is integrated once more on the doubled grid,
    2 * steps steps at the same `tol`: the answer is then the requested
    grid with Z and Z' at the doubled grid's even nodes, and the doubled
    grid's summed estimates.  A non-finite failure, or a failure on the
    doubled grid too, raises StepFailure naming the first failing step
    of the requested grid.

    The equation is linear with coefficients fixed at assembly, so p and
    q are evaluated once per grid, as arrays over all 6 * steps stage nodes, and
    only the step recurrence runs sequentially, on Python scalars.  p and
    q must be real (every assembled equation's are), so the real and
    imaginary parts of (Z, Z') follow the same real recurrence: real data
    take one pass on floats, complex data one per part.  Error estimates,
    scales, the failure test and the left-to-right sum run on arrays
    after the loop.  Finite results and tolerance failures equal those of
    the recurrence in complex arithmetic bit for bit.  Complex
    coefficients, non-finite input, a non-integer `steps` or tol <= 0
    raise ParameterError and a range leaving ``ode.domain`` raises
    DomainError.
    """
    if ode.kind != "axial":
        raise ParameterError("integrate_axial expects an axial equation")
    require_int("steps", steps)
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    if not tol > 0:
        raise ParameterError("tol must be positive")
    z0, z1 = float(z_range[0]), float(z_range[1])
    u, v = complex(ic_left[0]), complex(ic_left[1])
    if not all(map(cmath.isfinite, (z0, z1, u, v))):
        raise ParameterError("z_range and ic_left must be finite")
    if not z0 < z1:
        raise ParameterError("need z_range[0] < z_range[1]")
    lo, hi = ode.domain
    if z0 < lo or z1 > hi:
        raise DomainError(
            f"z_range [{z0:g}, {z1:g}] leaves the {ode.geometry} axial domain "
            f"[{lo:g}, {hi:g}]"
        )

    zs, Z, dZ, err, failure = _fehlberg_grid(ode, u, v, z0, z1, steps, tol)
    if failure is not None:
        message, tolerance_only = failure
        if tolerance_only:
            _, Z, dZ, err, failure = _fehlberg_grid(ode, u, v, z0, z1, 2 * steps, tol)
        if failure is not None:
            raise StepFailure(message)
        Z, dZ = Z[::2], dZ[::2]
    return AxialSolution(
        z=zs, Z=Z, dZ=dZ, residual_estimate=float(np.cumsum(err)[-1]),
    )


def _fehlberg_grid(ode: SeparatedODE, u: complex, v: complex, z0: float, z1: float,
                   steps: int, tol: float):
    """Fehlberg 4(5) from (Z, Z') = (u, v) over `steps` equal steps of
    [z0, z1]: the grid, Z and Z' at its nodes, the per-step local error
    estimates and the first failing step as None or (StepFailure text,
    whether it failed on tolerance alone)."""
    h = (z1 - z0) / steps
    zs = z0 + h * np.arange(steps + 1)
    nodes = zs[:-1, None] + h * np.array(_RKF_C)
    p = np.broadcast_to(ode.pcoef(nodes), nodes.shape)
    q = np.broadcast_to(ode.qcoef(nodes, 0.0), nodes.shape)
    del nodes
    if np.iscomplexobj(p) or np.iscomplexobj(q):
        raise ParameterError("integrate_axial needs real coefficients p and q")

    def sweep(u0, v0):
        return [np.asarray(r) for r in _rkf_pass(u0, v0, h, _scalar_rows(p), _scalar_rows(q))]

    # (real part, imaginary part) of Z, Z' and the two stage-sum differences
    parts = list(zip(
        sweep(u.real, v.real),
        sweep(u.imag, v.imag) if u.imag or v.imag else [0.0] * 4,
    ))
    del p, q
    (Zr, Zi), (dZr, dZi), eZ, edZ = parts

    # the loop's per-step bookkeeping in its rounding: |.| as np.hypot of
    # the parts (abs() of a Python complex), err = h max(|eZ|, |edZ|) and
    # scale = max(1, |Z|, |Z'|).  np.maximum carries a NaN through, and
    # hypot an inf, so a non-finite part leaves err or scale non-finite
    with np.errstate(over="ignore"):  # an overflow is a non-finite failure
        err = h * np.maximum(np.hypot(*eZ), np.hypot(*edZ))
        scale = np.maximum(1.0, np.maximum(np.hypot(Zr, Zi), np.hypot(dZr, dZi)))
        bound = tol * scale
        failed = ~(err <= bound) | ~np.isfinite(err) | ~np.isfinite(scale)
    failure = None
    if failed.any():
        i = int(failed.argmax())
        failure = (
            f"local error {err[i]:.3e} at z = {zs[i]:.6g} exceeds tol*scale = "
            f"{bound[i]:.3e}; increase steps",
            math.isfinite(err[i]) and math.isfinite(scale[i]),
        )
    Z = np.empty(steps + 1, complex)
    dZ = np.empty(steps + 1, complex)
    Z[0], dZ[0] = u, v
    Z.real[1:], Z.imag[1:], dZ.real[1:], dZ.imag[1:] = Zr, Zi, dZr, dZi
    return zs, Z, dZ, err, failure
